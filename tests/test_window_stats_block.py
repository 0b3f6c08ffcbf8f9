"""Block-level window stats and partition commits.

``window_stats`` sorts on the bucket × slab key and computes each sorted
block with as few ``BucketWindowStats`` calls as its character budget
allows; ``write_partitioned`` stages every partition of each block from
inside its task and commits them from the driver. These tests pin both
to the per-group results and to the stage/commit protocol.
"""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import fasta_windows_ray.sinks as sinks
import fasta_windows_ray.stages.window_stats as W
from fasta_windows_ray import kernels as K
from fasta_windows_ray.sinks import (read_partitioned, write_partition_block,
                                     write_partitioned)
from fasta_windows_ray.state.engine import (StreamEngine, WindowConfig,
                                            emitted_to_frame)
from fasta_windows_ray.windows import sliding_starts_expand

S = 1_000_000
EPOCH = 1_700_000_000 * S
KEY = ["conv_id", "window_start"]
_ASCII = ["alpha", "Beta", "gamma!", "x", " ", '"k', "kk"]
_MULTI = _ASCII + ["δelta", "東京", "😀", "naïve", "ß"]


def _turns(seed: int = 5, n: int = 500, n_convs: int = 12,
           span_us: int = 600 * S) -> pa.Table:
    """ASCII and multibyte conversations over ``span_us`` (ten minutes),
    with null text, roles and tools mixed in."""
    rng = np.random.default_rng(seed)
    conv = rng.integers(0, n_convs, n)
    texts = []
    for c in conv:
        pool = _MULTI if c % 3 == 0 else _ASCII
        texts.append(None if rng.random() < 0.03 else
                     "".join(rng.choice(pool, rng.integers(0, 7))))
    return pa.table({
        "conv_id": pa.array([f"c{c}" for c in conv]),
        "turn_uid": pa.array(rng.permutation(n), pa.int64()),
        "role": pa.array(rng.choice(
            ["user", "assistant", "system", "tool", "zzz", None], n)),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array(rng.choice(["", "grep", None], n)),
        "ts": pa.array(EPOCH + rng.integers(0, span_us, n))
        .cast(pa.timestamp("us")),
    })


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(KEY, kind="stable").reset_index(drop=True)


def _assert_bits_equal(a: pd.DataFrame, b: pd.DataFrame) -> None:
    """Same rows and columns; floats equal bit for bit (NaN to NaN)."""
    a, b = _canon(a), _canon(b)
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b) > 0
    for c in a.columns:
        x, y = a[c].to_numpy(), b[c].to_numpy()
        if x.dtype == np.float64:
            nx, ny = np.isnan(x), np.isnan(y)
            assert (nx == ny).all(), c
            x, y = np.where(nx, 0.0, x), np.where(ny, 0.0, y)
            assert (x.view(np.int64) == y.view(np.int64)).all(), c
        elif x.dtype == object and len(x) and isinstance(x[0], np.ndarray):
            assert all((p == q).all() for p, q in zip(x, y)), c
        else:
            assert (x == y).all(), c


class _Capture:
    def map_batches(self, fn, **_):
        self.fn = fn
        return self


def _memberships(t: pa.Table, size, step) -> pa.Table:
    """``t``'s sliding memberships as explicit windows: one row per (turn,
    window) with the window's ``window_start`` and ``window_end``, the
    stream engine's input shape."""
    rows, ws = sliding_starts_expand(W._int64_us(t["ts"]), size, step)
    return t.take(pa.array(rows)) \
        .append_column("window_start", pa.array(ws).cast(pa.timestamp("us"))) \
        .append_column("window_end",
                       pa.array(ws + size).cast(pa.timestamp("us")))


def _per_group(t: pa.Table, size, step, slab_windows, num_buckets=4,
               explicit=False, **kw) -> pd.DataFrame:
    """Reference: one BucketWindowStats call per (bucket × slab) group;
    with ``explicit``, on ``t``'s sliding memberships fed as explicit
    windows (the per-window path)."""
    if explicit:
        t, step = _memberships(t, size, step), None
    cap, L = W.add_bucket_slab(_Capture(), num_buckets, size, step, 0,
                               slab_windows)
    slabbed = cap.fn(t)
    inst = W.BucketWindowStats(
        window_size_us=size,
        step_us=None if explicit else (step or size), slab_l_us=L, **kw)
    gk = slabbed["_gk"].to_numpy()
    parts = [inst.table(slabbed.filter(pa.array(gk == g)))
             for g in np.unique(gk)]
    return pa.concat_tables(parts).to_pandas()


CASES = [
    ("tumbling", "full", {}), ("sliding", "full", {}),
    ("tumbling", "fast", {}), ("sliding", "fast", {}),
    ("tumbling", "counts", {}), ("sliding", "counts", {}),
    ("tumbling", "full", {"kgram_freqs": True, "ctw_text": True}),
    ("sliding", "full", {"kgram_freqs": True, "ctw_text": True}),
]


@pytest.mark.parametrize("kind,profile,extra", CASES)
def test_block_stats_equal_per_group(ray_session, kind, profile, extra):
    """window_stats over permuted multi-group blocks with many slabs (so
    sliding boundary rows are duplicated into the previous slab) equals
    per-group BucketWindowStats bit for bit."""
    import ray.data as rd

    t = _turns()
    size, step = 30 * S, (10 * S if kind == "sliding" else None)
    ds = rd.from_arrow([t.slice(0, 150), t.slice(150, 100),
                        t.slice(250, 250)]).randomize_block_order(seed=3)
    got = W.window_stats(ds, size, step_us=step, profile=profile,
                         num_buckets=4, slab_windows=2, **extra).to_pandas()
    ref = _per_group(t, size, step, 2, profile=profile, **extra)
    _assert_bits_equal(got, ref)


def _sparse_turns(seed: int, chars: int, step: int, n_convs: int = 40,
                  n_slots: int = 60) -> pa.Table:
    """One turn of ``chars`` characters per (conversation, step slot) it
    speaks in, about one slot in three, plus empty and null turns, and a
    conversation ``gappy`` whose slots lie more than ten apart."""
    rng = np.random.default_rng(seed)
    conv, slot = [], []
    for c in range(n_convs):
        s = np.flatnonzero(rng.random(n_slots) < 0.3)
        conv += [f"s{c}"] * len(s)
        slot += s.tolist()
    conv += ["gappy"] * 5
    slot += [0, 1, 13, 30, 59]
    n = len(conv)
    letters = np.array(list("abAB\"kδ東"))
    texts = ["".join(rng.choice(letters, chars)) for _ in range(n)]
    for i in rng.choice(n, n // 10, replace=False):
        texts[i] = None if i % 2 else ""
    return pa.table({
        "conv_id": pa.array(conv),
        "turn_uid": pa.array(rng.permutation(n), pa.int64()),
        "role": pa.array(rng.choice(["user", "assistant", "tool"], n)),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array(rng.choice(["", "grep"], n)),
        "ts": pa.array(EPOCH + np.asarray(slot) * step
                       + rng.integers(0, step, n)).cast(pa.timestamp("us")),
    })


@pytest.mark.parametrize("path", ["slot", "explicit"])
def test_multi_group_call_equals_per_group(monkeypatch, path):
    """One call over many slab groups (duplicated rows included) equals a
    call per group, and the sliding memberships fed as explicit windows
    are the reference for both paths. Dense conversations have turns in
    adjacent step slots, so windows sum the counts of several slots; the
    sparse ones have one or two characters per (conversation, slot),
    empty turns, gaps longer than a window, and slab edges every four
    slots (``slab_windows=2`` is below c = 4, so a slab is c slots)."""
    size, step = 40 * S, 10 * S
    cases = [(_turns(seed=9, n=800), 3)] + [
        (_sparse_turns(seed, chars, step), 2)
        for seed, chars in ((31, 1), (32, 2))]
    ran = []
    real = W._slot_kgrams
    monkeypatch.setattr(W, "_slot_kgrams", lambda *a: ran.append(1)
                        or real(*a))
    for t, slab_windows in cases:
        for profile in ("full", "fast"):
            ref = _per_group(t, size, step, slab_windows, num_buckets=3,
                             explicit=True, profile=profile)
            ran.clear()
            src, src_step = ((t, step) if path == "slot"
                             else (_memberships(t, size, step), None))
            cap, L = W.add_bucket_slab(_Capture(), 3, size, src_step, 0,
                                       slab_windows)
            slabbed = cap.fn(src)
            slabbed = slabbed.take(pa.array(np.argsort(
                slabbed["_gk"].to_numpy(), kind="stable")))
            inst = W.BucketWindowStats(window_size_us=size,
                                       step_us=src_step, slab_l_us=L,
                                       profile=profile)
            whole = inst.table(slabbed).to_pandas()
            assert bool(ran) == (path == "slot")
            _assert_bits_equal(whole, ref)


def test_out_of_slab_explicit_rows_leave_the_table():
    """An explicit row whose window lies outside its ``_slab`` gives the
    table of the call without it."""
    t = _memberships(_turns(seed=4, n=200), 40 * S, 10 * S)
    cap, L = W.add_bucket_slab(_Capture(), 3, 40 * S, None, 0, 2)
    slabbed = cap.fn(t)
    slab = slabbed["_slab"].to_numpy().copy()
    moved = np.arange(len(slab)) % 7 == 0
    slab[moved] += 1
    bad = slabbed.set_column(slabbed.column_names.index("_slab"), "_slab",
                             pa.array(slab))
    inst = W.BucketWindowStats(window_size_us=40 * S, slab_l_us=L)
    _assert_bits_equal(inst.table(bad).to_pandas(),
                       inst.table(slabbed.filter(pa.array(~moved)))
                       .to_pandas())


def _cjk_turns(n: int = 800, n_classes: int = 9000) -> pd.DataFrame:
    """Turns drawn from a few thousand CJK code points plus ASCII letters
    that fold, one turn every 7 s."""
    rng = np.random.default_rng(17)
    alphabet = np.array([chr(0x4E00 + i) for i in range(n_classes)]
                        + list("abcXYZ"))
    texts = ["".join(rng.choice(alphabet, int(rng.integers(30, 70))))
             for _ in range(n)]
    return pd.DataFrame({
        "conv_id": [f"z{i % 4}" for i in range(n)],
        "turn_uid": np.arange(n, dtype=np.int64),
        "role": rng.choice(["user", "assistant", "tool"], n),
        "text": texts, "tool": "",
        "ts": pd.to_datetime(EPOCH + np.arange(n) * 7 * S, unit="us"),
    })


def _fold(s: str) -> str:
    return "".join(chr(ord(ch) - 32) if "a" <= ch <= "z" else ch for ch in s)


def _stats(df: pd.DataFrame, path, **kw) -> pd.DataFrame:
    """``BucketWindowStats(**kw)`` of ``df``; with ``path="explicit"``,
    of ``df``'s sliding memberships fed as explicit windows."""
    if path != "explicit":
        return W.BucketWindowStats(**kw)(df)
    size, step = kw["window_size_us"], kw.pop("step_us")
    t = _memberships(pa.Table.from_pandas(df, preserve_index=False),
                     size, step)
    return W.BucketWindowStats(**kw).table(t).to_pandas()


_TEXT_COLS = ["n_chars", "char_entropy", "bigram_diversity",
              "trigram_diversity", "quadgram_diversity", "bigram_rate"]


@pytest.mark.parametrize("kind,path", [
    ("tumbling", None), ("sliding", "slot"), ("sliding", "explicit")])
def test_wide_keys_match_engine_and_kernels(monkeypatch, kind, path):
    """Keys past 63 bits (about 9000 classes × hundreds of windows) take
    the argsort branch and still match the stream engine and the scalar
    kernels, on the sliding call and on its memberships fed as explicit
    windows."""
    df = _cjk_turns()
    size, step = (10 * S, None) if kind == "tumbling" else (20 * S, 10 * S)
    calls = []
    real = W._argsort_pairs
    monkeypatch.setattr(W, "_argsort_pairs", lambda *a: calls.append(
        len(a[0])) or real(*a))
    got = _canon(_stats(df, path, profile="full", ctw_depth=-1,
                        window_size_us=size, step_us=step or size))
    assert calls, "the wide-key branch did not run"

    cfg = WindowConfig(kind=kind, size_us=size, step_us=step, ctw_depth=-1)
    eng = StreamEngine(cfg)
    ref = _canon(emitted_to_frame(eng.process_rows(df) + eng.flush(), kind))
    assert len(got) == len(ref) > 500
    for c in _TEXT_COLS:
        np.testing.assert_allclose(got[c].astype(float), ref[c].astype(float),
                                   rtol=0, atol=1e-12, err_msg=c)

    # scalar kernels on a few windows, from the window's turns
    ts = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
    for i in (0, len(got) // 2, len(got) - 1):
        row = got.iloc[i]
        w0 = row["window_start"].value // 1000
        sel = df[(df["conv_id"] == row["conv_id"]) & (ts >= w0)
                 & (ts < w0 + size)]
        up = [_fold(x) for x in sel["text"]]
        chars = {}
        for x in up:
            for ch in x:
                chars[ch] = chars.get(ch, 0) + 1
        assert row["n_chars"] == sum(chars.values())
        assert abs(row["char_entropy"] - K.entropy_from_counts(
            [chars[ch] for ch in sorted(chars)])) < 1e-12
        for k, name in ((2, "bigram_diversity"), (4, "quadgram_diversity")):
            kg = {}
            for x in up:
                for g, n in K.kgram_counts(x, k, skip_char=None,
                                           fold_case=False).items():
                    kg[g] = kg.get(g, 0) + n
            assert abs(row[name] - K.entropy_from_counts(
                [kg[g] for g in sorted(kg)])) < 1e-12


@pytest.mark.parametrize("path", ["slot", "explicit"])
def test_wide_keys_repeated_kgrams_shuffled_rows(monkeypatch, path):
    """Wide keys with k-grams that repeat across turns, slots and
    conversations, and rows in no time order: the argsort branch must
    order equal k-grams by slot as the packed sort does, and the result
    must match the stream engine."""
    rng = np.random.default_rng(23)
    alphabet = np.array([chr(0x4E00 + i) for i in range(9000)])
    phrases = ["".join(rng.choice(alphabet, 6)) for _ in range(12)]
    n = 1200
    texts = ["".join(rng.choice(alphabet, 30)) + "".join(
        rng.choice(phrases, int(rng.integers(1, 4)))) for _ in range(n)]
    df = pd.DataFrame({
        "conv_id": [f"z{i % 3}" for i in range(n)],
        "turn_uid": np.arange(n, dtype=np.int64),
        "role": rng.choice(["user", "assistant", "tool"], n),
        "text": texts, "tool": "",
        "ts": pd.to_datetime(EPOCH + np.arange(n) * 4 * S, unit="us"),
    })
    size, step = 30 * S, 10 * S
    calls = []
    real = W._argsort_pairs
    monkeypatch.setattr(W, "_argsort_pairs", lambda *a: calls.append(
        len(a[0])) or real(*a))
    got = _canon(_stats(df.iloc[rng.permutation(n)].reset_index(drop=True),
                        path, profile="full", ctw_depth=-1,
                        window_size_us=size, step_us=step))
    assert calls, "the wide-key branch did not run"

    cfg = WindowConfig(kind="sliding", size_us=size, step_us=step,
                       ctw_depth=-1)
    eng = StreamEngine(cfg)
    ref = _canon(emitted_to_frame(eng.process_rows(df) + eng.flush(),
                                  "sliding"))
    assert len(got) == len(ref) > 1000
    assert (got["window_start"] == ref["window_start"]).all()
    for c in _TEXT_COLS:
        np.testing.assert_allclose(got[c].astype(float), ref[c].astype(float),
                                   rtol=0, atol=1e-12, err_msg=c)


def test_group_chunks_budget():
    """Whole runs of equal keys, closed before the budget is passed; a run
    over budget is a range of its own."""
    keys = np.array([1, 1, 2, 3, 3, 3, 4, 5])
    cost = np.array([3, 3, 2, 50, 1, 1, 4, 4])
    assert W._group_chunks(keys, cost, 10) == [(0, 3), (3, 6), (6, 8)]
    assert W._group_chunks(keys, cost, 1000) == [(0, 8)]
    assert W._group_chunks(keys[:0], cost[:0], 10) == []


def test_group_over_budget_runs_alone(ray_session, monkeypatch):
    """With a small character budget, a conversation larger than the
    budget is computed alone and the rows do not change."""
    import ray.data as rd

    t = _turns(seed=21)
    big = pa.table({
        "conv_id": pa.array(["hot"] * 200), "turn_uid": pa.array(
            np.arange(10_000, 10_200), pa.int64()),
        "role": pa.array(["user", "assistant"] * 100),
        "text": pa.array(["Hot text " * 4] * 200),
        "tool": pa.array([""] * 200),
        "ts": pa.array(EPOCH + np.arange(200) * 2 * S)
        .cast(pa.timestamp("us")),
    })
    t = pa.concat_tables([t, big])
    kw = dict(step_us=10 * S, num_buckets=2, slab_windows=None)
    default = W.window_stats(rd.from_arrow(t), 30 * S, **kw).to_pandas()
    monkeypatch.setattr(W, "_CHUNK_CHARS", 2000)
    small = W.window_stats(rd.from_arrow(t), 30 * S, **kw).to_pandas()
    _assert_bits_equal(small, default)
    _assert_bits_equal(small, _per_group_plain(t, 30 * S, 10 * S, 2))


def _per_group_plain(t, size, step, num_buckets):
    b = W.stable_bucket_of(t["conv_id"].to_numpy(zero_copy_only=False),
                           num_buckets)
    inst = W.BucketWindowStats(window_size_us=size, step_us=step)
    return pa.concat_tables([inst.table(t.filter(pa.array(b == v)))
                             for v in np.unique(b)]).to_pandas()


# ---------------------------------------------------------------------------
# write_partition_block / write_partitioned
# ---------------------------------------------------------------------------

def _block() -> pa.Table:
    rng = np.random.default_rng(4)
    part = np.repeat([3, 7, 9], [5, 2, 4])
    return pa.table({"bucket": pa.array(part, pa.int64()),
                     "x": pa.array(rng.random(len(part))),
                     "s": pa.array([f"r{i}" for i in range(len(part))])})


def test_block_writes_each_partition(tmp_path):
    root = str(tmp_path / "out")
    os.makedirs(root)
    rep = write_partition_block(_block(), root, "bucket").to_pandas()
    assert rep.to_dict("list") == {"partition": [3, 7, 9],
                                   "n_rows": [5, 2, 4],
                                   "skipped": [False, False, False]}
    assert sorted(os.listdir(root)) == ["part=3", "part=7", "part=9"]
    for p in ("part=3", "part=7", "part=9"):
        assert sorted(os.listdir(os.path.join(root, p))) == [
            ".done", "data.parquet"]
    got = read_partitioned(root)
    assert list(got.columns) == ["x", "s"]
    assert got["s"].tolist() == [f"r{i}" for i in range(11)]
    again = write_partition_block(_block(), root, "bucket").to_pandas()
    assert again["skipped"].all() and (again["n_rows"] == 0).all()


def test_block_crash_before_marker_recomputes(tmp_path, monkeypatch):
    """A crash between the parquet rename and the .done rename leaves the
    partition uncommitted; the rerun rewrites it and matches a fresh
    run."""
    root = str(tmp_path / "crash")
    os.makedirs(root)
    real = os.replace

    def crash_on_7(src, dst):
        if dst.endswith(os.path.join("part=7", ".done")):
            raise OSError("injected crash")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_7)
    with pytest.raises(OSError, match="injected"):
        write_partition_block(_block(), root, "bucket")
    monkeypatch.setattr(os, "replace", real)
    assert os.path.exists(os.path.join(root, "part=7", "data.parquet"))
    assert not os.path.exists(os.path.join(root, "part=7", ".done"))

    rep = write_partition_block(_block(), root, "bucket").to_pandas()
    assert rep.to_dict("list") == {"partition": [3, 7, 9],
                                   "n_rows": [0, 2, 4],
                                   "skipped": [True, False, False]}
    fresh = str(tmp_path / "fresh")
    os.makedirs(fresh)
    write_partition_block(_block(), fresh, "bucket")
    pd.testing.assert_frame_equal(read_partitioned(root),
                                  read_partitioned(fresh))


def test_write_partitioned_blocks(ray_session, tmp_path):
    """Blocks holding several partitions: one file and marker per
    partition, one report row per partition, partition column kept on
    request."""
    import ray.data as rd

    t = pa.concat_tables([_block()] * 3)
    ds = rd.from_arrow([t.slice(0, 13), t.slice(13)])
    root = str(tmp_path / "kp")
    rep = write_partitioned(ds, root, keep_partition_col=True)
    assert sorted(rep["partition"]) == [3, 7, 9]
    assert sorted(rep["n_rows"]) == [6, 12, 15]
    assert not rep["skipped"].any()
    got = read_partitioned(root)
    assert list(got.columns) == ["bucket", "x", "s"]
    assert sorted(got["bucket"].value_counts().to_dict().items()) == [
        (3, 15), (7, 6), (9, 12)]


def test_block_interleaved_partitions(tmp_path):
    """A partition in two non-adjacent runs of a block is committed
    whole, in block order."""
    root = str(tmp_path / "il")
    os.makedirs(root)
    block = pa.table({"bucket": pa.array([3, 3, 7, 3], pa.int64()),
                      "x": pa.array([1, 2, 3, 4], pa.int64())})
    rep = write_partition_block(block, root, "bucket").to_pandas()
    assert rep.to_dict("list") == {"partition": [3, 7], "n_rows": [3, 1],
                                   "skipped": [False, False]}
    assert [pd.read_parquet(os.path.join(root, f"part={p}", "data.parquet"))
            ["x"].tolist() for p in (3, 7)] == [[1, 2, 4], [3]]


def _partitions(root: str) -> dict:
    return {d: pd.read_parquet(os.path.join(root, d, "data.parquet"))
            for d in sorted(os.listdir(root))}


def _pieces(root: str) -> list:
    return glob.glob(os.path.join(root, "part=*", "piece-*"))


def test_slabbed_stats_partitions_match_unslabbed(ray_session, tmp_path,
                                                  monkeypatch):
    """Over three days with two-window slabs, buckets span the sorted
    blocks and interleave inside them; through ``add_bucket`` and
    ``write_partitioned`` every partition equals the one-slab job's."""
    import ray.data as rd

    t = _turns(seed=7, n=900, span_us=3 * 86_400 * S)
    merges = []
    real = sinks._merge_pieces
    monkeypatch.setattr(sinks, "_merge_pieces",
                        lambda jobs: merges.append(len(jobs)) or real(jobs))
    out = {}
    for slab in (2, None):
        ds = rd.from_arrow([t.slice(0, 300), t.slice(300, 300),
                            t.slice(600)])
        st = W.window_stats(ds, 6 * 3600 * S, step_us=2 * 3600 * S,
                            num_buckets=4, slab_windows=slab)
        root = str(tmp_path / f"slab{slab}")
        rep = write_partitioned(W.add_bucket(st, 4), root)
        assert rep["partition"].tolist() == [0, 1, 2, 3]
        assert not rep["skipped"].any() and not _pieces(root)
        out[slab] = _partitions(root)
    assert merges and merges[0] > 0
    assert list(out[2]) == list(out[None])
    for d in out[2]:
        _assert_bits_equal(out[2][d], out[None][d])


@pytest.mark.parametrize("target", ["data.parquet", ".done"])
def test_driver_commit_crash_resumes(ray_session, tmp_path, monkeypatch,
                                     target):
    """A crash at either rename of one partition's commit leaves it
    uncommitted; the rerun equals a fresh run, and no staged piece is
    left in a committed partition."""
    import ray.data as rd

    t = pa.concat_tables([_block()] * 3)
    ds = rd.from_arrow([t.slice(0, 13), t.slice(13)])
    root = str(tmp_path / "crash")
    real = os.replace

    def crash_on_7(src, dst):
        if dst.endswith(os.path.join("part=7", target)):
            raise OSError("injected crash")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_7)
    with pytest.raises(OSError, match="injected"):
        write_partitioned(ds, root)
    monkeypatch.setattr(os, "replace", real)
    assert not os.path.exists(os.path.join(root, "part=7", ".done"))
    assert _pieces(root)

    rep = write_partitioned(ds, root)
    assert rep.to_dict("list") == {"partition": [3, 7, 9],
                                   "n_rows": [0, 6, 12],
                                   "skipped": [True, False, False]}
    assert not _pieces(root)
    fresh = str(tmp_path / "fresh")
    write_partitioned(ds, fresh)
    canon = lambda df: df.sort_values(["s", "x"]).reset_index(drop=True)  # noqa: E731
    got, want = _partitions(root), _partitions(fresh)
    assert list(got) == list(want)
    for d in got:
        pd.testing.assert_frame_equal(canon(got[d]), canon(want[d]))


def test_aligned_buckets_commit_by_rename(ray_session, tmp_path,
                                         monkeypatch):
    """With one slab and equal ``num_buckets``, each bucket lies in one
    stats block, so every partition commits from a single piece."""
    import ray.data as rd

    def no_merge(jobs):
        raise AssertionError(f"merged {sorted(jobs)}")

    monkeypatch.setattr(sinks, "_merge_pieces", no_merge)
    t = _turns(seed=11, n=600)
    ds = rd.from_arrow([t.slice(0, 200), t.slice(200, 200), t.slice(400)])
    st = W.window_stats(ds, 30 * S, step_us=10 * S, num_buckets=4)
    root = str(tmp_path / "aligned")
    rep = write_partitioned(W.add_bucket(st, 4), root)
    assert rep["partition"].tolist() == [0, 1, 2, 3]
    assert rep["n_rows"].sum() == st.count()
    assert not _pieces(root)


def test_explicit_window_end_column():
    """With ``step_us`` unset, ``window_start`` assigns the windows and
    a ``window_end`` column gives each window's end; without it the end
    is start + ``window_size_us``."""
    t = pa.table({
        "conv_id": ["a", "a", "a", "b"],
        "role": ["user", "tool", "user", "system"],
        "ts": pa.array([EPOCH, EPOCH + 5 * S, EPOCH + 50 * S, EPOCH],
                       pa.timestamp("us")),
        "window_start": pa.array([EPOCH, EPOCH, EPOCH + 50 * S, EPOCH],
                                 pa.timestamp("us")),
        "window_end": pa.array([EPOCH + 5 * S, EPOCH + 5 * S,
                                EPOCH + 50 * S, EPOCH], pa.timestamp("us")),
    })
    got = W.BucketWindowStats(profile="counts").table(t).to_pandas() \
        .sort_values(KEY).reset_index(drop=True)
    as_us = lambda c: got[c].astype("int64").tolist()  # noqa: E731
    assert got["conv_id"].tolist() == ["a", "a", "b"]
    assert got["n_turns"].tolist() == [2, 1, 1]
    assert got["n_tool"].tolist() == [1, 0, 0]
    assert as_us("window_end") == [EPOCH + 5 * S, EPOCH + 50 * S, EPOCH]
    sized = W.BucketWindowStats(profile="counts", window_size_us=60 * S) \
        .table(t.drop_columns(["window_end"])).to_pandas() \
        .sort_values(KEY).reset_index(drop=True)
    assert (sized["window_end"] - sized["window_start"]
            == pd.Timedelta(60, "s")).all()
