"""Block-level window stats and partition commits.

``window_stats`` sorts on the bucket × slab key and computes each sorted
block with as few ``BucketWindowStats`` calls as its character budget
allows; ``write_partitioned`` commits every partition of a sorted block
from an Arrow slice. These tests pin both to the per-group results and
to the commit protocol.
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import fasta_windows_ray.stages.window_stats as W
from fasta_windows_ray import kernels as K
from fasta_windows_ray.sinks import (read_partitioned, write_partition_block,
                                     write_partitioned)
from fasta_windows_ray.state.engine import (StreamEngine, WindowConfig,
                                            emitted_to_frame)

S = 1_000_000
EPOCH = 1_700_000_000 * S
KEY = ["conv_id", "window_start"]
_ASCII = ["alpha", "Beta", "gamma!", "x", " ", '"k', "kk"]
_MULTI = _ASCII + ["δelta", "東京", "😀", "naïve", "ß"]


def _turns(seed: int = 5, n: int = 500, n_convs: int = 12) -> pa.Table:
    """ASCII and multibyte conversations over ten minutes, with null
    text, roles and tools mixed in."""
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
        "ts": pa.array(EPOCH + rng.integers(0, 600 * S, n))
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


def _per_group(t: pa.Table, size, step, slab_windows, num_buckets=4,
               **kw) -> pd.DataFrame:
    """Reference: one BucketWindowStats call per (bucket × slab) group."""
    cap, L = W.add_bucket_slab(_Capture(), num_buckets, size, step, 0,
                               slab_windows)
    slabbed = cap.fn(t)
    inst = W.BucketWindowStats(window_size_us=size, step_us=step or size,
                               slab_l_us=L, **kw)
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


@pytest.mark.parametrize("slot_compress", [True, False])
def test_multi_group_call_equals_per_group(slot_compress):
    """One call over many slab groups (duplicated rows included), on
    either sliding char-stats path, equals a call per group on the
    expanded path. Conversations have turns in adjacent step slots, so
    windows sum the counts of several slots."""
    t = _turns(seed=9, n=800)
    size, step = 40 * S, 10 * S
    cap, L = W.add_bucket_slab(_Capture(), 3, size, step, 0, 3)
    slabbed = cap.fn(t)
    slabbed = slabbed.take(pa.array(np.argsort(
        slabbed["_gk"].to_numpy(), kind="stable")))
    inst = W.BucketWindowStats(window_size_us=size, step_us=step,
                               slab_l_us=L, slot_compress=slot_compress)
    whole = inst.table(slabbed).to_pandas()
    ref = _per_group(t, size, step, 3, num_buckets=3, slot_compress=False)
    _assert_bits_equal(whole, ref)


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


_TEXT_COLS = ["n_chars", "char_entropy", "bigram_diversity",
              "trigram_diversity", "quadgram_diversity", "bigram_rate"]


@pytest.mark.parametrize("kind,slot_compress", [
    ("tumbling", None), ("sliding", True), ("sliding", False)])
def test_wide_keys_match_engine_and_kernels(monkeypatch, kind,
                                            slot_compress):
    """Keys past 63 bits (about 9000 classes × hundreds of windows) take
    the argsort branch and still match the stream engine and the scalar
    kernels."""
    df = _cjk_turns()
    size, step = (10 * S, None) if kind == "tumbling" else (20 * S, 10 * S)
    calls = []
    real = W._argsort_pairs
    monkeypatch.setattr(W, "_argsort_pairs", lambda *a: calls.append(
        len(a[0])) or real(*a))
    got = _canon(W.BucketWindowStats(
        profile="full", ctw_depth=-1, window_size_us=size,
        step_us=step or size, slot_compress=slot_compress)(df))
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


@pytest.mark.parametrize("slot_compress", [True, False])
def test_wide_keys_repeated_kgrams_shuffled_rows(monkeypatch, slot_compress):
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
    got = _canon(W.BucketWindowStats(
        profile="full", ctw_depth=-1, window_size_us=size, step_us=step,
        slot_compress=slot_compress)(
            df.iloc[rng.permutation(n)].reset_index(drop=True)))
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
