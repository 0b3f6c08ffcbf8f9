"""Row-log stream engine gates: output independent of how the input is
split into calls (every final-mode window kind, custom aggregates in
arrival order), drains cut into whole-window kernel calls, the over-cap
fallback to an accumulator, old snapshots, and partition routing."""

import pickle
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from fasta_windows_ray.functions import registry
from fasta_windows_ray.stages.sessions import assign_sessions
from fasta_windows_ray.stages.window_stats import (_CHUNK_CHARS,
                                                   BucketWindowStats)
from fasta_windows_ray.state.engine import (_BOUNDS, KGRAM_CAP,
                                            StreamEngine, WindowConfig,
                                            _emitted_rows, _WindowAcc,
                                            emitted_to_frame)
from fasta_windows_ray.state.runner import partition_of
from fasta_windows_ray.windows import count_window_bounds

S = 1_000_000
EPOCH = 1_700_000_000 * S
LATENESS = 5 * S


def _ooo_stream(seed: int = 3, n: int = 260):
    """Out-of-order rows with planted late rows (below the watermark the
    earlier rows set) and duplicates (replays of a live accepted row).
    Returns the rows and the masks of the planted late and duplicate
    rows."""
    rng = np.random.default_rng(seed)
    words = np.array(["ab", "cd", "é", "xyz", '"k', " ", "q"])
    rows, accepted, late, dup = [], [], [], []
    run_max = None
    for i in range(n):
        wm = None if run_max is None else run_max - LATENESS
        kind = rng.random()
        if i > 20 and kind < 0.06:
            rows.append({**rows[accepted[-int(rng.integers(1, 4))]]})
            if rows[-1]["ts"] >= wm:
                late.append(False)
                dup.append(True)
                continue
            rows.pop()                       # replay of a late-judged row
        late.append(i > 20 and kind > 0.94)
        dup.append(False)
        if late[-1]:
            ts = wm - int(rng.integers(1, 20 * S))
        else:
            ts = EPOCH + i * S // 3 - int(rng.integers(0, LATENESS // 2))
            if wm is not None and ts < wm:
                ts = wm
        rows.append({
            "conv_id": f"c{int(rng.integers(0, 4))}", "turn_uid": i,
            "role": [None, "user", "assistant", "system", "tool",
                     "x"][int(rng.integers(0, 6))],
            "text": (None if rng.random() < 0.05 else
                     "".join(rng.choice(words, int(rng.integers(0, 12))))),
            "tool": "grep" if rng.random() < 0.2 else "",
            "ts": ts})
        if ts >= (wm if wm is not None else ts):
            accepted.append(len(rows) - 1)
            run_max = ts if run_max is None else max(run_max, ts)
    df = pd.DataFrame(rows)
    df["ts"] = df["ts"].to_numpy().astype("datetime64[us]")
    return df, np.array(late), np.array(dup)


def _feed(cfg, df, cuts, snap_at=None):
    eng = StreamEngine(cfg)
    out = []
    bounds = [0, *cuts, len(df)]
    for a, b in zip(bounds, bounds[1:]):
        if a == snap_at:
            eng = StreamEngine.restore(eng.snapshot())
        out += eng.process_rows(df.iloc[a:b])
    out += eng.flush()
    return out, eng.metrics.as_dict()


_START = {k: v[0] for k, v in _BOUNDS.items()}


def _canon(rows, kind, extra=()):
    return emitted_to_frame(rows, kind, extra).sort_values(
        ["conv_id", _START.get(kind, "window_start"),
         *[c for c in extra if c == "revision"]]).reset_index(drop=True)


def _hash_add(st, row):
    st[0] = (st[0] * 31 + row["turn_uid"] + 1) % 1_000_003


def _no_evict(st, row):
    raise NotImplementedError


@pytest.fixture
def arrival_hash():
    """An order-sensitive custom aggregate: a hash of the window's turn
    uids in the order they were folded."""
    registry.register(registry.WindowAggregate(
        "arrival_hash", lambda: [0], _hash_add, _no_evict,
        lambda st: float(st[0])))
    yield
    registry.unregister("arrival_hash")


AGGS = ("total_text_chars", "distinct_tools", "arrival_hash")


@pytest.mark.parametrize("cfg", [
    WindowConfig(kind="tumbling", size_us=4 * S, lateness_us=LATENESS),
    WindowConfig(kind="sliding", size_us=6 * S, step_us=2 * S,
                 lateness_us=LATENESS, ctw_text=True),
    WindowConfig(kind="session", gap_us=2 * S, lateness_us=LATENESS,
                 ctw_text=True),
    WindowConfig(kind="count", count_turns=4, lateness_us=LATENESS),
    WindowConfig(kind="tumbling", size_us=4 * S, lateness_us=LATENESS,
                 custom_aggs=AGGS),
    WindowConfig(kind="tumbling", size_us=4 * S, lateness_us=LATENESS,
                 emit="updates", retention_us=6 * S),
    WindowConfig(kind="sliding", size_us=6 * S, step_us=2 * S,
                 lateness_us=LATENESS, ctw_text=True, emit="updates",
                 retention_us=4 * S),
    WindowConfig(kind="tumbling", size_us=4 * S, lateness_us=LATENESS,
                 emit="updates", early_fire_every=2)],
    ids=["tumbling", "sliding", "session", "count", "custom_aggs",
         "updates_tumbling", "updates_sliding", "updates_early"])
def test_output_independent_of_batch_split(cfg, arrival_hash, monkeypatch):
    """One call, one row per call and random splits with a snapshot and
    restore at one split emit the same rows on every column, with equal
    counters; the late/dup counters equal the plants (count windows take
    late rows, updates mode the late rows of a live window), and no row
    goes through an accumulator. Updates mode also emits its panes in the
    same order."""
    adds = []
    real_add = _WindowAcc.add
    monkeypatch.setattr(_WindowAcc, "add",
                        lambda *a, **k: adds.append(1) or real_add(*a, **k))
    df, late, dup = _ooo_stream()
    assert late.sum() > 0 and dup.sum() > 0
    updates = cfg.emit == "updates"
    if updates:
        # a planted late row is kept iff its newest covering window is
        # live at the watermark of the rows before it
        ts = df["ts"].to_numpy().astype(np.int64)
        wm = np.r_[ts[0], np.maximum.accumulate(ts)[:-1]] - LATENESS
        step = cfg.step_us or cfg.size_us
        live = ts // step * step + cfg.size_us + cfg.retention_us > wm
        assert (late & live).sum() > 0 and (late & ~live).sum() > 0
        late = late & ~live
    ref, ref_m = _feed(cfg, df, [])
    assert ref_m["late_dropped"] == (0 if cfg.kind == "count"
                                     else late.sum())
    assert ref_m["dup_dropped"] == dup.sum()
    extra = ("revision",) if updates else cfg.custom_aggs
    want = _canon(ref, cfg.kind, extra)
    assert not want.duplicated(["conv_id", _START.get(cfg.kind,
                                                      "window_start"),
                                *extra[:updates]]).any()
    rng = np.random.default_rng(9)
    cuts = sorted(rng.choice(np.arange(1, len(df)), 7, replace=False)
                  .tolist())
    for rows, m in (_feed(cfg, df, list(range(1, len(df)))),
                    _feed(cfg, df, cuts, snap_at=cuts[3])):
        pd.testing.assert_frame_equal(_canon(rows, cfg.kind, extra), want,
                                      check_exact=True)
        if updates:
            pd.testing.assert_frame_equal(
                emitted_to_frame(rows, cfg.kind, extra),
                emitted_to_frame(ref, cfg.kind, extra), check_exact=True)
        assert m == ref_m
    emitted = "sessions_emitted" if cfg.kind == "session" \
        else "windows_emitted"
    assert ref_m[emitted] + ref_m["early_panes"] == len(want)
    assert ref_m["windows_promoted"] == 0
    if updates:
        assert (ref_m["early_panes"] > 0) == (cfg.early_fire_every > 0)
        for c in ("late_updates", "windows_expired"):
            assert (ref_m[c] > 0) == (cfg.retention_us > 0)
    assert adds == []
    kept = df[~late & ~dup] if cfg.kind != "count" else df[~dup]
    if cfg.kind == "count":
        # chunks tile each conv's accepted rows in order
        for conv, g in want.groupby("conv_id"):
            n = (kept["conv_id"] == conv).sum()
            assert g["win_start"].tolist() == list(range(0, n, 4))
            assert (g["win_end"] == np.minimum(g["win_start"] + 4, n)).all()
            assert (g["n_turns"] == g["win_end"] - g["win_start"]).all()
    if cfg.custom_aggs:
        # each window's aggregates fold its accepted rows in arrival order
        start = kept["ts"].to_numpy().astype(np.int64) // cfg.size_us \
            * cfg.size_us
        for (conv, ws), g in kept.groupby(["conv_id", start], sort=False):
            st = [0]
            for u in g["turn_uid"]:
                _hash_add(st, {"turn_uid": u})
            row = want[(want["conv_id"] == conv) & (
                want["window_start"] == pd.Timestamp(ws, unit="us"))]
            assert row["arrival_hash"].tolist() == [float(st[0])]
            assert row["total_text_chars"].tolist() == [
                float(g["text"].fillna("").str.len().sum())]


def test_drain_is_chunked_by_whole_windows(monkeypatch):
    """A flush whose due windows hold more than ``_CHUNK_CHARS`` bytes
    takes more than one kernel call, and its rows equal one
    ``BucketWindowStats`` call per window."""
    rng = np.random.default_rng(4)
    n_conv, per, width = 8, 40, 1000
    assert per * (width + 1) <= KGRAM_CAP < n_conv * per * width
    assert n_conv * per * width > _CHUNK_CHARS
    alpha = np.array(list("abcdefgh \"k"))
    df = pd.DataFrame({
        "conv_id": np.repeat([f"c{i}" for i in range(n_conv)], per),
        "turn_uid": np.arange(n_conv * per),
        "role": rng.choice(["user", "assistant", "tool"], n_conv * per),
        "text": ["".join(rng.choice(alpha, width))
                 for _ in range(n_conv * per)],
        "tool": "",
        "ts": (EPOCH + np.arange(n_conv * per) * 1000).astype(
            "datetime64[us]")})
    cfg = WindowConfig(kind="tumbling", size_us=3600 * S)
    inst = BucketWindowStats(window_size_us=cfg.size_us,
                             step_us=cfg.size_us)
    want = pd.concat([inst(g) for _, g in df.groupby("conv_id")],
                     ignore_index=True)
    calls = []
    real = BucketWindowStats.table

    def counting(self, t):
        calls.append(t.num_rows)
        return real(self, t)

    monkeypatch.setattr(BucketWindowStats, "table", counting)
    eng = StreamEngine(cfg)
    assert eng.process_rows(df) == []
    got = eng.flush()
    assert len(calls) > 1 and sum(calls) == len(df)
    assert eng.metrics.windows_promoted == 0
    got = emitted_to_frame(got, "tumbling")
    pd.testing.assert_frame_equal(got, want, check_exact=True,
                                  check_dtype=False)


def test_over_cap_window_promoted_to_accumulator():
    """A window whose buffered rows + text bytes pass ``KGRAM_CAP`` moves
    to an accumulator (counted once), its later rows go there and not to
    the log, and its row still matches the kernel's; a window under the
    cap stays in the log."""
    rng = np.random.default_rng(7)
    n = 1800
    texts = ["".join(rng.choice(list("abc "), 40)) for _ in range(n)]
    df = pd.DataFrame({
        "conv_id": ["hot"] * n + ["cold"] * 10,
        "turn_uid": np.arange(n + 10),
        "role": rng.choice(["user", "assistant"], n + 10),
        "text": texts + ["small"] * 10, "tool": "",
        "ts": (EPOCH + np.r_[np.arange(n), np.arange(10)] * 1000)
        .astype("datetime64[us]")})
    df = df.sort_values("ts", kind="stable").reset_index(drop=True)
    cfg = WindowConfig(kind="tumbling", size_us=3600 * S)
    eng = StreamEngine(cfg)
    half = len(df) // 2
    assert eng.process_rows(df.iloc[:half]) == []
    eng = StreamEngine.restore(eng.snapshot())
    assert eng.process_rows(df.iloc[half:]) == []
    assert eng.metrics.windows_promoted == 1
    assert list(eng.open) == [("hot", EPOCH // (3600 * S) * 3600 * S)]
    assert set(eng.log["conv_id"].to_pylist()) == {"cold"}
    out = emitted_to_frame(eng.flush(), "tumbling")
    assert eng.metrics.windows_promoted == 1
    assert eng.metrics.windows_emitted == 2
    want = BucketWindowStats(window_size_us=cfg.size_us,
                             step_us=cfg.size_us)(df)
    key = ["conv_id", "window_start"]
    out = out.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(out, want, check_dtype=False,
                                  rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["session", "count"])
def test_over_cap_keyed_window_promoted(kind):
    """A session or count chunk whose buffered rows + text bytes pass
    ``KGRAM_CAP`` is promoted (counted once), keeps taking rows across a
    snapshot, and emits the batch kernel's row for its window."""
    rng = np.random.default_rng(8)
    n = 1800
    df = pd.DataFrame({
        "conv_id": ["hot"] * n + ["cold"] * 10,
        "turn_uid": np.arange(n + 10),
        "role": rng.choice(["user", "assistant", "tool"], n + 10),
        "text": ["".join(rng.choice(list("abc "), 40))
                 for _ in range(n)] + ["small"] * 10, "tool": "",
        "ts": (EPOCH + np.r_[np.arange(n), np.arange(10)] * 1000)
        .astype("datetime64[us]")})
    df = df.sort_values(["ts", "turn_uid"]).reset_index(drop=True)
    cfg = (WindowConfig(kind="session", gap_us=3600 * S) if kind == "session"
           else WindowConfig(kind="count", count_turns=1700))
    eng = StreamEngine(cfg)
    out = eng.process_rows(df.iloc[:len(df) // 2])
    eng = StreamEngine.restore(eng.snapshot())
    out += eng.process_rows(df.iloc[len(df) // 2:]) + eng.flush()
    assert eng.metrics.windows_promoted == 1
    # batch reference: the same windows assigned up front, one kernel call
    t = pa.Table.from_pandas(df, preserve_index=False)
    if kind == "session":
        t = assign_sessions(t, cfg.gap_us)
    else:
        t = t.sort_by([("conv_id", "ascending"), ("ts", "ascending")])
        start, end = count_window_bounds(
            t["conv_id"].combine_chunks().dictionary_encode().indices
            .to_numpy(), 1700)
        t = t.append_column("window_start", pa.array(start)) \
            .append_column("window_end", pa.array(end))
    want = _emitted_rows(BucketWindowStats().table(t))
    s, e = _BOUNDS[kind]
    for row in want:
        row[s], row[e] = row.pop("window_start"), row.pop("window_end")
        del row["last_ts"]
    want = _canon(want, kind)
    got = _canon(out, kind)
    assert len(got) == (2 if kind == "session" else 3)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  rtol=1e-12, atol=1e-12)


def _acc(rows: pd.DataFrame, cfg) -> _WindowAcc:
    acc = _WindowAcc()
    for r in rows.itertuples():
        acc.add(r.ts.value // 1000, r.turn_uid, r.role, r.text, r.tool, cfg)
    return acc


@pytest.mark.parametrize("kind", ["tumbling", "session", "count",
                                  "updates"])
def test_restore_snapshot_without_row_log(kind):
    """A snapshot from before the row log (open windows, sessions and
    count chunks as accumulators; no ``log``, no session or count
    positions, no ``windows_promoted`` counter) restores; its
    accumulators keep taking rows, and the resumed output equals a fresh
    run's. An updates-mode one, whose windows' rows are only in its
    accumulators, is refused."""
    ts = EPOCH + np.array([0, 1, 2, 3, 4, 5, 6, 40, 41, 42]) * S
    rows = pd.DataFrame({
        "conv_id": ["a"] * 10, "turn_uid": np.arange(10),
        "role": ["user", "assistant", "tool"] * 3 + ["user"],
        "text": [f"hi there {i}" for i in range(10)],
        "tool": ["", "", "grep"] * 3 + [""],
        "ts": ts.astype("datetime64[us]")})
    start = EPOCH // (10 * S) * 10 * S
    cfg = {"tumbling": WindowConfig(kind="tumbling", size_us=10 * S),
           "session": WindowConfig(kind="session", gap_us=10 * S),
           "count": WindowConfig(kind="count", count_turns=4),
           "updates": WindowConfig(kind="tumbling", size_us=10 * S,
                                   emit="updates", retention_us=60 * S)}[kind]
    k = 6 if kind == "count" else 3
    old = {"open": {}, "heap": [], "sessions": {}, "count_bufs": {}}
    if kind in ("tumbling", "updates"):
        old["open"] = {("a", start): _acc(rows.iloc[:3], cfg)}
        old["heap"] = [(start + 10 * S, "a", start)]
    elif kind == "session":        # an open session of 3 rows
        old["sessions"] = {"a": [ts[0], ts[2], _acc(rows.iloc[:3], cfg)]}
    else:                          # chunk 1 holds 2 of its 4 rows
        old["count_bufs"] = {"a": [1, _acc(rows.iloc[4:6], cfg), 2]}
    eng = StreamEngine(cfg)
    out = eng.process_rows(rows.iloc[:k])
    d = pickle.loads(eng.snapshot())
    for key in ("log", "open_sessions", "count_rows"):
        del d[key]
    del d["metrics"].__dict__["windows_promoted"]
    d.update(old)
    if kind == "updates":
        with pytest.raises(ValueError, match="accumulators"):
            StreamEngine.restore(pickle.dumps(d))
        return
    resumed = StreamEngine.restore(pickle.dumps(d))
    assert resumed.metrics.as_dict()["windows_promoted"] == 0
    out += resumed.process_rows(rows.iloc[k:]) + resumed.flush()
    fresh = StreamEngine(cfg)
    want = fresh.process_rows(rows) + fresh.flush()
    assert resumed.metrics.as_dict() == fresh.metrics.as_dict()
    assert len(want) == {"tumbling": 2, "session": 2, "count": 3}[kind]
    pd.testing.assert_frame_equal(emitted_to_frame(out, kind),
                                  emitted_to_frame(want, kind),
                                  rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("ctw_depth", [-1, 6])
def test_accumulator_pickled_with_ts_counts(ctw_depth):
    """An accumulator pickled in the layout of older snapshots (a
    ``_ts_counts`` ts -> count map and an ``_nt`` turn count, no
    ``last_ts``) unpickles with its max ts as ``last_ts`` and emits the
    same row."""
    cfg = WindowConfig(kind="tumbling", size_us=10 * S, ctw_depth=ctw_depth)
    acc = _WindowAcc()
    for i, t in enumerate((5, 9, 2)):
        acc.add(EPOCH + t * S, i, "user", f"hi {i}", "", cfg)
    old = dict(acc.__getstate__()[1])
    del old["last_ts"]
    old["_nt"] = 3
    if acc.turns is None:
        old["_ts_counts"] = {EPOCH + t * S: 1 for t in (5, 9, 2)}
    back = pickle.loads(pickle.dumps(acc))
    back.__setstate__((None, old))
    assert back.last_ts == EPOCH + 9 * S
    assert back.finalize("c", EPOCH, EPOCH + 10 * S, cfg) == \
        acc.finalize("c", EPOCH, EPOCH + 10 * S, cfg)


def test_partition_of_equals_per_row_crc32():
    """Routing hashes each distinct conv_id once and gives the per-row
    ``zlib.crc32`` partition, non-ASCII ids included."""
    rng = np.random.default_rng(12)
    pool = np.array([f"conv{i}" for i in range(50)]
                    + ["ünï", "日本語", "😀x", "", "a b"], dtype=object)
    ids = rng.choice(pool, 2000)
    for p in (1, 3, 4, 7):
        want = [zlib.crc32(str(c).encode()) % p for c in ids]
        assert partition_of(ids, p).tolist() == want
        assert partition_of(pd.Series(ids), p).tolist() == want
