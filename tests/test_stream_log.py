"""Row-log stream engine gates: output independent of how the input is
split into calls (every final-mode window kind, custom aggregates in
arrival order), drains cut into whole-window kernel calls, over-cap
windows promoted to kernel summaries that emit the kernel's row bit for
bit, old snapshots, and partition routing."""

import pickle
import struct
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from fasta_windows_ray.functions import registry
from fasta_windows_ray.stages.sessions import assign_sessions
from fasta_windows_ray.stages.window_stats import (_CHUNK_CHARS,
                                                   BucketWindowStats)
from fasta_windows_ray.state import engine as engine_mod
from fasta_windows_ray.state.engine import (_BOUNDS, KGRAM_CAP,
                                            StreamEngine, WindowConfig,
                                            _emitted_rows, emitted_to_frame)
from fasta_windows_ray.state.runner import partition_of
from fasta_windows_ray.windows import (count_window_bounds,
                                       sliding_starts_expand)

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
def test_output_independent_of_batch_split(cfg, arrival_hash):
    """One call, one row per call and random splits with a snapshot and
    restore at one split emit the same rows on every column, with equal
    counters; the late/dup counters equal the plants (count windows take
    late rows, updates mode the late rows of a live window), and no
    window is promoted. Updates mode also emits its panes in the same
    order."""
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


class _WindowAcc:
    """Stand-in for the per-row window accumulator that older snapshots
    pickled (``fasta_windows_ray.state.engine._WindowAcc``)."""


_WindowAcc.__module__ = engine_mod.__name__


@pytest.mark.parametrize("kind", ["tumbling", "session", "count",
                                  "updates"])
def test_restore_snapshot_without_row_log(kind, monkeypatch):
    """A snapshot from before the row log (open windows, sessions and
    count chunks as accumulators; no ``log``, no session or count
    positions, no ``windows_promoted`` counter) is refused: its windows'
    rows are only in its accumulators."""
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
        old["open"] = {("a", start): _WindowAcc()}
        old["heap"] = [(start + 10 * S, "a", start)]
    elif kind == "session":        # an open session of 3 rows
        old["sessions"] = {"a": [ts[0], ts[2], _WindowAcc()]}
    else:                          # chunk 1 holds 2 of its 4 rows
        old["count_bufs"] = {"a": [1, _WindowAcc(), 2]}
    eng = StreamEngine(cfg)
    eng.process_rows(rows.iloc[:k])
    d = pickle.loads(eng.snapshot())
    for key in ("log", "open_sessions", "count_rows"):
        del d[key]
    del d["metrics"].__dict__["windows_promoted"]
    d.update(old)
    with monkeypatch.context() as m:
        m.setattr(engine_mod, "_WindowAcc", _WindowAcc, raising=False)
        blob = pickle.dumps(d)
    with pytest.raises(ValueError, match="accumulators"):
        StreamEngine.restore(blob)


def _hot_stream(seed: int, n: int = 2400) -> pd.DataFrame:
    """In-order rows, no late or duplicate ones: about 80% of them in
    one conv (``hot``) with 10-30 words of text each, enough for its
    windows to pass ``KGRAM_CAP``; multibyte text, null roles and texts,
    the designated bigram and tools included."""
    rng = np.random.default_rng(seed)
    words = np.array(["ab", "cd", "é", "xyz", '"k', " ", "q", "東京",
                      'k"k', "Zz"])
    hot = rng.random(n) < 0.8
    return pd.DataFrame({
        "conv_id": np.where(hot, "hot", rng.choice(["c0", "c1", "c2"], n)),
        "turn_uid": np.arange(n),
        "role": rng.choice(np.array([None, "user", "assistant", "system",
                                     "tool", "x"], dtype=object), n),
        "text": [None if rng.random() < 0.03 else
                 "".join(rng.choice(words, int(rng.integers(10, 30))))
                 for _ in range(n)],
        "tool": np.where(rng.random(n) < 0.2, "grep", ""),
        "ts": (EPOCH + np.arange(n) * 50_000).astype("datetime64[us]")})


def test_restore_refuses_per_k_histograms():
    """A snapshot whose promoted window keeps one k-gram histogram per k
    (summaries from before they kept the kernel's k_max-gram keys) is
    refused: those histograms cannot give the new keys."""
    eng = StreamEngine(WindowConfig(kind="tumbling", size_us=3600 * S))
    eng.process_rows(_hot_stream(5).iloc[:2000])
    assert eng.open
    d = pickle.loads(eng.snapshot())
    for sm in d["open"].values():
        sm.hist = [sm.hist] * 4
        del sm.spilled
    with pytest.raises(ValueError, match="one k-gram histogram per k"):
        StreamEngine.restore(pickle.dumps(d))


def test_restore_without_promoted_windows_resumes():
    """A snapshot taken before any window was promoted restores and
    resumes: the run emits what an uncut run does, bit for bit."""
    df = _hot_stream(5)
    cfg = WindowConfig(kind="tumbling", size_us=3600 * S)
    want, _ = _feed(cfg, df, [])
    eng = StreamEngine(cfg)
    out = eng.process_rows(df.iloc[:200])
    assert not eng.open
    eng = StreamEngine.restore(eng.snapshot())
    out += eng.process_rows(df.iloc[200:]) + eng.flush()
    assert eng.metrics.windows_promoted == 1
    pd.testing.assert_frame_equal(_canon(out, "tumbling"),
                                  _canon(want, "tumbling"), check_exact=True)


def _kernel_rows(cfg, df: pd.DataFrame) -> dict:
    """``BucketWindowStats.table``'s row of every window of ``cfg`` on
    ``df`` (all of it accepted), as the engine emits it, with the
    window's rows + UTF-8 text bytes (its promotion cost); by (conv_id,
    window start or id)."""
    t = pa.Table.from_pandas(df, preserve_index=False)
    ts = t["ts"].cast(pa.int64()).to_numpy()
    if cfg.kind in ("tumbling", "sliding"):
        r, ws = sliding_starts_expand(ts, cfg.size_us,
                                      cfg.step_us or cfg.size_us, 0)
        t = t.take(r).append_column("window_start", pa.array(ws)) \
            .append_column("window_end", pa.array(ws + cfg.size_us))
    elif cfg.kind == "session":
        t = assign_sessions(t, cfg.gap_us)
    else:
        t = t.sort_by([("conv_id", "ascending"), ("ts", "ascending")])
        start, end = count_window_bounds(
            t["conv_id"].combine_chunks().dictionary_encode().indices
            .to_numpy(), cfg.count_turns)
        t = t.append_column("window_start", pa.array(start)) \
            .append_column("window_end", pa.array(end))
    inst = BucketWindowStats(profile=cfg.profile, ctw_depth=cfg.ctw_depth,
                             bigram=cfg.bigram, ctw_text=cfg.ctw_text)
    rows = _emitted_rows(inst.table(t))
    keys = list(zip(t["conv_id"].to_pylist(),
                    t["window_start"].cast(pa.int64()).to_pylist()))
    costs: dict = {}
    for key, text in zip(keys, t["text"].to_pylist()):
        costs[key] = costs.get(key, 0) + 1 + len((text or "").encode())
    if cfg.custom_aggs:
        aggs = [registry.get(n) for n in cfg.custom_aggs]
        states: dict = {}
        order = np.argsort(t["turn_uid"].to_numpy(), kind="stable")
        for key, v in zip([keys[i] for i in order],
                          engine_mod._row_values(t.take(order))):
            st = states.setdefault(key, [agg.init() for agg in aggs])
            for agg, x in zip(aggs, st):
                agg.add(x, dict(zip(engine_mod._ROW_KEYS, v)))
    out = {}
    for row in rows:
        key = (row["conv_id"], row["window_start"])
        if cfg.custom_aggs:
            row.update({agg.name: agg.emit(x)
                        for agg, x in zip(aggs, states[key])})
        if cfg.kind in _BOUNDS:
            s, e = _BOUNDS[cfg.kind]
            row[s], row[e] = row.pop("window_start"), row.pop("window_end")
            del row["last_ts"]
        out[key] = (row, costs[key])
    return out


def _bits(v):
    """A value with floats by their bits."""
    return struct.pack("<d", v) if isinstance(v, float) else v


@pytest.mark.parametrize("cfg", [
    *[WindowConfig(kind=kind, profile=profile, **params)
      for kind, params in (
          ("tumbling", {"size_us": 3600 * S}),
          ("sliding", {"size_us": 3600 * S, "step_us": 1800 * S}),
          ("session", {"gap_us": 3600 * S}),
          ("count", {"count_turns": 1700}))
      for profile in ("full", "fast", "counts")],
    WindowConfig(kind="sliding", size_us=3600 * S, step_us=1800 * S,
                 ctw_text=True),
    WindowConfig(kind="tumbling", size_us=3600 * S, custom_aggs=AGGS)],
    ids=[f"{k}-{p}" for k in ("tumbling", "sliding", "session", "count")
         for p in ("full", "fast", "counts")] + ["ctw_text", "custom_aggs"])
def test_promoted_window_equals_kernel(cfg, arrival_hash):
    """A window pushed past ``KGRAM_CAP`` at a random call, fed in random
    splits with one snapshot and restore, emits exactly the row
    ``BucketWindowStats.table`` gives on its rows: integers equal, floats
    equal by their bits, custom aggregates folded in arrival order. Every
    window past the cap is promoted, and counted, once."""
    df = _hot_stream(5)
    want = _kernel_rows(cfg, df)
    over = {k for k, (_, cost) in want.items() if cost > KGRAM_CAP}
    assert over and len(over) < len(want)
    rng = np.random.default_rng(11)
    for trial in range(2):
        cuts = sorted(rng.choice(np.arange(1, len(df)), 6, replace=False)
                      .tolist())
        out, m = _feed(cfg, df, cuts, snap_at=cuts[int(rng.integers(6))])
        assert m["windows_promoted"] == len(over)
        assert m["kgram_spills"] == 0
        s = _START.get(cfg.kind, "window_start")
        got = {(row["conv_id"], row[s]): row for row in out}
        assert len(got) == len(out) == len(want)
        for key, (row, _) in want.items():
            assert list(got[key]) == list(row), key
            assert [_bits(v) for v in got[key].values()] == \
                [_bits(v) for v in row.values()], (key, key in over)


def test_bigram_rate_counts_overlaps_in_promoted_windows():
    """``bigram="aa"`` counts every occurrence, overlapping ones included,
    in a promoted window as in a log window; a bigram that is not two
    characters is refused."""
    n = 1700
    df = pd.DataFrame({
        "conv_id": ["hot"] * n + ["cold"] * 10,
        "turn_uid": np.arange(n + 10),
        "role": "user", "text": "a" * 40, "tool": "",
        "ts": (EPOCH + np.r_[np.arange(n), np.arange(10)] * 1000)
        .astype("datetime64[us]")}).sort_values("ts", kind="stable")
    cfg = WindowConfig(kind="tumbling", size_us=3600 * S, bigram="aa")
    out, m = _feed(cfg, df, [n // 2])
    assert m["windows_promoted"] == 1
    assert {row["conv_id"]: row["bigram_rate"] for row in out} == \
        {"hot": 39 / 40, "cold": 39 / 40}
    for bad in ("a", '"k!', ""):
        with pytest.raises(ValueError, match="two characters"):
            BucketWindowStats(bigram=bad)
        with pytest.raises(ValueError, match="two characters"):
            StreamEngine(WindowConfig(bigram=bad))


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
