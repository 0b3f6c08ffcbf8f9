"""Row-log stream engine gates: output independent of how the input is
split into calls, drains cut into whole-window kernel calls, the
over-cap fallback to an accumulator, old snapshots, and partition
routing."""

import pickle
import zlib

import numpy as np
import pandas as pd
import pytest

from fasta_windows_ray.stages.window_stats import (_CHUNK_CHARS,
                                                   BucketWindowStats)
from fasta_windows_ray.state.engine import (KGRAM_CAP, StreamEngine,
                                            WindowConfig, _WindowAcc,
                                            emitted_to_frame)
from fasta_windows_ray.state.runner import partition_of

S = 1_000_000
EPOCH = 1_700_000_000 * S
LATENESS = 5 * S


def _ooo_stream(seed: int = 3, n: int = 260):
    """Out-of-order rows with planted late rows (below the watermark the
    earlier rows set) and duplicates (replays of a live accepted row)."""
    rng = np.random.default_rng(seed)
    words = np.array(["ab", "cd", "é", "xyz", '"k', " ", "q"])
    rows, accepted = [], []
    run_max = None
    n_late = n_dup = 0
    for i in range(n):
        wm = None if run_max is None else run_max - LATENESS
        kind = rng.random()
        if i > 20 and kind < 0.06:
            rows.append({**rows[accepted[-int(rng.integers(1, 4))]]})
            if rows[-1]["ts"] >= wm:
                n_dup += 1
                continue
            rows.pop()                       # replay of a late-judged row
        if i > 20 and kind > 0.94:
            ts = wm - int(rng.integers(1, 20 * S))
            n_late += 1
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
    return df, n_late, n_dup


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


def _canon(rows, kind):
    return emitted_to_frame(rows, kind).sort_values(
        ["conv_id", "window_start"]).reset_index(drop=True)


@pytest.mark.parametrize("cfg", [
    WindowConfig(kind="tumbling", size_us=4 * S, lateness_us=LATENESS),
    WindowConfig(kind="sliding", size_us=6 * S, step_us=2 * S,
                 lateness_us=LATENESS, ctw_text=True)],
    ids=["tumbling", "sliding"])
def test_output_independent_of_batch_split(cfg):
    """One call, one row per call and random splits with a snapshot and
    restore at one split emit the same rows on every column, and the
    late/dup counters equal the plants."""
    df, n_late, n_dup = _ooo_stream()
    ref, ref_m = _feed(cfg, df, [])
    assert ref_m["late_dropped"] == n_late > 0
    assert ref_m["dup_dropped"] == n_dup > 0
    want = _canon(ref, cfg.kind)
    assert not want.duplicated(["conv_id", "window_start"]).any()
    rng = np.random.default_rng(9)
    cuts = sorted(rng.choice(np.arange(1, len(df)), 7, replace=False)
                  .tolist())
    for rows, m in (_feed(cfg, df, list(range(1, len(df)))),
                    _feed(cfg, df, cuts, snap_at=cuts[3])):
        pd.testing.assert_frame_equal(_canon(rows, cfg.kind), want,
                                      check_exact=True)
        for k in ("rows_in", "late_dropped", "dup_dropped",
                  "windows_emitted"):
            assert m[k] == ref_m[k], k
    assert ref_m["windows_emitted"] == len(want)


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


def test_restore_snapshot_without_row_log():
    """A snapshot from before the row log (open windows as accumulators,
    no ``log`` key, no ``windows_promoted`` counter) restores; its open
    windows keep their accumulators and take the later rows."""
    cfg = WindowConfig(kind="tumbling", size_us=10 * S)
    rows = pd.DataFrame({
        "conv_id": ["a"] * 6, "turn_uid": np.arange(6),
        "role": ["user", "assistant"] * 3, "text": ["hi there"] * 6,
        "tool": "", "ts": (EPOCH + np.arange(6) * S)
        .astype("datetime64[us]")})
    eng = StreamEngine(cfg)
    assert eng.process_rows(rows.iloc[:3]) == []
    d = pickle.loads(eng.snapshot())
    acc = _WindowAcc()
    for r in rows.iloc[:3].itertuples():
        acc.add(r.ts.value // 1000, r.turn_uid, r.role, r.text, r.tool, cfg)
    start = EPOCH // (10 * S) * 10 * S
    d.update(open={("a", start): acc}, heap=[(start + 10 * S, "a", start)])
    del d["log"]
    del d["metrics"].__dict__["windows_promoted"]
    old = StreamEngine.restore(pickle.dumps(d))
    assert old.metrics.as_dict()["windows_promoted"] == 0
    out = old.process_rows(rows.iloc[3:]) + old.flush()
    assert len(out) == 1 and out[0]["n_turns"] == 6
    assert out[0]["n_chars"] == 6 * len("hi there")


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
