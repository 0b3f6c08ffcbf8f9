"""``BucketWindowStats.fold`` + ``finish`` against ``table``: summaries
folded from the same rows, in any number of calls and across a pickle
round trip, give ``table``'s row bit for bit."""

import pickle
import struct

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from fasta_windows_ray.stages import window_stats as W

S = 1_000_000
_TS = pa.timestamp("us")
# ASCII (both cases), multibyte, NUL, the designated bigram's characters
_CHARS = ["a", "A", "b", "k", '"', " ", "\x00", "é", "東", "😀"]
_ROLES = [None, "user", "assistant", "system", "tool", "x"]

_row = st.tuples(
    st.integers(0, 2),                                       # window
    st.one_of(st.none(), st.text(st.sampled_from(_CHARS), max_size=7)),
    st.sampled_from(_ROLES),
    st.sampled_from(["", "grep", None]),
    st.integers(0, 5))                                       # ts, seconds


def _log(rows) -> pa.Table:
    """Log rows as the engine folds them: one per membership."""
    return pa.table({
        "ts": pa.array([(r[0] * 10 + r[4]) * S for r in rows], _TS),
        "turn_uid": np.arange(len(rows), dtype=np.int64),
        "role": pa.array([r[2] for r in rows], pa.string()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "tool": pa.array([r[3] for r in rows], pa.string())})


def _folded(inst, t: pa.Table, win: np.ndarray, cuts) -> pa.Table:
    """``finish`` of the summaries of windows 0.. of ``win``, folded from
    ``t`` in the calls between ``cuts``, pickled and restored after each
    call."""
    wins = np.unique(win)
    sums = [W.WindowSummary() for _ in wins]
    code = np.searchsorted(wins, win)
    bounds = [0, *cuts, t.num_rows]
    for a, b in zip(bounds, bounds[1:]):
        if b > a:
            inst.fold(sums, t.slice(a, b - a), code[a:b])
            sums = pickle.loads(pickle.dumps(sums))
    return inst.finish(sums, ["c"] * len(wins), (wins * 10 * S).tolist(),
                       ((wins + 1) * 10 * S).tolist())


def _table(inst, t: pa.Table, win: np.ndarray) -> pa.Table:
    return inst.table(t.append_column("conv_id", pa.array(
        ["c"] * t.num_rows)).append_column(
        "window_start", pa.array(win * 10 * S, _TS)))


def _bits(col: pa.ChunkedArray) -> list:
    """A column's values, floats by their bits."""
    return [struct.pack("<d", v) if isinstance(v, float) else v
            for v in col.to_pylist()]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=30),
       profile=st.sampled_from(["full", "fast", "counts"]),
       ctw_text=st.booleans(),
       cuts=st.lists(st.integers(1, 29), max_size=3))
def test_finish_of_folds_equals_table(rows, profile, ctw_text, cuts):
    t = _log(rows)
    win = np.array([r[0] for r in rows], dtype=np.int64)
    inst = W.BucketWindowStats(profile=profile, ctw_text=ctw_text,
                               window_size_us=10 * S)
    want = _table(inst, t, win)
    got = _folded(inst, t, win, sorted(c for c in set(cuts)
                                       if c < len(rows)))
    assert got.schema == want.schema
    for name in want.column_names:
        assert _bits(got[name]) == _bits(want[name]), name


def test_spilled_window_keeps_short_kgrams_exact():
    """A window past the cap in distinct 4-grams over a small alphabet
    (few distinct bigrams) spills, yet its n_chars, char entropy and
    bigram diversity stay bit-equal to ``table``'s."""
    rng = np.random.default_rng(3)
    alpha = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789"))
    texts = ["".join(rng.choice(alpha, 40)) for _ in range(2500)]
    n = len(texts)
    t = pa.table({"ts": pa.array(np.arange(n) * 1000, _TS),
                  "turn_uid": np.arange(n), "role": ["user"] * n,
                  "text": texts, "tool": [""] * n})
    win = np.zeros(n, dtype=np.int64)
    inst = W.BucketWindowStats(ctw_depth=-1, window_size_us=10 * S)
    sm = W.WindowSummary()
    for a in range(0, n, 1000):
        inst.fold([sm], t.slice(a, 1000), win[a:a + 1000])
    assert sm.spilled
    got = inst.finish([sm], ["c"], [0], [10 * S])
    want = _table(inst, t, win)
    for name in ("n_chars", "char_entropy", "bigram_diversity"):
        assert _bits(got[name]) == _bits(want[name]), name
