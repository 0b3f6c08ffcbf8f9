"""Window assignment — pure vectorized functions over numpy int64 arrays.

The reference's windows are tumbling chunks over base positions
(fw.rs:83 `seq.chunks(window_size)`; trailing partial emitted, end clamped
to the record — fw.rs:73-79,130-144, issues #8/#9). We generalise to:

- tumbling/sliding windows over either ``turn_idx`` (the direct analogue)
  or event-time ``ts`` (north-star), step <= size, offset supported;
- session windows (gap-based) — north-star extension, no reference
  counterpart.

All assignment for tumbling/sliding is a pure per-row function (so it runs
inside ``map_batches`` with no state). Session and count windows need each
key's rows in order: their assigners take a block of whole keys sorted by
(key, ts) and assign every row of it in one call.
"""

from __future__ import annotations

import numpy as np


def tumbling_start(x: np.ndarray, size: int, offset: int = 0) -> np.ndarray:
    """Window start for each value: floor-div bucketing.

    Works for int64 epoch-microseconds or turn indices. Python floor
    division semantics (rounds toward -inf) — matches SQL ``//`` on
    non-negative inputs.
    """
    x = np.asarray(x, dtype=np.int64)
    return (x - offset) // size * size + offset


def sliding_starts_expand(x: np.ndarray, size: int, step: int,
                          offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """All covering sliding-window starts for each value.

    Returns (row_indices, window_starts): row ``i`` is replicated once per
    window covering ``x[i]`` (starts s with s <= x < s+size, s ≡ offset
    (mod step)). For size = c*step each row lands in exactly c windows;
    near the epoch boundary fewer (no negative-start windows are emitted
    for offset=0 inputs >= 0 only when start < offset).
    """
    if size % step != 0:
        raise ValueError("size must be a multiple of step")
    x = np.asarray(x, dtype=np.int64)
    c = size // step
    top = (x - offset) // step * step + offset           # latest covering start
    k = np.arange(c, dtype=np.int64)
    starts = top[:, None] - k[None, :] * step            # (n, c)
    rows = np.broadcast_to(np.arange(len(x))[:, None], starts.shape)
    keep = starts >= offset                               # don't emit pre-offset windows
    return rows[keep].ravel(), starts[keep].ravel()


def session_ids(ts_sorted: np.ndarray, gap: int,
                key: np.ndarray | None = None) -> np.ndarray:
    """Session index per row of time-sorted timestamps.

    New session when the gap to the previous row exceeds ``gap``
    (strictly greater) or, with ``key``, when the key changes: rows
    sorted by (key, ts) get every key's sessions in one call. Returns
    int64 session ordinals starting at 0.
    """
    ts_sorted = np.asarray(ts_sorted, dtype=np.int64)
    if len(ts_sorted) == 0:
        return np.zeros(0, dtype=np.int64)
    brk = np.empty(len(ts_sorted), dtype=np.int64)
    brk[0] = 0
    new = np.diff(ts_sorted) > gap
    if key is not None:
        new |= key[1:] != key[:-1]
    brk[1:] = new
    return np.cumsum(brk)


def count_window_bounds(key: np.ndarray,
                        size: int) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) turn offsets of each row's count window, for rows
    sorted by key and then turn order: a row's window starts at its rank
    within its key floored to a multiple of ``size``, and ends clamped to
    the key's turn count (``turn_window_bounds``)."""
    n = len(key)
    new = np.ones(n, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    first = np.flatnonzero(new)
    run = np.cumsum(new) - 1
    start = (np.arange(n) - first[run]) // size * size
    return start, turn_window_bounds(start, size,
                                     np.diff(np.r_[first, n])[run])


def turn_window_bounds(starts: np.ndarray, size: int,
                       conv_len: int) -> np.ndarray:
    """Clamped window ends for turn-index windows.

    end = min(start + size, conv_len): the trailing partial window is
    emitted with its true end (fw.rs:130-144, issue #8), and a conversation
    shorter than one window yields [0, conv_len) (fw.rs:74-79, issue #9).
    """
    return np.minimum(np.asarray(starts, dtype=np.int64) + size, conv_len)
