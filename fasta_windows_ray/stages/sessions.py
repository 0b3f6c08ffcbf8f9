"""Session windows (gap-based) — north-star extension, no reference
counterpart (SURVEY.md §2.2 W4).

A session groups consecutive turns of one conversation whose inter-turn
gap is <= ``gap_us``; a strictly greater gap starts a new session.
Assignment needs the key's sorted timestamps, so it runs per chunk of
whole hash buckets inside ``stats_by_group``: one sort and one
``windows.session_ids`` call assign every row of the chunk its
session's first and last ts, and ``BucketWindowStats`` computes the
stats of every session at once. The stream engine (state/engine.py)
assigns sessions as rows arrive, on the same kernel; on ts-sorted input
they equal these (a pytest gate).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..windows import session_ids
from .window_stats import (BucketWindowStats, _codes, _int64_us, add_bucket,
                           stats_by_group)


def session_bounds(t: pa.Table, gap_us: int):
    """``t`` sorted by (conv_id, ts), with the row ranges of its sessions:
    returns (sorted table, its ts as int64 us, first row of each session,
    last row of each session, session ordinal of each row)."""
    t = t.sort_by([("conv_id", "ascending"), ("ts", "ascending")])
    ts = _int64_us(t["ts"])
    sid = session_ids(ts, gap_us, _codes(t["conv_id"]))
    bounds = np.searchsorted(sid, np.arange(sid[-1] + 2 if len(sid) else 1))
    return t, ts, bounds[:-1], bounds[1:] - 1, sid


def assign_sessions(t: pa.Table, gap_us: int) -> pa.Table:
    """``t`` sorted by (conv_id, ts), each row with its session's first
    and last ts as ``window_start``/``window_end``."""
    t, ts, first, last, sid = session_bounds(t, gap_us)
    return t.append_column(
        "window_start", pa.array(ts[first][sid]).cast(pa.timestamp("us"))) \
        .append_column(
        "window_end", pa.array(ts[last][sid]).cast(pa.timestamp("us")))


def session_stats(ds, gap_us: int, num_buckets: int = 64):
    """Dataset of (conv_id, session_start, session_end, n_turns)."""
    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"conv_id": t["conv_id"],
                         "session_start": t["window_start"],
                         "session_end": t["window_end"],
                         "n_turns": t["n_turns"]})

    return stats_by_group(add_bucket(ds, num_buckets), "bucket",
                          BucketWindowStats(profile="counts"),
                          lambda t: assign_sessions(t, gap_us)) \
        .map_batches(finish, batch_format="pyarrow")
