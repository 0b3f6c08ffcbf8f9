"""Stateful join of emitted window stats back onto the turn rows
(SURVEY.md §2.7 "Joins"; north_star join-back).

Three entry points; ``join_back_auto`` picks a strategy by the measured
size of the stats side (callers should default to it):

- broadcast (default here): the window-stats table is orders of magnitude
  smaller than the turns table (one row per (conv_id, window) vs one per
  turn), so we ``ray.put`` it once and probe it per batch inside
  ``map_batches`` — no shuffle at all. This is the right shape whenever
  stats fit a worker's heap (even at 100 TB of turns, stats for a day's
  windows are GBs, and the join can be range-partitioned by window day).
- co-partitioned: both sides get the same conv_id hash bucket and are
  merged per bucket inside ``map_groups`` — used when the stats side is
  itself huge. Provided as ``join_back_bucketed``.
"""

from __future__ import annotations

import pandas as pd
import ray

from .window_stats import _int64_us, add_bucket, tumbling_start

# stats side above this goes through the co-partitioned hash join instead
# of a driver-held broadcast table: at 100 TB of turns a year of window
# stats is tens of GB, far past any worker heap. 256 MB keeps the
# broadcast pandas frame + its per-actor copy comfortably inside the
# default object-store/worker budgets.
BROADCAST_LIMIT_BYTES = 256 << 20


def join_back_auto(turns_ds, stats_ds, size_us: int, stat_cols: list[str],
                   num_buckets: int = 64, offset_us: int = 0,
                   broadcast_limit_bytes: int = BROADCAST_LIMIT_BYTES):
    """Annotate turns with their window's stats, picking the join strategy
    by the MEASURED stats-side size: broadcast while the stats table fits
    comfortably in a worker heap, co-partitioned hash join past the limit.
    The stats side is materialized either way (both strategies consume it
    fully; blocks stay in the object store — only the under-limit path
    ever pulls it to the driver)."""
    stats_mat = stats_ds.materialize()
    if stats_mat.size_bytes() <= broadcast_limit_bytes:
        stats_pdf = stats_mat.select_columns(
            ["conv_id", "window_start"] + stat_cols).to_pandas()
        return join_back_broadcast(turns_ds, stats_pdf, size_us, stat_cols,
                                   offset_us)
    return join_back_bucketed(turns_ds, stats_mat, size_us, stat_cols,
                              num_buckets, offset_us)


def join_back_broadcast(turns_ds, stats_pdf: pd.DataFrame, size_us: int,
                        stat_cols: list[str], offset_us: int = 0):
    """Annotate each turn with its tumbling window's stats columns.

    ``stats_pdf`` must contain conv_id, window_start and ``stat_cols``.
    The lookup is a vectorized pandas merge per batch against the
    broadcast (ray.put once, get per actor) stats table.
    """
    small = stats_pdf[["conv_id", "window_start"] + stat_cols].copy()
    small["window_start"] = small["window_start"].astype("datetime64[us]")
    ref = ray.put(small)

    class JoinBack:
        def __init__(self):
            self.stats = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            ws = tumbling_start(
                batch["ts"].dt.as_unit("us").astype("int64").to_numpy(),
                size_us, offset_us)
            batch = batch.copy()
            batch["window_start"] = pd.Series(ws).astype("datetime64[us]").values
            return batch.merge(self.stats, on=["conv_id", "window_start"],
                               how="left")

    return turns_ds.map_batches(JoinBack, batch_format="pandas",
                                concurrency=(1, 8))


def join_back_bucketed(turns_ds, stats_ds, size_us: int,
                       stat_cols: list[str], num_buckets: int = 64,
                       offset_us: int = 0):
    """Co-partitioned hash join: both sides bucketed on conv_id, merged per
    bucket. Scale path when the stats side does not fit in one heap."""
    import pyarrow as pa

    def _assign(t: pa.Table) -> pa.Table:
        ws = tumbling_start(_int64_us(t["ts"]), size_us, offset_us)
        return t.append_column("window_start",
                               pa.array(ws).cast(pa.timestamp("us")))

    left = add_bucket(turns_ds.map_batches(_assign, batch_format="pyarrow"),
                      num_buckets)
    right = add_bucket(stats_ds, num_buckets)

    # align the two sides onto one unioned schema (missing cols -> nulls)
    left_cols = [f.name for f in left.schema().base_schema]
    right_cols = [f.name for f in right.schema().base_schema]
    all_cols = list(dict.fromkeys(left_cols + right_cols + ["_side"]))
    types = {}
    for sch in (left.schema().base_schema, right.schema().base_schema):
        for f in sch:
            types.setdefault(f.name, f.type)
    types["_side"] = pa.string()

    def _align(t: pa.Table, side: str) -> pa.Table:
        t = t.append_column("_side", pa.array([side] * len(t)))
        for cname in all_cols:
            if cname not in t.column_names:
                t = t.append_column(cname, pa.nulls(len(t), types[cname]))
        return t.select(all_cols)

    both = left.map_batches(lambda t: _align(t, "L"), batch_format="pyarrow") \
        .union(right.map_batches(lambda t: _align(t, "R"), batch_format="pyarrow"))

    def merge_bucket(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["_side"] == "L"].dropna(axis=1, how="all")
        r = df[df["_side"] == "R"][["conv_id", "window_start"] + stat_cols]
        out = l.drop(columns=["_side"]).merge(
            r, on=["conv_id", "window_start"], how="left",
            suffixes=("", "_w"))
        return out

    return both.groupby("bucket").map_groups(merge_bucket,
                                             batch_format="pandas")
