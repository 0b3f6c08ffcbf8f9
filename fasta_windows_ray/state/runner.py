"""Execution wrappers for the stateful StreamEngine.

Two paths, same state machine, pytest-gated to agree with each other and
with the stateless groupby path:

1. ``stateful_window_run`` — Dataset-native: the single conv_id
   hash-bucket shuffle, then each bucket's rows are replayed in event-log
   order through a StreamEngine inside ``map_groups``. Fully distributed;
   this is the batch-over-log shape that scales to 100 TB (a bucket is
   1/num_buckets of the input; skew-bounded because buckets hold many
   conversations).

2. ``StreamingJob`` — raw Ray actors (the one place the Dataset API
   genuinely can't express the semantics: long-lived shared mutable
   state + mid-stream checkpoints). P partition actors each own a
   StreamEngine and an ExactlyOnceSink; the driver routes replayable
   input splits; checkpoints commit (rows, snapshot, offset) atomically;
   ``resume=True`` restores from the last committed checkpoint and skips
   the consumed prefix — kill-and-resume equals fresh-run (pytest gate).
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import ray

from ..sinks import ExactlyOnceSink, read_output
from ..stages.window_stats import add_bucket, add_bucket_slab
from .engine import StreamEngine, WindowConfig, emitted_to_frame


def _extra_cols(cfg: WindowConfig) -> tuple:
    """Output columns beyond the stats schema: custom aggregates, plus
    the per-window ``revision`` counter in updates mode."""
    extra = tuple(cfg.custom_aggs)
    if cfg.emit == "updates":
        extra += ("revision",)
    return extra


def partition_of(conv_ids, num_partitions: int) -> np.ndarray:
    """Partition of each conv_id: ``zlib.crc32`` of its UTF-8 string
    modulo ``num_partitions``, hashed once per distinct conv_id."""
    codes, uniq = pd.factorize(pd.Series(conv_ids).astype(str))
    part = np.asarray([zlib.crc32(c.encode()) % num_partitions
                       for c in uniq], dtype=np.int64)
    return part[codes]


def latest_revision(df: pd.DataFrame,
                    keys: tuple = ("conv_id", "window_start")) -> pd.DataFrame:
    """Resolve an updates-mode output stream to its final state: keep the
    highest ``revision`` per window key (the upsert a keyed sink applies).
    Deterministic regardless of row order; no-op columns-wise (the
    revision column is retained so callers can audit update depth)."""
    if "revision" not in df.columns or not len(df):
        return df
    df = df.sort_values([*keys, "revision"], kind="stable")
    return df.drop_duplicates(subset=list(keys), keep="last") \
             .reset_index(drop=True)


def _replay(df: pd.DataFrame, cfg: WindowConfig,
            partition_id: int = 0) -> tuple[StreamEngine, list[dict]]:
    """One engine fed ``df`` sorted by (ts, turn_uid | turn_idx), then
    flushed: the engine and every row it emitted."""
    order = ["ts"] + [c for c in ("turn_uid", "turn_idx") if c in df.columns]
    eng = StreamEngine(cfg, partition_id)
    rows = eng.process_rows(df.sort_values(order, kind="stable"))
    return eng, rows + eng.flush()


def stateful_window_run(ds, cfg: WindowConfig, num_buckets: int = 64,
                        slab_windows: int | None = 4096):
    """Dataset path: (bucket × time-slab) shuffle → per-group stream
    replay. The slab component bounds per-task group size for tumbling/
    sliding (see add_bucket_slab); session windows have no fixed span, so
    they group by bucket only.

    The batch window kinds (``window_stats``, ``session_stats``,
    ``turn_window_counts``, ``salted_session_stats``) compute their stats
    with ``BucketWindowStats``; this replay runs the stream engine
    (watermarks, late/dup drops, and the same kernel for every
    final-mode window), and is what the parity tests hold the engine to
    the batch path with."""
    slabbed = cfg.kind in ("tumbling", "sliding") and bool(slab_windows)
    if slabbed:
        ds, slab_l = add_bucket_slab(
            ds, num_buckets, cfg.size_us,
            cfg.step_us if cfg.kind == "sliding" else None,
            cfg.offset_us, slab_windows)
        group_key = "_gk"
    else:
        ds = add_bucket(ds, num_buckets)
        group_key = "bucket"

    def replay_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = emitted_to_frame(_replay(df, cfg)[1], cfg.kind,
                               _extra_cols(cfg))
        if slabbed and len(out):
            # sliding duplicates boundary rows into the previous slab;
            # the engine emits every covering window, so keep only the
            # windows whose start lives in this group's slab
            slab = np.int64(df["_slab"].iloc[0])
            ws = out["window_start"].astype("datetime64[us]") \
                .astype("int64").to_numpy()
            out = out[(ws - cfg.offset_us) // slab_l == slab]
        return out

    return ds.groupby(group_key).map_groups(replay_bucket,
                                            batch_format="pandas")


def stateful_metrics(ds, cfg: WindowConfig, num_buckets: int = 64):
    """Per-partition engine metrics (rows_in, late_dropped, dup_dropped,
    windows/sessions emitted) — the north rule's per-partition metrics
    surface, computed by the same bucket replay."""
    ds = add_bucket(ds, num_buckets)

    def replay_metrics(df: pd.DataFrame) -> pd.DataFrame:
        eng, _ = _replay(df, cfg, int(df["bucket"].iloc[0]) if len(df) else 0)
        m = eng.metrics.as_dict()
        m["partition"] = eng.partition_id
        return pd.DataFrame([m])

    return ds.groupby("bucket").map_groups(replay_metrics,
                                           batch_format="pandas")


@ray.remote
class PartitionActor:
    """Owns one partition's StreamEngine + sink. Raw actor by design —
    documented Dataset-API escape hatch (SURVEY.md §4)."""

    def __init__(self, out_dir: str, cfg: WindowConfig, pid: int,
                 resume: bool):
        self.sink = ExactlyOnceSink(out_dir, pid)
        self.cfg = cfg
        self.pid = pid
        self.seq, self.consumed, snap = (self.sink.resume_point()
                                         if resume else (0, 0, None))
        self.engine = (StreamEngine.restore(snap) if snap
                       else StreamEngine(cfg, pid))
        self.pending: list[dict] = []
        self.batch_no = 0

    def consumed_rows(self) -> int:
        return self.consumed

    def process(self, df: pd.DataFrame, n_input_rows: int) -> int:
        self.pending.extend(self.engine.process_rows(df))
        self.consumed += n_input_rows
        self.batch_no += 1
        return len(self.pending)

    def checkpoint(self) -> int:
        rows = emitted_to_frame(self.pending, self.cfg.kind,
                                _extra_cols(self.cfg))
        self.sink.commit_interval(self.seq, rows, self.engine.snapshot(),
                                  self.consumed,
                                  self.engine.metrics.as_dict())
        self.pending = []
        self.seq += 1
        return self.seq

    def finish(self) -> dict:
        self.pending.extend(self.engine.flush())
        self.checkpoint()
        self.sink.mark_done()
        return self.engine.metrics.as_dict()


class StreamingJob:
    """Streaming emulation over a replayable, ordered input log."""

    def __init__(self, out_dir: str, cfg: WindowConfig,
                 num_partitions: int = 4, resume: bool = False):
        self.out_dir = out_dir
        self.cfg = cfg
        self.P = num_partitions
        self.actors = [PartitionActor.remote(out_dir, cfg, p, resume)
                       for p in range(self.P)]
        self.start_offsets = ray.get(
            [a.consumed_rows.remote() for a in self.actors])

    def run(self, table: pd.DataFrame, batch_rows: int = 4096,
            checkpoint_every: int = 4, crash_after_batches: int | None = None):
        """Feed the log in order; route rows to partition actors by
        conv_id hash; checkpoint every N batches per partition.

        ``crash_after_batches`` aborts mid-run WITHOUT flushing — used by
        the kill-and-resume test.
        """
        part = partition_of(table["conv_id"].to_numpy(), self.P)
        n = len(table)
        consumed = [0] * self.P
        batches_fed = 0
        for lo in range(0, n, batch_rows):
            hi = min(lo + batch_rows, n)
            chunk = table.iloc[lo:hi]
            cpart = part[lo:hi]
            futs = []
            for p in range(self.P):
                sub = chunk[cpart == p]
                consumed[p] += hi - lo
                # resume skip: this partition already consumed the prefix
                if consumed[p] <= self.start_offsets[p]:
                    continue
                futs.append(self.actors[p].process.remote(sub, hi - lo))
            ray.get(futs)
            batches_fed += 1
            if crash_after_batches is not None and \
                    batches_fed >= crash_after_batches:
                return None          # simulate a crash: no flush, no commit
            if batches_fed % checkpoint_every == 0:
                ray.get([a.checkpoint.remote() for a in self.actors])
        metrics = ray.get([a.finish.remote() for a in self.actors])
        return metrics

    def output(self) -> pd.DataFrame:
        return read_output(self.out_dir)
