"""Exactly-once, resumable Parquet sink.

Layout (per output root):

    part-{pid:05d}-ck{seq:06d}.parquet     emitted rows of checkpoint seq
    state-{pid:05d}-ck{seq:06d}.pkl        engine snapshot AFTER that batch range
    manifest-{pid:05d}.json                committed checkpoint lineage

Commit protocol per checkpoint interval: (1) write the interval's parquet
to a temp name and atomically rename; (2) write the state snapshot temp +
rename; (3) rewrite the manifest (temp + rename) recording the interval.
The manifest is the commit point: intervals not in the manifest are
ignored by readers and overwritten by a resumed run, and the engine is
deterministic for the same input prefix, so a rerun regenerates
bit-identical files — observational exactly-once (SURVEY.md §2.7).

The reference has no counterpart (truncating file writes, main.rs:97-110).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


class ExactlyOnceSink:
    def __init__(self, root: str, partition_id: int):
        self.root = root
        self.pid = partition_id
        os.makedirs(root, exist_ok=True)
        self.manifest_path = os.path.join(root, f"manifest-{self.pid:05d}.json")

    # -- commit -------------------------------------------------------------

    def _atomic_write(self, path: str, writer):
        tmp = path + ".tmp"
        writer(tmp)
        os.replace(tmp, path)

    def commit_interval(self, seq: int, rows: pd.DataFrame | pa.Table,
                        snapshot: bytes, rows_consumed: int,
                        metrics: dict | None = None):
        part = os.path.join(self.root, f"part-{self.pid:05d}-ck{seq:06d}.parquet")
        state = os.path.join(self.root, f"state-{self.pid:05d}-ck{seq:06d}.pkl")
        if isinstance(rows, pd.DataFrame):
            rows = pa.Table.from_pandas(rows, preserve_index=False)
        self._atomic_write(part, lambda p: pq.write_table(rows, p))
        self._atomic_write(state, lambda p: open(p, "wb").write(snapshot))
        m = self.load_manifest()
        m["intervals"] = [iv for iv in m["intervals"] if iv["seq"] < seq]
        m["intervals"].append({"seq": seq, "rows_consumed": rows_consumed,
                               "n_rows": rows.num_rows,
                               "metrics": metrics or {}})
        self._atomic_write(self.manifest_path,
                           lambda p: open(p, "w").write(json.dumps(m)))

    def mark_done(self):
        m = self.load_manifest()
        m["done"] = True
        self._atomic_write(self.manifest_path,
                           lambda p: open(p, "w").write(json.dumps(m)))

    # -- read / resume ------------------------------------------------------

    def load_manifest(self) -> dict:
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as f:
                return json.load(f)
        return {"partition": self.pid, "intervals": [], "done": False}

    def resume_point(self) -> tuple[int, int, bytes | None]:
        """(next_seq, rows_consumed, snapshot) from the last committed
        interval; (0, 0, None) for a fresh partition."""
        m = self.load_manifest()
        if not m["intervals"]:
            return 0, 0, None
        last = max(m["intervals"], key=lambda iv: iv["seq"])
        state = os.path.join(self.root,
                             f"state-{self.pid:05d}-ck{last['seq']:06d}.pkl")
        with open(state, "rb") as f:
            snap = f.read()
        return last["seq"] + 1, last["rows_consumed"], snap

    def committed_tables(self) -> list[pa.Table]:
        m = self.load_manifest()
        out = []
        for iv in sorted(m["intervals"], key=lambda iv: iv["seq"]):
            p = os.path.join(self.root,
                             f"part-{self.pid:05d}-ck{iv['seq']:06d}.parquet")
            out.append(pq.read_table(p))
        return out


def read_output(root: str) -> pd.DataFrame:
    """All committed rows across partitions (uncommitted files ignored)."""
    frames = []
    for name in sorted(os.listdir(root)):
        if name.startswith("manifest-"):
            pid = int(name.split("-")[1].split(".")[0])
            sink = ExactlyOnceSink(root, pid)
            frames.extend(t.to_pandas() for t in sink.committed_tables())
    frames = [f for f in frames if len(f)]
    if not frames:
        return pd.DataFrame()
    return pd.concat(frames, ignore_index=True)


def compact_partition(root: str, pid: int) -> dict:
    """Fold a partition's committed checkpoint intervals into ONE file.

    Long-running streams accumulate a part/state file pair per
    checkpoint; compaction merges all committed rows into a single
    interval at a FRESH sequence number (last+1) so the commit point
    stays the manifest rewrite: crash before it leaves the new files
    unreferenced (ignored + overwritable); crash after it leaves stale
    old files that no reader consults and a later compact/cleanup
    removes. The last state snapshot is carried to the new seq, so
    ``resume_point`` (and therefore kill-and-resume) is unaffected.

    Returns {"pid", "intervals_before", "n_rows", "removed", "noop"}.
    """
    sink = ExactlyOnceSink(root, pid)
    m = sink.load_manifest()
    ivs = sorted(m["intervals"], key=lambda iv: iv["seq"])
    if len(ivs) < 2:
        return {"pid": pid, "intervals_before": len(ivs),
                "n_rows": sum(iv["n_rows"] for iv in ivs),
                "removed": 0, "noop": True}
    tables = sink.committed_tables()
    merged = pa.concat_tables([t for t in tables if t.num_rows]) \
        if any(t.num_rows for t in tables) else tables[0].slice(0, 0)
    last = ivs[-1]
    new_seq = last["seq"] + 1
    part = os.path.join(root, f"part-{pid:05d}-ck{new_seq:06d}.parquet")
    state_old = os.path.join(root, f"state-{pid:05d}-ck{last['seq']:06d}.pkl")
    state_new = os.path.join(root, f"state-{pid:05d}-ck{new_seq:06d}.pkl")
    sink._atomic_write(part, lambda p: pq.write_table(merged, p))
    with open(state_old, "rb") as f:
        snap = f.read()
    sink._atomic_write(state_new, lambda p: open(p, "wb").write(snap))
    m["intervals"] = [{"seq": new_seq,
                       "rows_consumed": last["rows_consumed"],
                       "n_rows": merged.num_rows,
                       "metrics": last.get("metrics", {}),
                       "compacted_from": ivs[0]["seq"]}]
    sink._atomic_write(sink.manifest_path,
                       lambda p: open(p, "w").write(json.dumps(m)))
    # post-commit cleanup (best-effort: orphans are unreferenced)
    removed = 0
    for iv in ivs:
        for tmpl in ("part-{:05d}-ck{:06d}.parquet",
                     "state-{:05d}-ck{:06d}.pkl"):
            p = os.path.join(root, tmpl.format(pid, iv["seq"]))
            if os.path.exists(p):
                os.remove(p)
                removed += 1
    return {"pid": pid, "intervals_before": len(ivs),
            "n_rows": merged.num_rows, "removed": removed, "noop": False}


def compact_output(root: str) -> list[dict]:
    """Compact every partition's checkpoint intervals (see
    :func:`compact_partition`)."""
    out = []
    for name in sorted(os.listdir(root)):
        if name.startswith("manifest-"):
            pid = int(name.split("-")[1].split(".")[0])
            out.append(compact_partition(root, pid))
    return out


# ---------------------------------------------------------------------------
# Resumable partitioned batch sink (one directory per key-range partition)
# ---------------------------------------------------------------------------

def write_partitioned(ds, root: str, partition_col: str = "bucket",
                      keep_partition_col: bool = False):
    """Write a bucketed Dataset as one atomically-committed parquet file
    per partition, skipping partitions a previous (possibly failed) run
    already committed.

    Layout: ``{root}/part={p}/data.parquet`` + ``.done`` marker written
    AFTER the parquet rename — a rerun recomputes only partitions without
    a marker. EAGER (a sink must sink): executes the writes and returns
    the small (partition, n_rows, skipped) report as pandas, one row per
    partition. ``sort(partition_col)`` puts every partition whole into one
    block, and ``map_batches(batch_size=None)`` commits each partition of
    a block from an Arrow slice (``write_partition_block``): the writes
    happen inside the distributed tasks, not in the calling process.
    """
    os.makedirs(root, exist_ok=True)

    def write_partitions(block: pa.Table) -> pa.Table:
        return write_partition_block(block, root, partition_col,
                                     keep_partition_col)

    return ds.sort(partition_col).map_batches(
        write_partitions, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True).to_pandas()


def write_partition_block(block: pa.Table, root: str, partition_col: str,
                          keep_partition_col: bool = False) -> pa.Table:
    """Commit every partition of a block whose rows are grouped by
    ``partition_col``; returns the (partition, n_rows, skipped) report."""
    report = []
    if block.num_rows:
        keys = block[partition_col].to_numpy()
        ends = np.r_[np.flatnonzero(keys[1:] != keys[:-1]) + 1, len(keys)]
        for a, b in zip(np.r_[0, ends[:-1]].tolist(), ends.tolist()):
            rows = block.slice(a, b - a)
            if not keep_partition_col:
                rows = rows.drop_columns([partition_col])
            report.append(_commit_partition(root, int(keys[a]), rows))
    part, n_rows, skipped = zip(*report) if report else ((), (), ())
    return pa.table({"partition": pa.array(part, pa.int64()),
                     "n_rows": pa.array(n_rows, pa.int64()),
                     "skipped": pa.array(skipped, pa.bool_())})


def _commit_partition(root: str, p: int, rows: pa.Table) -> tuple:
    """Write ``part={p}/data.parquet`` then its ``.done`` marker, each by
    rename; a partition that already has the marker is skipped."""
    pdir = os.path.join(root, f"part={p}")
    done = os.path.join(pdir, ".done")
    if os.path.exists(done):
        return p, 0, True
    os.makedirs(pdir, exist_ok=True)
    tmp = os.path.join(pdir, "data.parquet.tmp")
    pq.write_table(rows.replace_schema_metadata(None), tmp)
    os.replace(tmp, os.path.join(pdir, "data.parquet"))
    with open(done + ".tmp", "w") as f:
        f.write(str(rows.num_rows))
    os.replace(done + ".tmp", done)
    return p, rows.num_rows, False


def read_partitioned(root: str):
    """All committed partitions (directories with a .done marker)."""
    import pandas as pd
    import pyarrow.parquet as pq

    frames = []
    for name in sorted(os.listdir(root)):
        pdir = os.path.join(root, name)
        if name.startswith("part=") and os.path.exists(
                os.path.join(pdir, ".done")):
            frames.append(pq.read_table(
                os.path.join(pdir, "data.parquet")).to_pandas())
    return (pd.concat(frames, ignore_index=True) if frames
            else pd.DataFrame())
