"""Exactly-once, resumable Parquet sinks.

Both sinks make each file visible whole by renaming it into place from a
name no reader consults, and both keep one commit point that readers and
resumed runs trust.

Stream sink (``ExactlyOnceSink``), per output root:

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

Batch sink (``write_partitioned``), per output root:

    part={p}/data.parquet                  the partition's rows
    part={p}/.done                         commit marker (its row count)
    part={p}/piece-{uuid}.parquet          staged rows, not yet committed

Stage, then commit. The task that produces a block groups its rows by
the partition column and writes each partition it holds to a fresh
piece; a partition that already has ``.done`` is skipped. Only the
(partition, n_rows, skipped, piece) report reaches the driver. The
driver commits each partition: several pieces are first concatenated
into one in a Ray task, the single piece is renamed to ``data.parquet``,
then ``.done`` is written, and any other piece in the directory (left
by a crash or a merge) is removed. ``.done`` is the commit point:
readers ignore a partition without it, and a rerun stages it afresh.

The reference has no counterpart (truncating file writes, main.rs:97-110).
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _atomic_write(path: str, writer) -> None:
    """Make ``path`` visible whole: ``writer`` fills a temp file that is
    then renamed over ``path``, so a reader sees the old file or the new
    one, never a torn write."""
    tmp = path + ".tmp"
    writer(tmp)
    os.replace(tmp, path)


class ExactlyOnceSink:
    def __init__(self, root: str, partition_id: int):
        self.root = root
        self.pid = partition_id
        os.makedirs(root, exist_ok=True)
        self.manifest_path = os.path.join(root, f"manifest-{self.pid:05d}.json")

    # -- commit -------------------------------------------------------------

    def _save_manifest(self, m: dict):
        _atomic_write(self.manifest_path,
                      lambda p: Path(p).write_text(json.dumps(m)))

    def commit_interval(self, seq: int, rows: pd.DataFrame | pa.Table,
                        snapshot: bytes, rows_consumed: int,
                        metrics: dict | None = None):
        part = os.path.join(self.root, f"part-{self.pid:05d}-ck{seq:06d}.parquet")
        state = os.path.join(self.root, f"state-{self.pid:05d}-ck{seq:06d}.pkl")
        if isinstance(rows, pd.DataFrame):
            rows = pa.Table.from_pandas(rows, preserve_index=False)
        _atomic_write(part, lambda p: pq.write_table(rows, p))
        _atomic_write(state, lambda p: Path(p).write_bytes(snapshot))
        m = self.load_manifest()
        m["intervals"] = [iv for iv in m["intervals"] if iv["seq"] < seq]
        m["intervals"].append({"seq": seq, "rows_consumed": rows_consumed,
                               "n_rows": rows.num_rows,
                               "metrics": metrics or {}})
        self._save_manifest(m)

    def mark_done(self):
        m = self.load_manifest()
        m["done"] = True
        self._save_manifest(m)

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
    _atomic_write(part, lambda p: pq.write_table(merged, p))
    with open(state_old, "rb") as f:
        snap = f.read()
    _atomic_write(state_new, lambda p: Path(p).write_bytes(snap))
    m["intervals"] = [{"seq": new_seq,
                       "rows_consumed": last["rows_consumed"],
                       "n_rows": merged.num_rows,
                       "metrics": last.get("metrics", {}),
                       "compacted_from": ivs[0]["seq"]}]
    sink._save_manifest(m)
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

_STAGED = pa.schema([("partition", pa.int64()), ("n_rows", pa.int64()),
                     ("skipped", pa.bool_()), ("piece", pa.string())])


def write_partitioned(ds, root: str, partition_col: str = "bucket",
                      keep_partition_col: bool = False):
    """Write a Dataset as one atomically committed parquet file per value
    of ``partition_col``, skipping partitions that a previous (possibly
    failed) run already committed.

    Layout: ``{root}/part={p}/data.parquet`` plus a ``.done`` marker
    written after it; see the module docstring for the stage/commit
    protocol. No shuffle: one ``map_batches(batch_size=None)``, which
    Ray fuses with the map that produced the blocks, stages every
    partition of each block from inside its task, and the driver commits
    from the staged report alone. A partition held by one block is
    committed by a rename; one spread over several blocks is first
    concatenated in a Ray task, in the order the blocks arrive.

    EAGER (a sink must sink): returns the (partition, n_rows, skipped)
    report as pandas, one row per partition in ascending order.
    """
    os.makedirs(root, exist_ok=True)

    def stage_partitions(block: pa.Table) -> pa.Table:
        return pa.Table.from_pylist(
            _stage_block(block, root, partition_col, keep_partition_col),
            schema=_STAGED)

    staged = ds.map_batches(stage_partitions, batch_format="pyarrow",
                            batch_size=None, zero_copy_batch=True).take_all()
    return _commit_staged(root, staged).to_pandas()


def write_partition_block(block: pa.Table, root: str, partition_col: str,
                          keep_partition_col: bool = False) -> pa.Table:
    """Stage and commit every partition of one block in this process
    (each partition is one piece, so each commit is a rename); returns
    the (partition, n_rows, skipped) report in ascending order."""
    return _commit_staged(root, _stage_block(block, root, partition_col,
                                             keep_partition_col))


def _stage_block(block: pa.Table, root: str, partition_col: str,
                 keep_partition_col: bool) -> list[dict]:
    """Write each partition's rows of ``block`` (in block order) to a
    fresh ``part={p}/piece-*.parquet``; a partition with ``.done`` is
    reported skipped instead. Returns one _STAGED row per partition."""
    if not block.num_rows:
        return []
    keys = block[partition_col].to_numpy()
    if (keys[1:] < keys[:-1]).any():
        order = np.argsort(keys, kind="stable")
        keys, block = keys[order], block.take(order)
    if not keep_partition_col:
        block = block.drop_columns([partition_col])
    block = block.replace_schema_metadata(None)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    out = []
    for a, b in zip(starts.tolist(), np.r_[starts[1:], len(keys)].tolist()):
        p = int(keys[a])
        pdir = os.path.join(root, f"part={p}")
        if os.path.exists(os.path.join(pdir, ".done")):
            out.append({"partition": p, "n_rows": 0, "skipped": True,
                        "piece": ""})
            continue
        os.makedirs(pdir, exist_ok=True)
        piece = _new_piece(pdir)
        pq.write_table(block.slice(a, b - a), piece)
        out.append({"partition": p, "n_rows": b - a, "skipped": False,
                    "piece": piece})
    return out


def _new_piece(pdir: str) -> str:
    return os.path.join(pdir, f"piece-{uuid.uuid4().hex}.parquet")


def _commit_staged(root: str, staged: list[dict]) -> pa.Table:
    """Commit every partition staged in ``staged`` (_STAGED rows from
    any number of blocks); returns the (partition, n_rows, skipped)
    report, one row per partition in ascending order."""
    pieces: dict[int, list[str]] = {}
    n_rows: dict[int, int] = {}
    for r in staged:
        p = int(r["partition"])
        n_rows[p] = n_rows.get(p, 0) + int(r["n_rows"])
        if not r["skipped"]:
            pieces.setdefault(p, []).append(r["piece"])
    several = {p: v for p, v in pieces.items() if len(v) > 1}
    merged = _merge_pieces(several) if several else {}
    parts = sorted(n_rows)
    for p in parts:
        if p in pieces:
            _commit_partition(os.path.join(root, f"part={p}"),
                              merged.get(p, pieces[p][0]), n_rows[p])
    return pa.table({"partition": pa.array(parts, pa.int64()),
                     "n_rows": pa.array([n_rows[p] for p in parts],
                                        pa.int64()),
                     "skipped": pa.array([p not in pieces for p in parts],
                                         pa.bool_())})


def _merge_pieces(jobs: dict[int, list[str]]) -> dict[int, str]:
    """One new piece per partition of ``jobs`` holding its pieces' rows
    in order, each concatenated in a Ray task so that partition data
    never passes through the driver."""
    import ray

    concat = ray.remote(_concat_pieces)
    refs = [concat.remote(v) for v in jobs.values()]
    return dict(zip(jobs, ray.get(refs)))


def _concat_pieces(pieces: list[str]) -> str:
    out = _new_piece(os.path.dirname(pieces[0]))
    pq.write_table(pa.concat_tables([pq.read_table(p) for p in pieces],
                                    promote_options="default"), out)
    return out


def _commit_partition(pdir: str, piece: str, n_rows: int) -> None:
    """Rename ``piece`` to ``data.parquet``, write the ``.done`` marker
    (the commit point), then remove every other piece in ``pdir``."""
    os.replace(piece, os.path.join(pdir, "data.parquet"))
    _atomic_write(os.path.join(pdir, ".done"),
                  lambda p: Path(p).write_text(str(n_rows)))
    for name in os.listdir(pdir):
        if name.startswith("piece-"):
            os.remove(os.path.join(pdir, name))


def read_partitioned(root: str):
    """All committed partitions (directories with a .done marker)."""
    frames = []
    for name in sorted(os.listdir(root)):
        pdir = os.path.join(root, name)
        if name.startswith("part=") and os.path.exists(
                os.path.join(pdir, ".done")):
            frames.append(pq.read_table(
                os.path.join(pdir, "data.parquet")).to_pandas())
    return (pd.concat(frames, ignore_index=True) if frames
            else pd.DataFrame())
