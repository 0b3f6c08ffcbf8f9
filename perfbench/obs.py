"""Measurement helpers: spans, /proc memory, the Ray process tree and
Ray Data operator stats. Standard library and numpy only."""

from __future__ import annotations

import json
import os
import signal
import statistics
import time

import numpy as np


def timed_loop(seconds: float, job, min_jobs: int = 3) -> list[float]:
    """Run ``job()`` back to back until the next one would overrun the
    budget (at least ``min_jobs``). Returns each job's wall seconds."""
    times: list[float] = []
    t_start = time.perf_counter()
    while True:
        a = time.perf_counter()
        job()
        times.append(time.perf_counter() - a)
        used = time.perf_counter() - t_start
        if len(times) >= min_jobs and \
                used + statistics.median(times) > seconds:
            return times


class Tracer:
    """In-memory spans (name, start, end, parent, run id), written out
    once at the end. Disabled tracers record nothing and cost one branch."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.tables: list[dict] = []

    def span(self, name: str):
        return _Span(self, name)

    def busy(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "operators": self.tables, **extra}, f, indent=1)


class _Span:
    def __init__(self, tr: Tracer, name: str):
        self.tr, self.name = tr, name

    def __enter__(self):
        if self.tr.enabled:
            self.idx = len(self.tr.spans)
            self.tr.spans.append({
                "name": self.name, "start": time.perf_counter(), "end": None,
                "parent": self.tr._stack[-1] if self.tr._stack else None,
                "run_id": self.tr.run_id})
            self.tr._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        if self.tr.enabled:
            self.tr.spans[self.idx]["end"] = time.perf_counter()
            self.tr._stack.pop()
        return False


# --------------------------------------------------------------------------
# process tree and memory
# --------------------------------------------------------------------------

def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                st = f.read()
            ppid = int(st[st.rindex(")") + 2:].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int | None = None) -> list[int]:
    pid = pid or os.getpid()
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _vmhwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def ray_worker_pids() -> list[int]:
    """Ray worker processes (task workers and actors) under this process."""
    return [p for p in descendants()
            if (c := _cmdline(p)).startswith("ray::")
            or "default_worker.py" in c]


def rss_peak_mb() -> float:
    """Sum of VmHWM (peak resident set) over this process and every Ray
    worker process alive now."""
    kb = _vmhwm_kb(os.getpid()) + sum(_vmhwm_kb(p) for p in ray_worker_pids())
    return kb / 1024.0


def reap_tree(pids: list[int], timeout_s: float = 15.0) -> None:
    """Wait until every pid has exited; SIGKILL what is left at timeout."""
    deadline = time.monotonic() + timeout_s
    killed = False
    while alive := [p for p in pids if _alive(p)]:
        if time.monotonic() > deadline:
            if killed:
                return
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            killed = True
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)      # reap it if it is our child
    except OSError:
        pass
    try:
        with open(f"/proc/{pid}/stat") as f:
            st = f.read()
        return st[st.rindex(")") + 2] != "Z"
    except OSError:
        return False


# --------------------------------------------------------------------------
# Ray Data operator table
# --------------------------------------------------------------------------

def operator_table(ds) -> list[dict]:
    """Per-operator rows from ``Dataset.stats()``'s summary (this dataset
    and every materialized parent): wall, CPU and UDF time summed over
    tasks, output rows/bytes, and the operator's span in wall time."""
    rows: list[dict] = []

    def walk(s):
        for p in getattr(s, "parents", []) or []:
            walk(p)
        for op in s.operators_stats:
            rows.append({
                "operator": op.operator_name,
                "sub": bool(op.is_sub_operator),
                "span_s": float(op.latest_end_time - op.earliest_start_time)
                if op.latest_end_time and op.earliest_start_time else 0.0,
                "wall_s": float(op.wall_time.get("sum", 0) or 0),
                "cpu_s": float(op.cpu_time.get("sum", 0) or 0),
                "udf_s": float(op.udf_time.get("sum", 0) or 0),
                "rows": int(op.output_num_rows.get("sum", 0) or 0),
                "bytes": int(op.output_size_bytes.get("sum", 0) or 0),
                "rows_min": int(op.output_num_rows.get("min", 0) or 0),
                "rows_max": int(op.output_num_rows.get("max", 0) or 0),
            })

    walk(ds._get_stats_summary())
    return rows


def pct(values, q: float) -> float:
    """Nearest-rank percentile (the highest sample when too few)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if len(v) == 0:
        return float("nan")
    k = int(np.ceil(q / 100.0 * len(v))) - 1
    return float(v[min(max(k, 0), len(v) - 1)])
