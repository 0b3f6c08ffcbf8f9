"""Benchmark entry point.

    python3 perfbench/run.py --workload fasta_genome --seed 1 --seconds 16 --trace 0

Run from the repository root. Generates the workload's inputs from the
seed, sets Ray up several times (the median is ``setup_s``), runs the
workload through the public API for ``--seconds`` seconds, checks every
output, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
extra traced job, writes its spans and Ray Data operator table to
``.perfbench_out/`` and reports the per-layer metrics. A human-readable
report (including ``fail_frac``) goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import obs  # noqa: E402

WORKLOADS = {"fasta_genome": "wl_fasta", "transcripts_sliding": "wl_sliding",
             "stream_ooo": "wl_stream"}
SETUP_SAMPLES = 3

END_TO_END = {"setup_s": "s", "throughput_per_s": "1/s",
              "latency_p50_ms": "ms", "latency_p99_ms": "ms",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "ray.init_s": "s", "ray.pilot_s": "s",
    "sources.fasta.read_s": "s", "sources.fasta.records": "count",
    "kernels.ctw_calls": "count", "kernels.ctw_s": "s",
    "kernels.seq_stats_s": "s", "kernels.kgram_diversity_s": "s",
    "pipelines.fasta_compat.compute_s": "s",
    "pipelines.fasta_compat.write_s": "s",
    "pipelines.fasta_compat.windows": "count",
    "pipelines.fasta_compat.tsv_bytes": "bytes",
    "transcripts.read_s": "s", "transcripts.rows": "count",
    "transcripts.bytes": "bytes",
    "window_stats.assign_s": "s", "window_stats.fanout": "ratio",
    "window_stats.shuffle_s": "s", "window_stats.shuffle_bytes": "bytes",
    "window_stats.groups": "count", "window_stats.group_skew": "ratio",
    "window_stats.stats_s": "s", "window_stats.windows": "count",
    "window_stats.idle_s": "s",
    "sinks.write_partitioned_s": "s", "sinks.partitions": "count",
    "sinks.bytes_written": "bytes",
    "sinks.checkpoint_ms_p50": "ms", "sinks.checkpoint_ms_p99": "ms",
    "sinks.snapshot_bytes_max": "bytes", "sinks.part_bytes": "bytes",
    "state.runner.process_ms_p50": "ms", "state.runner.process_ms_p99": "ms",
    "state.runner.backlog_max": "count",
    "state.runner.gen_lag_ms_max": "ms",
    "state.runner.saturated_per_s": "1/s",
    "state.runner.sustained_step_per_s": "1/s",
    "state.engine.rows_in": "count", "state.engine.late_dropped": "count",
    "state.engine.dup_dropped": "count",
    "state.engine.windows_emitted": "count",
    "state.engine.late_ratio": "ratio",
    "state.engine.late_ratio_base": "count",
    "trace.wall_s": "s", "trace.idle_s": "s", "trace.overhead_s": "s",
}


class Ctx:
    """What a workload module gets: seed, time budget, tracer, scratch
    directory, and the correctness tally behind ``fail_frac``."""

    def __init__(self, args, work: str, tracer: obs.Tracer):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tracer = tracer
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str, n: int = 1) -> bool:
        """Tally ``n`` verified output units; all fail when ``ok`` is
        false."""
        self.attempted += n
        if not ok:
            self.failed += n
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS when set, else the CPUs this
    process may run on. The benchmark's Ray gets this many CPUs."""
    try:
        return max(1, int(os.environ.get("OMP_NUM_THREADS", "")))
    except ValueError:
        return len(os.sched_getaffinity(0))


def ray_setup(samples: int) -> dict:
    """``setup_s`` = import + ``ray.init`` + first task on a fresh
    worker, sampled ``samples`` times in this process (import is paid
    once; init and pilot are redone after a full shutdown). The last
    Ray instance stays up for the workload."""
    t0 = time.perf_counter()
    import ray
    import ray.data

    import fasta_windows_ray.pipelines.fasta_compat  # noqa: F401
    import fasta_windows_ray.sinks  # noqa: F401
    import fasta_windows_ray.stages.window_stats  # noqa: F401
    import fasta_windows_ray.state.runner  # noqa: F401
    import fasta_windows_ray.transcripts  # noqa: F401
    import_s = time.perf_counter() - t0

    temp = os.path.abspath(os.path.join(".perfbench_work", "ray"))
    # Ray's unix sockets live under the temp dir (AF_UNIX paths are
    # capped at 107 bytes); fall back to Ray's default for long roots
    kw = {"_temp_dir": temp} if len(temp) <= 40 else {}

    @ray.remote
    def pilot():
        return os.getpid()

    setup, init_s, pilot_s = [], [], []
    for k in range(samples):
        if k:
            pids = obs.descendants()
            ray.shutdown()
            obs.reap_tree(pids)
        a = time.perf_counter()
        ray.init(address="local", num_cpus=nproc(),
                 include_dashboard=False, logging_level="ERROR",
                 object_store_memory=256 << 20, **kw)
        b = time.perf_counter()
        ray.get(pilot.remote())
        c = time.perf_counter()
        init_s.append(b - a)
        pilot_s.append(c - b)
        setup.append(import_s + c - a)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return {"setup_s": statistics.median(setup),
            "ray.init_s": statistics.median(init_s),
            "ray.pilot_s": statistics.median(pilot_s),
            "import_s": import_s}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "fasta_windows_ray")):
        print("perfbench: run from the repository root (fasta_windows_ray/ "
              "not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, root)

    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work = os.path.join(root, ".perfbench_work", run_id)
    os.makedirs(work, exist_ok=True)
    tracer = obs.Tracer(bool(args.trace), run_id)
    ctx = Ctx(args, work, tracer)

    import importlib
    mod = importlib.import_module(WORKLOADS[args.workload])
    stage = {"start": time.perf_counter()}
    try:
        inputs = mod.generate(ctx)          # not part of setup_s
        stage["generate"] = time.perf_counter()
        setup = ray_setup(SETUP_SAMPLES)
        stage["setup"] = time.perf_counter()
        res = mod.run(ctx, inputs)
        res.setdefault("peak_rss_mb", obs.rss_peak_mb())
        stage["run"] = time.perf_counter()
    finally:
        pids = obs.descendants()
        if "ray" in sys.modules:
            sys.modules["ray"].shutdown()
        obs.reap_tree(pids)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(root, ".perfbench_work", "ray"),
                      ignore_errors=True)
    stage["teardown"] = time.perf_counter()
    names = list(stage)
    stage_s = {b: round(stage[b] - stage[a], 2)
               for a, b in zip(names, names[1:])}

    layer = dict(res.get("layer", {}))
    layer["ray.init_s"] = setup["ray.init_s"]
    layer["ray.pilot_s"] = setup["ray.pilot_s"]
    if args.trace:
        out = os.path.join(root, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        tracer.dump(os.path.join(out, f"trace-{run_id}.json"),
                    {"setup": setup, "layer": layer})
        metrics = {k: {"value": float(layer.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        e2e = {"setup_s": setup["setup_s"], **res}
        metrics = {k: {"value": float(e2e[k]), "unit": u}
                   for k, u in END_TO_END.items()}

    fail_frac = ctx.failed / max(ctx.attempted, 1)
    report = {"workload": args.workload, "seed": args.seed,
              "fail_frac": fail_frac, **res.get("report", {}),
              "import_s": setup["import_s"], "stage_s": stage_s}
    print("perfbench report: " + json.dumps(report), file=sys.stderr)
    for n in ctx.notes:
        print("perfbench check failed: " + n, file=sys.stderr)
    print(json.dumps({"correct": ctx.failed == 0 and ctx.attempted > 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
