"""fasta_genome: the reference's own job — FASTA in, five window TSVs out.

``pipelines.fasta_compat.fasta_windows`` (1 kb windows, CTW on) then
``write_outputs``. Per-window scalar kernels dominate; no shuffle, no
engine, no Parquet.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np

import gen
import obs

WINDOW = 1000


def generate(ctx) -> dict:
    path = os.path.join(ctx.work, "genome.fa")
    g = gen.make_fasta(path, ctx.seed)
    g["path"] = path
    g["expected"] = _expected(g["records"])
    # a small file for the untimed warm-up job
    g["warm"] = os.path.join(ctx.work, "warm.fa")
    with open(g["warm"], "w") as f:
        for rid, seq in (g["records"][0], g["records"][-1]):
            f.write(f">{rid}\n{seq[:2500]}\n")
    return g


def _f3(num, den) -> str:
    """Rust ``{:.3}`` of an f32 ratio (NaN for 0/0)."""
    if den == 0:
        return "NaN"
    return f"{float(np.float32(num) / np.float32(den)):.3f}"


def _expected(records) -> dict:
    """Per record: window bounds (trailing partial window clamped to the
    record end) and per-window A/C/G/T/N counts and GC proportion,
    recomputed with numpy, case-insensitively (soft-masked bases count)."""
    exp = {}
    for rid, seq in records:
        b = np.frombuffer(seq.upper().encode(), dtype=np.uint8)
        n = len(b)
        starts = np.arange(0, n, WINDOW)
        ends = np.minimum(starts + WINDOW, n)
        counts = np.stack([np.add.reduceat((b == ord(ch)).astype(np.int64),
                                           starts) for ch in "ACGTN"], axis=1)
        a, c, g, t = (counts[:, i] for i in range(4))
        gc = [_f3(int(g[i] + c[i]), int(g[i] + c[i] + a[i] + t[i]))
              for i in range(len(starts))]
        exp[rid] = {"bounds": list(zip(starts.tolist(), ends.tolist())),
                    "counts": counts, "gc": gc}
    return exp


def _check(ctx, inputs: dict, paths: list[str]) -> None:
    """Verify the freq and mononuc TSVs window by window."""
    exp = inputs["expected"]
    try:
        with open(paths[0]) as f:
            freq = [ln.rstrip("\n").split("\t") for ln in f]
        with open(paths[1]) as f:
            mono = [ln.rstrip("\n").split("\t") for ln in f]
    except OSError as e:
        ctx.check(False, f"fasta: unreadable output {e}")
        return
    want_windows = sum(len(e["bounds"]) for e in exp.values())
    ctx.check(freq[0][:4] == ["ID", "start", "end", "GC_prop"]
              and mono[0] == ["ID", "start", "end", "A", "C", "G", "T", "N"],
              "fasta: TSV headers")
    ctx.check(len(freq) - 1 == want_windows and len(mono) - 1 == want_windows,
              f"fasta: {len(freq) - 1} windows, want {want_windows}")
    order = [(r[0], int(r[1])) for r in freq[1:]]
    ctx.check(order == sorted(order, key=lambda k: k[0]),
              "fasta: rows not ordered by id (stable)")
    pos = {rid: 0 for rid in exp}
    for fr, mo in zip(freq[1:], mono[1:]):
        rid = fr[0]
        e = exp.get(rid)
        if e is None or pos[rid] >= len(e["bounds"]):
            ctx.check(False, f"fasta: unexpected window {fr[:3]}")
            continue
        i = pos[rid]
        pos[rid] += 1
        bounds = (int(fr[1]), int(fr[2]))
        ok = (bounds == e["bounds"][i]
              and (mo[0], int(mo[1]), int(mo[2])) == (rid, *bounds)
              and [int(v) for v in mo[3:8]] == e["counts"][i].tolist()
              and fr[3] == e["gc"][i])
        ctx.check(ok, f"fasta: window {rid}:{fr[1]}-{fr[2]} mismatch")


def run(ctx, inputs: dict) -> dict:
    from fasta_windows_ray.pipelines.fasta_compat import (fasta_windows,
                                                           write_outputs)
    bases = inputs["bases"]
    n_job = [0]

    def job(path: str = inputs["path"]):
        out_dir = os.path.join(ctx.work, f"out{n_job[0]}")
        n_job[0] += 1
        entries = fasta_windows(path, WINDOW)
        return out_dir, write_outputs(entries, out_dir, "bench")

    # untimed warm-up on a small file: workers import the package
    shutil.rmtree(job(inputs["warm"])[0])

    outs: list = []

    def timed():
        outs.append(job())

    if not ctx.trace:
        times = obs.timed_loop(ctx.seconds, timed)
        for out_dir, paths in outs:
            _check(ctx, inputs, paths)
            shutil.rmtree(out_dir)
        med = statistics.median(times)
        return {"throughput_per_s": bases / med,
                "latency_p50_ms": med * 1e3,
                "latency_p99_ms": obs.pct(times, 99) * 1e3,
                "report": {"bases_per_s": bases / med, "jobs": len(times),
                           "bases": bases}}
    return _traced(ctx, inputs, job)


def _traced(ctx, inputs: dict, job) -> dict:
    from fasta_windows_ray import kernels as K
    from fasta_windows_ray.pipelines.fasta_compat import (fasta_windows,
                                                           write_outputs)
    from fasta_windows_ray.sources.fasta import read_fasta

    a = time.perf_counter()
    out_dir, paths = job()
    untraced = time.perf_counter() - a
    _check(ctx, inputs, paths)
    shutil.rmtree(out_dir)

    tr = ctx.tracer
    out_dir = os.path.join(ctx.work, "traced")
    w0 = time.perf_counter()
    with tr.span("pipelines.fasta_compat.compute"):
        entries = fasta_windows(inputs["path"], WINDOW)
    with tr.span("pipelines.fasta_compat.write"):
        paths = write_outputs(entries, out_dir, "bench")
    job_traced = time.perf_counter() - w0
    with tr.span("sources.fasta.read"):
        ds = read_fasta(inputs["path"]).materialize()
        records = ds.count()
    tr.tables.extend(obs.operator_table(ds))
    # the per-window scalar kernels, called directly on the windows
    wins = [seq[s:e] for _, seq in inputs["records"]
            for s, e in ((s, min(s + WINDOW, len(seq)))
                         for s in range(0, len(seq), WINDOW))]
    with tr.span("kernels.ctw"):
        for w in wins:
            K.ctw_bits_per_base(w, 6)
    with tr.span("kernels.seq_stats"):
        for w in wins:
            K.seq_stats_dna(w)
    with tr.span("kernels.kgram_diversity"):
        for w in wins:
            K.kgram_diversity_dna(w)
    wall = time.perf_counter() - w0
    _check(ctx, inputs, paths)
    tsv_bytes = sum(os.path.getsize(p) for p in paths)
    top = sum(s["end"] - s["start"] for s in tr.spans if s["parent"] is None)
    return {"layer": {
        "sources.fasta.read_s": tr.busy("sources.fasta.read"),
        "sources.fasta.records": records,
        "kernels.ctw_calls": len(wins),
        "kernels.ctw_s": tr.busy("kernels.ctw"),
        "kernels.seq_stats_s": tr.busy("kernels.seq_stats"),
        "kernels.kgram_diversity_s": tr.busy("kernels.kgram_diversity"),
        "pipelines.fasta_compat.compute_s":
            tr.busy("pipelines.fasta_compat.compute"),
        "pipelines.fasta_compat.write_s":
            tr.busy("pipelines.fasta_compat.write"),
        "pipelines.fasta_compat.windows": len(entries),
        "pipelines.fasta_compat.tsv_bytes": tsv_bytes,
        "trace.wall_s": wall, "trace.idle_s": wall - top,
        "trace.overhead_s": job_traced - untraced,
    }, "report": {"untraced_job_s": untraced, "traced_job_s": job_traced}}
