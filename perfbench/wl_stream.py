"""stream_ooo: the streaming path, fed open-loop.

A seeded out-of-order stream goes to the ``PartitionActor``s of a
``state.runner.StreamingJob`` with the calls ``StreamingJob.run`` makes
(crc32 routing, ``process`` per partition per batch, ``checkpoint`` every
``checkpoint_every`` batches, ``finish``), but on a fixed wall-clock
schedule: one batch every ``STREAM_TICK_S`` seconds whatever the actors
are doing, so a slow system builds a backlog instead of slowing the
sender. Rates step up through ``RATES`` within one stream.
"""

from __future__ import annotations

import glob
import inspect
import json
import os
import time

import numpy as np
import pandas as pd

import gen
import obs

# turns/s, one phase each, in this order, with each phase's share of the
# run. 2000 is the nominal rate the emit latency is read at (the longest
# phase, so p99 has >= 10 samples beyond it); 8000 sits below the
# capacity of the default four partitions on one core (~11.5k turns/s),
# 15000 above it. The last phase keeps the actors saturated, so its
# delivered rate is the highest rate the job can sustain: that is the
# reported throughput. It moves continuously with the engine's speed,
# where the highest passing step would only jump between steps.
RATES = (2000, 8000, 15000)
SHARES = (0.7, 0.15, 0.15)
NOMINAL = 2000
WARMUP_S = 0.5          # emit latency is not sampled while actors warm up
P99_SLICES = 3          # emit p99 = median of the p99s of this many slices
EMIT_P99_LIMIT_MS = 1000.0
BACKLOG_LIMIT_S = 0.5                 # backlog allowed at a phase's end


def _cfg():
    from fasta_windows_ray.state.engine import WindowConfig
    return WindowConfig(kind="tumbling", size_us=gen.STREAM_WINDOW_US,
                        lateness_us=gen.STREAM_LATENESS_US)


def generate(ctx) -> dict:
    phases = [(r, ctx.seconds * f) for r, f in zip(RATES, SHARES)]
    s = gen.make_stream(ctx.seed, phases)
    frame = pd.DataFrame({
        "conv_id": s["conv_id"], "turn_uid": s["turn_uid"],
        "role": s["role"], "text": s["text"], "tool": s["tool"],
        "ts": s["ts"].astype("datetime64[us]")})
    tick = gen.STREAM_TICK_S
    tick_of = np.ceil(s["due_s"] / tick - 1e-9).astype(np.int64) - 1
    n_ticks = int(round(ctx.seconds / tick))
    bounds = np.searchsorted(tick_of, np.arange(n_ticks + 1))
    P = gen.STREAM_PARTITIONS
    batches = []
    for k in range(n_ticks):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        part = s["part"][lo:hi]
        chunk = frame.iloc[lo:hi]
        batches.append((lo, hi, [chunk[part == p] for p in range(P)]))
    phase_end = np.cumsum([secs for _, secs in phases])
    return {**s, "frame": frame, "batches": batches, "phases": phases,
            "phase_end": phase_end, "phase_of_row":
            np.searchsorted(phase_end, s["due_s"] - 1e-9)}


def run(ctx, inputs: dict) -> dict:
    import ray

    from fasta_windows_ray.state.runner import StreamingJob

    tr = ctx.tracer
    out_dir = os.path.join(ctx.work, "sink")
    ck_every = inspect.signature(StreamingJob.run) \
        .parameters["checkpoint_every"].default
    with tr.span("state.runner.StreamingJob"):
        job = StreamingJob(out_dir, _cfg())
    P = job.P
    if P != gen.STREAM_PARTITIONS:
        raise RuntimeError(f"the generator routes to {gen.STREAM_PARTITIONS}"
                           f" partitions, the job has {P}")
    tick = gen.STREAM_TICK_S
    n_sent = [0]
    acked = [0]

    pending: dict = {}
    process_ms: list[float] = []
    ckpt_ms: list[float] = []
    ckpt_done: dict = {}              # (p, seq) -> completion time
    ack_log: list[tuple[float, int]] = []
    backlog: list[tuple[float, int]] = []
    gen_lag = 0.0

    def observe(deadline: float):
        while pending:
            left = deadline - time.perf_counter()
            ready, _ = ray.wait(list(pending), num_returns=1,
                                timeout=max(left, 0))
            now = time.perf_counter()
            for r in ready:
                kind, p, info, t_sub = pending.pop(r)
                if kind == "process":
                    process_ms.append((now - t_sub) * 1e3)
                    ack_log.append((now, info))
                    acked[0] += info
                else:
                    ckpt_ms.append((now - t_sub) * 1e3)
                    ckpt_done[(p, info)] = now
            if not ready or left <= 0:
                return
        rest = deadline - time.perf_counter()
        if rest > 0:
            time.sleep(rest)

    seq = [0] * P
    stopped_at = None
    with tr.span("state.runner.feed"):
        t0 = time.perf_counter() + 0.05
        for k, (lo, hi, subs) in enumerate(inputs["batches"]):
            send_at = t0 + (k + 1) * tick
            observe(send_at)
            now = time.perf_counter()
            gen_lag = max(gen_lag, now - send_at)
            for p in range(P):
                fut = job.actors[p].process.remote(subs[p], hi - lo)
                pending[fut] = ("process", p, len(subs[p]), now)
            n_sent[0] = hi
            if (k + 1) % ck_every == 0:
                for p in range(P):
                    pending[job.actors[p].checkpoint.remote()] = \
                        ("ckpt", p, seq[p], now)
                    seq[p] += 1
            inflight = n_sent[0] - acked[0]
            backlog.append((now - t0, inflight))
            rate = RATES[min(int(inputs["phase_of_row"][max(hi - 1, 0)]),
                             len(RATES) - 1)]
            if inflight > 4 * rate:    # hopelessly behind: stop feeding
                stopped_at = now - t0
                break
    with tr.span("state.runner.finish"):
        fin = [a.finish.remote() for a in job.actors]
        for p, f in enumerate(fin):
            pending[f] = ("ckpt", p, seq[p], time.perf_counter())
        while pending:
            observe(time.perf_counter() + 5.0)
        metrics = ray.get(fin)
    rss = obs.rss_peak_mb()
    for a in job.actors:
        ray.kill(a)

    with tr.span("sinks.read_output"):
        from fasta_windows_ray.sinks import read_output
        out = read_output(out_dir)
    n = n_sent[0]
    c0 = time.perf_counter()
    with tr.span("check.replay"):
        _check(ctx, inputs, out, metrics, n)
    check_s = time.perf_counter() - c0

    res = _latency(inputs, out_dir, out, ckpt_done, t0, n)
    ack_t = np.array([t for t, _ in ack_log]) - t0
    ack_n = np.array([c for _, c in ack_log])
    phases = _phases(inputs, res, ack_t, ack_n, backlog, stopped_at)
    best = phases[0]                   # highest rate of the passing run-up
    for ph in phases:
        if not ph["ok"]:
            break
        best = ph
    nominal = next(ph for ph in phases if ph["rate"] == NOMINAL)

    states = glob.glob(os.path.join(out_dir, "state-*.pkl"))
    parts = glob.glob(os.path.join(out_dir, "part-*.parquet"))
    eng = {k: sum(m[k] for m in metrics) for k in
           ("rows_in", "late_dropped", "dup_dropped", "windows_emitted")}
    layer = {
        "sinks.checkpoint_ms_p50": obs.pct(ckpt_ms, 50),
        "sinks.checkpoint_ms_p99": obs.pct(ckpt_ms, 99),
        "sinks.snapshot_bytes_max": max(map(os.path.getsize, states),
                                        default=0),
        "sinks.part_bytes": sum(map(os.path.getsize, parts)),
        "state.runner.process_ms_p50": obs.pct(process_ms, 50),
        "state.runner.process_ms_p99": obs.pct(process_ms, 99),
        "state.runner.backlog_max": max(b for _, b in backlog),
        "state.runner.gen_lag_ms_max": gen_lag * 1e3,
        "state.runner.saturated_per_s": phases[-1]["delivered_per_s"],
        "state.runner.sustained_step_per_s": best["rate"],
        **{f"state.engine.{k}": v for k, v in eng.items()},
        "state.engine.late_ratio": eng["late_dropped"] / max(eng["rows_in"],
                                                             1),
        "state.engine.late_ratio_base": eng["rows_in"],
    }
    if ctx.trace:
        wall = tr.spans[-1]["end"] - tr.spans[0]["start"]
        top = sum(s["end"] - s["start"] for s in tr.spans
                  if s["parent"] is None)
        layer.update({"trace.wall_s": wall, "trace.idle_s": wall - top,
                      "trace.overhead_s": 0.0})
    report = {
        "sustained_turns_per_s": phases[-1]["delivered_per_s"],
        "highest_passing_step": best["rate"],
        "emit_p50_ms": nominal["p50_ms"], "emit_p99_ms": nominal["p99_ms"],
        "emit_samples": nominal["samples"],
        "gen_lag_ms_max": gen_lag * 1e3, "rows_sent": n,
        "stopped_at_s": stopped_at, "check_s": check_s,
        "phases": [{k: (round(v, 2) if isinstance(v, float) else v)
                    for k, v in ph.items()} for ph in phases],
    }
    return {"throughput_per_s": phases[-1]["delivered_per_s"],
            "latency_p50_ms": nominal["p50_ms"],
            "latency_p99_ms": nominal["p99_ms"],
            "peak_rss_mb": rss, "layer": layer, "report": report}


def _latency(inputs, out_dir, out: pd.DataFrame, ckpt_done, t0, n) -> dict:
    """Emit latency per committed window row: from the due time of the
    row that lifted its partition's watermark past window_end (the first
    row with running-max ts >= window_end + lateness) to the return of
    the checkpoint that committed it. Rows flushed by ``finish`` without
    a trigger are not timed. ``out`` is ``read_output``'s frame: committed
    intervals, partition by partition in seq order, so each manifest's
    ``n_rows`` tells which rows each checkpoint committed."""
    L = gen.STREAM_LATENESS_US
    ts, part = inputs["ts"][:n], inputs["part"][:n]
    ends = out["window_end"].astype("datetime64[us]").astype("int64") \
        .to_numpy() if len(out) else np.zeros(0, np.int64)
    lat: list[np.ndarray] = []
    due: list[np.ndarray] = []
    pos = 0
    for p in range(gen.STREAM_PARTITIONS):
        idx = np.flatnonzero(part == p)
        runmax = np.maximum.accumulate(ts[idx]) if len(idx) else idx
        with open(os.path.join(out_dir, f"manifest-{p:05d}.json")) as f:
            man = json.load(f)
        for iv in sorted(man["intervals"], key=lambda iv: iv["seq"]):
            we = ends[pos:pos + iv["n_rows"]]
            pos += iv["n_rows"]
            t_done = ckpt_done.get((p, iv["seq"]))
            if t_done is None:
                continue
            j = np.searchsorted(runmax, we + L, side="left")
            rows = idx[j[j < len(idx)]]
            lat.append((t_done - (t0 + inputs["due_s"][rows])) * 1e3)
            due.append(inputs["due_s"][rows])
    due = np.concatenate(due) if due else np.zeros(0)
    return {"lat_ms": np.concatenate(lat) if lat else np.zeros(0),
            "due": due, "phase": np.searchsorted(inputs["phase_end"],
                                                 due - 1e-9)}


def _phases(inputs, res, ack_t, ack_n, backlog, stopped_at) -> list[dict]:
    """Per rate phase: delivered rate (rows acknowledged in the phase over
    the time from the phase start to its last acknowledgement), backlog
    over the phase's last quarter, and emit latency of windows whose
    trigger row was due in the phase. A phase passes when the backlog
    stayed under ``BACKLOG_LIMIT_S`` of input, the emit p99 under the
    limit."""
    out = []
    start = 0.0
    bl_t = np.array([t for t, _ in backlog])
    bl_n = np.array([b for _, b in backlog])
    for i, ((rate, secs), end) in enumerate(zip(inputs["phases"],
                                                inputs["phase_end"])):
        sel = (res["phase"] == i) & (res["due"] >= WARMUP_S)
        lat, due = res["lat_ms"][sel], res["due"][sel]
        acks = (ack_t > start) & (ack_t <= end)
        rows = int(ack_n[acks].sum())
        span = float(ack_t[acks].max() - start) if acks.any() else secs
        delivered = rows / span
        tail = bl_n[(bl_t > end - 0.25 * secs) & (bl_t <= end)]
        end_backlog = int(tail.max()) if len(tail) else 1 << 30
        # one stalled checkpoint sets the p99 of a whole phase (each
        # commits dozens of windows at once); the median of per-slice
        # p99s is the typical tail rather than the single worst stall
        edges = np.linspace(max(start, WARMUP_S), end, P99_SLICES + 1)
        slices = [lat[(due >= a) & (due < b)]
                  for a, b in zip(edges, edges[1:])]
        p99 = float(np.median([obs.pct(x, 99) if len(x) else float("inf")
                               for x in slices]))
        ok = (stopped_at is None or stopped_at > end) \
            and end_backlog <= BACKLOG_LIMIT_S * rate \
            and p99 <= EMIT_P99_LIMIT_MS
        out.append({"rate": rate, "ok": bool(ok),
                    "delivered_per_s": delivered,
                    "p50_ms": obs.pct(lat, 50) if len(lat) else float("inf"),
                    "p99_ms": p99, "samples": int(len(lat)),
                    "end_backlog": end_backlog})
        start = end
    return out


def _check(ctx, inputs, out: pd.DataFrame, metrics: list[dict], n: int):
    """Every committed window's n_turns and role counts against a pandas
    count over the rows the generator did not plant as late or duplicate;
    no window twice; the engine's late/duplicate counters equal the
    plants. One partition per run (chosen by the seed) is compared row
    for row, every column, with an in-process StreamEngine fed the same
    sequence — all four would cost as much CPU as the actors spent."""
    from fasta_windows_ray.state.engine import StreamEngine, emitted_to_frame
    key = ["conv_id", "window_start"]
    frame = inputs["frame"].iloc[:n]
    part = inputs["part"][:n]
    if not ctx.check(len(out) > 0, "stream: no committed output"):
        return
    ctx.check(not out.duplicated(key).any(),
              "stream: duplicate (conv_id, window_start) in output")
    late = int(inputs["late"][:n].sum())
    dup = int(inputs["dup"][:n].sum())
    got_late = sum(m["late_dropped"] for m in metrics)
    got_dup = sum(m["dup_dropped"] for m in metrics)
    ctx.check(got_late == late, f"stream: late_dropped {got_late} != "
              f"planted {late}")
    ctx.check(got_dup == dup, f"stream: dup_dropped {got_dup} != "
              f"planted {dup}")
    ctx.check(sum(m["rows_in"] for m in metrics) == n,
              "stream: rows_in != rows sent")

    keep = ~(inputs["late"][:n] | inputs["dup"][:n])
    W = gen.STREAM_WINDOW_US
    ts = inputs["ts"][:n][keep]
    exp = pd.DataFrame({"conv_id": inputs["conv_id"][:n][keep],
                        "ws": ts // W * W,
                        "role": inputs["role"][:n][keep]})
    exp = pd.crosstab([exp["conv_id"], exp["ws"]], exp["role"])
    exp = exp.reindex(columns=["user", "assistant", "system", "tool",
                               "other"], fill_value=0)
    exp.columns = ["n_" + c for c in exp.columns]
    exp["n_turns"] = exp.sum(axis=1)
    exp = exp.reset_index()
    got = out[["conv_id", "n_turns", "n_user", "n_assistant", "n_system",
               "n_tool", "n_other"]].copy()
    got["ws"] = out["window_start"].astype("datetime64[us]") \
        .astype("int64").to_numpy()
    m = exp.merge(got, on=["conv_id", "ws"], how="outer",
                  suffixes=("", "_got"), indicator=True)
    eq = (m["_merge"] == "both").to_numpy()
    for c in ("n_turns", "n_user", "n_assistant", "n_system", "n_tool",
              "n_other"):
        eq &= m[c].fillna(-1).to_numpy() == m[c + "_got"].fillna(-1) \
            .to_numpy()
    ctx.check(True, "", int(eq.sum()))
    if not eq.all():
        ctx.check(False, f"stream: {int((~eq).sum())} windows differ from "
                  "the count oracle", int((~eq).sum()))

    p = ctx.seed % gen.STREAM_PARTITIONS
    eng = StreamEngine(_cfg(), p)
    rows = eng.process_rows(frame[part == p])
    rows.extend(eng.flush())
    ref = emitted_to_frame(rows, "tumbling")
    mine = set(inputs["conv_id"][:n][part == p])
    a = ref.sort_values(key).reset_index(drop=True)
    b = out[out["conv_id"].isin(mine)].sort_values(key) \
        .reset_index(drop=True)
    if not ctx.check(len(a) == len(b) and (a["conv_id"].to_numpy()
                                           == b["conv_id"].to_numpy()).all(),
                     f"stream: partition {p} has {len(b)} rows, replay "
                     f"{len(a)}", max(len(a), 1)):
        return
    ok = np.ones(len(a), dtype=bool)
    for c in a.columns:
        x, y = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(x.dtype, np.floating):
            y = y.astype(np.float64)
            ok &= (x == y) | (np.isnan(x) & np.isnan(y))
        elif np.issubdtype(x.dtype, np.datetime64):
            ok &= x.astype("datetime64[us]") == y.astype("datetime64[us]")
        else:
            ok &= x == y
    ctx.check(True, "", int(ok.sum()))
    if not ok.all():
        ctx.check(False, f"stream: {int((~ok).sum())} rows of partition {p} "
                  "differ from the engine replay", int((~ok).sum()))
