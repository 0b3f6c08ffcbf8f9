"""transcripts_sliding: the north-star batch job.

``transcripts.read_transcripts`` -> ``window_stats`` (sliding 24 h / 6 h,
profile "full", library defaults otherwise) -> ``add_bucket`` ->
``sinks.write_partitioned``. The sliding fan-out, the bucket x time-slab
shuffle and the vectorized ``BucketWindowStats`` do most of the work;
CTW only sees short memoized role sequences and the engine is unused
(except as the in-process reference for the output check).
"""

from __future__ import annotations

import glob
import inspect
import os
import shutil
import statistics
import time

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

import gen
import obs

SIZE_US = 24 * gen.HOUR_US
STEP_US = 6 * gen.HOUR_US
SAMPLE_CONVS = 12
SAMPLE_ROWS_MAX = 6000


def generate(ctx) -> dict:
    sf = os.path.join(ctx.work, "sf")
    g = gen.make_transcripts(sf, ctx.seed)
    g["sf"] = sf
    # a small input for the untimed warm-up job
    g["sf_warm"] = os.path.join(ctx.work, "sf_warm")
    os.makedirs(g["sf_warm"])
    pq.write_table(g["table"].slice(0, 500),
                   os.path.join(g["sf_warm"], "events.parquet"))
    g["expected"] = _duckdb_counts(g["path"])
    g["replay"] = _engine_sample(g.pop("table"), ctx.seed)
    return g


def _duckdb_counts(path: str) -> pd.DataFrame:
    """Per (conv_id, window_start): n_turns and role counts, straight from
    the generated Parquet with DuckDB (the generator's event->role map)."""
    import duckdb
    case = " ".join(f"WHEN '{e}' THEN '{r}'"
                    for e, r in gen.ROLE_OF_EVENT.items())
    q = f"""
    WITH t AS (
      SELECT CAST(user_id AS VARCHAR) AS conv_id,
             CASE event_type {case} ELSE 'other' END AS role,
             epoch_us(ts) AS us
      FROM read_parquet('{path}')),
    m AS (
      SELECT conv_id, role, (us // {STEP_US}) * {STEP_US} - k * {STEP_US} AS ws
      FROM t, range(0, {SIZE_US // STEP_US}) r(k))
    SELECT conv_id, ws,
           count(*) AS n_turns,
           count(*) FILTER (WHERE role = 'user') AS n_user,
           count(*) FILTER (WHERE role = 'assistant') AS n_assistant,
           count(*) FILTER (WHERE role = 'system') AS n_system,
           count(*) FILTER (WHERE role = 'tool') AS n_tool,
           count(*) FILTER (WHERE role = 'other') AS n_other
    FROM m WHERE ws >= 0 GROUP BY conv_id, ws ORDER BY conv_id, ws"""
    con = duckdb.connect()
    try:
        return con.execute(q).df()
    finally:
        con.close()


def _engine_sample(table, seed: int) -> pd.DataFrame:
    """Full stats rows for a seeded sample of conversations, from an
    in-process ``StreamEngine`` replay of their turns in (ts, uid) order."""
    from fasta_windows_ray.state.engine import (StreamEngine, WindowConfig,
                                                emitted_to_frame)
    rng = np.random.default_rng(seed + 7)
    df = table.to_pandas()
    sizes = df["user_id"].value_counts()
    pool = sizes[sizes <= SAMPLE_ROWS_MAX // 3].index.to_numpy()
    hot = sizes.index[0]
    pick = list(rng.choice(pool, size=min(SAMPLE_CONVS, len(pool)),
                           replace=False))
    if sizes[hot] <= SAMPLE_ROWS_MAX:
        pick.append(hot)
    sub = df[df["user_id"].isin(pick)].sort_values(["ts", "event_id"],
                                                    kind="stable")
    turns = pd.DataFrame({
        "conv_id": sub["user_id"].astype(str).to_numpy(),
        "turn_uid": sub["event_id"].to_numpy(),
        "role": sub["event_type"].map(gen.ROLE_OF_EVENT).to_numpy(),
        "text": sub["props"].to_numpy(), "tool": "", "ts": sub["ts"].to_numpy(),
    })
    eng = StreamEngine(WindowConfig(kind="sliding", size_us=SIZE_US,
                                    step_us=STEP_US, profile="full"))
    rows = eng.process_rows(turns)
    rows.extend(eng.flush())
    return emitted_to_frame(rows, "sliding")


def _read_output(root: str) -> pd.DataFrame:
    frames = [pq.read_table(p).to_pandas()
              for p in sorted(glob.glob(os.path.join(root, "part=*",
                                                     "data.parquet")))
              if os.path.exists(os.path.join(os.path.dirname(p), ".done"))]
    return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()


_COUNT_COLS = ["n_turns", "n_user", "n_assistant", "n_system", "n_tool",
               "n_other"]


def _check(ctx, inputs: dict, root: str) -> None:
    out = _read_output(root)
    exp = inputs["expected"]
    if not ctx.check(len(out) > 0 and "window_start" in out.columns,
                     "sliding: no committed output", len(exp)):
        return
    ws = out["window_start"].astype("datetime64[us]").astype("int64")
    got = pd.DataFrame({"conv_id": out["conv_id"].astype(str),
                        "ws": ws.to_numpy(),
                        **{c: out[c].to_numpy() for c in _COUNT_COLS}})
    ctx.check(not got.duplicated(["conv_id", "ws"]).any(),
              "sliding: duplicate (conv_id, window_start)")
    m = exp.merge(got, on=["conv_id", "ws"], how="outer",
                  suffixes=("", "_got"), indicator=True)
    both = m["_merge"] == "both"
    eq = both.copy()
    for c in _COUNT_COLS:
        eq &= m[c].fillna(-1).to_numpy() == m[c + "_got"].fillna(-1).to_numpy()
    bad = int((~eq).sum())
    ctx.check(True, "", int(eq.sum()))
    if bad:
        ctx.check(False, f"sliding: {bad} window count rows differ from "
                  f"DuckDB (missing/extra/mismatch)", bad)
    # full rows of the sampled conversations vs the engine replay
    ref = inputs["replay"]
    sel = out[out["conv_id"].astype(str).isin(set(ref["conv_id"]))]
    key = ["conv_id", "window_start"]
    a = ref.sort_values(key).reset_index(drop=True)
    b = sel.sort_values(key).reset_index(drop=True)
    if not ctx.check(len(a) == len(b) and
                     (a["conv_id"].astype(str).to_numpy()
                      == b["conv_id"].astype(str).to_numpy()).all(),
                     f"sliding: sample has {len(b)} rows, replay {len(a)}",
                     max(len(a), 1)):
        return
    ok = np.ones(len(a), dtype=bool)
    for c in a.columns:
        if c == "conv_id":
            continue
        x, y = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(x.dtype, np.floating):
            y = y.astype(np.float64)
            ok &= np.isclose(x, y, rtol=1e-9, atol=1e-12) | \
                (np.isnan(x) & np.isnan(y))
        elif np.issubdtype(x.dtype, np.datetime64):
            ok &= x.astype("datetime64[us]") == y.astype("datetime64[us]")
        else:
            ok &= x == y
    ctx.check(True, "", int(ok.sum()))
    if not ok.all():
        ctx.check(False, f"sliding: {int((~ok).sum())} sampled rows differ "
                  "from the engine replay", int((~ok).sum()))


def run(ctx, inputs: dict) -> dict:
    from fasta_windows_ray.sinks import write_partitioned
    from fasta_windows_ray.stages.window_stats import add_bucket, window_stats
    from fasta_windows_ray.transcripts import read_transcripts
    rows = inputs["rows"]
    n_job = [0]

    def job(sf: str = inputs["sf"]) -> str:
        root = os.path.join(ctx.work, f"out{n_job[0]}")
        n_job[0] += 1
        ds = read_transcripts(sf)
        st = window_stats(ds, SIZE_US, step_us=STEP_US, profile="full")
        write_partitioned(add_bucket(st), root)
        return root

    # untimed warm-up on a small input: starts the workers and imports the
    # package in them (a full-size one cost 4 s more per run and did not
    # make the runs steadier)
    shutil.rmtree(job(inputs["sf_warm"]))
    if ctx.trace:
        return _traced(ctx, inputs, job)

    roots: list[str] = []
    times = obs.timed_loop(ctx.seconds, lambda: roots.append(job()))
    for root in roots:
        _check(ctx, inputs, root)
        shutil.rmtree(root)
    med = statistics.median(times)
    return {"throughput_per_s": rows / med,
            "latency_p50_ms": med * 1e3,
            "latency_p99_ms": obs.pct(times, 99) * 1e3,
            "report": {"turns_per_s": rows / med, "jobs": len(times),
                       "turns": rows}}


def _traced(ctx, inputs: dict, job) -> dict:
    from fasta_windows_ray.sinks import write_partitioned
    from fasta_windows_ray.stages.window_stats import (add_bucket,
                                                       add_bucket_slab,
                                                       window_stats)
    from fasta_windows_ray.transcripts import read_transcripts

    a = time.perf_counter()
    root = job()
    untraced = time.perf_counter() - a
    _check(ctx, inputs, root)
    shutil.rmtree(root)

    tr = ctx.tracer
    root = os.path.join(ctx.work, "traced")
    w0 = time.perf_counter()
    with tr.span("transcripts.read"):
        ds = read_transcripts(inputs["sf"]).materialize()
    read_ops = obs.operator_table(ds)
    with tr.span("window_stats"):
        st = window_stats(ds, SIZE_US, step_us=STEP_US,
                          profile="full").materialize()
    with tr.span("sinks.write_partitioned"):
        rep = write_partitioned(add_bucket(st), root)
    job_traced = time.perf_counter() - w0
    ops = obs.operator_table(st)
    tr.tables.extend(ops)
    ws_ops = ops[len(read_ops):]
    # group sizes of the composite (bucket x slab) key, with the
    # library's own defaults, as a separate probe
    d = inspect.signature(window_stats).parameters
    with tr.span("window_stats.groups_probe"):
        slabbed, _ = add_bucket_slab(ds, d["num_buckets"].default, SIZE_US,
                                     STEP_US, 0, d["slab_windows"].default)
        gk = slabbed.select_columns(["_gk"]).to_pandas()["_gk"]
    wall = time.perf_counter() - w0
    _check(ctx, inputs, root)

    sizes = gk.value_counts()

    def pick(pred, field):
        return sum(o[field] for o in ws_ops if pred(o["operator"]))

    is_assign = lambda n: "MapBatches(_f)" in n            # noqa: E731
    is_stats = lambda n: "bucket_window_stats" in n        # noqa: E731
    is_shuffle = lambda n: any(k in n for k in ("Sort", "Shuffle",
                                                "Aggregate", "Repartition",
                                                "HashShuffle"))
    subs = [o for o in ws_ops if o["sub"]]
    shuffle_s = sum(o["wall_s"] for o in subs if is_shuffle(o["operator"])) \
        or pick(is_shuffle, "wall_s")
    shuffle_bytes = max([o["bytes"] for o in ws_ops
                         if is_shuffle(o["operator"])] or [0])
    assign_rows = pick(is_assign, "rows")
    # busy = remote CPU: on one core concurrent tasks time-share, so their
    # summed wall time can exceed the stage's elapsed time
    busy = sum(o["cpu_s"] for o in ws_ops)
    written = sum(os.path.getsize(p) for p in glob.glob(
        os.path.join(root, "part=*", "data.parquet")))
    top = sum(s["end"] - s["start"] for s in tr.spans if s["parent"] is None)
    return {"layer": {
        "transcripts.read_s": tr.busy("transcripts.read"),
        "transcripts.rows": sum(o["rows"] for o in read_ops[-1:]),
        "transcripts.bytes": inputs["bytes"],
        "window_stats.assign_s": pick(is_assign, "wall_s"),
        "window_stats.fanout": assign_rows / max(inputs["rows"], 1),
        "window_stats.shuffle_s": shuffle_s,
        "window_stats.shuffle_bytes": shuffle_bytes,
        "window_stats.groups": len(sizes),
        "window_stats.group_skew": float(sizes.max() / sizes.mean()),
        "window_stats.stats_s": pick(is_stats, "wall_s"),
        "window_stats.windows": st.count(),
        "window_stats.idle_s": tr.busy("window_stats") - busy,
        "sinks.write_partitioned_s": tr.busy("sinks.write_partitioned"),
        "sinks.partitions": len(rep),
        "sinks.bytes_written": written,
        "trace.wall_s": wall, "trace.idle_s": wall - top,
        "trace.overhead_s": job_traced - untraced,
    }, "report": {"untraced_job_s": untraced, "traced_job_s": job_traced,
                  "operators": [(o["operator"], round(o["wall_s"], 3),
                                 o["rows"]) for o in ws_ops]}}
