"""Stateful engine gates: watermark/late data (F21), dedup (F22),
stateless-vs-stateful agreement (F23/F24 structure), checkpoint/resume and
exactly-once rerun idempotence."""

import numpy as np
import pandas as pd

from fasta_windows_ray.state.engine import StreamEngine, WindowConfig, \
    emitted_to_frame
from fasta_windows_ray.synth import EPOCH_US, make_transcripts

S = 1_000_000


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def test_f21_late_rows_dropped_and_counted():
    cfg = WindowConfig(kind="tumbling", size_us=10 * S, lateness_us=5 * S)
    eng = StreamEngine(cfg)
    rows = pd.DataFrame({
        "conv_id": ["c"] * 4,
        "turn_idx": np.arange(4, dtype=np.int32),
        "role": ["user"] * 4,
        "text": ["x"] * 4,
        "tool": [""] * 4,
        # in-order, then a jump to t=30s (watermark -> 25s), then t=7s (late)
        "ts": pd.to_datetime(
            (EPOCH_US + np.array([0, 3, 30, 7]) * S), unit="us"),
    })
    rows_eng = eng.process_rows(rows)
    rows_eng += eng.flush()
    assert eng.metrics.late_dropped == 1
    assert eng.metrics.rows_in == 4
    out = emitted_to_frame(rows_eng, "tumbling")
    # the late row is NOT in any window
    assert out["n_turns"].sum() == 3
    # in-bound disorder lands in the correct window
    w0 = out[out["window_start"] == pd.Timestamp(EPOCH_US, unit="us")]
    assert w0["n_turns"].iloc[0] == 2


def test_f21_bounded_disorder_equals_ordered():
    t = make_transcripts(n_convs=6, mean_turns=30, seed=5,
                         shuffle_within_us=3 * S)
    cfg = WindowConfig(kind="tumbling", size_us=10 * S, lateness_us=5 * S)
    eng = StreamEngine(cfg)
    rows_eng = eng.process_rows(t.to_pandas())   # jittered arrival order
    rows_eng += eng.flush()
    assert eng.metrics.late_dropped == 0
    a = canon(emitted_to_frame(rows_eng, "tumbling"))

    ordered = t.to_pandas().sort_values(["ts", "conv_id", "turn_idx"])
    eng2 = StreamEngine(cfg)
    rows_eng2 = eng2.process_rows(ordered)
    rows_eng2 += eng2.flush()
    b = canon(emitted_to_frame(rows_eng2, "tumbling"))
    pd.testing.assert_frame_equal(a, b)


def test_f22_duplicate_turns_dropped():
    t = make_transcripts(n_convs=4, mean_turns=20, seed=9)
    pdf = t.to_pandas()
    dup = pd.concat([pdf, pdf.iloc[5:15]], ignore_index=True)
    dup = dup.sort_values(["ts", "conv_id", "turn_idx"], kind="stable")
    cfg = WindowConfig(kind="tumbling", size_us=10 * S)
    eng_dup, eng_clean = StreamEngine(cfg), StreamEngine(cfg)
    rows_eng_dup = eng_dup.process_rows(dup)
    rows_eng_dup += eng_dup.flush()
    rows_eng_clean = eng_clean.process_rows(
        pdf.sort_values(["ts", "conv_id", "turn_idx"]))
    rows_eng_clean += eng_clean.flush()
    assert eng_dup.metrics.dup_dropped == 10
    pd.testing.assert_frame_equal(
        canon(emitted_to_frame(rows_eng_dup, "tumbling")),
        canon(emitted_to_frame(rows_eng_clean, "tumbling")))


def test_stateful_matches_stateless_groupby(ray_session):
    """F24 agreement: stateful replay == vectorized groupby path, bit-for-
    bit on every float column."""
    import ray.data as rd

    from fasta_windows_ray.stages.window_stats import window_stats
    from fasta_windows_ray.state.runner import stateful_window_run

    t = make_transcripts(n_convs=10, mean_turns=50, seed=3)
    ds1 = rd.from_arrow(t)
    stateless = canon(window_stats(ds1, 20 * S, num_buckets=8).to_pandas())
    cfg = WindowConfig(kind="tumbling", size_us=20 * S)
    stateful = canon(stateful_window_run(rd.from_arrow(t), cfg,
                                         num_buckets=8).to_pandas())
    pd.testing.assert_frame_equal(
        stateless.drop(columns=["last_ts"]),
        stateful.drop(columns=["last_ts"]), check_dtype=False,
        check_exact=True)


def test_sliding_stateful_matches_stateless(ray_session):
    import ray.data as rd

    from fasta_windows_ray.stages.window_stats import window_stats
    from fasta_windows_ray.state.runner import stateful_window_run

    t = make_transcripts(n_convs=8, mean_turns=40, seed=4)
    stateless = canon(window_stats(rd.from_arrow(t), 30 * S, step_us=10 * S,
                                   num_buckets=8).to_pandas())
    cfg = WindowConfig(kind="sliding", size_us=30 * S, step_us=10 * S)
    stateful = canon(stateful_window_run(rd.from_arrow(t), cfg,
                                         num_buckets=8).to_pandas())
    pd.testing.assert_frame_equal(
        stateless.drop(columns=["last_ts"]),
        stateful.drop(columns=["last_ts"]), check_dtype=False,
        check_exact=True)


def test_session_stateful_matches_sessions_stage(ray_session):
    import ray.data as rd

    from fasta_windows_ray.stages.sessions import session_stats
    from fasta_windows_ray.state.runner import stateful_window_run

    t = make_transcripts(n_convs=10, mean_turns=30, seed=8,
                         turn_gap_us=40 * S)   # gaps straddle the threshold
    a = canon(session_stats(rd.from_arrow(t), 60 * S,
                            num_buckets=4).to_pandas())
    cfg = WindowConfig(kind="session", gap_us=60 * S)
    b = canon(stateful_window_run(rd.from_arrow(t), cfg,
                                  num_buckets=4).to_pandas()[
        ["conv_id", "session_start", "session_end", "n_turns"]])
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_checkpoint_resume_equals_fresh(ray_session, tmp_path):
    """Kill mid-run, resume from the committed checkpoint: output equals
    an uninterrupted run (exactly-once)."""
    from fasta_windows_ray.state.runner import StreamingJob

    t = make_transcripts(n_convs=12, mean_turns=60, seed=11).to_pandas()
    t = t.sort_values(["ts", "conv_id", "turn_idx"]).reset_index(drop=True)
    cfg = WindowConfig(kind="tumbling", size_us=20 * S)

    fresh_dir = str(tmp_path / "fresh")
    job = StreamingJob(fresh_dir, cfg, num_partitions=3)
    job.run(t, batch_rows=97, checkpoint_every=2)
    fresh = canon(job.output())
    assert len(fresh) > 0

    crash_dir = str(tmp_path / "crash")
    job1 = StreamingJob(crash_dir, cfg, num_partitions=3)
    r = job1.run(t, batch_rows=97, checkpoint_every=2, crash_after_batches=5)
    assert r is None                      # crashed, no flush
    job2 = StreamingJob(crash_dir, cfg, num_partitions=3, resume=True)
    job2.run(t, batch_rows=97, checkpoint_every=2)
    resumed = canon(job2.output())
    pd.testing.assert_frame_equal(fresh, resumed)


def test_resume_with_other_batch_rows_equals_fresh(ray_session, tmp_path):
    """Resume with a batch size whose batch straddles the checkpoint's
    offset: only the rows past the offset are fed, so the output, the
    engine counters and each partition's offset equal a fresh run's."""
    from fasta_windows_ray.sinks import ExactlyOnceSink
    from fasta_windows_ray.state.runner import StreamingJob

    t = make_transcripts(n_convs=20, mean_turns=300, seed=11).to_pandas()
    t = t.sort_values(["ts", "conv_id", "turn_idx"]).reset_index(drop=True)
    cfg = WindowConfig(kind="tumbling", size_us=20 * S)
    counters = ("rows_in", "late_dropped", "dup_dropped")

    def summed(metrics):
        return {c: sum(m[c] for m in metrics) for c in counters}

    def offsets(out_dir):
        return [ExactlyOnceSink(out_dir, p).load_manifest()["intervals"][-1]
                ["rows_consumed"] for p in range(3)]

    fresh_dir = str(tmp_path / "fresh")
    job = StreamingJob(fresh_dir, cfg, num_partitions=3)
    fresh_m = summed(job.run(t, batch_rows=1000, checkpoint_every=2))
    fresh = canon(job.output())
    assert fresh_m["rows_in"] == len(t) > 4500

    crash_dir = str(tmp_path / "crash")
    job1 = StreamingJob(crash_dir, cfg, num_partitions=3)
    assert job1.run(t, batch_rows=1000, checkpoint_every=2,
                    crash_after_batches=3) is None
    assert offsets(crash_dir) == [2000] * 3
    job2 = StreamingJob(crash_dir, cfg, num_partitions=3, resume=True)
    resumed_m = summed(job2.run(t, batch_rows=1500, checkpoint_every=2))
    assert resumed_m == fresh_m
    assert offsets(crash_dir) == offsets(fresh_dir) == [len(t)] * 3
    pd.testing.assert_frame_equal(fresh, canon(job2.output()))


def test_rerun_idempotence(ray_session, tmp_path):
    """Re-running a completed job overwrites the same files with the same
    rows — observational exactly-once."""
    from fasta_windows_ray.state.runner import StreamingJob

    t = make_transcripts(n_convs=5, mean_turns=30, seed=13).to_pandas()
    t = t.sort_values(["ts", "conv_id", "turn_idx"]).reset_index(drop=True)
    cfg = WindowConfig(kind="tumbling", size_us=15 * S)
    out_dir = str(tmp_path / "out")
    a_job = StreamingJob(out_dir, cfg, num_partitions=2)
    a_job.run(t, batch_rows=64, checkpoint_every=3)
    a = canon(a_job.output())
    b_job = StreamingJob(out_dir, cfg, num_partitions=2)   # rerun from scratch
    b_job.run(t, batch_rows=64, checkpoint_every=3)
    b = canon(b_job.output())
    pd.testing.assert_frame_equal(a, b)


def test_snapshot_roundtrip():
    cfg = WindowConfig(kind="tumbling", size_us=10 * S, lateness_us=2 * S)
    t = make_transcripts(n_convs=3, mean_turns=25, seed=21).to_pandas()
    t = t.sort_values(["ts", "conv_id", "turn_idx"])
    half = len(t) // 2
    eng = StreamEngine(cfg)
    rows_full = eng.process_rows(t.iloc[:half])
    blob = eng.snapshot()
    rows_full += eng.process_rows(t.iloc[half:])
    rows_full += eng.flush()
    full = canon(emitted_to_frame(rows_full, "tumbling"))

    # emissions before the snapshot plus post-restore emissions == full run
    eng3 = StreamEngine(cfg)
    pre = eng3.process_rows(t.iloc[:half])
    eng2 = StreamEngine.restore(blob)
    post = eng2.process_rows(t.iloc[half:])
    post += eng2.flush()
    assert canon(emitted_to_frame(pre + post, "tumbling")).equals(full)


def test_partitioned_batch_sink_resume(ray_session, tmp_path):
    """Batch-path resumable output: committed partitions are skipped on
    rerun; uncommitted ones are recomputed (SURVEY.md resumable-output)."""
    import os

    import ray.data as rd

    from fasta_windows_ray.sinks import read_partitioned, write_partitioned
    from fasta_windows_ray.stages.window_stats import add_bucket, window_stats

    t = make_transcripts(n_convs=8, mean_turns=30, seed=51)
    stats = window_stats(rd.from_arrow(t), 20 * S, num_buckets=4)
    bucketed = add_bucket(stats, 4)
    root = str(tmp_path / "parts")
    res1 = write_partitioned(bucketed, root)
    assert not res1["skipped"].any()
    full = read_partitioned(root)
    assert len(full) > 0

    # simulate a partial failure: remove one partition's commit marker
    victims = [d for d in os.listdir(root) if d.startswith("part=")][:1]
    os.remove(os.path.join(root, victims[0], ".done"))
    res2 = write_partitioned(bucketed, root)
    assert res2["skipped"].sum() == 3      # 3 committed partitions skipped
    assert (~res2["skipped"]).sum() == 1   # 1 recomputed
    full2 = read_partitioned(root)
    pd.testing.assert_frame_equal(
        canon(full), canon(full2))


def test_task_failure_retried_transparently(ray_session, tmp_path):
    """A map stage that crashes on its first attempt is retried by Ray's
    lineage re-execution; the pipeline output is unaffected (the
    fault-tolerance row of SURVEY.md §4; application exceptions need
    retry_exceptions=True, system failures retry by default)."""
    import os

    import ray.data as rd

    from fasta_windows_ray.stages.window_stats import window_stats

    t = make_transcripts(n_convs=6, mean_turns=25, seed=61)
    latch_dir = str(tmp_path / "latch")
    os.makedirs(latch_dir, exist_ok=True)

    def flaky(batch):
        # fail exactly once per task index (file latch survives retries)
        import pyarrow as pa
        key = os.path.join(latch_dir,
                           f"{hash(str(batch['turn_idx'][0])) % 997}")
        if not os.path.exists(key):
            open(key, "w").close()
            raise RuntimeError("injected transient failure")
        return pa.table(batch)

    ds = rd.from_arrow(t).map_batches(
        flaky, batch_format="pyarrow",
        max_retries=3, retry_exceptions=True)
    out = window_stats(ds, 20 * S, num_buckets=4).to_pandas()
    clean = window_stats(rd.from_arrow(t), 20 * S, num_buckets=4).to_pandas()
    pd.testing.assert_frame_equal(canon(out), canon(clean))


def _turns(texts) -> "pa.Table":
    """Log rows of one window: one user turn per text."""
    import pyarrow as pa

    n = len(texts)
    return pa.table({"ts": pa.array(np.arange(n), pa.timestamp("us")),
                     "turn_uid": np.arange(n), "role": ["user"] * n,
                     "text": texts, "tool": [""] * n})


def test_bounded_kgrams_exact_below_cap_roundtrip():
    """Below the cap a window summary keeps exact k-gram keys: the
    bigrams read off its 4-gram keys' prefixes are the text's, and the
    entropy is bit-identical."""
    from fasta_windows_ray import kernels as K
    from fasta_windows_ray.stages.window_stats import (_CP_BITS,
                                                       BucketWindowStats,
                                                       WindowSummary)

    inst = BucketWindowStats(ctw_depth=-1, profile="full")
    sm = WindowSummary()
    inst.fold([sm], _turns(["abcabcabd"]), np.zeros(1, dtype=np.int64))
    assert not sm.spilled
    assert sm.totals.tolist() == [9, 8, 7, 6]
    exp = {"AB": 3, "BC": 2, "CA": 2, "BD": 1}  # ASCII-folded
    got: dict = {}
    for h, x, c in zip(*(a.tolist() for a in sm.hist)):
        c1 = x >> (2 * _CP_BITS)         # class = code point + 1, 0 past
        if c1:                           # the turn's end
            key = chr(h - 1) + chr(c1 - 1)
            got[key] = got.get(key, 0) + c
    assert got == exp
    st = inst.finish([sm], ["c"], [0], [10 * S]).to_pylist()[0]
    assert st["bigram_diversity"] == K.entropy_from_counts(
        [exp[g] for g in sorted(exp)])


def test_bounded_kgrams_spill_flat_memory(monkeypatch):
    """Past the cap a histogram spills: its heaviest keys stay whole and
    the others are cut, so its size never passes the cap however many
    distinct keys come, totals stay exact, and entropy stays finite and
    below the true value for a heavy-hitter-dominated distribution."""
    import math

    from fasta_windows_ray.stages import window_stats as W

    monkeypatch.setattr(W, "KGRAM_CAP", 512)
    inst = W.BucketWindowStats(ctw_depth=-1)
    # bigram i: two characters of a 64-letter alphabet, one turn each
    bigram = [chr(0x4E00 + i % 64) + chr(0x4E00 + i // 64)
              for i in range(4020)]

    def add(sm, texts):
        inst.fold([sm], _turns(texts), np.zeros(len(texts), dtype=np.int64))

    sm = W.WindowSummary()
    add(sm, bigram[:8] * 1000)                      # heavy hitters
    add(sm, bigram[8:520])                          # seeds
    assert sm.spilled
    sizes = []
    for i in range(520, 4020, 100):                 # tails
        add(sm, bigram[i:i + 100])
        sizes.append(len(sm.hist[2]))
    assert max(sizes) <= 512                        # fixed memory
    assert sm.totals[1] == 8000 + 512 + 3500
    h = inst.finish([sm], ["c"], [0], [1]).to_pylist()[0]["bigram_diversity"]
    n = sm.totals[1]
    p_hh, p_t = 1000 / n, 1 / n
    true = -(8 * p_hh * math.log2(p_hh) + 4012 * p_t * math.log2(p_t))
    assert 0 < h <= true + 1e-9          # tail-aggregated lower bound


def test_huge_window_flat_acc_and_last_ts():
    """A single window with >cap distinct quadgrams and no CTW spills its
    quadgram histogram, and its state stays flat: after the spill, 4x
    more rows of the same kind grow the engine's memory (tracemalloc plus
    the Arrow pool) by less than a quarter of what it held at the spill.
    Unbounded quadgrams, or a Python list per turn, would grow it several
    times over. It still emits exact counts/last_ts."""
    import tracemalloc

    import pyarrow as pa

    rng = np.random.default_rng(7)
    n = 2500
    alpha = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789"))

    def rows(a, b):
        return pd.DataFrame({
            "conv_id": ["c"] * (b - a),
            "turn_uid": np.arange(a, b),
            "role": ["user"] * (b - a),
            "text": ["".join(rng.choice(alpha, 40)) for _ in range(a, b)],
            "tool": [""] * (b - a),
            "ts": pd.to_datetime(EPOCH_US + np.arange(a, b) * 1000,
                                 unit="us"),
        })

    first = rows(0, n)
    more = [rows(i, i + n) for i in range(n, 5 * n, n)]
    cfg = WindowConfig(kind="tumbling", size_us=3600 * S, ctw_depth=-1,
                       profile="full")

    def held():
        return tracemalloc.get_traced_memory()[0] + pa.total_allocated_bytes()

    tracemalloc.start()
    try:
        base = held()
        eng = StreamEngine(cfg)
        out = eng.process_rows(first)
        at_spill = held() - base
        for batch in more:
            out += eng.process_rows(batch)
        grown = held() - base - at_spill
    finally:
        tracemalloc.stop()
    assert eng.metrics.windows_promoted == 1
    assert 0 < grown < at_spill / 4, (grown, at_spill)
    out += eng.flush()
    assert eng.metrics.kgram_spills == 1  # spill surfaced (round-2 ADVICE)
    assert len(out) == 1
    assert out[0]["n_turns"] == 5 * n
    assert out[0]["n_chars"] == 40 * 5 * n
    assert out[0]["last_ts"] == EPOCH_US + (5 * n - 1) * 1000


def test_soak_long_run_flat_memory():
    """Round-2 VERDICT #2 soak: >=1M rows streamed through one engine;
    emitted rows are RETURNED (not retained), watermark draining closes
    windows, so engine-held memory stays flat between the early and late
    phases of the run."""
    import tracemalloc

    import numpy as np
    import pandas as pd

    from fasta_windows_ray.state.engine import StreamEngine, WindowConfig

    cfg = WindowConfig(kind="tumbling", size_us=60 * S, lateness_us=10 * S,
                       profile="counts")
    eng = StreamEngine(cfg)
    assert not hasattr(eng, "emitted")          # the leak attribute is gone

    rng = np.random.default_rng(5)
    n_total, chunk = 1_000_000, 50_000
    emitted = 0
    baseline = None
    tracemalloc.start()
    for lo in range(0, n_total, chunk):
        ts = lo * S + rng.integers(0, 5 * S, chunk).cumsum() // 1000
        df = pd.DataFrame({
            "conv_id": [f"c{i % 512}" for i in range(chunk)],
            "turn_uid": np.arange(lo, lo + chunk),
            "role": ["user", "assistant"] * (chunk // 2),
            "ts": pd.to_datetime(np.sort(ts), unit="us"),
        })
        emitted += len(eng.process_rows(df))
        if lo == 4 * chunk:                      # warmed-up baseline
            baseline = tracemalloc.get_traced_memory()[0]
    final = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    emitted += len(eng.flush())
    assert emitted > 1000
    # open-window state is bounded by the watermark; 4x headroom guards
    # against allocator noise while still catching an O(rows) leak
    # (retaining 1M emitted dict rows would be tens of MB)
    assert final < baseline * 1.5 + 8_000_000, (baseline, final)
