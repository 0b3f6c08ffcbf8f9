"""Updates-mode (allowed-lateness) emission gates: late rows inside the
retention horizon fold into already-emitted windows and re-emit with an
incremented revision; the latest revision per window equals a batch
recomputation over all retained rows; expired rows still drop; snapshot/
restore round-trips the retention state."""

import numpy as np
import pandas as pd
import pytest

from fasta_windows_ray.state.engine import StreamEngine, WindowConfig, \
    emitted_to_frame
from fasta_windows_ray.state.runner import latest_revision
from fasta_windows_ray.synth import EPOCH_US

S = 1_000_000


def mk(ts_s, convs=None, roles=None, texts=None, idx=None):
    n = len(ts_s)
    return pd.DataFrame({
        "conv_id": convs or ["c"] * n,
        "turn_idx": np.asarray(idx if idx is not None else range(n),
                               dtype=np.int32),
        "role": roles or ["user"] * n,
        "text": texts or [f"msg {i}" for i in range(n)],
        "tool": [""] * n,
        "ts": pd.to_datetime(EPOCH_US + np.asarray(ts_s) * S, unit="us"),
    })


def run(cfg, df):
    eng = StreamEngine(cfg)
    rows = eng.process_rows(df)
    rows += eng.flush()
    return eng, rows


def frame(rows, updates=True):
    return emitted_to_frame(rows, "tumbling",
                            ("revision",) if updates else ())


def batch_recompute(df, size_us, kind="tumbling", step_us=None):
    """Ground truth: final-mode replay over the time-ordered full input."""
    cfg = WindowConfig(kind=kind, size_us=size_us, step_us=step_us)
    _, rows = run(cfg, df.sort_values(["ts", "turn_idx"], kind="stable"))
    return emitted_to_frame(rows, kind)


def canon(df):
    df = df.copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(["conv_id", "window_start"],
                          kind="stable").reset_index(drop=True)


def test_late_row_updates_emitted_window():
    cfg = WindowConfig(kind="tumbling", size_us=10 * S,
                       emit="updates", retention_us=60 * S)
    df = mk([1, 5, 15, 7])          # arrival order; 7 is late (wm=15)
    eng, rows = run(cfg, df)
    out = frame(rows)
    # window [0,10) emitted twice: rev 0 on time (2 turns), rev 1 late (3)
    w0 = out[out["window_start"] == pd.Timestamp(EPOCH_US, unit="us")]
    assert list(w0.sort_values("revision")["revision"]) == [0, 1]
    assert list(w0.sort_values("revision")["n_turns"]) == [2, 3]
    assert eng.metrics.late_updates == 1
    assert eng.metrics.late_dropped == 0
    # latest revision equals the batch recomputation including the late row
    final = canon(latest_revision(out).drop(columns=["revision"]))
    truth = canon(batch_recompute(df, 10 * S))
    pd.testing.assert_frame_equal(final, truth)


def test_beyond_retention_drops():
    cfg = WindowConfig(kind="tumbling", size_us=10 * S,
                       emit="updates", retention_us=2 * S)
    # wm jumps to 50; window [0,10) expires at 12 < 50 before the late row
    eng, rows = run(cfg, mk([1, 50, 5]))
    out = frame(rows)
    assert eng.metrics.late_dropped == 1
    assert eng.metrics.late_updates == 0
    assert eng.metrics.windows_expired == 1
    w0 = out[out["window_start"] == pd.Timestamp(EPOCH_US, unit="us")]
    assert len(w0) == 1 and w0["n_turns"].iloc[0] == 1   # rev 0 only


def test_ontime_stream_matches_final_mode():
    df = mk([0, 3, 12, 15, 27, 31], idx=range(6))
    upd = WindowConfig(kind="tumbling", size_us=10 * S,
                       emit="updates", retention_us=30 * S)
    fin = WindowConfig(kind="tumbling", size_us=10 * S)
    _, r_u = run(upd, df)
    _, r_f = run(fin, df)
    a = frame(r_u)
    assert (a["revision"] == 0).all()
    pd.testing.assert_frame_equal(canon(a.drop(columns=["revision"])),
                                  canon(emitted_to_frame(r_f, "tumbling")))


def test_late_row_opens_never_seen_window():
    cfg = WindowConfig(kind="tumbling", size_us=10 * S,
                       emit="updates", retention_us=60 * S)
    # conv b's only row arrives after the watermark passed its window
    df = mk([1, 25, 4], convs=["a", "a", "b"])
    eng, rows = run(cfg, df)
    out = frame(rows)
    b0 = out[out["conv_id"] == "b"]
    assert len(b0) == 1 and b0["revision"].iloc[0] == 0 \
        and b0["n_turns"].iloc[0] == 1
    assert eng.metrics.late_updates == 1
    final = canon(latest_revision(out).drop(columns=["revision"]))
    truth = canon(batch_recompute(df, 10 * S))
    pd.testing.assert_frame_equal(final, truth)


def test_sliding_late_updates_every_covering_window():
    cfg = WindowConfig(kind="sliding", size_us=20 * S, step_us=10 * S,
                       emit="updates", retention_us=120 * S)
    df = mk([1, 11, 45, 15])        # 15 is late; covers [0,20) and [10,30)
    eng, rows = run(cfg, df)
    out = emitted_to_frame(rows, "sliding", ("revision",))
    upd = out[out["revision"] == 1]
    starts = sorted(upd["window_start"].astype("datetime64[us]")
                    .astype("int64") - EPOCH_US)
    assert starts == [0, 10 * S]
    assert eng.metrics.late_updates == 2
    final = canon(latest_revision(out).drop(columns=["revision"]))
    truth = canon(batch_recompute(df, 20 * S, kind="sliding",
                                  step_us=10 * S))
    pd.testing.assert_frame_equal(final, truth)


def test_duplicate_late_row_still_deduped():
    cfg = WindowConfig(kind="tumbling", size_us=10 * S,
                       emit="updates", retention_us=60 * S)
    df = mk([1, 15, 1], idx=[0, 1, 0])   # third row = exact dup of first
    eng, rows = run(cfg, df)
    assert eng.metrics.dup_dropped == 1
    assert eng.metrics.late_updates == 0


def test_snapshot_restore_mid_late_arrival():
    cfg = WindowConfig(kind="tumbling", size_us=10 * S,
                       emit="updates", retention_us=60 * S)
    head, tail = mk([1, 5, 15]), mk([7, 31], idx=[10, 11])
    eng = StreamEngine(cfg)
    rows = eng.process_rows(head)
    eng2 = StreamEngine.restore(eng.snapshot())
    rows += eng2.process_rows(tail)
    rows += eng2.flush()

    ref = StreamEngine(cfg)
    rows_ref = ref.process_rows(pd.concat([head, tail], ignore_index=True))
    rows_ref += ref.flush()
    pd.testing.assert_frame_equal(
        frame(rows).pipe(lambda d: d.sort_values(
            list(d.columns), kind="stable").reset_index(drop=True)),
        frame(rows_ref).pipe(lambda d: d.sort_values(
            list(d.columns), kind="stable").reset_index(drop=True)))
    assert eng2.metrics.late_updates == 1


def test_updates_mode_rejects_sessions():
    with pytest.raises(ValueError):
        StreamEngine(WindowConfig(kind="session", emit="updates"))


def test_retention_zero_updates_accepts_open_windows_only():
    """retention 0: a late row can still land in a STILL-OPEN covering
    window (end > watermark) but never re-opens an emitted one."""
    cfg = WindowConfig(kind="sliding", size_us=20 * S, step_us=10 * S,
                       emit="updates", retention_us=0)
    # wm=11 after row at 11; row at 3 is late but [0,20) hasn't ended
    eng, rows = run(cfg, mk([1, 11, 3]))
    out = emitted_to_frame(rows, "sliding", ("revision",))
    assert (out["revision"] == 0).all()
    assert eng.metrics.late_updates == 0
    w0 = out[out["window_start"] == pd.Timestamp(EPOCH_US, unit="us")]
    assert w0["n_turns"].iloc[0] == 3


def test_streaming_job_updates_end_to_end(ray_session, tmp_path):
    """Full loop: StreamingJob (partition actors + exactly-once sink)
    in updates mode over an arrival-ordered log containing late rows;
    the sink's committed output resolves via latest_revision to the
    batch recomputation over the time-sorted input."""
    from fasta_windows_ray.state.runner import StreamingJob

    table = mk([1, 5, 15, 7, 31, 24], convs=["a", "a", "a", "a", "a", "a"],
               idx=range(6))
    cfg = WindowConfig(kind="tumbling", size_us=10 * S,
                       emit="updates", retention_us=60 * S)
    job = StreamingJob(str(tmp_path / "out"), cfg, num_partitions=2)
    job.run(table, batch_rows=2, checkpoint_every=1)
    out = job.output()
    assert "revision" in out.columns
    assert (out["revision"] > 0).any()            # a late update happened
    final = canon(latest_revision(out).drop(columns=["revision"]))
    truth = canon(batch_recompute(table, 10 * S))
    pd.testing.assert_frame_equal(
        final.reset_index(drop=True), truth.reset_index(drop=True))


def test_retention_state_bounded():
    """Long stream, small retention: retained-window state stays bounded
    (windows GC at end+retention; revisions dict tracks only live keys).
    Updates-mode windows live in the row log and are never promoted to
    summaries, so ``open`` stays empty and the log's rows are bounded:
    at most 5 live windows of 10 one-second rows."""
    cfg = WindowConfig(kind="tumbling", size_us=10 * S, profile="counts",
                       emit="updates", retention_us=20 * S)
    eng = StreamEngine(cfg)
    for chunk in range(50):
        ts = np.arange(20) + chunk * 20
        eng.process_rows(mk(ts.tolist(), idx=(ts * 7).tolist()))
        # live horizon = watermark - (size + retention) => <= ~4 windows
        assert not eng.open
        assert eng.log.num_rows <= 50
        assert len(eng.revisions) <= 5
        assert len(eng.ret_heap) <= 5
    assert eng.metrics.windows_expired > 90


def test_early_firing_panes():
    """Speculative panes: every 2 arrivals an open window re-emits; the
    watermark pane continues the same revision stream; latest_revision
    still resolves to the batch recomputation."""
    cfg = WindowConfig(kind="tumbling", size_us=10 * S,
                       emit="updates", retention_us=30 * S,
                       early_fire_every=2)
    df = mk([1, 2, 3, 4, 5, 15], idx=range(6))
    eng, rows = run(cfg, df)
    out = frame(rows)
    w0 = out[out["window_start"] == pd.Timestamp(EPOCH_US, unit="us")] \
        .sort_values("revision").reset_index(drop=True)
    # panes at n=2 and n=4 (revisions 0, 1), watermark pane (revision 2)
    assert list(w0["revision"]) == [0, 1, 2]
    assert list(w0["n_turns"]) == [2, 4, 5]          # accumulating panes
    assert eng.metrics.early_panes == 2
    assert eng.metrics.windows_emitted == 2          # [0,10) + [10,20)
    final = canon(latest_revision(out).drop(columns=["revision"]))
    truth = canon(batch_recompute(df, 10 * S))
    pd.testing.assert_frame_equal(final, truth)


def test_early_fire_then_late_update_same_stream():
    cfg = WindowConfig(kind="tumbling", size_us=10 * S, profile="counts",
                       emit="updates", retention_us=60 * S,
                       early_fire_every=2)
    df = mk([1, 2, 15, 7], idx=range(4))   # pane, watermark, late update
    eng, rows = run(cfg, df)
    out = frame(rows)
    w0 = out[out["window_start"] == pd.Timestamp(EPOCH_US, unit="us")] \
        .sort_values("revision").reset_index(drop=True)
    assert list(w0["revision"]) == [0, 1, 2]
    assert list(w0["n_turns"]) == [2, 2, 3]
    assert eng.metrics.early_panes == 1
    assert eng.metrics.late_updates == 1


def test_early_fire_requires_updates_mode():
    with pytest.raises(ValueError):
        StreamEngine(WindowConfig(kind="tumbling", early_fire_every=4))
