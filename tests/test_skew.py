"""F23: salted pre-aggregation on a hot-key corpus must be bit-equal to
the unsalted groupby path; turn-window boundary semantics."""

import pandas as pd
import pytest

from fasta_windows_ray.synth import make_transcripts

S = 1_000_000


def canon(df):
    df = df.copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def test_f23_salted_equals_unsalted(ray_session):
    import ray.data as rd

    from fasta_windows_ray.stages.salted import salted_window_counts
    from fasta_windows_ray.stages.window_stats import window_stats

    # one 20k-turn hot conversation + many small ones
    t = make_transcripts(n_convs=30, mean_turns=30, seed=17,
                         hot_conv_turns=20_000)
    cols = ["conv_id", "window_start", "n_turns", "n_user", "n_assistant",
            "n_system", "n_tool", "n_other", "sys_asst_share",
            "masked_share", "role_entropy"]
    salted = canon(salted_window_counts(
        rd.from_arrow(t), 60 * S, num_merge_buckets=8).to_pandas()[cols])
    plain = canon(window_stats(rd.from_arrow(t), 60 * S, profile="counts",
                               num_buckets=8).to_pandas()[cols])
    pd.testing.assert_frame_equal(salted, plain, check_dtype=False,
                                  check_exact=True)


def test_turn_window_clamped_ends(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from fasta_windows_ray.stages.window_stats import turn_window_counts
    from fasta_windows_ray.synth import conv_from_string

    t = pa.concat_tables([
        conv_from_string("c16", "ACGTACG"),            # 7 turns  (F16)
        conv_from_string("c17", "ACGTACGTAC" * 2),     # 20 turns (F17)
        conv_from_string("c18", "ACGTACGTAC" * 2 + "ACGTA"),  # 25 (F18)
    ])
    out = turn_window_counts(rd.from_arrow(t), w_turns=10,
                             num_buckets=4).to_pandas()
    out = out.sort_values(["conv_id", "win_start"]).reset_index(drop=True)
    got = {(r.conv_id, int(r.win_start), int(r.win_end), int(r.n_turns))
           for r in out.itertuples()}
    assert got == {
        ("c16", 0, 7, 7),                       # shorter than window
        ("c17", 0, 10, 10), ("c17", 10, 20, 10),  # exact multiple
        ("c18", 0, 10, 10), ("c18", 10, 20, 10), ("c18", 20, 25, 5),
    }


def test_salted_sessions_equal_plain(ray_session):
    """Salted interval-stitched sessions == direct per-conv session pass,
    on a hot-key corpus whose hot conversation spans many blocks."""
    import ray.data as rd

    from fasta_windows_ray.stages.salted import salted_session_counts
    from fasta_windows_ray.stages.sessions import session_stats

    t = make_transcripts(n_convs=20, mean_turns=25, seed=37,
                         hot_conv_turns=5_000, turn_gap_us=40 * S)
    ds = rd.from_arrow(t).repartition(16)   # force the hot conv across blocks
    a = canon(salted_session_counts(ds, 60 * S, num_merge_buckets=8).to_pandas())
    b = canon(session_stats(rd.from_arrow(t), 60 * S,
                            num_buckets=8).to_pandas())
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_salted_sessions_stitch_interleaved_partials(ray_session):
    """Rows shuffled across blocks: every block sees a sparse sample of
    each conversation, so the batch-local intervals of different blocks
    overlap and nest, and the stitch must join them by the furthest end
    seen so far, not the previous interval's."""
    import numpy as np
    import ray.data as rd

    from fasta_windows_ray.stages.salted import salted_session_counts
    from fasta_windows_ray.stages.sessions import session_stats

    import pyarrow as pa

    rng = np.random.default_rng(0)
    n = 3000
    t = pa.table({
        "conv_id": rng.choice(["c_hot"] * 8 + ["c1", "c2"], n),
        "ts": pa.array(rng.integers(0, 20_000, n) * S).cast(
            pa.timestamp("us")),
    })
    a = canon(salted_session_counts(rd.from_arrow(t).repartition(12),
                                    20 * S, num_merge_buckets=4).to_pandas())
    b = canon(session_stats(rd.from_arrow(t), 20 * S,
                            num_buckets=4).to_pandas())
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert len(a) > 100 and a["n_turns"].max() > 20


def test_salted_session_full_stats_equal_engine(ray_session):
    """Round-2 VERDICT #4: the interval-stitch of full _WindowAcc
    partials must reproduce the stateful engine's session rows exactly
    on a hot-key corpus split across many blocks."""
    import numpy as np
    import ray.data as rd

    from fasta_windows_ray.state.engine import StreamEngine, WindowConfig
    from fasta_windows_ray.stages.salted import salted_session_stats

    t = make_transcripts(n_convs=12, mean_turns=20, seed=41,
                         hot_conv_turns=2_000, turn_gap_us=40 * S)
    ds = rd.from_arrow(t).repartition(16)   # hot conv spans many blocks
    a = canon(salted_session_stats(ds, 60 * S, num_merge_buckets=8,
                                   ctw_depth=3).to_pandas())

    # reference: single engine fed time-ordered rows (the engine's
    # streaming contract — conv-major order would advance the watermark
    # past earlier convs and late-drop them)
    eng = StreamEngine(WindowConfig(kind="session", gap_us=60 * S,
                                    profile="full", ctw_depth=3))
    pdf = t.to_pandas().sort_values(["ts", "turn_idx"])
    rows = eng.process_rows(pdf)
    rows += eng.flush()
    from fasta_windows_ray.state.engine import emitted_to_frame
    b = canon(emitted_to_frame(rows, "session"))
    a, b = a[sorted(a.columns)], b[sorted(b.columns)]
    assert list(a.columns) == list(b.columns)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    # non-vacuous: the hot conv produced multiple sessions with text stats
    assert len(a) > 10 and (a["char_entropy"] > 0).any()
    assert (a["ctw_roles_bpb"] > 0).any()


def test_salted_session_stats_null_cells_match_engine(ray_session):
    """Null text/tool/role cells (normal in parquet/JSONL) must get the
    same ""/"user" normalization in BOTH session paths (round-3 review:
    the engine used to count str(None)='None' as 4 chars + masked)."""
    import pyarrow as pa
    import ray.data as rd

    from fasta_windows_ray.stages.salted import salted_session_stats
    from fasta_windows_ray.state.engine import (StreamEngine, WindowConfig,
                                                emitted_to_frame)

    t = pa.table({
        "conv_id": ["c1", "c1", "c1", "c2"],
        "turn_idx": [0, 1, 2, 0],
        "role": ["user", None, "assistant", "user"],
        "text": ["hello there", None, "world", None],
        "tool": [None, None, "grep", None],
        "ts": pa.array([0, 10 * S, 20 * S, 15 * S]).cast(
            pa.timestamp("us")),
    })
    a = canon(salted_session_stats(rd.from_arrow(t), 60 * S,
                                   num_merge_buckets=4,
                                   ctw_depth=3).to_pandas())
    eng = StreamEngine(WindowConfig(kind="session", gap_us=60 * S,
                                    profile="full", ctw_depth=3))
    pdf = t.to_pandas().sort_values(["ts", "turn_idx"])
    rows = eng.process_rows(pdf) + eng.flush()
    b = canon(emitted_to_frame(rows, "session"))
    a, b = a[sorted(a.columns)], b[sorted(b.columns)]
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    # the null text contributed 0 chars, and null tool is unmasked
    r = a[a["conv_id"] == "c1"].iloc[0]
    assert r["n_chars"] == len("hello there") + len("world")
    assert r["n_tool"] == 0  # null role -> "user", not "other"


def test_vectorized_window_stats_null_cells_match_engine(ray_session):
    """The vectorized tumbling path shares the engine's null
    convention: null role factorized to -1 used to index the LAST
    unique role, and null tool counted as masked (round-3 review)."""
    import pyarrow as pa
    import ray.data as rd

    from fasta_windows_ray.stages.window_stats import window_stats
    from fasta_windows_ray.state.engine import (StreamEngine, WindowConfig,
                                                emitted_to_frame)

    t = pa.table({
        "conv_id": ["c1", "c1", "c1", "c2"],
        "turn_idx": [0, 1, 2, 0],
        "role": ["user", None, "assistant", "user"],
        "text": ["hello there", None, "world", None],
        "tool": [None, None, "grep", None],
        "ts": pa.array([0, 10 * S, 20 * S, 15 * S]).cast(
            pa.timestamp("us")),
    })
    v = window_stats(rd.from_arrow(t), 3600 * S, profile="full",
                     num_buckets=2).to_pandas() \
        .sort_values("conv_id").reset_index(drop=True)
    eng = StreamEngine(WindowConfig(kind="tumbling", size_us=3600 * S,
                                    profile="full"))
    pdf = t.to_pandas().sort_values(["ts", "turn_idx"])
    rows = eng.process_rows(pdf) + eng.flush()
    e = emitted_to_frame(rows, "tumbling") \
        .sort_values("conv_id").reset_index(drop=True)
    cols = sorted(set(v.columns) & set(e.columns))
    pd.testing.assert_frame_equal(v[cols], e[cols], check_dtype=False)
    assert v["n_user"].tolist() == [2, 1]       # null role -> user
    assert v["masked_share"].tolist()[0] == pytest.approx(1 / 3)
