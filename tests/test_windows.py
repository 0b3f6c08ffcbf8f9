"""Window-boundary conformance (FIXTURES.md F16-F20) — pure, no Ray."""

import numpy as np
import pandas as pd

from fasta_windows_ray.state.engine import StreamEngine, WindowConfig, \
    emitted_to_frame
from fasta_windows_ray.synth import EPOCH_US, conv_from_string
from fasta_windows_ray.windows import (count_window_bounds, session_ids,
                                       sliding_starts_expand, tumbling_start,
                                       turn_window_bounds)

S = 1_000_000  # 1 s in us


def run_engine(table, cfg):
    eng = StreamEngine(cfg)
    rows_eng = eng.process_rows(table.to_pandas())
    rows_eng += eng.flush()
    return emitted_to_frame(rows_eng, cfg.kind).sort_values(
        [c for c in ("conv_id", "window_start", "session_start")
         if c in emitted_to_frame(rows_eng, cfg.kind).columns]
    ).reset_index(drop=True)


def test_tumbling_assignment():
    x = np.array([0, 5, 10, 19, 20]) * S + EPOCH_US
    ws = tumbling_start(x, 10 * S)
    assert list((ws - EPOCH_US) // S) == [0, 0, 10, 10, 20]


def test_tumbling_offset():
    x = np.array([0, 5, 7]) * S
    ws = tumbling_start(x, 10 * S, offset=5 * S)
    assert list(ws // S) == [-5, 5, 5]


def test_sliding_expansion():  # F19 geometry
    x = np.array([7]) * S
    rows, starts = sliding_starts_expand(x, 6 * S, 3 * S)
    assert sorted((starts // S).tolist()) == [3, 6]  # windows [3,9),[6,12)
    # near origin: no negative starts
    rows, starts = sliding_starts_expand(np.array([1]) * S, 6 * S, 3 * S)
    assert sorted((starts // S).tolist()) == [0]


def test_session_ids():  # F20
    ts = np.array([0, 1, 2, 122, 123]) * S
    sid = session_ids(ts, 60 * S)
    assert sid.tolist() == [0, 0, 0, 1, 1]


def test_turn_window_bounds():  # issues #8/#9
    assert turn_window_bounds(np.array([0]), 10, 7).tolist() == [7]       # F16
    assert turn_window_bounds(np.array([0, 10]), 10, 20).tolist() == [10, 20]  # F17
    assert turn_window_bounds(np.array([20]), 10, 25).tolist() == [25]    # F18


def test_count_window_bounds():  # F16-F18 in one call, keys sorted
    key = np.repeat([0, 1, 2], [7, 20, 25])
    start, end = count_window_bounds(key, 10)
    got = sorted(set(zip(key.tolist(), start.tolist(), end.tolist())))
    assert got == [(0, 0, 7), (1, 0, 10), (1, 10, 20),
                   (2, 0, 10), (2, 10, 20), (2, 20, 25)]
    assert start[7:27].tolist() == [0] * 10 + [10] * 10   # rank per key
    empty = count_window_bounds(key[:0], 10)
    assert [len(a) for a in empty] == [0, 0]


# --- engine-level boundary semantics (1 turn == 1 second) -------------------

def test_f16_short_conversation():
    t = conv_from_string("c16", "ACGTACG")  # 7 turns
    out = run_engine(t, WindowConfig(kind="tumbling", size_us=10 * S))
    assert len(out) == 1
    assert out["n_turns"][0] == 7
    # last_ts < window_end: the partial window is clamped by the data
    assert out["last_ts"][0] < out["window_end"][0]


def test_f17_exact_multiple():
    t = conv_from_string("c17", "ACGTACGTAC" * 2)  # 20 turns
    out = run_engine(t, WindowConfig(kind="tumbling", size_us=10 * S))
    assert len(out) == 2
    assert out["n_turns"].tolist() == [10, 10]
    starts = ((out["window_start"].astype("int64") - EPOCH_US) // S).tolist()
    assert starts == [0, 10]


def test_f18_trailing_partial():
    t = conv_from_string("c18", "ACGTACGTAC" * 2 + "ACGTA")  # 25 turns
    out = run_engine(t, WindowConfig(kind="tumbling", size_us=10 * S))
    assert out["n_turns"].tolist() == [10, 10, 5]
    # trailing partial: stats denominators use 5 turns (proportions over 5)
    last = out.iloc[-1]
    assert last["n_user"] == 2 and last["n_turns"] == 5
    assert last["masked_share"] == 0.0


def test_f19_sliding_rolling_equals_recompute():
    t = conv_from_string("c19", "ACGTACGTACGT")  # 12 turns
    cfg = WindowConfig(kind="sliding", size_us=6 * S, step_us=3 * S)
    out = run_engine(t, cfg)
    starts = sorted(((out["window_start"].astype("int64") - EPOCH_US) // S).tolist())
    # standard event-time sliding semantics: every window COVERING a row is
    # emitted, including the leading/trailing partial covers (divergence
    # from the reference's position-0-anchored chunks, documented)
    assert starts == [-3, 0, 3, 6, 9]
    # recompute each window's stats from scratch and compare bit-for-bit
    pdf = t.to_pandas()
    pdf["tsi"] = pdf["ts"].astype("int64")
    for _, row in out.iterrows():
        lo = int(np.datetime64(row["window_start"], "us").astype("int64"))
        hi = lo + 6 * S
        sub = pdf[(pdf["tsi"] >= lo) & (pdf["tsi"] < hi)]
        assert row["n_turns"] == len(sub)
        from fasta_windows_ray import kernels as K
        rc = [int((sub["role"] == r).sum())
              for r in ("user", "assistant", "system", "tool", "other")]
        assert row["role_entropy"] == K.entropy_from_counts(rc)
        blob = "".join(sub["text"]).upper()
        assert row["char_entropy"] == K.text_char_entropy(blob)


def test_f20_session_gap():
    rows = []
    for i, off in enumerate([0, 1, 2, 122, 123]):
        rows.append(("c20", i, "user", "x", "", EPOCH_US + off * S))
    import pyarrow as pa
    t = pa.table({
        "conv_id": [r[0] for r in rows],
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": [r[2] for r in rows], "text": [r[3] for r in rows],
        "tool": [r[4] for r in rows],
        "ts": pa.array(np.array([r[5] for r in rows], np.int64),
                       pa.timestamp("us")),
    })
    out = run_engine(t, WindowConfig(kind="session", gap_us=60 * S))
    assert len(out) == 2
    assert out["n_turns"].tolist() == [3, 2]


def test_preassigned_window_start_path(ray_session):
    """assign_tumbling upstream == in-task assignment (the documented
    alternative entry)."""
    import pandas as pd
    import ray.data as rd

    from fasta_windows_ray.stages.window_stats import (BucketWindowStats,
                                                       add_bucket,
                                                       assign_tumbling,
                                                       window_stats)
    from fasta_windows_ray.synth import make_transcripts

    t = make_transcripts(n_convs=5, mean_turns=25, seed=71)
    pre = add_bucket(assign_tumbling(rd.from_arrow(t), 20 * S), 4)
    inst = BucketWindowStats(profile="full", window_size_us=20 * S)

    def fn(df):
        return inst(df)

    a = pre.groupby("bucket").map_groups(fn, batch_format="pandas") \
        .to_pandas().sort_values(["conv_id", "window_start"]).reset_index(drop=True)
    b = window_stats(rd.from_arrow(t), 20 * S, num_buckets=4) \
        .to_pandas().sort_values(["conv_id", "window_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_fast_profile_reduced_columns(ray_session):
    """'fast' == entropy.rs mode: char entropy + CTW only; k-gram and
    bigram columns zeroed, entropy/ctw identical to the full profile."""
    import ray.data as rd

    from fasta_windows_ray.stages.window_stats import window_stats
    from fasta_windows_ray.synth import make_transcripts

    t = make_transcripts(n_convs=4, mean_turns=20, seed=81)
    key = ["conv_id", "window_start"]
    full = window_stats(rd.from_arrow(t), 20 * S, num_buckets=2,
                        profile="full").to_pandas().sort_values(key).reset_index(drop=True)
    fast = window_stats(rd.from_arrow(t), 20 * S, num_buckets=2,
                        profile="fast").to_pandas().sort_values(key).reset_index(drop=True)
    assert (fast["bigram_diversity"] == 0).all()
    assert (fast["quadgram_diversity"] == 0).all()
    assert (fast["bigram_rate"] == 0).all()
    assert (fast["char_entropy"].to_numpy()
            == full["char_entropy"].to_numpy()).all()
    assert (fast["ctw_roles_bpb"].to_numpy()
            == full["ctw_roles_bpb"].to_numpy()).all()


def test_slab_composite_key_equals_plain_bucket(ray_session):
    """The (bucket x time-slab) composite grouping key must be a pure
    execution detail: tiny slabs (forcing many slab splits and sliding
    boundary duplication) produce exactly the plain-bucket output."""
    import pandas as pd
    import ray.data as rd

    from fasta_windows_ray.stages.window_stats import window_stats
    from fasta_windows_ray.synth import make_transcripts

    S = 1_000_000
    t = make_transcripts(n_convs=12, mean_turns=60, seed=11)

    def canon(ds):
        df = ds.to_pandas()
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns), kind="stable") \
            .reset_index(drop=True)

    for step in (None, 10 * S):            # tumbling and sliding
        plain = canon(window_stats(rd.from_arrow(t), 30 * S, step_us=step,
                                   num_buckets=4, slab_windows=None))
        slabbed = canon(window_stats(rd.from_arrow(t), 30 * S, step_us=step,
                                     num_buckets=4, slab_windows=2))
        pd.testing.assert_frame_equal(plain, slabbed)


def test_slab_stateful_equals_plain(ray_session):
    import pandas as pd
    import ray.data as rd

    from fasta_windows_ray.state.engine import WindowConfig
    from fasta_windows_ray.state.runner import stateful_window_run
    from fasta_windows_ray.synth import make_transcripts

    S = 1_000_000
    t = make_transcripts(n_convs=10, mean_turns=50, seed=13)

    def canon(ds):
        df = ds.to_pandas()
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns), kind="stable") \
            .reset_index(drop=True)

    for kind, step in (("tumbling", None), ("sliding", 10 * S)):
        cfg = WindowConfig(kind=kind, size_us=30 * S, step_us=step)
        plain = canon(stateful_window_run(rd.from_arrow(t), cfg,
                                          num_buckets=4, slab_windows=None))
        slabbed = canon(stateful_window_run(rd.from_arrow(t), cfg,
                                            num_buckets=4, slab_windows=2))
        pd.testing.assert_frame_equal(plain, slabbed)


def test_kgram_freq_vectors_match_kernels():
    """Dense role-k-gram frequency vectors == kernels.dense_kgram_vector
    over the window's ordered role-letter string (lexicographic ACGTN
    vocab, the reference's sorted-key order, kmeru8.rs:60-62)."""
    import numpy as np
    import pandas as pd

    from fasta_windows_ray import kernels as K
    from fasta_windows_ray.stages.window_stats import BucketWindowStats

    S = 1_000_000
    EPOCH = 1_700_000_000 * S
    rng = np.random.default_rng(21)
    roles = ["user", "assistant", "system", "tool", "other"]
    letter = {"user": "A", "assistant": "C", "system": "G",
              "tool": "T", "other": "N"}
    rows = []
    for conv in ("x", "y"):
        for i in range(37):
            rows.append({"conv_id": conv, "turn_uid": i,
                         "role": roles[rng.integers(0, 5)],
                         "text": "t", "tool": "",
                         "ts": pd.Timestamp(EPOCH + i * 7 * S, unit="us")})
    df = pd.DataFrame(rows)
    out = BucketWindowStats(profile="full", ctw_depth=-1,
                            window_size_us=60 * S, step_us=60 * S,
                            kgram_freqs=True)(df)
    # reference recomputation per window from the ordered role letters
    df["ws"] = df["ts"].astype("datetime64[us]").astype("int64") \
        // (60 * S) * (60 * S)
    for (conv, ws), g in df.groupby(["conv_id", "ws"]):
        g = g.sort_values(["ts", "turn_uid"])
        seq = "".join(letter[r] for r in g["role"])
        row = out[(out["conv_id"] == conv) &
                  (out["window_start"] == pd.Timestamp(ws, unit="us"))]
        assert len(row) == 1
        for k in (2, 3, 4):
            vocab = K.gen_all_kgrams("ACGTN", k)
            exp = K.dense_kgram_vector(
                K.kgram_counts(seq, k, skip_char=None), vocab)
            got = np.asarray(row[f"kgram_freq_k{k}"].iloc[0], dtype=np.int32)
            np.testing.assert_array_equal(got, exp)
