"""Count-window gates: engine counts == the vectorized turn_window_counts
twin, full stats == a direct per-chunk recompute, trailing-partial end
clamp (reference issues #8/#9 over turn offsets), snapshot/restore,
dedup, config validation."""

import numpy as np
import pandas as pd
import pytest

from fasta_windows_ray import kernels as K
from fasta_windows_ray.state.engine import (StreamEngine, WindowConfig,
                                            emitted_to_frame)
from fasta_windows_ray.state.runner import stateful_window_run
from fasta_windows_ray.stages.window_stats import turn_window_counts
from fasta_windows_ray.synth import make_transcripts

pytestmark_none = None


def run_engine(cfg, df):
    eng = StreamEngine(cfg)
    rows = eng.process_rows(df)
    rows += eng.flush()
    return eng, emitted_to_frame(rows, "count")


def sorted_df(t):
    return t.to_pandas().sort_values(["conv_id", "ts", "turn_idx"],
                                     kind="stable").reset_index(drop=True)


def test_counts_match_vectorized_twin(ray_session):
    t = make_transcripts(n_convs=12, mean_turns=25, seed=21)
    w = 7
    cfg = WindowConfig(kind="count", count_turns=w, profile="counts")
    # engine path: replay each conv's turns in (ts, uid) order
    import ray.data as rd
    _, eng_out = run_engine(cfg, sorted_df(t))
    eng_out = eng_out[["conv_id", "win_start", "win_end", "n_turns",
                       "n_user", "n_assistant", "n_system", "n_tool",
                       "n_other"]]
    vec = turn_window_counts(rd.from_arrow(t), w).to_pandas()
    key = ["conv_id", "win_start"]
    a = eng_out.sort_values(key).reset_index(drop=True)
    b = vec.sort_values(key).reset_index(drop=True).astype(
        {c: np.int64 for c in a.columns if c not in ("conv_id",)})
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))


def test_full_stats_match_direct_chunks(ray_session):
    t = make_transcripts(n_convs=5, mean_turns=18, seed=22)
    w = 5
    cfg = WindowConfig(kind="count", count_turns=w)
    df = sorted_df(t)
    _, out = run_engine(cfg, df)

    # direct recompute: the scalar oracles in ``kernels`` over each
    # conv's sorted chunks (k-grams within each turn, CTW over the roles
    # in (ts, turn) order)
    expect = []
    for conv, sub in df.groupby("conv_id", sort=True):
        sub = sub.reset_index(drop=True)
        for s in range(0, len(sub), w):
            chunk = sub.iloc[s:s + w]
            texts = chunk["text"].tolist()
            n_chars = sum(map(len, texts))
            row = {"conv_id": conv, "win_start": s,
                   "win_end": s + len(chunk)}
            row.update(K.role_stats(chunk["role"].value_counts().to_dict(),
                                    int((chunk["tool"] != "").sum())))
            row["n_chars"] = n_chars
            row["char_entropy"] = K.text_char_entropy("".join(texts))
            for k, name in ((2, "bigram_diversity"),
                            (3, "trigram_diversity"),
                            (4, "quadgram_diversity")):
                counts: dict = {}
                for text in texts:
                    for g, c in K.kgram_counts(text, k,
                                               skip_char=None).items():
                        counts[g] = counts.get(g, 0) + c
                row[name] = K.shannon_diversity(
                    [counts[g] for g in sorted(counts)])
            row["bigram_rate"] = K.specific_kgram_rate(texts, cfg.bigram,
                                                       n_chars)
            row["ctw_roles_bpb"] = K.ctw_roles(chunk["role"].tolist(),
                                               cfg.ctw_depth)
            row["ctw_text_bpb"] = 0.0
            expect.append(row)
    exp = emitted_to_frame(expect, "count")
    key = ["conv_id", "win_start"]
    pd.testing.assert_frame_equal(
        out.sort_values(key).reset_index(drop=True),
        exp.sort_values(key).reset_index(drop=True))


def test_trailing_partial_clamped():
    df = pd.DataFrame({
        "conv_id": ["c"] * 10,
        "turn_idx": np.arange(10, dtype=np.int32),
        "role": ["user"] * 10, "text": ["x"] * 10, "tool": [""] * 10,
        "ts": pd.to_datetime(np.arange(10) * 1_000_000, unit="us"),
    })
    cfg = WindowConfig(kind="count", count_turns=4, profile="counts")
    _, out = run_engine(cfg, df)
    out = out.sort_values("win_start").reset_index(drop=True)
    assert list(out["win_start"]) == [0, 4, 8]
    assert list(out["win_end"]) == [4, 8, 10]       # clamped partial
    assert list(out["n_turns"]) == [4, 4, 2]
    # a conv shorter than one window: end = conv length from the start
    cfg2 = WindowConfig(kind="count", count_turns=100, profile="counts")
    _, out2 = run_engine(cfg2, df)
    assert list(out2["win_end"]) == [10] and list(out2["n_turns"]) == [10]


def test_snapshot_restore_mid_chunk():
    df = pd.DataFrame({
        "conv_id": ["c"] * 9,
        "turn_idx": np.arange(9, dtype=np.int32),
        "role": ["user"] * 9, "text": [f"t{i}" for i in range(9)],
        "tool": [""] * 9,
        "ts": pd.to_datetime(np.arange(9) * 1_000_000, unit="us"),
    })
    cfg = WindowConfig(kind="count", count_turns=4)
    eng = StreamEngine(cfg)
    rows = eng.process_rows(df.iloc[:6])         # mid-second-chunk
    eng2 = StreamEngine.restore(eng.snapshot())
    rows += eng2.process_rows(df.iloc[6:])
    rows += eng2.flush()
    ref = StreamEngine(cfg)
    rows_ref = ref.process_rows(df)
    rows_ref += ref.flush()
    pd.testing.assert_frame_equal(emitted_to_frame(rows, "count"),
                                  emitted_to_frame(rows_ref, "count"))


def test_duplicates_do_not_advance_chunks():
    df = pd.DataFrame({
        "conv_id": ["c"] * 4,
        "turn_idx": np.array([0, 1, 1, 2], dtype=np.int32),
        "role": ["user"] * 4, "text": ["x"] * 4, "tool": [""] * 4,
        "ts": pd.to_datetime([0, 5, 5, 9], unit="us"),
    })
    cfg = WindowConfig(kind="count", count_turns=3, profile="counts")
    eng, out = run_engine(cfg, df)
    assert eng.metrics.dup_dropped == 1
    assert list(out["n_turns"]) == [3]


def test_config_validation():
    with pytest.raises(ValueError):
        StreamEngine(WindowConfig(kind="count"))            # no count_turns
    with pytest.raises(ValueError):
        StreamEngine(WindowConfig(kind="count", count_turns=4,
                                  emit="updates"))


def test_dataset_replay_path(ray_session):
    import ray.data as rd
    t = make_transcripts(n_convs=8, mean_turns=20, seed=23)
    cfg = WindowConfig(kind="count", count_turns=6, profile="counts")
    out = stateful_window_run(rd.from_arrow(t), cfg,
                              num_buckets=4).to_pandas()
    _, direct = run_engine(cfg, sorted_df(t))
    key = ["conv_id", "win_start"]
    cols = ["conv_id", "win_start", "win_end", "n_turns"]
    pd.testing.assert_frame_equal(
        out[cols].sort_values(key).reset_index(drop=True),
        direct[cols].sort_values(key).reset_index(drop=True))


def test_dedup_survives_pruning_threshold():
    """Count mode accepts any ts, so the dedup set must NOT prune by
    watermark: a duplicate of turn 0 arriving after 1500 rows (past the
    amortized prune trigger) is still dropped."""
    n = 1500
    df = pd.DataFrame({
        "conv_id": ["c"] * n,
        "turn_idx": np.arange(n, dtype=np.int32),
        "role": ["user"] * n, "text": ["x"] * n, "tool": [""] * n,
        "ts": pd.to_datetime(np.arange(n) * 1_000_000, unit="us"),
    })
    dup = df.iloc[[0]]
    cfg = WindowConfig(kind="count", count_turns=100, profile="counts")
    eng = StreamEngine(cfg)
    eng.process_rows(df)
    eng.process_rows(dup)
    rows = eng.flush()
    assert eng.metrics.dup_dropped == 1
    total = sum(r["n_turns"] for r in rows) + eng.metrics.windows_emitted * 0
    assert eng.metrics.rows_in == n + 1


def test_turn_window_role_index_vectorization_bit_equal(ray_session):
    """r5: the Categorical-codes role indexing must be bit-equal to the
    per-row formula it replaced (None -> n_user, unknown -> n_other)."""
    import ray.data as rd
    from fasta_windows_ray.stages.window_stats import ROLE_ORDER
    rng = np.random.default_rng(5)
    n = 400
    roles = rng.choice(ROLE_ORDER + ["weird", None], n).tolist()
    df = pd.DataFrame({
        "conv_id": [f"c{i % 13}" for i in range(n)],
        "turn_idx": np.arange(n, dtype=np.int32),
        "role": pd.array(roles, dtype="string"),
        "ts": pd.to_datetime("2026-01-01")
              + pd.to_timedelta(np.arange(n), unit="s"),
    })
    out = (turn_window_counts(rd.from_pandas(df).repartition(3), 4)
           .to_pandas().sort_values(["conv_id", "win_start"])
           .reset_index(drop=True))
    # naive reference: the exact pre-vectorization per-row formula
    naive = df.copy()
    naive["role"] = [None if r is pd.NA or r is None else r
                     for r in naive["role"]]
    naive = naive.sort_values(["conv_id", "ts", "turn_idx"],
                              kind="stable")
    rows = []
    for conv, sub in naive.groupby("conv_id", sort=True):
        sub = sub.reset_index(drop=True)
        for s in range(0, len(sub), 4):
            ch = sub.iloc[s:s + 4]
            idx = [0 if r is None else
                   ROLE_ORDER.index(r) if r in ROLE_ORDER else 4
                   for r in ch["role"]]
            cnt = np.bincount(idx, minlength=5)
            rows.append({"conv_id": conv, "win_start": s,
                         "win_end": min(s + 4, len(sub)),
                         "n_turns": len(ch), "n_user": cnt[0],
                         "n_assistant": cnt[1], "n_system": cnt[2],
                         "n_tool": cnt[3], "n_other": cnt[4]})
    want = (pd.DataFrame(rows).sort_values(["conv_id", "win_start"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(out.astype(want.dtypes.to_dict()), want)
