"""Custom window-aggregate UDF registry (SURVEY.md §2.7 extension
surface): registered aggregates flow through the stateful engine."""

import pandas as pd

from fasta_windows_ray.functions import registry
from fasta_windows_ray.state.engine import (StreamEngine, WindowConfig,
                                            emitted_to_frame)
from fasta_windows_ray.synth import make_transcripts

S = 1_000_000


def test_builtin_aggregates_present():
    assert "total_text_chars" in registry.names()
    assert "distinct_tools" in registry.names()


def test_custom_agg_in_engine():
    cfg = WindowConfig(kind="tumbling", size_us=20 * S,
                       custom_aggs=("total_text_chars", "distinct_tools"))
    t = make_transcripts(n_convs=4, mean_turns=30, seed=23).to_pandas()
    t = t.sort_values(["ts", "conv_id", "turn_idx"])
    eng = StreamEngine(cfg)
    rows_eng = eng.process_rows(t)
    rows_eng += eng.flush()
    out = emitted_to_frame(rows_eng, "tumbling",
                           ("total_text_chars", "distinct_tools"))
    assert {"total_text_chars", "distinct_tools"} <= set(out.columns)
    # cross-check against a plain pandas recompute
    t["win"] = (t["ts"].astype("int64") // (20 * S)) * (20 * S)
    exp = t.groupby(["conv_id", "win"]).apply(
        lambda g: float(g["text"].str.len().sum()), include_groups=False)
    got = out.set_index(["conv_id", "window_start"])["total_text_chars"]
    for (cid, win), v in exp.items():
        assert got[(cid, pd.Timestamp(win, unit="us"))] == v
    # distinct tools: synth sets tool="grep" on tool-role turns only
    mask = out["n_tool"] > 0
    assert (out.loc[mask, "distinct_tools"] == 1.0).all()
    assert (out.loc[~mask, "distinct_tools"] == 0.0).all()
