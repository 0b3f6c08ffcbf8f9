"""Every stage reads ``ts`` and ``window_start`` in microseconds, whatever
the unit of the input column: the same rows as ``timestamp[ns]`` or
``timestamp[ms]`` give the output of ``timestamp[us]``."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

H = 3600 * 1_000_000
EPOCH = 1_700_000_000 * 1_000_000


def _rows(unit: str) -> pa.Table:
    """400 turns of 8 conversations over four days, at whole
    milliseconds, with ``ts`` as ``timestamp[unit]``."""
    rng = np.random.default_rng(3)
    n = 400
    ts = EPOCH + rng.integers(0, 96 * H // 1000, n) * 1000
    return pa.table({
        "conv_id": pa.array([f"c{i}" for i in rng.integers(0, 8, n)]),
        "turn_uid": pa.array(np.arange(n), pa.int64()),
        "role": pa.array(rng.choice(["user", "assistant", "tool"], n)),
        "text": pa.array(["".join(rng.choice(list("ab\"k "), 9))
                          for _ in range(n)]),
        "tool": pa.array(rng.choice(["", "grep"], n)),
        "ts": pa.array(ts).cast(pa.timestamp("us")).cast(
            pa.timestamp(unit)),
    })


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="stable") \
        .reset_index(drop=True)


def _outputs(unit: str) -> dict:
    import ray.data as rd

    from fasta_windows_ray.stages.join_back import (join_back_broadcast,
                                                    join_back_bucketed)
    from fasta_windows_ray.stages.salted import salted_window_counts
    from fasta_windows_ray.stages.window_stats import (assign_tumbling,
                                                       window_stats)

    t = _rows(unit)
    # pre-assigned tumbling windows (as ``assign_tumbling`` adds them), in
    # the input's unit
    ws = t["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
    pre = t.append_column("window_start", pa.array(ws - ws % (6 * H)).cast(
        pa.timestamp("us")).cast(pa.timestamp(unit)))
    stats = rd.from_arrow(_rows("us"))
    stats = window_stats(stats, 6 * H, num_buckets=4).select_columns(
        ["conv_id", "window_start", "n_turns"])
    return {
        "assigned": assign_tumbling(rd.from_arrow(t), 6 * H)
        .select_columns(["turn_uid", "window_start"]),
        "tumbling": window_stats(rd.from_arrow(t), 6 * H, num_buckets=4),
        "tumbling_slabs": window_stats(rd.from_arrow(t), 6 * H,
                                       num_buckets=4, slab_windows=2),
        "preassigned": window_stats(rd.from_arrow(pre), 6 * H,
                                    num_buckets=4, slab_windows=2),
        "sliding_slabs": window_stats(rd.from_arrow(t), 6 * H,
                                      step_us=H, num_buckets=4,
                                      slab_windows=2),
        "salted": salted_window_counts(rd.from_arrow(t), 6 * H,
                                       num_merge_buckets=4),
        "broadcast": join_back_broadcast(rd.from_arrow(t), stats.to_pandas(),
                                         6 * H, ["n_turns"]),
        "join_back": join_back_bucketed(rd.from_arrow(t), stats, 6 * H,
                                        ["n_turns"], num_buckets=4),
    }


@pytest.mark.parametrize("unit", ["ns", "ms"])
def test_timestamp_units_give_same_output(ray_session, unit):
    ref = {k: _canon(ds.to_pandas()) for k, ds in _outputs("us").items()}
    got = {k: _canon(ds.to_pandas()) for k, ds in _outputs(unit).items()}
    assert ref["tumbling"]["n_turns"].sum() == 400
    assert ref["sliding_slabs"]["n_turns"].sum() == 400 * 6
    assert ref["join_back"]["n_turns"].notna().all()
    assert ref["broadcast"]["n_turns"].notna().all()
    for k in ref:
        pd.testing.assert_frame_equal(got[k], ref[k], check_exact=True,
                                      obj=k)
