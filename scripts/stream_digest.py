"""md5 of every column of the stream engine's output on perfbench's
seeded ``stream_ooo`` input, with the engine counters.

Usage: python scripts/stream_digest.py [seed ...]     (default seed 1)

For each seed it builds the input of perfbench's ``stream_ooo``
(``perfbench/wl_stream.generate`` at the benchmark's 10 s) and feeds it
in process, without Ray, as ``StreamingJob``'s partition actors are fed:
one ``StreamEngine`` per partition, one ``process_rows`` call per
partition per tick, then ``flush``. A window is *promoted* if its key was
in the engine's ``open`` (windows past ``KGRAM_CAP``) after any call.

Output, one line per item: seed, group (``plain`` for the windows that
were never promoted, ``promoted`` for the others), column, md5; rows are
sorted by (conv_id, window_start), and each column is hashed as its null
positions plus its values (floats by their bits). Then one line per
engine counter, summed over the partitions: seed, ``metrics``, name,
value. Running it on two checkouts and diffing the md5 and ``metrics``
lines checks that they emit bit-identical windows. Then come two lines
tagged ``size``, in bytes, over every engine after every call: the
largest pickled promoted summary (``promoted_pickle_max``) and the
largest ``snapshot()`` (``snapshot_max``); they track state size, not
output, so they may differ between checkouts.

Last, the same replay runs for the other window kinds and modes of
``CONFIGS`` (sliding, sessions, count windows with custom aggregates,
updates-mode sliding with retention and early firing). Each prints its
row count and column md5s under its name, over the rows in emission
order (partition by partition within a tick), then its counters under
``<name>.metrics``.
"""

import hashlib
import os
import pickle
import sys
from types import SimpleNamespace

import numpy as np
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import wl_stream  # noqa: E402
from fasta_windows_ray.state.engine import (StreamEngine,  # noqa: E402
                                            WindowConfig, emitted_to_frame)

SECONDS = 10
LATENESS = gen.STREAM_LATENESS_US

CONFIGS = {
    "sliding": WindowConfig(kind="sliding", size_us=500_000,
                            step_us=250_000, lateness_us=LATENESS),
    "session": WindowConfig(kind="session", gap_us=100_000,
                            lateness_us=LATENESS),
    "count": WindowConfig(kind="count", count_turns=16, lateness_us=LATENESS,
                          custom_aggs=("total_text_chars", "distinct_tools")),
    "updates": WindowConfig(kind="sliding", size_us=500_000, step_us=250_000,
                            lateness_us=LATENESS, emit="updates",
                            retention_us=500_000, early_fire_every=8),
}


def replay(inputs: dict, cfg: WindowConfig, sizes: dict | None = None):
    """(emitted frame, promoted window keys, summed counters); with
    ``sizes``, its largest sizes are updated after every call."""
    engines = [StreamEngine(cfg, p) for p in range(gen.STREAM_PARTITIONS)]
    rows, promoted = [], set()
    for _, _, subs in inputs["batches"]:
        for eng, sub in zip(engines, subs):
            rows += eng.process_rows(sub)
            promoted.update(eng.open)
            if sizes is not None:
                sizes["promoted_pickle_max"] = max(
                    [sizes["promoted_pickle_max"]]
                    + [len(pickle.dumps(sm)) for sm in eng.open.values()])
                sizes["snapshot_max"] = max(sizes["snapshot_max"],
                                            len(eng.snapshot()))
    metrics: dict = {}
    for eng in engines:
        rows += eng.flush()
        for k, v in eng.metrics.as_dict().items():
            metrics[k] = metrics.get(k, 0) + v
    extra = tuple(cfg.custom_aggs) + (("revision",)
                                      if cfg.emit == "updates" else ())
    return emitted_to_frame(rows, cfg.kind, extra), promoted, metrics


def column_md5(col: pd.Series) -> str:
    h = hashlib.md5()
    h.update(col.isna().to_numpy().tobytes())
    x = col.to_numpy()
    if np.issubdtype(x.dtype, np.floating):
        h.update(np.nan_to_num(x.astype(np.float64), nan=0.0)
                 .view(np.uint64).tobytes())
    elif np.issubdtype(x.dtype, np.datetime64):
        h.update(x.astype("datetime64[us]").view(np.int64).tobytes())
    else:
        h.update(repr(x.tolist()).encode())
    return h.hexdigest()


def frame_lines(seed: int, tag: str, part: pd.DataFrame) -> list[str]:
    return [f"seed{seed}\t{tag}\trows\t{len(part)}"] + [
        f"seed{seed}\t{tag}\t{c}\t{column_md5(part[c])}"
        for c in part.columns]


def metric_lines(seed: int, tag: str, metrics: dict) -> list[str]:
    return [f"seed{seed}\t{tag}\t{k}\t{v}" for k, v in sorted(metrics.items())]


def digest(seed: int) -> list[str]:
    inputs = wl_stream.generate(SimpleNamespace(seed=seed, seconds=SECONDS))
    sizes = {"promoted_pickle_max": 0, "snapshot_max": 0}
    out, promoted, metrics = replay(inputs, wl_stream._cfg(), sizes)
    out = out.sort_values(["conv_id", "window_start"]).reset_index(drop=True)
    ws = out["window_start"].astype("datetime64[us]").astype(np.int64)
    hit = np.array([k in promoted for k in zip(out["conv_id"], ws)],
                   dtype=bool)
    lines = []
    for tag, sel in (("plain", ~hit), ("promoted", hit)):
        lines += frame_lines(seed, tag, out[sel].reset_index(drop=True))
    lines += metric_lines(seed, "metrics", metrics)
    lines += [f"seed{seed}\tsize\t{k}\t{v}" for k, v in sizes.items()]
    for name, cfg in CONFIGS.items():
        out, _, metrics = replay(inputs, cfg)
        lines += frame_lines(seed, name, out)
        lines += metric_lines(seed, f"{name}.metrics", metrics)
    return lines


def main(argv: list[str]) -> int:
    for seed in [int(s) for s in argv] or [1]:
        for line in digest(seed):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
