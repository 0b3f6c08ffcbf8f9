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
lines checks that they emit bit-identical windows. Last come two lines
tagged ``size``, in bytes, over every engine after every call: the
largest pickled promoted summary (``promoted_pickle_max``) and the
largest ``snapshot()`` (``snapshot_max``); they track state size, not
output, so they may differ between checkouts.
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
                                            emitted_to_frame)

SECONDS = 10


def replay(seed: int):
    """(emitted frame, promoted window keys, summed counters, largest
    sizes)."""
    inputs = wl_stream.generate(SimpleNamespace(seed=seed, seconds=SECONDS))
    engines = [StreamEngine(wl_stream._cfg(), p)
               for p in range(gen.STREAM_PARTITIONS)]
    rows, promoted = [], set()
    sizes = {"promoted_pickle_max": 0, "snapshot_max": 0}
    for _, _, subs in inputs["batches"]:
        for eng, sub in zip(engines, subs):
            rows += eng.process_rows(sub)
            promoted.update(eng.open)
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
    return emitted_to_frame(rows, "tumbling"), promoted, metrics, sizes


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


def digest(seed: int) -> list[str]:
    out, promoted, metrics, sizes = replay(seed)
    out = out.sort_values(["conv_id", "window_start"]).reset_index(drop=True)
    ws = out["window_start"].astype("datetime64[us]").astype(np.int64)
    hit = np.array([k in promoted for k in zip(out["conv_id"], ws)],
                   dtype=bool)
    lines = []
    for tag, sel in (("plain", ~hit), ("promoted", hit)):
        part = out[sel].reset_index(drop=True)
        lines.append(f"seed{seed}\t{tag}\trows\t{len(part)}")
        lines += [f"seed{seed}\t{tag}\t{c}\t{column_md5(part[c])}"
                  for c in part.columns]
    lines += [f"seed{seed}\tmetrics\t{k}\t{v}"
              for k, v in sorted(metrics.items())]
    lines += [f"seed{seed}\tsize\t{k}\t{v}" for k, v in sizes.items()]
    return lines


def main(argv: list[str]) -> int:
    for seed in [int(s) for s in argv] or [1]:
        for line in digest(seed):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
