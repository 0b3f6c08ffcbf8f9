"""md5 of every column of ``BucketWindowStats`` output on perfbench's
seeded transcripts.

Usage: python scripts/sliding_digest.py [seed ...]     (default seed 1)

For each seed it builds the input of perfbench's ``transcripts_sliding``
(``perfbench/gen.make_transcripts``, projected by
``transcripts.project_events_batch``) and runs the ``window_stats`` job's
own stages in process, without Ray: ``add_bucket_slab``, then
``stats_by_group`` with ``BucketWindowStats``, on a stand-in for the two
``Dataset`` methods they call. It does so three times: sliding 24 h / 6 h
as the job runs it (``slot``: each row fans out to its windows inside
the stats call, on the slot path), the same sliding memberships fed as
explicit ``window_start``/``window_end`` rows (``explicit``: one row per
(turn, window), the stream engine's input shape, on the per-window
path), and tumbling 24 h (``tumbling``). Rows are sorted by (conv_id,
window_start); each column is hashed as its null positions plus its
values (floats by their bits). One line per column: seed, run, column,
md5. Running it on two checkouts and diffing the two outputs checks that
they compute bit-identical stats; within one checkout, ``slot`` and
``explicit`` must agree.
"""

import hashlib
import os
import sys
import tempfile

import numpy as np
import pyarrow as pa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
from fasta_windows_ray.stages.window_stats import (  # noqa: E402
    BucketWindowStats, add_bucket_slab, stats_by_group)
from fasta_windows_ray.transcripts import project_events_batch  # noqa: E402
from fasta_windows_ray.windows import sliding_starts_expand  # noqa: E402

SIZE_US = 24 * gen.HOUR_US
STEP_US = 6 * gen.HOUR_US
NUM_BUCKETS = 64
SLAB_WINDOWS = 4096
RUNS = (("slot", STEP_US, False), ("explicit", None, True),
        ("tumbling", SIZE_US, False))


class Local:
    """The ``Dataset`` calls the window_stats stages make, on one table."""

    def __init__(self, t: pa.Table):
        self.t = t

    def map_batches(self, fn, **_):
        return Local(fn(self.t))

    def sort(self, key: str):
        return Local(self.t.sort_by(key))


def transcripts(seed: int) -> pa.Table:
    """perfbench's ``transcripts_sliding`` input for ``seed``."""
    with tempfile.TemporaryDirectory() as tmp:
        g = gen.make_transcripts(tmp, seed)
    return project_events_batch(g["table"])


def memberships(t: pa.Table) -> pa.Table:
    """One row of ``t`` per sliding 24 h / 6 h window it lies in, with
    that window's ``window_start`` and ``window_end``."""
    ts = t["ts"].cast(pa.int64()).to_numpy()
    rows, ws = sliding_starts_expand(ts, SIZE_US, STEP_US)
    return t.take(pa.array(rows)) \
        .append_column("window_start", pa.array(ws).cast(pa.timestamp("us"))) \
        .append_column("window_end",
                       pa.array(ws + SIZE_US).cast(pa.timestamp("us")))


def stats(t: pa.Table, step_us: int | None, explicit: bool) -> pa.Table:
    """The ``window_stats`` job's output on ``t``, computed in process;
    with ``explicit``, on ``t``'s sliding memberships instead."""
    if explicit:
        t = memberships(t)
    ds, slab_l = add_bucket_slab(Local(t), NUM_BUCKETS, SIZE_US, step_us,
                                 0, SLAB_WINDOWS)
    inst = BucketWindowStats(profile="full", window_size_us=SIZE_US,
                             step_us=step_us, slab_l_us=slab_l)
    return stats_by_group(ds, "_gk", inst).t


def column_md5(col: pa.ChunkedArray) -> str:
    arr = col.combine_chunks()
    h = hashlib.md5()
    h.update(np.asarray(arr.is_null()).tobytes())
    if pa.types.is_floating(arr.type):
        h.update(arr.fill_null(0.0).to_numpy().view(np.uint64).tobytes())
    else:
        h.update(repr(arr.to_pylist()).encode())
    return h.hexdigest()


def digest(seed: int) -> list[str]:
    t = transcripts(seed)
    lines = []
    for tag, step, explicit in RUNS:
        out = stats(t, step, explicit).sort_by(
            [("conv_id", "ascending"), ("window_start", "ascending")])
        lines.append(f"seed{seed}\t{tag}\trows\t{out.num_rows}")
        lines += [f"seed{seed}\t{tag}\t{name}\t{column_md5(out[name])}"
                  for name in out.column_names]
    return lines


def main(argv: list[str]) -> int:
    for seed in [int(s) for s in argv] or [1]:
        for line in digest(seed):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
