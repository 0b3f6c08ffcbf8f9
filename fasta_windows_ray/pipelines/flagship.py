"""Flagship pipeline: the full-profile windowed-stats run the driver's
``entry()`` smoke-checks — read → project → window-assign →
hash-bucket shuffle → vectorized window stats (entropy, diversity, CTW).

Mirrors the reference's default mode (fw.rs fasta_windows()) end-to-end,
Ray-Data-first (SURVEY.md §3.1 "Ray Data shape").
"""

from __future__ import annotations

from ..transcripts import read_transcripts
from ..stages.window_stats import window_stats

SIZE_US = 6 * 3600 * 1_000_000          # 6 h tumbling
BIGRAM = '"k'                            # designated bigram (CpG analogue)


def flagship(sf_dir: str = "/root/testdata/sf0.001", profile: str = "full",
             size_us: int = SIZE_US, step_us: int | None = None,
             num_buckets: int = 64):
    ds = read_transcripts(sf_dir)
    return window_stats(ds, size_us, step_us=step_us, profile=profile,
                        num_buckets=num_buckets, bigram=BIGRAM)


def full_run(sf_dir: str, out_dir: str, size_us: int = SIZE_US,
             num_buckets: int = 16):
    """The complete north-star chain: read → window stats → stateful join
    of window results back onto turns → resumable partitioned sink.

    Returns the sink's (partition, n_rows, skipped) report. Re-running
    after a partial failure recomputes only uncommitted partitions.
    """
    from ..sinks import write_partitioned
    from ..stages.join_back import join_back_auto
    from ..stages.window_stats import add_bucket

    stats = flagship(sf_dir, profile="counts", size_us=size_us,
                     num_buckets=num_buckets)

    def _prep(df):
        df = df[["conv_id", "window_start", "n_turns", "role_entropy"]]
        return df.rename(columns={"n_turns": "w_n_turns",
                                  "role_entropy": "w_role_entropy"})

    turns = read_transcripts(sf_dir)
    # strategy picked by measured stats-side size: broadcast while small,
    # co-partitioned hash join once stats outgrow a worker heap
    joined = join_back_auto(turns, stats.map_batches(
        _prep, batch_format="pandas"), size_us,
        ["w_n_turns", "w_role_entropy"], num_buckets=num_buckets)
    return write_partitioned(add_bucket(joined, num_buckets), out_dir)
