"""Skew handling for hot conversations.

A single million-turn conversation must not serialise the job (the
reference's main mode has exactly this straggler: one chromosome = one
rayon task, fw.rs:68-145; its entropy mode fixed it with par_chunks,
entropy.rs:78-85). Two shapes keep a hot key's work spread out:

- ``salted_window_counts``: role histograms are mergeable count vectors,
  so each batch emits partial counts per (conv_id, window_start) — the
  batch is the salt — and a merge reduce adds them up. The shuffle moves
  only small count rows, never turns.
- sessions: ``salted_session_counts`` finds sessions from timestamps
  alone (batch-local gap-maximal intervals, stitched across batches by
  gap). ``salted_session_stats`` looks each turn's session up in that
  interval table and sorts the turns on a hash of (conv_id,
  session_start), so a hot conversation's sessions land in different
  groups; one ``BucketWindowStats`` pass then computes every session's
  full stats, CTW included, from its ordered turns.

Pytest gates: the salted counts equal the unsalted ``window_stats`` (F23),
the salted sessions equal ``session_stats``, and the full session stats
equal the stream engine's, on hot-key corpora.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .sessions import session_bounds
from .window_stats import (ROLE_ORDER, BucketWindowStats, STATS_COLUMNS,
                           _int64_us, add_bucket, role_stats,
                           stable_bucket_of, stats_by_group, tumbling_start)


def salted_window_counts(ds, size_us: int, offset_us: int = 0,
                         num_merge_buckets: int = 64):
    """Tumbling role-histogram stats with salted partial aggregation.

    Returns the same columns as the counts profile of ``window_stats``:
    (conv_id, window_start, n_turns, n_user..n_other, sys_asst_share,
    sys_asst_skew, user_tool_skew, masked_share, role_entropy).
    """

    def partials(t: pa.Table) -> pd.DataFrame:
        # batch-local partial histogram per (conv, window): the "salt" is
        # the batch itself — a hot conversation spread over B batches
        # yields B partial rows, each computed in parallel
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].combine_chunks().cast(pa.int64()).to_numpy()
        ws = tumbling_start(ts, size_us, offset_us)
        role = (t["role"].to_numpy(zero_copy_only=False)
                if "role" in t.column_names else np.full(len(t), "user"))
        tool = (t["tool"].to_numpy(zero_copy_only=False)
                if "tool" in t.column_names else np.full(len(t), ""))

        cid, cu = pd.factorize(conv)
        wsu, wsi = np.unique(ws, return_inverse=True)
        key = cid.astype(np.int64) * len(wsu) + wsi
        uk, codes = np.unique(key, return_inverse=True)
        G = len(uk)
        role_idx = np.asarray(
            [0 if r is None else
             ROLE_ORDER.index(r) if r in ROLE_ORDER else 4 for r in role])
        rc = np.bincount(codes * 5 + role_idx, minlength=G * 5).reshape(G, 5)
        has_tool = np.asarray([bool(x) for x in tool], dtype=np.int64)
        masked = np.bincount(codes, weights=has_tool,
                             minlength=G).astype(np.int64)
        return pd.DataFrame({
            "conv_id": np.asarray(cu, dtype=object).take(uk // len(wsu)),
            "window_start": wsu.take(uk % len(wsu)).astype("datetime64[us]"),
            "n_user": rc[:, 0], "n_assistant": rc[:, 1], "n_system": rc[:, 2],
            "n_tool": rc[:, 3], "n_other": rc[:, 4], "n_masked": masked,
        })

    part = ds.map_batches(partials, batch_format="pyarrow",
                          zero_copy_batch=True)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["conv_id", "window_start"], sort=True).sum(
            numeric_only=True).reset_index()
        rc = g[[f"n_{r}" for r in ROLE_ORDER]].to_numpy(dtype=np.int64)
        return g[["conv_id", "window_start"]].assign(
            **role_stats(rc, g["n_masked"].to_numpy()))

    return add_bucket(part, num_merge_buckets).groupby("bucket").map_groups(
        merge, batch_format="pandas")


def salted_session_stats(ds, gap_us: int, num_merge_buckets: int = 64,
                         profile: str = "full", ctw_depth: int = 6,
                         bigram: str = '"k', ctw_text: bool = False):
    """Full per-session stats with BOUNDED group size (round-2 VERDICT #4).

    The session intervals come from ``salted_session_counts``, which
    reads timestamps only; the table is collected and broadcast. Each
    turn finds its session by a backward as-of lookup on its
    conversation's session starts, and the turns are sorted on a hash of
    (conv_id, session_start) into ``num_merge_buckets`` groups, so a hot
    conversation's sessions spread across groups. ``stats_by_group``
    then computes every session's stats in ``BucketWindowStats`` calls
    (``profile``, ``ctw_depth``, ``bigram`` and ``ctw_text`` as in
    ``window_stats``).

    Output rows are identical to the stateful engine's session rows
    (``StreamEngine`` kind="session" — pytest equality gate on a hot-key
    corpus).
    """
    import ray

    iv = salted_session_counts(ds.select_columns(["conv_id", "ts"]), gap_us,
                               num_merge_buckets).to_pandas()
    ref = ray.put(iv.reindex(columns=["conv_id", "session_start",
                                      "session_end"])
                  .sort_values("session_start", kind="stable"))

    def assign(t: pa.Table) -> pa.Table:
        turns = pd.DataFrame({
            "conv_id": t["conv_id"].to_numpy(zero_copy_only=False),
            "ts": _int64_us(t["ts"]).astype("datetime64[us]"),
            "row": np.arange(t.num_rows)})
        hit = pd.merge_asof(turns.sort_values("ts", kind="stable"),
                            ray.get(ref), left_on="ts",
                            right_on="session_start", by="conv_id") \
            .sort_values("row")
        start = pa.array(hit["session_start"].to_numpy())
        key = pc.binary_join_element_wise(
            pc.cast(t["conv_id"], pa.string()), pc.cast(start, pa.string()),
            "\x00").combine_chunks().dictionary_encode()
        mb = stable_bucket_of(key.dictionary.to_numpy(zero_copy_only=False),
                              num_merge_buckets)[key.indices.to_numpy()]
        return t.append_column("window_start", start) \
            .append_column("window_end",
                           pa.array(hit["session_end"].to_numpy())) \
            .append_column("_mb", pa.array(mb))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {"conv_id": t["conv_id"], "session_start": t["window_start"],
             "session_end": t["window_end"],
             **{c: t[c] for c in STATS_COLUMNS[4:]}})

    inst = BucketWindowStats(profile=profile, ctw_depth=ctw_depth,
                             bigram=bigram, ctw_text=ctw_text)
    return stats_by_group(ds.map_batches(assign, batch_format="pyarrow",
                                         zero_copy_batch=True), "_mb", inst) \
        .map_batches(finish, batch_format="pyarrow")


def salted_session_counts(ds, gap_us: int, num_merge_buckets: int = 64):
    """Session windows with salted partial assembly (hot-conversation
    safe): each batch emits per-conv partial session INTERVALS
    (start, end, n_turns) — gap-maximal within the batch — and the merge
    reduce stitches intervals whose inter-gap <= gap. Valid because the
    global sessions are the connected components of the gap relation and
    interval endpoints carry exactly the information the stitch needs;
    turn counts are additive. The shuffle moves only interval rows.

    Output: (conv_id, session_start, session_end, n_turns) — identical to
    stages.sessions.session_stats (pytest gate on a hot-key corpus).
    """
    def partial_sessions(t: pa.Table) -> pd.DataFrame:
        t, ts, first, last, _ = session_bounds(t.select(["conv_id", "ts"]),
                                               gap_us)
        return pd.DataFrame({
            "conv_id": t["conv_id"].take(pa.array(first))
            .to_numpy(zero_copy_only=False),
            "session_start": ts[first], "session_end": ts[last],
            "n_turns": last - first + 1})

    def stitch(df: pd.DataFrame) -> pd.DataFrame:
        # a session ends where the next interval of its conversation
        # starts more than gap_us after the furthest end seen so far
        df = df.sort_values(["conv_id", "session_start"], kind="stable")
        conv = df["conv_id"].to_numpy()
        start = df["session_start"].to_numpy()
        reach = df.groupby("conv_id", sort=False)["session_end"] \
            .cummax().to_numpy()
        new = np.ones(len(df), dtype=bool)
        new[1:] = (conv[1:] != conv[:-1]) | (start[1:] - reach[:-1] > gap_us)
        first = np.flatnonzero(new)
        last = np.r_[first[1:], len(df)] - 1
        return pd.DataFrame({
            "conv_id": conv[first],
            "session_start": start[first].astype("datetime64[us]"),
            "session_end": reach[last].astype("datetime64[us]"),
            "n_turns": np.add.reduceat(df["n_turns"].to_numpy(), first)})

    part = ds.map_batches(partial_sessions, batch_format="pyarrow",
                          zero_copy_batch=True)
    return add_bucket(part, num_merge_buckets).groupby("bucket").map_groups(
        stitch, batch_format="pandas")
