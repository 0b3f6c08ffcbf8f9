"""Mergeable sketches: the bounded-memory scale path for distinct
counts and quantiles.

The exact operators (`analytics.windowed_distinct`,
`analytics.exact_quantiles`) are hash-exact but their exchanges grow
with data: one row per distinct (window, user) pair, one row per
distinct value.  At 10^12 turns a single hot window can hold 10^9
distinct users — the pair exchange alone is terabytes.  The sketches
here cap per-group state at a constant (2^p registers for HLL,
~delta/2 centroids for t-digest) regardless of corpus size, and are
MERGEABLE (register-wise max / centroid union), so partials combine
per batch and the only exchange is O(groups x sketch_size).

Approximate operators cannot hash-match a SQL oracle, so they are
pytest-gated: accuracy against the exact operator on synthetic corpora
(HLL relative error vs the standard 1.04/sqrt(m) bound; t-digest max
RANK error), plus partitioning-invariance (the merged sketch is
identical regardless of how rows were split into batches).

References (public): Flajolet et al., "HyperLogLog: the analysis of a
near-optimal cardinality estimation algorithm" (2007); Dunning &
Ertl, "Computing extremely accurate quantiles using t-digests"
(arXiv:1902.04023) — the merging-digest variant with the k1 scale
function, implemented here as fully-vectorized k-space binning.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------


def _hash_u64(series: pd.Series) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of any pandas column
    (pandas' SipHash-based hasher; stable across processes for the
    default hash key) — the one hash every HLL partial must share.
    Values are hashed one by one: pandas' default categorize step merges
    '' and '\x00' into whichever comes first in the batch, so a value's
    hash would depend on its batch."""
    return pd.util.hash_pandas_object(series, index=False,
                                      categorize=False).to_numpy()


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """floor(log2(x)) + 1 per element (0 for x == 0), vectorized via
    binary-search shifts — numpy has no clz kernel."""
    x = x.copy()
    bl = np.zeros(x.shape, np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(s))
        bl += s * big
        x = np.where(big, x >> np.uint64(s), x)
    return bl + (x > 0)


def hll_partial(keys: pd.Series, p: int) -> tuple[np.ndarray, np.ndarray]:
    """One batch's HLL contribution: (register_index, rho) per row.

    First p hash bits pick the register, rho = leading-zero count of
    the remaining 64-p bits + 1 (the HLL observable).  Callers reduce
    with per-register MAX — the merge operation.
    """
    h = _hash_u64(keys)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = (h << np.uint64(p)).astype(np.uint64)  # low 64-p bits, shifted up
    rho = np.where(w == 0, 64 - p + 1, 64 - _bit_length_u64(w) + 1)
    return idx, rho.astype(np.int64)


def hll_estimate(registers: np.ndarray) -> float:
    """Standard HLL estimator over a FULL register vector (length m =
    2^p, zeros for never-hit registers): bias-corrected harmonic mean
    with the small-range linear-counting correction; the 64-bit hash
    makes the large-range correction unnecessary."""
    m = len(registers)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-registers.astype(np.float64)))
    zeros = int(np.sum(registers == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)
    return float(est)


def hll_distinct(ds, key_col: str, group_cols: list[str] | None = None,
                 p: int = 12):
    """Approximate count-distinct of ``key_col``, optionally per group.

    Shape: per-batch (group, register, rho) partials — at most
    groups x 2^p rows per batch, usually far fewer — then ONE
    ``groupby(group).map_groups`` that folds register-wise max and
    applies the estimator.  Per-group state is 2^p bytes-ish
    regardless of cardinality; relative error ~= 1.04/sqrt(2^p)
    (1.6% at the default p=12).

    Returns a Dataset of group cols + ``n_distinct_approx`` (float64).
    """
    gcols = list(group_cols or [])

    def partial(t: pa.Table) -> pa.Table:
        df = t.select(gcols + [key_col]).to_pandas()
        idx, rho = hll_partial(df[key_col], p)
        df = df.drop(columns=[key_col])
        df["_reg"] = idx
        df["_rho"] = rho
        out = (df.groupby(gcols + ["_reg"], sort=False, dropna=False)
                 .agg(_rho=("_rho", "max")).reset_index())
        return pa.Table.from_pandas(out, preserve_index=False)

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(1 << p, np.int64)
        np.maximum.at(regs, df["_reg"].to_numpy(), df["_rho"].to_numpy())
        out = df.iloc[:1][gcols].copy() if gcols else pd.DataFrame(index=[0])
        out["n_distinct_approx"] = hll_estimate(regs)
        return out.reset_index(drop=True)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    if gcols:
        return parts.groupby(gcols).map_groups(estimate,
                                               batch_format="pandas")
    # ungrouped: the reduced register table is <= 2^p rows — the bounded
    # RESULT of the aggregation (it may span several Ray blocks, so a
    # per-batch estimate would emit partials; collect and fold instead)
    import ray.data as rd
    reg = parts.groupby("_reg").max("_rho").to_pandas()
    return rd.from_pandas(estimate(pd.DataFrame({
        "_reg": reg["_reg"].to_numpy(np.int64),
        "_rho": reg["max(_rho)"].to_numpy(np.int64)})))


def windowed_distinct_hll(ds, ts_col: str, user_col: str, size_us: int,
                          p: int = 12) -> pd.DataFrame:
    """Sketch twin of ``analytics.windowed_distinct``: tumbling-window
    n_events (exact — additive) + n_users_approx (HLL).

    The exact operator's first exchange is one row per distinct
    (window, user) pair per batch; this one's is capped at
    windows x 2^p rows TOTAL per batch — constant in user cardinality,
    which is the whole point at 10^12 events.  Driver output is one
    row per window (bounded by the time span).
    """

    def partial(t: pa.Table) -> pa.Table:
        from ..windows import tumbling_start
        df = t.select([ts_col, user_col]).to_pandas()
        ts = df[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        df["window_start"] = tumbling_start(ts, size_us)
        idx, rho = hll_partial(df[user_col], p)
        df["_reg"] = idx
        df["_rho"] = rho
        out = (df.groupby(["window_start", "_reg"], sort=False)
                 .agg(_rho=("_rho", "max"), n_events=("_reg", "size"))
                 .reset_index())
        return pa.Table.from_pandas(out, preserve_index=False)

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(1 << p, np.int64)
        np.maximum.at(regs, df["_reg"].to_numpy(), df["_rho"].to_numpy())
        return pd.DataFrame({
            "window_start": df["window_start"].iloc[:1].astype(np.int64),
            "n_events": np.int64(df["n_events"].sum()),
            "n_users_approx": hll_estimate(regs)}).reset_index(drop=True)

    out = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby("window_start").map_groups(estimate,
                                                 batch_format="pandas")
             .to_pandas())
    if out.empty:
        return pd.DataFrame({"window_start": pd.Series(dtype=np.int64),
                             "n_events": pd.Series(dtype=np.int64),
                             "n_users_approx": pd.Series(dtype=float)})
    return (out.sort_values("window_start").reset_index(drop=True)
               .astype({"window_start": np.int64, "n_events": np.int64}))


# ---------------------------------------------------------------------------
# t-digest (merging variant, k1 scale function, vectorized k-space binning)
# ---------------------------------------------------------------------------


def tdigest_compress(means: np.ndarray, weights: np.ndarray,
                     delta: int) -> tuple[np.ndarray, np.ndarray]:
    """Compress weighted points/centroids to <= ~delta/2 centroids.

    Sort by mean, place each input at its mid-quantile q, map through
    the k1 scale function k(q) = delta/(2*pi) * asin(2q-1) and bin by
    floor(k): every output cluster spans < 1 unit of k-space, which is
    the merging-digest size invariant (fine near the median, singleton
    near the tails).  Fully vectorized (argsort + cumsum + reduceat) —
    no per-centroid Python loop.  Deterministic for a given input
    order (stable sort), which the partition-invariance test relies on
    after the canonical re-sort in ``_merge_digests``.
    """
    if len(means) == 0:
        return means.astype(np.float64), weights.astype(np.float64)
    order = np.argsort(means, kind="stable")
    v = means[order].astype(np.float64)
    w = weights[order].astype(np.float64)
    total = w.sum()
    q = (np.cumsum(w) - 0.5 * w) / total
    k = delta / (2 * np.pi) * np.arcsin(np.clip(2 * q - 1, -1, 1))
    bins = np.floor(k).astype(np.int64)
    # first index of each k-bin run (bins is sorted since q is)
    starts = np.flatnonzero(np.diff(bins, prepend=bins[0] - 1))
    wsum = np.add.reduceat(w, starts)
    vsum = np.add.reduceat(v * w, starts)
    return vsum / wsum, wsum


def tdigest_quantile(means: np.ndarray, weights: np.ndarray,
                     qs: list[float]) -> list[float]:
    """Quantiles from a digest: linear interpolation between centroid
    means positioned at their cumulative mid-weights (Dunning's
    interpolation rule, exact at the extremes)."""
    if len(means) == 0:
        return [float("nan")] * len(qs)
    order = np.argsort(means, kind="stable")
    v, w = means[order], weights[order]
    total = w.sum()
    mids = np.cumsum(w) - 0.5 * w
    out = []
    for q in qs:
        t = np.clip(q, 0.0, 1.0) * total
        out.append(float(np.interp(t, mids, v)))
    return out


def _merge_digests(df: pd.DataFrame, delta: int):
    """Canonical merge: union of centroid rows, re-sorted by
    (mean, weight) so the result is independent of which batch each
    centroid came from, then one compress pass."""
    d = df.sort_values(["_mean", "_weight"], kind="stable")
    return tdigest_compress(d["_mean"].to_numpy(), d["_weight"].to_numpy(),
                            delta)


def tdigest_quantiles(ds, col: str, qs: list[float],
                      group_col: str | None = None,
                      delta: int = 200) -> pd.DataFrame:
    """Approximate quantiles via distributed t-digest, optionally per
    group: per-batch compress (<= ~delta/2 centroid rows per batch
    leave each task — constant, vs one row per DISTINCT VALUE in
    ``exact_quantiles``), then one ``groupby.map_groups`` merge+query.

    Rank error is O(q(1-q)/delta): ~1% worst-case mid-distribution at
    the default delta=200, much tighter at the tails (pytest-asserted
    against the exact operator).  Returns (group?, q, value).
    """
    gcols = [group_col] if group_col else []

    def partial(t: pa.Table) -> pa.Table:
        df = t.select(gcols + [col]).to_pandas()
        frames = []
        if group_col:
            grouped = df.groupby(group_col, sort=False, dropna=False)
        else:
            grouped = [(None, df)]
        for key, sub in grouped:
            vals = sub[col].to_numpy(np.float64)
            m, w = tdigest_compress(vals, np.ones(len(vals)), delta)
            f = pd.DataFrame({"_mean": m, "_weight": w})
            if group_col:
                f.insert(0, group_col, key)
            frames.append(f)
        out = (pd.concat(frames, ignore_index=True) if frames
               else pd.DataFrame({"_mean": [], "_weight": []}))
        return pa.Table.from_pandas(out, preserve_index=False)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        m, w = _merge_digests(df, delta)
        out = pd.DataFrame({"q": np.asarray(qs, np.float64),
                            "value": tdigest_quantile(m, w, qs)})
        if group_col:
            out.insert(0, group_col, df[group_col].iloc[0])
        return out

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    if group_col:
        out = parts.groupby(group_col).map_groups(
            finish, batch_format="pandas").to_pandas()
        if out.empty:
            return pd.DataFrame({group_col: pd.Series(dtype=object),
                                 "q": pd.Series(dtype=float),
                                 "value": pd.Series(dtype=float)})
        return (out.sort_values([group_col, "q"]).reset_index(drop=True))
    # ungrouped: fold ~650 partial digests per task (64k rows / ~100
    # centroids each) before the driver merge, so driver state is
    # O(blocks/650 x delta/2) — a tree fold, not a full collect
    def fold(df: pd.DataFrame) -> pd.DataFrame:
        m, w = _merge_digests(df, delta)
        return pd.DataFrame({"_mean": m, "_weight": w})

    pdf = parts.map_batches(fold, batch_format="pandas",
                            batch_size=65536).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"q": np.asarray(qs, np.float64),
                             "value": [float("nan")] * len(qs)})
    return finish(pdf)


def windowed_quantiles(ds, ts_col: str, col: str, size_us: int,
                       qs: list[float], delta: int = 200,
                       offset_us: int = 0) -> pd.DataFrame:
    """Per-tumbling-window approximate quantiles (the "p95 latency per
    hour" shape): per-batch (window, t-digest) partials — at most
    windows x ~delta/2 centroid rows leave a task, constant in row
    count — then one ``groupby(window_start)`` merge+query.  Same rank
    error bound as ``tdigest_quantiles`` (pytest-gated per window
    against exact quantiles).  Returns one row per (window, q).
    """

    def partial(t: pa.Table) -> pa.Table:
        from ..windows import tumbling_start
        df = t.select([ts_col, col]).to_pandas()
        ts = df[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        df["window_start"] = tumbling_start(ts, size_us, offset_us)
        frames = []
        for w, sub in df.groupby("window_start", sort=False):
            vals = sub[col].to_numpy(np.float64)
            vals = vals[~np.isnan(vals)]
            if not len(vals):
                continue
            m, wts = tdigest_compress(vals, np.ones(len(vals)), delta)
            frames.append(pd.DataFrame({"window_start": np.int64(w),
                                        "_mean": m, "_weight": wts}))
        if not frames:
            return pa.table({"window_start": pa.array([], pa.int64()),
                             "_mean": pa.array([], pa.float64()),
                             "_weight": pa.array([], pa.float64())})
        return pa.Table.from_pandas(pd.concat(frames, ignore_index=True),
                                    preserve_index=False)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        m, w = _merge_digests(df, delta)
        return pd.DataFrame({
            "window_start": np.int64(df["window_start"].iloc[0]),
            "q": np.asarray(qs, np.float64),
            "value": tdigest_quantile(m, w, qs)})

    out = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby("window_start")
             .map_groups(finish, batch_format="pandas").to_pandas())
    if out.empty:
        return pd.DataFrame({"window_start": pd.Series(dtype=np.int64),
                             "q": pd.Series(dtype=float),
                             "value": pd.Series(dtype=float)})
    return (out.sort_values(["window_start", "q"])
               .reset_index(drop=True)
               .astype({"window_start": np.int64}))
