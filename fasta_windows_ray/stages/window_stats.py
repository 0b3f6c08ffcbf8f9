"""Windowed per-conversation statistics — the engine's core relational op.

Ray-Data-first shape (deliberately NOT the reference's rayon/mpsc design,
fw.rs:42-166):

    read_parquet → map_batches(project + window-assign)   [stateless, Arrow]
      → hash-bucket on conv_id → groupby("bucket")        [the ONE shuffle]
      → map_groups(bucket-vectorized stats)               [numpy kernels]

Window assignment for tumbling/sliding is a pure per-row function, so it
runs vectorized inside ``map_batches``; the only all-to-all exchange is the
single hash-partition on ``conv_id`` (via a derived ``bucket`` column, so
the shuffle has ``num_buckets`` keys instead of one key per window — the
pre-aggregation advice of SURVEY.md §2.7 / §7.5). Within a bucket all
windows of all its conversations are computed with vectorized numpy
(np.add.at segment aggregation), not a per-row Python loop; only CTW
(order-dependent, kmeru8.rs:170-319) loops per window.

Skew note (100 TB design): a bucket is bounded by ``num_buckets``; hot
conversations are handled by the salted pre-aggregation path in
``stages/salted.py`` (histogram stats are mergeable; CTW is computed
post-merge from ordered turns).
"""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa

from ..windows import sliding_starts_expand, tumbling_start

US = 1_000_000

STATS_COLUMNS = [
    "conv_id", "window_start", "window_end", "last_ts", "n_turns",
    "n_user", "n_assistant", "n_system", "n_tool", "n_other",
    "sys_asst_share", "sys_asst_skew", "user_tool_skew", "masked_share",
    "role_entropy", "n_chars", "char_entropy",
    "bigram_diversity", "trigram_diversity", "quadgram_diversity",
    "bigram_rate", "ctw_roles_bpb", "ctw_text_bpb",
]

ROLE_ORDER = ["user", "assistant", "system", "tool", "other"]

_STATS_DTYPES = {
    "conv_id": object, "window_start": "datetime64[us]",
    "window_end": "datetime64[us]", "last_ts": "datetime64[us]",
    "n_turns": np.int64, "n_user": np.int64, "n_assistant": np.int64,
    "n_system": np.int64, "n_tool": np.int64, "n_other": np.int64,
    "sys_asst_share": np.float64, "sys_asst_skew": np.float64,
    "user_tool_skew": np.float64, "masked_share": np.float64,
    "role_entropy": np.float64, "n_chars": np.int64,
    "char_entropy": np.float64, "bigram_diversity": np.float64,
    "trigram_diversity": np.float64, "quadgram_diversity": np.float64,
    "bigram_rate": np.float64, "ctw_roles_bpb": np.float64,
    "ctw_text_bpb": np.float64,
}


def empty_stats_frame() -> pd.DataFrame:
    """Typed empty block so empty groups don't emit schema-less bundles."""
    return pd.DataFrame({c: pd.Series(dtype=t)
                         for c, t in _STATS_DTYPES.items()})


def stable_bucket_of(values: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic cross-process hash bucket per string value.

    60-bit md5 prefix (first 15 hex digits) rather than crc32: exactly
    reproducible in the DuckDB oracles (md5 + hex fold stays in signed
    BIGINT), which lets partition-keyed outputs (stream_metrics) be
    oracle-gated. Computed once per UNIQUE value per batch.
    """
    import hashlib
    uniq, inv = np.unique(np.asarray(values, dtype=object), return_inverse=True)
    h = np.asarray([int(hashlib.md5(str(u).encode()).hexdigest()[:15], 16)
                    % num_buckets for u in uniq], dtype=np.int64)
    return h[inv]


def fast_numeric_bucket_of(vals: np.ndarray, num_buckets: int) -> np.ndarray:
    """Vectorized splitmix64 bucket for NUMERIC keys (canonical float64
    bit pattern, so int64 and float64 sides of one logical key
    co-bucket).  Bucketing is a pure partitioning choice — use this on
    hot numeric-key exchanges; ``stable_bucket_of`` stays the choice
    wherever partition ids surface in oracle-gated output (md5 is
    DuckDB-reproducible) or keys are strings."""
    v = np.ascontiguousarray(vals, dtype=np.float64).view(np.uint64)
    with np.errstate(over="ignore"):
        z = v + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return (z % np.uint64(num_buckets)).astype(np.int64)


def assign_tumbling(ds, size_us: int, offset_us: int = 0):
    """Add ``window_start`` (timestamp[us]) = tumbling bucket of ``ts``.

    Alternative entry for callers that pre-assign windows upstream;
    BucketWindowStats honours an existing ``window_start`` column when
    ``step_us`` is unset (equality-tested against the in-task path).
    """
    def _assign(t: pa.Table) -> pa.Table:
        ts = t["ts"].combine_chunks().cast(pa.int64()).to_numpy()
        ws = tumbling_start(ts, size_us, offset_us)
        return t.append_column("window_start",
                               pa.array(ws, pa.int64()).cast(pa.timestamp("us")))
    return ds.map_batches(_assign, batch_format="pyarrow", zero_copy_batch=True)


def add_bucket(ds, num_buckets: int = 64):
    def _bucket(t: pa.Table) -> pa.Table:
        b = stable_bucket_of(t["conv_id"].to_numpy(zero_copy_only=False),
                             num_buckets)
        return t.append_column("bucket", pa.array(b, pa.int64()))
    return ds.map_batches(_bucket, batch_format="pyarrow", zero_copy_batch=True)


def add_bucket_slab(ds, num_buckets: int, size_us: int,
                    step_us: int | None, offset_us: int,
                    slab_windows: int):
    """Composite grouping key: conv-hash bucket × coarse TIME SLAB aligned
    to window starts — the round-1 "unbounded group size" fix. A group is
    now bounded by (input rate × slab length / num_buckets) instead of
    growing linearly with total dataset size.

    Slab length L = slab_windows × step (≥ one window size), measured from
    ``offset_us``; a window belongs to the slab of its window_start.
    Tumbling rows map to exactly one slab. Sliding rows whose earliest
    covering window starts in the previous slab are DUPLICATED into it
    (at most (size-step)/L of rows — vanishing for L >> size), and the
    per-group computation filters memberships to in-slab window starts so
    no window is double-emitted.

    Returns (ds_with [_slab,_gk,bucket], L).
    """
    step = step_us or size_us
    L = max(slab_windows, size_us // step) * step

    def _f(t: pa.Table) -> pa.Table:
        n = len(t)
        b = stable_bucket_of(t["conv_id"].to_numpy(zero_copy_only=False),
                             num_buckets)
        if step_us is None and "window_start" in t.column_names:
            ws = t["window_start"].combine_chunks() \
                .cast(pa.int64()).to_numpy()
            slab_hi = (ws - offset_us) // L
            dup = np.zeros(n, dtype=bool)
            slab_lo = slab_hi
        else:
            ts = t["ts"].combine_chunks().cast(pa.int64()).to_numpy()
            if step == size_us:           # tumbling
                ws = tumbling_start(ts, size_us, offset_us)
                slab_hi = (ws - offset_us) // L
                dup = np.zeros(n, dtype=bool)
                slab_lo = slab_hi
            else:                          # sliding
                top = (ts - offset_us) // step * step + offset_us
                slab_hi = (top - offset_us) // L
                lo_start = np.maximum(top - size_us + step, offset_us)
                slab_lo = (lo_start - offset_us) // L
                dup = slab_lo < slab_hi
        if dup.any():
            idx = np.concatenate([np.arange(n), np.flatnonzero(dup)])
            slabs = np.concatenate([slab_hi, slab_lo[dup]])
            buckets = b[idx]
            t2 = t.take(pa.array(idx, pa.int64()))
        else:
            # common case (no boundary rows): zero-copy column appends
            slabs, buckets, t2 = slab_hi, b, t
        t2 = t2.append_column("bucket", pa.array(buckets, pa.int64()))
        t2 = t2.append_column("_slab", pa.array(slabs, pa.int64()))
        gk = slabs * num_buckets + buckets
        return t2.append_column("_gk", pa.array(gk, pa.int64()))

    return ds.map_batches(_f, batch_format="pyarrow",
                          zero_copy_batch=True), L


# ---------------------------------------------------------------------------
# Vectorized multi-group stat computation (one call per hash bucket)
# ---------------------------------------------------------------------------

def _ascii_upper(arr: np.ndarray) -> np.ndarray:
    lower = (arr >= 97) & (arr <= 122)
    return arr - 32 * lower.astype(arr.dtype)


def _segment_entropy(codes: np.ndarray, weights: np.ndarray, n_groups: int,
                     denom: np.ndarray) -> np.ndarray:
    """-sum p*log2(p) per group for (group_code, count) pairs.

    np.bincount accumulates sequentially in array order; callers pass
    codes sorted ascending (from np.unique), so per-group terms add in
    ascending-item order — bit-identical to the kernels' sequential loop.
    """
    if len(codes) == 0:
        return np.zeros(n_groups, dtype=np.float64)
    w = weights.astype(np.float64)
    p = w / denom[codes]
    if w.min() > 0:          # counts from np.unique are always positive
        terms = -p * np.log2(p)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(w > 0, -p * np.log2(np.where(p > 0, p, 1.0)),
                             0.0)
    return np.bincount(codes, weights=terms, minlength=n_groups)


_CTW_MEMOS: dict = {}


def _ctw_memo(key) -> dict:
    """Process-global CTW memo dict for a given (kind, depth) config."""
    memo = _CTW_MEMOS.get(key)
    if memo is None:
        memo = _CTW_MEMOS[key] = {}
    return memo


def _ctw_memoized(memo_key, cap: int, keys: list, depth: int) -> np.ndarray:
    """CTW bits/symbol of each symbol string in ``keys`` (bytes of 0..3,
    255 = flush), from the process-global memo; all misses are computed
    in one ``ctw_batch`` call and stored until the memo holds ``cap``."""
    from .. import kernels as K

    cache = _ctw_memo(memo_key)
    miss = list(dict.fromkeys(k for k in keys if k not in cache))
    fresh: dict = {}
    if miss:
        offsets = np.cumsum([0] + [len(k) for k in miss])
        fresh = dict(zip(miss, K.ctw_batch(
            np.frombuffer(b"".join(miss), dtype=np.uint8), offsets,
            depth).tolist()))
        cache.update(itertools.islice(fresh.items(),
                                      max(cap - len(cache), 0)))
    return np.asarray([cache[k] if k in cache else fresh[k] for k in keys],
                      dtype=np.float64)


class BucketWindowStats:
    """Per-bucket vectorized window-stat computation (callable for
    ``map_groups``). Stateless; a class so profile config is bound once.

    profile: "full"  — everything incl. CTW (fw.rs main mode analogue)
             "fast"  — char_entropy + ctw only (entropy.rs mode analogue)
             "counts"— role histogram + entropy only (no text columns)
    """

    def __init__(self, profile: str = "full", ctw_depth: int = 6,
                 bigram: str = '"k', window_size_us: int | None = None,
                 step_us: int | None = None, offset_us: int = 0,
                 ctw_text: bool = False, slab_l_us: int | None = None,
                 kgram_freqs: bool = False,
                 slot_compress: bool | None = None):
        # slot_compress: None = auto (chars-per-slot crossover gate),
        # True/False force the sliding char-stats path (tests force both
        # and assert bit-equality)
        self.slot_compress = slot_compress
        self.profile = profile
        self.ctw_text = ctw_text
        self.ctw_depth = ctw_depth
        self.bigram = bigram
        self.window_size_us = window_size_us
        self.step_us = step_us          # set => assign windows in-task
        self.offset_us = offset_us
        self.slab_l_us = slab_l_us      # set => keep only in-slab windows
        # dense role-k-gram frequency vectors (the reference's 16/64/256
        # freq TSV columns, fw.rs:313-331, as list<int32> columns per
        # SURVEY §1.2; vocab = ACGTN role letters sorted lexicographically
        # = the pre-seeded KmerMap's sorted-key order, kmeru8.rs:60-62)
        self.kgram_freqs = kgram_freqs
        if kgram_freqs and profile == "counts":
            raise ValueError("kgram_freqs requires profile 'full' or 'fast'")
        self.out_columns = STATS_COLUMNS + (
            ["kgram_freq_k2", "kgram_freq_k3", "kgram_freq_k4"]
            if kgram_freqs else [])
        # CTW memos are PROCESS-GLOBAL, fetched at call time via
        # _ctw_memo(): Ray pickles a fresh copy of this callable into
        # every map_groups task, so any instance-held dict restarts cold
        # each task — the worker-side module-level memo persists across
        # tasks within a reused worker process (same pattern as the
        # analysis stages' _WORKER_STATE). Bounded; depth-keyed so
        # configs never cross-contaminate.

    def _empty(self) -> pd.DataFrame:
        df = empty_stats_frame()
        for c in self.out_columns[len(STATS_COLUMNS):]:
            df[c] = pd.Series(dtype=object)
        return df

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        from .. import kernels as K

        if len(df) == 0:
            return self._empty()

        # ---- raw-row arrays: everything text-related is computed ONCE
        # per raw turn; the sliding c-fold fan-out replicates only small
        # int arrays and char indices, never pandas object columns ----
        n_raw = len(df)
        ts_raw = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        cid_raw, cid_uniq = pd.factorize(df["conv_id"].to_numpy(dtype=object))
        if "role" in df.columns:
            # fillna BEFORE factorize: a null factorizes to code -1,
            # which would index the LAST unique role (engine-wide null
            # convention: role null -> "user")
            r_codes, r_uniq = pd.factorize(
                df["role"].fillna("user").to_numpy(dtype=object))
            r_map = np.asarray([ROLE_ORDER.index(r) if r in ROLE_ORDER else 4
                                for r in r_uniq], dtype=np.int64)
            role5_raw = r_map[r_codes]
        else:
            role5_raw = np.zeros(n_raw, dtype=np.int64)
        # ---- window assignment / fan-out: ``rows`` indexes the raw row
        # behind each emitted (row, window) membership pair ----
        size = self.window_size_us or 0
        step = self.step_us
        if step is None and "window_start" in df.columns:
            rows = np.arange(n_raw)
            ws_e = df["window_start"].astype("datetime64[us]") \
                .astype("int64").to_numpy()
        elif step is None or step == size:
            rows = np.arange(n_raw)
            ws_e = tumbling_start(ts_raw, size, self.offset_us)
        else:
            rows, ws_e = sliding_starts_expand(ts_raw, size, step,
                                               self.offset_us)
        slab_val = None
        if self.slab_l_us and "_slab" in df.columns:
            # composite-key mode: sliding rows near a slab's lower edge
            # were duplicated into the previous slab — keep only
            # memberships whose window_start lives in THIS group's slab
            slab_val = np.int64(df["_slab"].iloc[0])
            keep = (ws_e - self.offset_us) // self.slab_l_us == slab_val
            rows, ws_e = rows[keep], ws_e[keep]
            if len(rows) == 0:
                return self._empty()
        cid_e = cid_raw[rows]
        ts_e = ts_raw[rows]
        ws_uniq, ws_inv = np.unique(ws_e, return_inverse=True)
        K1 = np.int64(len(ws_uniq))
        ukey, codes = np.unique(cid_e.astype(np.int64) * K1 + ws_inv,
                                return_inverse=True)
        G = len(ukey)
        n_turns = np.bincount(codes, minlength=G).astype(np.int64)

        out: dict = {
            "conv_id": np.asarray(cid_uniq, dtype=object).take(ukey // K1),
            "n_turns": n_turns,
        }
        out_ws = ws_uniq.take(ukey % K1)
        out["window_start"] = out_ws.astype("datetime64[us]")
        out["window_end"] = (out_ws + size).astype("datetime64[us]")
        # last event actually inside the window: the event-time analogue of
        # the reference's end-clamp (fw.rs:130-144) — for the trailing
        # partial window, last_ts < window_end (issue #8/#9 conformance)
        # init to int64-min, not 0: every group has >=1 member, and a
        # zero floor would clamp all-pre-epoch (negative-us) windows to
        # 1970-01-01 (round-1 ADVICE)
        last = np.full(G, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(last, codes, ts_e)
        out["last_ts"] = last.astype("datetime64[us]")

        # ---- role histogram stats (A1-A6 analogues), one bincount ----
        role5_e = role5_raw[rows]
        role_counts = np.bincount(codes * 5 + role5_e,
                                  minlength=G * 5).reshape(G, 5)
        a, c, g, t = (role_counts[:, i].astype(np.float64) for i in range(4))
        out.update({
            "n_user": role_counts[:, 0], "n_assistant": role_counts[:, 1],
            "n_system": role_counts[:, 2], "n_tool": role_counts[:, 3],
            "n_other": role_counts[:, 4],
        })
        with np.errstate(divide="ignore", invalid="ignore"):
            out["sys_asst_share"] = (g + c) / (g + c + a + t)
            out["sys_asst_skew"] = (g - c) / (g + c)
            out["user_tool_skew"] = (a - t) / (a + t)
        if "tool" in df.columns:
            # null tool is NOT masked (engine convention: null -> "")
            has_tool = (df["tool"].fillna("").to_numpy(dtype=object)
                        != "").astype(np.int64)
            masked = np.bincount(codes, weights=has_tool[rows], minlength=G)
        else:
            masked = np.zeros(G)
        out["masked_share"] = masked / n_turns.astype(np.float64)
        # role entropy: closed-form rows of the (G,5) histogram; per-row sum
        # is sequential for 5 elements, +0.0 terms preserve bits, so this
        # equals the kernels' ascending-index loop exactly
        pr = role_counts.astype(np.float64) / n_turns[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(role_counts > 0,
                             -pr * np.log2(np.where(pr > 0, pr, 1.0)), 0.0)
        out["role_entropy"] = terms.sum(axis=1)

        if self.profile == "counts" or "text" not in df.columns:
            for col in ("char_entropy", "bigram_diversity",
                        "trigram_diversity", "quadgram_diversity",
                        "bigram_rate", "ctw_roles_bpb", "ctw_text_bpb"):
                out[col] = np.zeros(G, dtype=np.float64)
            out["n_chars"] = np.zeros(G, dtype=np.int64)
            return pd.DataFrame(out)[STATS_COLUMNS]   # counts: no freq cols

        # ---- text-level stats over the RAW character corpus (joined
        # once). Pure-ASCII corpora (the common case) use the raw bytes;
        # otherwise UTF-32 codepoints so array offsets == CHARACTER
        # offsets — this keeps char_entropy / k-gram diversity /
        # bigram_rate aligned with the stateful engine and the SQL
        # oracle's char semantics on multibyte text (round-1 ADVICE).
        # Case folding is ASCII-only (length-preserving) on all paths. ----
        texts_raw = df["text"].fillna("").to_numpy(dtype=object)
        blob = "".join(texts_raw)
        is_ascii = blob.isascii()
        if is_ascii:
            bytes_raw = np.frombuffer(blob.encode(), dtype=np.uint8)
        else:
            bytes_raw = np.frombuffer(blob.encode("utf-32-le"),
                                      dtype=np.uint32)
        lens_raw = np.fromiter(map(len, texts_raw), dtype=np.int64,
                               count=n_raw)
        bounds_raw = np.concatenate([[0], np.cumsum(lens_raw)])
        upper_raw = _ascii_upper(bytes_raw)
        if is_ascii:
            char_rank, n_classes = upper_raw, np.int64(256)
        else:
            # dense ranks in ascending-codepoint order: entropy term
            # order matches the engine's sorted(char_counts) iteration
            uv, char_rank = np.unique(upper_raw, return_inverse=True)
            n_classes = np.int64(len(uv))

        nb = len(bytes_raw)

        # designated-bigram counts per RAW row (A9; non-self-overlapping,
        # never crossing turn boundaries) — shared by both char paths
        if len(self.bigram) == 2 and nb >= 2:
            b0, b1 = (ord(ch) for ch in self.bigram)
            m = (bytes_raw[:-1] == b0) & (bytes_raw[1:] == b1)
            ends = bounds_raw[1:] - 1
            ends = ends[(ends >= 0) & (ends < len(m))]
            m[ends] = False                      # cross-turn matches
            row_of_pos = np.repeat(np.arange(n_raw), lens_raw)[: len(m)]
            big_raw = np.bincount(row_of_pos[m], minlength=n_raw)
        else:
            big_raw = np.fromiter((s.count(self.bigram) for s in texts_raw),
                                  dtype=np.int64, count=n_raw)

        def kgram_ranks(k: int):
            """Global k-gram ranks over the raw byte corpus + group shift
            (identical on both char paths — bit-exactness contract)."""
            if is_ascii:
                r = upper_raw[: nb - k + 1].astype(np.int64)
                for j in range(1, k):
                    r = r * 256 + upper_raw[j: nb - k + 1 + j]
                shift = np.int64(1) << 40     # rank < 2^32, codes < 2^23
            else:
                # iterative dense factorization: ranks stay < n positions
                # (no overflow for any alphabet size) and remain in
                # lexicographic k-gram order at every step
                r = char_rank[: nb - k + 1].astype(np.int64)
                for j in range(1, k):
                    r = r * n_classes + char_rank[j: nb - k + 1 + j]
                    r = np.unique(r, return_inverse=True)[1]
                shift = np.int64(r.max()) + 1 if len(r) else np.int64(1)
            return r, shift

        sliding = step is not None and step != size and size
        if sliding:
            # adaptive gate: slot compression wins only when slots are
            # FAT (many chars per (conv, slot) vs the per-slot distinct
            # alphabet) — on sparse corpora (~1 short turn per slot) the
            # histogram-merge machinery moves MORE bytes than the plain
            # expansion it replaces (measured ~1.1x slower at 128x
            # replication of the sparse synthetic corpus vs 2.8x faster
            # on fat groups). Estimate chars/slot cheaply and fall back
            # to the expanded path below the crossover.
            if self.slot_compress is None:
                s_probe = (ts_raw - self.offset_us) // step
                spl = np.int64(s_probe.max()) - np.int64(s_probe.min()) + 1
                n_slots = len(np.unique(
                    cid_raw.astype(np.int64) * spl
                    + (s_probe - s_probe.min())))
                sliding = nb / max(n_slots, 1) >= 256
            else:
                sliding = self.slot_compress
        if sliding:
            # ---- SLOT PRE-COMPRESSION (round-3 VERDICT #7): for sliding
            # windows (c = size/step covers) the char-level stats are
            # aggregated per (conv, step-slot) FIRST — each raw character
            # is touched once — and each window then merges the compact
            # histograms of its c slots. The expanded per-(char ×
            # membership) arrays (c × total_chars int64 entries, the
            # memory-bandwidth hog) are never materialized. Bit-exact:
            # merged integer counts are identical and _segment_entropy
            # still receives terms in ascending (window, item) order. ----
            c = size // step
            s_raw = (ts_raw - self.offset_us) // step
            smin = np.int64(s_raw.min())
            SL = np.int64(s_raw.max()) - smin + 1
            sq_uniq, sq_codes = np.unique(
                cid_raw.astype(np.int64) * SL + (s_raw - smin),
                return_inverse=True)
            Gs = len(sq_uniq)
            sq_conv = (sq_uniq // SL).astype(np.int64)
            sq_slot = (sq_uniq % SL) + smin
            # valid (slot-group, cover j) -> window-group code
            ws_cand = (sq_slot[:, None] - np.arange(c)[None, :]) * step \
                + self.offset_us
            valid = ws_cand >= self.offset_us
            if slab_val is not None:
                valid &= ((ws_cand - self.offset_us)
                          // self.slab_l_us) == slab_val
            qv, _jv = np.nonzero(valid)
            wsv = ws_cand[valid]
            wc = np.searchsorted(
                ukey, sq_conv[qv] * K1 + np.searchsorted(ws_uniq, wsv))
            reps_q = np.bincount(qv, minlength=Gs)
            cov_off = np.concatenate(([0], np.cumsum(reps_q)))

            def merge_hist(item_of_slot: np.ndarray, s_of: np.ndarray,
                           cnt_s: np.ndarray, shift: np.int64):
                """Fan per-slot (item, count) hist rows out to the windows
                covering the slot; return merged (wcode, cnt int64) in
                ascending (window, item) order."""
                rep = reps_q[s_of]
                idx = np.repeat(np.arange(len(s_of)), rep)
                pos = np.arange(int(rep.sum()), dtype=np.int64) \
                    - np.repeat(np.cumsum(rep) - rep, rep)
                wt = wc[cov_off[s_of[idx]] + pos]
                wkey = wt * shift + item_of_slot[idx]
                uk, inv = np.unique(wkey, return_inverse=True)
                cnt = np.bincount(inv, weights=cnt_s[idx].astype(np.float64))
                return (uk // shift).astype(np.int64), cnt.astype(np.int64)

            # per-slot char totals -> window n_chars
            sl_chars = np.bincount(sq_codes, weights=lens_raw,
                                   minlength=Gs).astype(np.int64)
            n_chars = np.zeros(G, dtype=np.int64)
            np.add.at(n_chars, wc, sl_chars[qv])
            out["n_chars"] = n_chars
            denom = n_chars.astype(np.float64).copy()
            denom[denom == 0] = 1.0

            # char entropy from merged per-slot char histograms
            sq_per_char = np.repeat(sq_codes, lens_raw)
            suk, scnt = np.unique(sq_per_char * n_classes + char_rank,
                                  return_counts=True)
            gc, cnt = merge_hist((suk % n_classes), (suk // n_classes)
                                 .astype(np.int64), scnt, n_classes)
            out["char_entropy"] = _segment_entropy(gc, cnt, G, denom)

            if self.profile == "fast":
                for name in ("bigram_diversity", "trigram_diversity",
                             "quadgram_diversity", "bigram_rate"):
                    out[name] = np.zeros(G, dtype=np.float64)
                return self._finish_ctw(out, K, G, df, rows, ts_e, codes,
                                        role5_e, texts_raw)

            within_raw = np.arange(nb, dtype=np.int64) \
                - np.repeat(bounds_raw[:-1], lens_raw)
            lens_rep_raw = np.repeat(lens_raw, lens_raw)
            for k, name in ((2, "bigram_diversity"),
                            (3, "trigram_diversity"),
                            (4, "quadgram_diversity")):
                if nb < k:
                    out[name] = np.zeros(G, dtype=np.float64)
                    continue
                r, shift = kgram_ranks(k)
                maskk = within_raw <= lens_rep_raw - k
                if not maskk.any():
                    out[name] = np.zeros(G, dtype=np.float64)
                    continue
                p = np.flatnonzero(maskk)
                kuk, kcnt = np.unique(
                    sq_per_char[p] * shift + r[p], return_counts=True)
                gck, cntk = merge_hist((kuk % shift),
                                       (kuk // shift).astype(np.int64),
                                       kcnt, shift)
                total = np.bincount(gck, weights=cntk, minlength=G)
                total[total == 0] = 1.0
                out[name] = _segment_entropy(gck, cntk, G, total)

            sbig = np.bincount(sq_codes, weights=big_raw,
                               minlength=Gs).astype(np.int64)
            bsum = np.zeros(G, dtype=np.float64)
            np.add.at(bsum, wc, sbig[qv].astype(np.float64))
            out["bigram_rate"] = bsum / denom
            return self._finish_ctw(out, K, G, df, rows, ts_e, codes,
                                    role5_e, texts_raw)

        # ---- tumbling / precomputed-window path: one membership per raw
        # row, no fan-out — per-char gather is already minimal ----
        # gather map: expanded char -> raw byte index
        le = lens_raw[rows]
        tot = int(le.sum())
        cum = np.cumsum(le) - le
        within = np.arange(tot, dtype=np.int64) - np.repeat(cum, le)
        char_idx = within + np.repeat(bounds_raw[rows], le)
        codes_per_char = np.repeat(codes, le)

        n_chars = np.bincount(codes, weights=le, minlength=G).astype(np.int64)
        out["n_chars"] = n_chars
        denom = n_chars.astype(np.float64).copy()
        denom[denom == 0] = 1.0

        # char entropy: per-class over ASCII-folded characters (A7 analogue)
        ckey = codes_per_char * n_classes + char_rank[char_idx]
        uk, cnt = np.unique(ckey, return_counts=True)
        out["char_entropy"] = _segment_entropy(
            (uk // n_classes).astype(np.int64), cnt, G, denom)

        # "fast" profile = the entropy.rs reduced-column mode: char
        # entropy + CTW only (entropy.rs:76-85 design note)
        if self.profile == "fast":
            for name in ("bigram_diversity", "trigram_diversity",
                         "quadgram_diversity", "bigram_rate"):
                out[name] = np.zeros(G, dtype=np.float64)
            return self._finish_ctw(out, K, G, df, rows, ts_e, codes,
                                    role5_e, texts_raw)

        # k-gram diversity k=2,3,4 (A10): ranks computed ONCE on the raw
        # bytes, gathered per window membership; k-grams never cross turn
        # boundaries (within-row offset mask)
        le_rep = np.repeat(le, le)
        for k, name in ((2, "bigram_diversity"), (3, "trigram_diversity"),
                        (4, "quadgram_diversity")):
            if nb < k:
                out[name] = np.zeros(G, dtype=np.float64)
                continue
            r, shift = kgram_ranks(k)
            mask = within <= le_rep - k
            if not mask.any():
                out[name] = np.zeros(G, dtype=np.float64)
                continue
            key = codes_per_char[mask] * shift + r[char_idx[mask]]
            uk2, cnt2 = np.unique(key, return_counts=True)
            gc2 = (uk2 // shift).astype(np.int64)
            total = np.bincount(gc2, weights=cnt2, minlength=G)
            total[total == 0] = 1.0
            out[name] = _segment_entropy(gc2, cnt2, G, total)

        bsum = np.bincount(codes, weights=big_raw[rows], minlength=G)
        out["bigram_rate"] = bsum / denom

        return self._finish_ctw(out, K, G, df, rows, ts_e, codes, role5_e,
                                texts_raw)

    def _finish_ctw(self, out, K, G, df, rows, ts_e, codes, role5_e,
                    texts_raw) -> pd.DataFrame:
        # ---- order-dependent per-window kernels (CTW), memoized ----
        need_ctw = self.profile in ("full", "fast") and self.ctw_depth >= 0
        uid_raw = (df["turn_uid"].to_numpy() if "turn_uid" in df.columns
                   else np.arange(len(df)))
        if need_ctw or self.ctw_text or self.kgram_freqs:
            order = np.lexsort((uid_raw[rows], ts_e, codes))
            codes_s = codes[order]
            start = np.searchsorted(codes_s, np.arange(G))
            stop = np.searchsorted(codes_s, np.arange(G), side="right")
        if need_ctw:
            sym_arr = np.where(role5_e < 4, role5_e, 255)[order].astype(np.uint8)
            out["ctw_roles_bpb"] = _ctw_memoized(
                ("roles", self.ctw_depth), 2_000_000,
                [sym_arr[start[gi]:stop[gi]].tobytes() for gi in range(G)],
                self.ctw_depth)
        else:
            out["ctw_roles_bpb"] = np.zeros(G, dtype=np.float64)

        # char-class CTW over ordered window text (opt-in; the reference's
        # per-character dominant cost, fw.rs:92 over the window sequence)
        if self.ctw_text:
            raw_s = rows[order]
            out["ctw_text_bpb"] = _ctw_memoized(
                ("text", self.ctw_depth), 1_000_000,
                [K.text_class_symbols(
                    "".join(texts_raw[q] for q in raw_s[start[gi]:stop[gi]]))
                 for gi in range(G)],
                self.ctw_depth)
        else:
            out["ctw_text_bpb"] = np.zeros(G, dtype=np.float64)

        # dense role-k-gram frequency vectors over the ordered window
        # role sequence: length-5^k int32 arrays in lexicographic ACGTN
        # k-gram order (role letters A=user C=assistant G=system T=tool
        # N=other per FIXTURES.md) — the reference's di/tri/tetra freq
        # table columns (fw.rs:313-331; sorted-key vocab kmeru8.rs:60-62)
        if self.kgram_freqs:
            lex = np.array([0, 1, 2, 4, 3], dtype=np.int64)[role5_e[order]]
            m = len(lex)
            for k in (2, 3, 4):
                V = 5 ** k
                name = f"kgram_freq_k{k}"
                if m < k:
                    out[name] = [np.zeros(V, dtype=np.int32)
                                 for _ in range(G)]
                    continue
                r = lex[: m - k + 1].copy()
                same = codes_s[: m - k + 1] == codes_s[k - 1:]
                for j in range(1, k):
                    r = r * 5 + lex[j: m - k + 1 + j]
                key = codes_s[: m - k + 1][same] * V + r[same]
                mat = np.zeros((G, V), dtype=np.int32)
                uk, cnt = np.unique(key, return_counts=True)
                mat[uk // V, uk % V] = cnt
                out[name] = list(mat)

        return pd.DataFrame(out)[self.out_columns]


def turn_window_counts(ds, w_turns: int, num_buckets: int = 64):
    """Windows over TURN POSITION — the direct reference analogue
    (fw.rs:83 ``seq.chunks(window_size)``): per conversation, tumbling
    chunks of ``w_turns`` turns ordered by (ts, turn_uid); the trailing
    partial chunk is emitted with its true clamped end
    (fw.rs:73-79,130-144 — issues #8/#9).

    Output: conv_id, win_start, win_end (int turn offsets; win_end ==
    min(win_start + w, conv_len)), n_turns, per-role counts.
    """
    ds = add_bucket(ds, num_buckets)

    def bucket_turn_windows(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({c: [] for c in
                                 ("conv_id", "win_start", "win_end",
                                  "n_turns", "n_user", "n_assistant",
                                  "n_system", "n_tool", "n_other")})
        order = ["conv_id", "ts"] + [c for c in ("turn_uid", "turn_idx")
                                     if c in df.columns]
        df = df.sort_values(order, kind="stable").reset_index(drop=True)
        cid, cu = pd.factorize(df["conv_id"].to_numpy(dtype=object))
        # rank within conversation (cid blocks are contiguous post-sort)
        starts = np.searchsorted(cid, np.arange(len(cu)))
        rank = np.arange(len(df)) - starts[cid]
        conv_len = np.bincount(cid)
        wstart = rank // w_turns * w_turns
        key = cid.astype(np.int64) * (rank.max() + 1) + wstart
        uk, codes = np.unique(key, return_inverse=True)
        G = len(uk)
        ucid = (uk // (rank.max() + 1)).astype(np.int64)
        uws = (uk % (rank.max() + 1)).astype(np.int64)
        if "role" in df.columns:
            # vectorized role -> index (None -> 0, unknown -> 4 "other";
            # Categorical codes are -1 for BOTH, so split on isna)
            codes_r = pd.Categorical(
                df["role"], categories=ROLE_ORDER).codes.astype(np.int64)
            role_idx = np.where(
                codes_r >= 0, codes_r,
                np.where(df["role"].isna().to_numpy(), 0, 4))
        else:
            role_idx = np.zeros(len(df), dtype=np.int64)
        rc = np.bincount(codes * 5 + role_idx, minlength=G * 5).reshape(G, 5)
        return pd.DataFrame({
            "conv_id": np.asarray(cu, dtype=object).take(ucid),
            "win_start": uws,
            "win_end": np.minimum(uws + w_turns, conv_len[ucid]),
            "n_turns": np.bincount(codes, minlength=G).astype(np.int64),
            "n_user": rc[:, 0], "n_assistant": rc[:, 1],
            "n_system": rc[:, 2], "n_tool": rc[:, 3], "n_other": rc[:, 4],
        })

    return ds.groupby("bucket").map_groups(bucket_turn_windows,
                                           batch_format="pandas")


def window_stats(ds, size_us: int, step_us: int | None = None,
                 offset_us: int = 0, profile: str = "full",
                 num_buckets: int = 64, ctw_depth: int = 6,
                 bigram: str = '"k', ctw_text: bool = False,
                 slab_windows: int | None = 4096,
                 kgram_freqs: bool = False):
    """End-to-end windowed stats over a transcript Dataset.

    Tumbling when ``step_us`` is None or == size_us, else sliding
    (size % step == 0). Returns a Dataset with STATS_COLUMNS.

    Shape: the ONE shuffle moves raw turns keyed by (conv_id hash
    bucket × time slab); window assignment (incl. the sliding fan-out)
    and all stat computation run vectorized inside the per-group task.

    ``slab_windows``: windows per time slab of the composite grouping
    key. Bounds per-task group size by (rows per slab / num_buckets)
    instead of (total rows / num_buckets) — the 100-TB requirement: a
    year of data at fixed num_buckets no longer concentrates into
    num_buckets giant groups. None disables (plain bucket grouping).
    """
    slab_l = None
    if slab_windows:
        ds, slab_l = add_bucket_slab(ds, num_buckets, size_us, step_us,
                                     offset_us, slab_windows)
        group_key = "_gk"
    else:
        ds = add_bucket(ds, num_buckets)
        group_key = "bucket"
    inst = BucketWindowStats(profile=profile, ctw_depth=ctw_depth,
                             bigram=bigram, window_size_us=size_us,
                             step_us=step_us or size_us, offset_us=offset_us,
                             ctw_text=ctw_text, slab_l_us=slab_l,
                             kgram_freqs=kgram_freqs)

    def bucket_window_stats(df: pd.DataFrame) -> pd.DataFrame:
        return inst(df)

    return (ds.groupby(group_key)
              .map_groups(bucket_window_stats, batch_format="pandas"))
