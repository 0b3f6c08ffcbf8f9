"""Windowed per-conversation statistics — the engine's core relational op.

Ray-Data-first shape (deliberately NOT the reference's rayon/mpsc design,
fw.rs:42-166):

    read_parquet → map_batches(project + bucket × slab key)  [stateless]
      → sort(key)                                   [the ONE shuffle]
      → map_batches(batch_size=None): runs of whole groups
        → BucketWindowStats                          [numpy kernels]

The only all-to-all exchange is the sort on a derived (conv_id hash
bucket × time slab) key, so the shuffle has ``num_buckets`` × slabs keys
instead of one key per window — the pre-aggregation advice of SURVEY.md
§2.7 / §7.5. This is the shuffle ``groupby().map_groups`` runs inside,
without its per-group task call: each sorted block holds whole groups,
and one ``BucketWindowStats`` call takes as many consecutive groups as
fit a character budget. Window assignment (including the sliding
fan-out) and all stats run there, vectorized over every window of the
call; the text histograms of k = 1..4 come from one sort, and CTW
(order-dependent, kmeru8.rs:170-319) takes one ``ctw_batch`` call over
the call's distinct window symbol strings.

Every batch window kind runs through ``stats_by_group``: session and
count windows (``stages/sessions.py``, ``turn_window_counts``) and the
hot-key session path (``stages/salted.py``) only add an assigner that
gives each row of a chunk its ``window_start``/``window_end``.

Skew note (100 TB design): a group is bounded by ``num_buckets`` and the
slab length; hot conversations are handled by ``stages/salted.py``
(salted partial counts, and sessions found from timestamps alone before
the rows are spread by session).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..windows import (count_window_bounds, sliding_starts_expand,
                       tumbling_start)

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

_TS = pa.timestamp("us")
_STATS_TYPES = {
    "conv_id": pa.string(), "window_start": _TS, "window_end": _TS,
    "last_ts": _TS, "n_turns": pa.int64(), "n_user": pa.int64(),
    "n_assistant": pa.int64(), "n_system": pa.int64(),
    "n_tool": pa.int64(), "n_other": pa.int64(),
    "sys_asst_share": pa.float64(), "sys_asst_skew": pa.float64(),
    "user_tool_skew": pa.float64(), "masked_share": pa.float64(),
    "role_entropy": pa.float64(), "n_chars": pa.int64(),
    "char_entropy": pa.float64(), "bigram_diversity": pa.float64(),
    "trigram_diversity": pa.float64(), "quadgram_diversity": pa.float64(),
    "bigram_rate": pa.float64(), "ctw_roles_bpb": pa.float64(),
    "ctw_text_bpb": pa.float64(),
}


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
# Vectorized multi-group stat computation (one call per run of whole groups)
# ---------------------------------------------------------------------------

# Characters per BucketWindowStats call inside window_stats: consecutive
# whole groups of a sorted block are batched up to this many UTF-8 text
# bytes (plus one per row); a larger group is a call of its own. The
# budget bounds a call's transient arrays: on perfbench
# transcripts_sliding (one CPU) 256k gives a peak RSS of 871-877 MB, no
# more than one call per group, while 1M gives 952-965 MB and no faster
# job.
_CHUNK_CHARS = 1 << 18
_SENTINELS = 3          # zero classes after each turn: 4-grams stay inside


def _ascii_upper(arr: np.ndarray) -> np.ndarray:
    lower = (arr >= 97) & (arr <= 122)
    return arr - 32 * lower.astype(arr.dtype)


def _bits(n) -> int:
    """Bits that hold every value in 0..n."""
    return max(int(n).bit_length(), 1)


def _sort_pairs(hi: np.ndarray, lo: np.ndarray, lo_bits: int,
                payload: np.ndarray | None = None):
    """Rows sorted by (hi, lo), non-negative int64 with lo < 2**lo_bits,
    with ``payload`` carried along; returns (hi, lo, payload).

    When hi, lo and payload fit 63 bits together they are packed into one
    int64 and sorted by value: one ``np.sort``, no gather. Wider keys take
    ``_argsort_pairs``, which gives the same order, payload included.
    """
    pb = _bits(payload.max(initial=0)) if payload is not None else 0
    if _bits(hi.max(initial=0)) + lo_bits + pb > 63:
        order = _argsort_pairs(hi, lo, payload)
        return (hi[order], lo[order],
                None if payload is None else payload[order])
    key = hi << (lo_bits + pb)
    key |= lo << pb
    if payload is not None:
        key |= payload
    key.sort()
    return (key >> (lo_bits + pb), (key >> pb) & ((1 << lo_bits) - 1),
            None if payload is None else key & ((1 << pb) - 1))


def _argsort_pairs(hi: np.ndarray, lo: np.ndarray,
                   payload: np.ndarray | None = None) -> np.ndarray:
    """Order of rows by (hi, lo, payload) for keys wider than 63 bits."""
    return np.lexsort((lo, hi) if payload is None else (payload, lo, hi))


def _slot_windows(item, q, cnt, is_sorted, sq_cg, sq_slot, wc, c):
    """(window, count) of every (k-gram, window) pair, from the counts
    ``cnt`` of (k-gram ``item``, step-slot ``q``) pairs. The result is in
    k-gram order, so each window's k-grams come out in ascending order, as
    ``_segment_entropy`` needs; no window-level sort is made.

    Rows sorted by (item, q) (``is_sorted``, else sorted here and summed)
    list each (item, cg) group's slots in ascending order. Window j of a
    row starts j slots before the row's slot (``wc``, -1 if no such
    window); the row emits it unless it also covers the group's previous
    slot, and its count is the row's plus those of the next c - 1 rows
    of the group whose slots it covers.
    """
    n = len(item)
    if n == 0:
        return item, cnt
    if not is_sorted:
        item, q, cnt = _sort_pairs(item, q, _bits(len(sq_cg)), cnt)
        st = np.flatnonzero(np.r_[True, (item[1:] != item[:-1])
                                  | (q[1:] != q[:-1])])
        item, q, cnt = item[st], q[st], np.add.reduceat(cnt, st)
        n = len(item)
    slot = sq_slot[q]
    same = (item[1:] == item[:-1]) & (sq_cg[q[1:]] == sq_cg[q[:-1]])
    # add[j, i]: count of the later row whose slot window j of row i
    # reaches last; window j sums add[j..c-1, i]
    add = np.zeros((c, n), dtype=np.int64)
    run = np.ones(n - 1, dtype=bool)
    for t in range(1, min(c, n)):
        run = run[:n - t] & same[t - 1:]
        i = np.flatnonzero(run)
        d = slot[i + t] - slot[i]
        i, d = i[d < c], d[d < c]           # row i + t's slot in reach
        add[c - 1 - d, i] = cnt[i + t]
    tot = np.empty((n, c), dtype=np.int64)
    acc = cnt.copy()
    for j in range(c - 1, -1, -1):
        acc += add[j]
        tot[:, j] = acc
    gap = np.r_[c, np.where(same, np.diff(slot), c)]
    w = wc.reshape(-1, c)[q]
    emit = (np.arange(c)[None, :] < gap[:, None]) & (w >= 0)
    return w[emit], tot[emit]


def _text_codes(col) -> tuple[np.ndarray, np.ndarray]:
    """(code points, characters per row) of a string column, nulls empty.
    Pure-ASCII text keeps its UTF-8 bytes as uint8; other text is decoded
    to UTF-32, so array offsets count characters either way."""
    arr = _strings(col, "").cast(pa.large_string())
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset: arr.offset + len(arr) + 1]
    buf = arr.buffers()[2]
    data = (np.frombuffer(buf, dtype=np.uint8)[off[0]: off[-1]]
            if buf is not None else np.zeros(0, np.uint8))
    if not len(data) or data.max() < 128:
        return data, np.diff(off)
    cp = np.frombuffer(data.tobytes().decode().encode("utf-32-le"),
                       dtype=np.uint32)
    return cp, pc.utf8_length(arr).to_numpy().astype(np.int64)


def _codes(col) -> np.ndarray:
    """int64 code per value of a column; equal values get equal codes."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_dictionary(arr.type):
        arr = arr.cast(arr.type.value_type)
    return arr.dictionary_encode().indices.to_numpy(
        zero_copy_only=False).astype(np.int64)


def _strings(col, fill: str) -> pa.Array:
    """One string array with nulls replaced by ``fill``."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if not (pa.types.is_string(arr.type)
            or pa.types.is_large_string(arr.type)):
        arr = arr.cast(pa.string())
    return pc.fill_null(arr, fill) if arr.null_count else arr


def _int64_us(col) -> np.ndarray:
    """Microseconds since the epoch of a timestamp column, as int64."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_timestamp(arr.type) and arr.type.unit != "us":
        arr = arr.cast(pa.timestamp("us", arr.type.tz), safe=False)
    return arr.cast(pa.int64()).to_numpy(zero_copy_only=False)


def _segment_entropy(codes: np.ndarray, weights: np.ndarray, n_groups: int,
                     denom: np.ndarray) -> np.ndarray:
    """-sum p*log2(p) per group for (group_code, count) pairs.

    np.bincount accumulates sequentially in array order; callers pass
    (group, item)-sorted pairs, so per-group terms add in ascending-item
    order — bit-identical to the kernels' sequential loop.
    """
    if len(codes) == 0:
        return np.zeros(n_groups, dtype=np.float64)
    w = weights.astype(np.float64)
    p = w / denom[codes]
    if w.min() > 0:          # run lengths are always positive
        terms = -p * np.log2(p)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(w > 0, -p * np.log2(np.where(p > 0, p, 1.0)),
                             0.0)
    return np.bincount(codes, weights=terms, minlength=n_groups)


def _ctw_distinct(keys: list, depth: int) -> np.ndarray:
    """CTW bits/symbol of each symbol string in ``keys`` (bytes of 0..3,
    255 = flush); each distinct string is computed once, all in one
    ``ctw_batch`` call."""
    from .. import kernels as K

    codes, uniq = pd.factorize(pd.Series(keys, dtype=object))
    offsets = np.cumsum([0] + [len(k) for k in uniq])
    return K.ctw_batch(np.frombuffer(b"".join(uniq), dtype=np.uint8),
                       offsets, depth)[codes]


def role_stats(role_counts: np.ndarray, masked: np.ndarray) -> dict:
    """n_turns, the per-role counts, skews, masked share and role entropy
    of (G, 5) role counts in ``ROLE_ORDER`` and G masked-turn counts."""
    n_turns = role_counts.sum(axis=1)
    a, c, g, t = (role_counts[:, i].astype(np.float64) for i in range(4))
    out = {"n_turns": n_turns, **{f"n_{r}": role_counts[:, i]
                                  for i, r in enumerate(ROLE_ORDER)}}
    # role entropy: closed-form rows of the (G,5) histogram; per-row sum
    # is sequential for 5 elements, +0.0 terms preserve bits, so this
    # equals the kernels' ascending-index loop exactly
    pr = role_counts.astype(np.float64) / n_turns[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        out["sys_asst_share"] = (g + c) / (g + c + a + t)
        out["sys_asst_skew"] = (g - c) / (g + c)
        out["user_tool_skew"] = (a - t) / (a + t)
        terms = np.where(role_counts > 0,
                         -pr * np.log2(np.where(pr > 0, pr, 1.0)), 0.0)
    out["masked_share"] = masked / n_turns.astype(np.float64)
    out["role_entropy"] = terms.sum(axis=1)
    return out


_TEXT_STATS = ("char_entropy", "bigram_diversity", "trigram_diversity",
               "quadgram_diversity")


class BucketWindowStats:
    """Vectorized window stats over a batch of turns holding whole groups
    (all turns of each conversation × slab in it). Stateless; a class so
    the profile config is bound once. ``table`` maps Arrow to Arrow;
    calling the instance also takes a pandas frame (and returns one).

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

    def _schema(self, conv_type: pa.DataType) -> pa.Schema:
        """Output schema; ``conv_id`` keeps the input's type."""
        return pa.schema([(c, conv_type if c == "conv_id" else
                           _STATS_TYPES.get(c, pa.list_(pa.int32())))
                          for c in self.out_columns])

    def __call__(self, batch):
        """``table`` for Arrow; a pandas frame in gives a pandas frame out."""
        if isinstance(batch, pd.DataFrame):
            return self.table(pa.Table.from_pandas(
                batch, preserve_index=False)).to_pandas()
        return self.table(batch)

    def table(self, t: pa.Table) -> pa.Table:
        """One stats row per (conv_id, window) of ``t``'s turns; every
        group in ``t`` must be whole.

        With ``step_us`` unset, a ``window_start`` column assigns each
        row its window, and a ``window_end`` column, if present, gives
        the window's end (else start + ``window_size_us``)."""
        names = t.column_names
        conv = (t["conv_id"].combine_chunks() if "conv_id" in names
                else pa.array([], pa.string()))
        if pa.types.is_dictionary(conv.type):
            conv = conv.cast(conv.type.value_type)
        empty = self._schema(conv.type).empty_table()
        if t.num_rows == 0:
            return empty

        # ---- raw-row arrays: everything text-related is computed ONCE
        # per raw turn; the sliding c-fold fan-out replicates only small
        # int arrays and char indices ----
        n_raw = t.num_rows
        ts_raw = _int64_us(t["ts"])
        conv = conv.dictionary_encode()
        conv_raw = conv.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if "role" in names:
            # engine-wide null convention: role null -> "user"
            r = _strings(t["role"], "user").dictionary_encode()
            r_map = np.asarray([ROLE_ORDER.index(x) if x in ROLE_ORDER
                                else 4 for x in r.dictionary.to_pylist()],
                               dtype=np.int64)
            role5_raw = r_map[r.indices.to_numpy(zero_copy_only=False)]
        else:
            role5_raw = np.zeros(n_raw, dtype=np.int64)
        # ---- window assignment / fan-out: ``rows`` indexes the raw row
        # behind each emitted (row, window) membership pair ----
        size = self.window_size_us or 0
        step = self.step_us
        explicit = step is None and "window_start" in names
        if explicit:
            rows = np.arange(n_raw)
            ws_e = _int64_us(t["window_start"])
        elif step is None or step == size:
            rows = np.arange(n_raw)
            ws_e = tumbling_start(ts_raw, size, self.offset_us)
        else:
            rows, ws_e = sliding_starts_expand(ts_raw, size, step,
                                               self.offset_us)
        # ``cg``: conversation × slab. In composite-key mode, sliding rows
        # near a slab's lower edge were duplicated into the previous slab;
        # each copy keeps only memberships whose window_start lives in
        # its own slab, so every (conv, window) comes from one cg
        cg_slab = None
        if self.slab_l_us and "_slab" in names:
            slab_raw = t["_slab"].to_numpy().astype(np.int64)
            n_conv = np.int64(len(conv.dictionary))
            cg_raw, cg_key = pd.factorize(slab_raw * n_conv + conv_raw)
            cg_raw = cg_raw.astype(np.int64)
            cg_conv, cg_slab = cg_key % n_conv, cg_key // n_conv
            keep = (ws_e - self.offset_us) // self.slab_l_us \
                == slab_raw[rows]
            rows, ws_e = rows[keep], ws_e[keep]
            if len(rows) == 0:
                return empty
        else:
            cg_raw, cg_conv = conv_raw, np.arange(len(conv.dictionary))
        ts_e = ts_raw[rows]
        ws_uniq, ws_inv = np.unique(ws_e, return_inverse=True)
        K1 = np.int64(len(ws_uniq))
        ukey, codes = np.unique(cg_raw[rows] * K1 + ws_inv,
                                return_inverse=True)
        G = len(ukey)

        out: dict = {"conv_id": conv.dictionary.take(
            pa.array(cg_conv[ukey // K1], pa.int64()))}
        out_ws = ws_uniq.take(ukey % K1)
        out["window_start"] = out_ws.astype("datetime64[us]")
        if explicit and "window_end" in names:
            out_we = np.empty(G, dtype=np.int64)
            out_we[codes] = _int64_us(t["window_end"])
        else:
            out_we = out_ws + size
        out["window_end"] = out_we.astype("datetime64[us]")
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
        if "tool" in names:
            # null tool is NOT masked (engine convention: null -> "")
            has_tool = pc.not_equal(_strings(t["tool"], ""), "") \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            masked = np.bincount(codes, weights=has_tool[rows], minlength=G)
        else:
            masked = np.zeros(G)
        out.update(role_stats(role_counts, masked))

        zeros = np.zeros(G, dtype=np.float64)
        if self.profile == "counts" or "text" not in names:
            for col in _TEXT_STATS + ("bigram_rate", "ctw_roles_bpb",
                                      "ctw_text_bpb"):
                out[col] = zeros
            out["n_chars"] = np.zeros(G, dtype=np.int64)
            return self._frame(out, empty.schema)

        texts = t["text"]
        cp, lens_raw = _text_codes(texts)
        self._text_stats(out, cp, lens_raw, rows, codes, G, ts_raw,
                         cg_raw, cg_slab, ws_uniq, ukey, K1)
        if self.profile == "fast":
            for name in _TEXT_STATS[1:] + ("bigram_rate",):
                out[name] = zeros
        else:
            out["bigram_rate"] = self._bigram_rate(
                cp, lens_raw, texts, rows, codes, G, out["n_chars"])
        self._finish_ctw(out, G, t, rows, ts_e, codes, role5_e)
        return self._frame(out, empty.schema)

    def _text_stats(self, out, cp, lens_raw, rows, codes, G, ts_raw,
                    cg_raw, cg_slab, ws_uniq, ukey, K1):
        """n_chars, char entropy (k = 1) and k = 2, 3, 4 diversity from ONE
        sort of (group, c0, c1, c2, c3) keys.

        Case folding is ASCII-only (length-preserving); classes c are
        dense ranks 1..n of the folded code points in code-point order,
        so sorted keys list every k-gram in the order the kernels' sorted
        iteration adds entropy terms, for ASCII and multibyte text alike.
        ``_SENTINELS`` zero classes follow each turn: a k-gram lies inside
        its turn exactly when its last class is not 0, and the k-gram
        counts are the runs of equal (group, c0..c_k-1) prefixes of the
        sorted keys. A key is the pair hi = (group, c0), lo = (c1, c2,
        c3), which holds any alphabet; ``_sort_pairs`` packs it into one
        int64 when it fits. The group is the window membership; with slot
        compression there is no group, each character carries its step
        slot instead, and ``_slot_windows`` turns per-slot counts into
        per-window counts.
        """
        n_raw = len(lens_raw)
        nb = len(cp)
        up = _ascii_upper(cp)
        rank = np.cumsum(np.bincount(up, minlength=1) > 0)
        cbits = _bits(rank[-1])
        cmask = (1 << cbits) - 1
        ext_start = np.concatenate(([0], np.cumsum(lens_raw + _SENTINELS)))
        ext = np.zeros(int(ext_start[-1]), dtype=np.int64)
        # position in ``ext`` of every raw character
        epos = np.arange(nb, dtype=np.int64) + np.repeat(
            np.arange(n_raw, dtype=np.int64) * _SENTINELS, lens_raw)
        ext[epos] = rank[up]
        kmax = 1 if self.profile == "fast" else 4

        size, step = self.window_size_us or 0, self.step_us
        sliding = bool(step is not None and step != size and size)
        if sliding and self.slot_compress is None:
            # adaptive gate: slot compression wins only when slots are
            # FAT (many chars per (cg, slot)). The slot path is 1.05-1.7x
            # faster on perfbench transcripts_sliding's calls (520-6600
            # chars per slot, one CPU). No benchmark workload has sparser
            # slots; a synthetic sparse input (24 h / 6 h windows, 300k-char
            # calls) put the crossover near 500-750 chars per slot, so 256
            # may be low, but that input is not in the repo and the gate
            # stays where it was until a workload on that side checks it.
            s_probe = (ts_raw - self.offset_us) // step
            n_slots = len(pd.unique(
                cg_raw * (np.int64(s_probe.max()) - s_probe.min() + 1)
                + (s_probe - s_probe.min())))
            sliding = nb / max(n_slots, 1) >= 256
        elif sliding:
            sliding = self.slot_compress

        q = None
        if not sliding:
            # one membership per (row, window): gather each membership's
            # characters
            le = lens_raw[rows]
            n_chars = np.bincount(codes, weights=le,
                                  minlength=G).astype(np.int64)
            pos = np.repeat(ext_start[rows] - np.cumsum(le) + le, le) \
                + np.arange(int(le.sum()), dtype=np.int64)
            grp = np.repeat(codes, le)
        else:
            # ---- SLOT PRE-COMPRESSION (round-3 VERDICT #7): for sliding
            # windows (c = size/step covers) each raw character is sorted
            # ONCE, by its k-grams and then its (cg, step-slot) ``q``; a
            # window's count of a k-gram is the sum of the k-gram's counts
            # in the c slots that cover the window (``_slot_windows``). ----
            c = size // step
            s_raw = (ts_raw - self.offset_us) // step
            smin = np.int64(s_raw.min())
            SL = np.int64(s_raw.max()) - smin + 1
            sq_uniq, sq_codes = np.unique(cg_raw * SL + (s_raw - smin),
                                          return_inverse=True)
            sq_cg, sq_slot = sq_uniq // SL, sq_uniq % SL
            ws_cand = ((sq_slot + smin)[:, None]
                       - np.arange(c)[None, :]) * step + self.offset_us
            valid = ws_cand >= self.offset_us
            if cg_slab is not None:
                valid &= ((ws_cand - self.offset_us) // self.slab_l_us
                          == cg_slab[sq_cg][:, None])
            # window code of (slot q, cover j) at q * c + j, -1 if invalid
            wc = np.full(valid.shape, -1, dtype=np.int64)
            wc[valid] = np.searchsorted(
                ukey, np.broadcast_to(sq_cg[:, None], valid.shape)[valid]
                * K1 + np.searchsorted(ws_uniq, ws_cand[valid]))
            wc = wc.ravel()
            sl_chars = np.bincount(sq_codes, weights=lens_raw,
                                   minlength=len(sq_uniq)).astype(np.int64)
            n_chars = np.bincount(
                wc[wc >= 0], weights=np.repeat(sl_chars, c)[wc >= 0],
                minlength=G).astype(np.int64)
            pos, grp = epos, 0
            q = np.repeat(sq_codes, lens_raw)
        out["n_chars"] = n_chars
        if len(pos) == 0:
            for name in _TEXT_STATS[:kmax]:
                out[name] = np.zeros(G, dtype=np.float64)
            return

        lo = np.zeros(len(ext), dtype=np.int64)
        for j in range(1, kmax):
            lo[:-j] |= ext[j:] << (cbits * (kmax - 1 - j))
        hi, lo, q = _sort_pairs((grp << cbits) | ext[pos], lo[pos],
                                cbits * (kmax - 1), q)
        # distinct (group, c0..c3[, slot]) keys with their counts; every
        # k below works on these
        new = np.r_[True, (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])]
        if sliding:
            new[1:] |= q[1:] != q[:-1]
        starts = np.flatnonzero(new)
        ecnt = np.diff(starts, append=len(hi))
        hi, lo = hi[starts], lo[starts]
        q = None if q is None else q[starts]
        new = np.r_[True, hi[1:] != hi[:-1]]
        denom = n_chars.astype(np.float64)
        denom[denom == 0] = 1.0
        for k in range(1, kmax + 1):
            lo_k = lo >> (cbits * (kmax - k))
            if k > 1:
                new[1:] |= lo_k[1:] != lo_k[:-1]
            # k-grams that end inside their turn
            keep = (lo_k & cmask) != 0 if k > 1 else slice(None)
            if sliding:
                # the k-gram's rank among these keys stands for it
                item = np.cumsum(new)[keep]
                w, cnt = _slot_windows(item, q[keep], ecnt[keep], k == kmax,
                                       sq_cg, sq_slot, wc, c)
            else:
                st = np.flatnonzero(new)
                w = hi[st] >> cbits
                cnt = np.add.reduceat(ecnt, st)
                if k > 1:
                    w, cnt = w[keep[st]], cnt[keep[st]]
            if k > 1:
                denom = np.bincount(w, weights=cnt, minlength=G)
                denom[denom == 0] = 1.0
            out[_TEXT_STATS[k - 1]] = _segment_entropy(w, cnt, G, denom)

    def _bigram_rate(self, cp, lens_raw, texts, rows, codes, G, n_chars):
        """Designated-bigram count / n_chars (A9; non-self-overlapping,
        never crossing turn boundaries)."""
        nb = len(cp)
        n_raw = len(lens_raw)
        if len(self.bigram) == 2 and nb >= 2:
            b0, b1 = (ord(ch) for ch in self.bigram)
            m = (cp[:-1] == b0) & (cp[1:] == b1)
            ends = np.cumsum(lens_raw) - 1
            ends = ends[(ends >= 0) & (ends < len(m))]
            m[ends] = False                      # cross-turn matches
            row_of_pos = np.repeat(np.arange(n_raw), lens_raw)[: len(m)]
            big_raw = np.bincount(row_of_pos[m], minlength=n_raw)
        else:
            big_raw = np.fromiter(
                (s.count(self.bigram)
                 for s in _strings(texts, "").to_pylist()),
                dtype=np.int64, count=n_raw)
        denom = n_chars.astype(np.float64)
        denom[denom == 0] = 1.0
        return np.bincount(codes, weights=big_raw[rows], minlength=G) / denom

    def _finish_ctw(self, out, G, t, rows, ts_e, codes, role5_e):
        # ---- order-dependent per-window kernels (CTW) ----
        from .. import kernels as K

        need_ctw = self.profile in ("full", "fast") and self.ctw_depth >= 0
        # turns of one window in (ts, turn_uid | turn_idx, row) order, the
        # stream engine's order
        uid_col = next((c for c in ("turn_uid", "turn_idx")
                        if c in t.column_names), None)
        uid_raw = (t[uid_col].to_numpy() if uid_col
                   else np.arange(t.num_rows))
        if need_ctw or self.ctw_text or self.kgram_freqs:
            order = np.lexsort((uid_raw[rows], ts_e, codes))
            codes_s = codes[order]
            start = np.searchsorted(codes_s, np.arange(G))
            stop = np.searchsorted(codes_s, np.arange(G), side="right")
        if need_ctw:
            sym_arr = np.where(role5_e < 4, role5_e, 255)[order].astype(np.uint8)
            out["ctw_roles_bpb"] = _ctw_distinct(
                [sym_arr[start[gi]:stop[gi]].tobytes() for gi in range(G)],
                self.ctw_depth)
        else:
            out["ctw_roles_bpb"] = np.zeros(G, dtype=np.float64)

        # char-class CTW over ordered window text (opt-in; the reference's
        # per-character dominant cost, fw.rs:92 over the window sequence)
        if self.ctw_text:
            texts_raw = _strings(t["text"], "").to_pylist()
            raw_s = rows[order]
            out["ctw_text_bpb"] = _ctw_distinct(
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
                mat = np.zeros((G, V), dtype=np.int32)
                if m >= k:
                    r = lex[: m - k + 1].copy()
                    same = codes_s[: m - k + 1] == codes_s[k - 1:]
                    for j in range(1, k):
                        r = r * 5 + lex[j: m - k + 1 + j]
                    key = codes_s[: m - k + 1][same] * V + r[same]
                    uk, cnt = np.unique(key, return_counts=True)
                    mat[uk // V, uk % V] = cnt
                out[f"kgram_freq_k{k}"] = pa.ListArray.from_arrays(
                    pa.array(np.arange(0, G * V + 1, V, dtype=np.int32)),
                    pa.array(mat.ravel()))

    def _frame(self, out: dict, schema: pa.Schema) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array(out[f.name], f.type, from_pandas=True)
             if isinstance(out[f.name], np.ndarray) else out[f.name]
             for f in schema], schema=schema)


def turn_window_counts(ds, w_turns: int, num_buckets: int = 64):
    """Windows over TURN POSITION — the direct reference analogue
    (fw.rs:83 ``seq.chunks(window_size)``): per conversation, tumbling
    chunks of ``w_turns`` turns ordered by (ts, turn_uid, turn_idx); the
    trailing partial chunk is emitted with its true clamped end
    (fw.rs:73-79,130-144 — issues #8/#9).

    Output: conv_id, win_start, win_end (int turn offsets; win_end ==
    min(win_start + w, conv_len)), n_turns, per-role counts.
    """
    def assign(t: pa.Table) -> pa.Table:
        t = t.sort_by([(c, "ascending") for c in ("conv_id", "ts",
                                                   "turn_uid", "turn_idx")
                       if c in t.column_names])
        start, end = count_window_bounds(_codes(t["conv_id"]), w_turns)
        return t.append_column("window_start", pa.array(start)) \
            .append_column("window_end", pa.array(end))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t["conv_id"],
            "win_start": t["window_start"].cast(pa.int64()),
            "win_end": t["window_end"].cast(pa.int64()),
            **{c: t[c] for c in ("n_turns", "n_user", "n_assistant",
                                 "n_system", "n_tool", "n_other")}})

    return stats_by_group(add_bucket(ds, num_buckets), "bucket",
                          BucketWindowStats(profile="counts"), assign) \
        .map_batches(finish, batch_format="pyarrow")


def _group_chunks(keys: np.ndarray, cost: np.ndarray,
                  budget: int) -> list[tuple[int, int]]:
    """Row ranges [a, b) over ``keys`` (equal keys adjacent): consecutive
    whole runs of equal keys, each range closed before the run that would
    take its summed ``cost`` past ``budget``. A run over budget is a range
    of its own."""
    if len(keys) == 0:
        return []
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    out, a, acc = [], 0, 0
    for s, rc in zip(starts.tolist(), np.add.reduceat(cost, starts).tolist()):
        if acc and acc + rc > budget:
            out.append((a, s))
            a, acc = s, 0
        acc += rc
    out.append((a, len(keys)))
    return out


def stats_by_group(ds, group_key: str, inst: BucketWindowStats,
                   assign=None):
    """``inst``'s window stats of every group of ``ds`` by ``group_key``.

    ``sort(group_key)`` is the one shuffle and puts every group whole
    into one block; ``map_batches(batch_size=None)`` cuts each block into
    runs of whole groups of about ``_CHUNK_CHARS`` characters (a larger
    group runs alone), and one ``inst.table`` call computes each run.
    ``assign``, if given, maps each run to the table ``inst`` reads,
    e.g. by adding ``window_start``/``window_end`` columns.
    """
    budget = _CHUNK_CHARS
    prep = assign or (lambda t: t)

    def bucket_window_stats(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return inst.table(block)
        cost = np.ones(block.num_rows, dtype=np.int64)
        if "text" in block.column_names:
            cost += pc.binary_length(_strings(block["text"], "")) \
                .to_numpy().astype(np.int64)
        return pa.concat_tables([
            inst.table(prep(block.slice(a, b - a))) for a, b in _group_chunks(
                block[group_key].to_numpy(), cost, budget)])

    return ds.sort(group_key).map_batches(
        bucket_window_stats, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True)


def window_stats(ds, size_us: int, step_us: int | None = None,
                 offset_us: int = 0, profile: str = "full",
                 num_buckets: int = 64, ctw_depth: int = 6,
                 bigram: str = '"k', ctw_text: bool = False,
                 slab_windows: int | None = 4096,
                 kgram_freqs: bool = False):
    """End-to-end windowed stats over a transcript Dataset.

    Tumbling when ``step_us`` is None or == size_us, else sliding
    (size % step == 0). Returns a Dataset with STATS_COLUMNS (plus the
    ``kgram_freq_k*`` list columns with ``kgram_freqs``), as Arrow blocks.

    Shape: ``stats_by_group`` over the (conv_id hash bucket × time slab)
    key. Window assignment (incl. the sliding fan-out) and all stat
    computation happen in its ``BucketWindowStats`` calls, vectorized.

    ``slab_windows``: windows per time slab of the composite grouping
    key. Bounds group size by (rows per slab / num_buckets) instead of
    (total rows / num_buckets) — the 100-TB requirement: a year of data
    at fixed num_buckets no longer concentrates into num_buckets giant
    groups. None disables (plain bucket grouping).
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
    return stats_by_group(ds, group_key, inst)
