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
(order-dependent, kmeru8.rs:170-319) takes one ``ctw_batch`` call per
CTW column over the symbols of every window of the call, back to back
in one array. The stream engine's promoted windows keep the same k-gram
keys in a ``WindowSummary`` and finish through the same code.

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
        ws = tumbling_start(_int64_us(t["ts"]), size_us, offset_us)
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
            ws = _int64_us(t["window_start"])
            slab_hi = (ws - offset_us) // L
            dup = np.zeros(n, dtype=bool)
            slab_lo = slab_hi
        else:
            ts = _int64_us(t["ts"])
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
_SENTINELS = 3          # zero classes past a turn's end in a 4-gram key
_I32_MAX = np.iinfo(np.int32).max
# distinct keys a ``WindowSummary`` k-gram histogram holds exactly; past
# it the histogram spills (``_cut_hist``). The stream engine promotes a
# window to a summary once its buffered rows plus text bytes pass it
KGRAM_CAP = 65_536
_CP_BITS = 21           # bits of a class (code point + 1) in a summary key
_KMAX = {"counts": 0, "fast": 1, "full": 4}     # longest k-gram per profile


def _ascii_upper(arr: np.ndarray) -> np.ndarray:
    lower = (arr >= 97) & (arr <= 122)
    return arr - 32 * lower.astype(arr.dtype)


def _bits(n) -> int:
    """Bits that hold every value in 0..n."""
    return max(int(n).bit_length(), 1)


def _sort_pairs(hi: np.ndarray, lo: np.ndarray, lo_bits: int,
                payload: np.ndarray | None = None):
    """Rows sorted by (hi, lo), non-negative integers with lo < 2**lo_bits,
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
    key = np.left_shift(hi, lo_bits + pb, dtype=np.int64)
    key |= np.left_shift(lo, pb, dtype=np.int64)
    if payload is not None:
        key |= payload
    key.sort()
    return (key >> (lo_bits + pb), (key >> pb) & ((1 << lo_bits) - 1),
            None if payload is None else key & ((1 << pb) - 1))


def _argsort_pairs(hi: np.ndarray, lo: np.ndarray,
                   payload: np.ndarray | None = None) -> np.ndarray:
    """Order of rows by (hi, lo, payload) for keys wider than 63 bits."""
    return np.lexsort((lo, hi) if payload is None else (payload, lo, hi))


def _roll_up(item: np.ndarray, q: np.ndarray, cnt: np.ndarray,
             q_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (item, q) pairs of rows (item, q, count), sorted, with
    their counts summed; the arrays keep the dtype of ``cnt``."""
    dt = cnt.dtype
    item, q, cnt = _sort_pairs(item, q, q_bits, cnt)
    st = np.flatnonzero(np.r_[True, (item[1:] != item[:-1])
                              | (q[1:] != q[:-1])])
    return (item[st].astype(dt), q[st].astype(dt),
            np.add.reduceat(cnt, st, dtype=dt))


def _slot_axis(sq_cg: np.ndarray, sq_slot: np.ndarray, c: int,
               dt) -> np.ndarray:
    """Position of each (group, slot) pair, sorted, on ``_spread``'s slot
    axis: the distance from the previous slot of its group, capped at
    ``c``, or ``c`` after the previous group."""
    step = np.minimum(np.diff(sq_slot), c)
    step[sq_cg[1:] != sq_cg[:-1]] = c
    cs = np.zeros(len(sq_slot), dtype=dt)
    np.cumsum(step, out=cs[1:])
    return cs


def _spread(item: np.ndarray, q: np.ndarray, cnt: np.ndarray,
            cs: np.ndarray, wc: np.ndarray, c: int):
    """(window, count) of every (k-gram, window) pair, from the counts
    ``cnt`` of distinct (k-gram ``item``, step-slot ``q``) rows sorted by
    (item, q). The pairs come in (k-gram, conversation × slab, window
    start) order, so each window's k-grams come out in ascending order,
    as ``_segment_entropy`` needs; no window-level sort is made.

    ``cs`` lays the slots on one axis (``_slot_axis``). The rows are laid
    on an axis ``z`` the same way, with ``c`` between k-grams, so the
    window of ``c`` slots that starts at ``x`` holds the row counts on
    ``z`` in [x, x + c): one prefix sum, one difference. Every ``x`` up to
    the last row is such a window start: row i's windows start at
    z[i] - j for the covers j < gap[i] (the ones the previous row does not
    also cover), and ``wc[q * c + j]`` is that window's code (-1 if there
    is none).
    """
    dt = cnt.dtype
    n = len(item)
    if n == 0:
        return item, cnt
    gap = np.empty(n, dtype=dt)
    gap[0] = c
    g = cs[q]
    np.subtract(g[1:], g[:-1], out=gap[1:])
    gap[1:][item[1:] != item[:-1]] = c
    np.minimum(gap, c, out=gap)
    z = np.cumsum(gap, dtype=dt)
    e = int(z[-1])                 # window starts x = 0 .. e - 1
    acc = np.zeros(e + c, dtype=dt)
    acc[z] = cnt                   # acc[x]: the counts on z < x
    np.cumsum(acc, out=acc)
    z -= 1
    w = np.repeat(q * c + z, gap)
    w -= np.arange(e, dtype=dt)    # q * c + j of window start x
    w = wc[w]
    tot = acc[c:c + e] - acc[:e]
    ok = w >= 0
    return (w, tot) if ok.all() else (w[ok], tot[ok])


def _slot_kgrams(hi: np.ndarray, lo: np.ndarray, q: np.ndarray,
                 cnt: np.ndarray, cbits: int, kmax: int, cs: np.ndarray,
                 wc: np.ndarray, c: int):
    """Yield (k, window, count) for k = kmax .. 1: every window's count of
    every k-gram that ends inside its turn, in ``_spread``'s order.

    Input: the distinct (k-gram key, slot ``q``) rows of k = kmax, sorted,
    with counts ``cnt``; a key is the pair ``hi`` = c0, ``lo`` = (c1 ..
    c_kmax-1) of ``cbits``-bit classes, 0 after a turn's end. Level k - 1
    is rolled up from level k: each k-gram maps to its prefix, and the
    (prefix, slot) rows are re-sorted and summed, so each sort runs on the
    previous level's distinct rows. ``q``, ``cnt``, ``cs`` and ``wc``
    share one integer dtype, which the outputs keep.
    """
    dt = cnt.dtype
    q_bits = _bits(len(cs))
    new = np.r_[True, (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])]
    item = np.cumsum(new, dtype=dt) - 1
    khi, klo = hi[new], lo[new]          # the k-gram of each item
    cmask = (1 << cbits) - 1
    for k in range(kmax, 0, -1):
        shift = cbits * (kmax - k)
        if k < kmax:
            plo = klo >> shift
            up = np.r_[True, (khi[1:] != khi[:-1]) | (plo[1:] != plo[:-1])]
            parent = np.cumsum(up, dtype=dt) - 1
            khi, klo = khi[up], klo[up]
            item, q, cnt = _roll_up(parent[item], q, cnt, q_bits)
        m = (((klo >> shift) & cmask) != 0)[item] if k > 1 else slice(None)
        yield (k, *_spread(item[m], q[m], cnt[m], cs, wc, c))


def _window_kgrams(hi: np.ndarray, lo: np.ndarray, cnt: np.ndarray,
                   cbits: int, kmax: int):
    """Yield (k, window, count) for k = 1 .. kmax from the distinct
    (window, k-gram key) rows, ``hi`` = (window, c0): the counts of k are
    the sums over runs of equal (window, c0 .. c_k-1), for the runs of
    k-grams inside a turn, in key order."""
    cmask = (1 << cbits) - 1
    new = np.r_[True, hi[1:] != hi[:-1]]
    for k in range(1, kmax + 1):
        lo_k = lo >> (cbits * (kmax - k))
        if k > 1:
            new[1:] |= lo_k[1:] != lo_k[:-1]
        st = np.flatnonzero(new)
        n = np.add.reduceat(cnt, st)
        if k > 1:
            inside = (lo_k[st] & cmask) != 0
            st, n = st[inside], n[inside]
        yield k, hi[st] >> cbits, n


def _char_classes(cp: np.ndarray):
    """The characters of every turn as classes: dense ranks 1..n of their
    ASCII-folded code points, in code-point order. Returns (the class of
    each character, bits of a class)."""
    up = _ascii_upper(cp)
    rank = np.cumsum(np.bincount(up, minlength=1) > 0)
    return rank[up], _bits(rank[-1])


def _distinct_keys(cls: np.ndarray, lens_raw: np.ndarray, grp, cbits: int,
                   kmax: int, q: np.ndarray | None = None):
    """The distinct (group, c0 .. c_kmax-1[, q]) keys of the characters of
    classes ``cls`` (``grp`` their groups), sorted, with their counts:
    (hi = (group, c0), lo = (c1 .. c_kmax-1), q, count). c_j is the class
    j characters on in the same turn, or 0 past the turn's end, as if
    ``_SENTINELS`` zero classes followed each turn."""
    lo = np.zeros(len(cls), dtype=np.int64)
    for j in range(1, kmax):
        lo[:-j] |= cls[j:] << (cbits * (kmax - 1 - j))
    # the last r characters of a turn keep only c1 .. c_r-1
    ends = np.cumsum(lens_raw)
    for r in range(1, kmax):
        lo[ends[lens_raw >= r] - r] &= ~((1 << (cbits * (kmax - r))) - 1)
    hi, lo, q = _sort_pairs((grp << cbits) | cls, lo, cbits * (kmax - 1), q)
    new = np.r_[True, (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])]
    if q is not None:
        new[1:] |= q[1:] != q[:-1]
    starts = np.flatnonzero(new)
    return (hi[starts], lo[starts], None if q is None else q[starts],
            np.diff(starts, append=len(hi)))


def _utf8(col) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """(the column as one large_string array, nulls empty; its UTF-8
    bytes; the byte offset of each row and of the end, from 0)."""
    arr = _strings(col, "").cast(pa.large_string())
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset: arr.offset + len(arr) + 1]
    buf = arr.buffers()[2]
    data = (np.frombuffer(buf, dtype=np.uint8)[off[0]: off[-1]]
            if buf is not None else np.zeros(0, np.uint8))
    return arr, data, off - off[0]


def _text_codes(col) -> tuple[np.ndarray, np.ndarray]:
    """(code points, characters per row) of a string column, nulls empty.
    Pure-ASCII text keeps its UTF-8 bytes as uint8; other text is decoded
    to UTF-32, so array offsets count characters either way."""
    arr, data, off = _utf8(col)
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
    each group's pairs in ascending-item order, so per-group terms add in
    that order — bit-identical to the kernels' sequential loop.
    """
    if len(codes) == 0:
        return np.zeros(n_groups, dtype=np.float64)
    p = weights / denom[codes]
    if weights.min() > 0:    # run lengths are always positive
        terms = np.log2(p)
    else:                    # p * log2(p) is 0 at p = 0
        terms = np.log2(np.where(p > 0, p, 1.0))
    terms *= p
    # sums p*log2(p) and negates once: negation is exact and rounding is
    # symmetric, so this is bit-identical to summing -p*log2(p)
    return 0.0 - np.bincount(codes, weights=terms, minlength=n_groups)


def _role_codes(t: pa.Table) -> np.ndarray:
    """Each row's role as its index in ``ROLE_ORDER`` (unknown roles 4;
    engine-wide null convention: role null -> "user")."""
    if "role" not in t.column_names:
        return np.zeros(t.num_rows, dtype=np.int64)
    r = _strings(t["role"], "user").dictionary_encode()
    r_map = np.asarray([ROLE_ORDER.index(x) if x in ROLE_ORDER else 4
                        for x in r.dictionary.to_pylist()], dtype=np.int64)
    return r_map[r.indices.to_numpy(zero_copy_only=False)]


def _tool_flags(t: pa.Table) -> np.ndarray:
    """1 for each masked row (a non-empty tool), else 0; a null tool is
    NOT masked (engine convention: null -> "")."""
    if "tool" not in t.column_names:
        return np.zeros(t.num_rows, dtype=np.int64)
    return pc.not_equal(_strings(t["tool"], ""), "") \
        .to_numpy(zero_copy_only=False).astype(np.int64)


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


class WindowSummary:
    """What one window's statistics need of its rows, folded call by call
    (``BucketWindowStats.fold``) and finished into the row ``table`` gives
    on the same rows (``BucketWindowStats.finish``).

    It holds the role counts (in ``ROLE_ORDER``), the masked and
    designated-bigram counts and the last ts; ``hist`` = (hi = c0, lo =
    c1 .. c_kmax-1, count): the window's distinct ``_distinct_keys`` keys
    in ascending order with their counts, a character's class being its
    ASCII-folded code point + 1 (0 past a turn's end), so a k-gram has
    one key in every call; ``totals[k - 1]``, its k-grams in all; and
    ``spilled``, whether ``hist`` was ever cut (``_cut_hist``). ``seq``
    keeps the (ts, turn_uid, role code[, text]) rows in arrival order,
    only when CTW needs them; ``custom`` holds the caller's aggregate
    states.
    """

    __slots__ = ("roles", "masked", "bigrams", "last_ts", "hist", "totals",
                 "spilled", "seq", "custom")

    def __init__(self):
        self.roles = np.zeros(5, dtype=np.int64)
        self.masked = 0
        self.bigrams = 0
        self.last_ts = int(np.iinfo(np.int64).min)
        empty = np.zeros(0, dtype=np.int64)
        self.hist = (empty, empty, empty)
        self.totals = np.zeros(4, dtype=np.int64)
        self.spilled = False
        self.seq: pa.Table | None = None
        self.custom: list | None = None


def _sum_keys(hi: np.ndarray, lo: np.ndarray, n: np.ndarray):
    """The distinct (hi, lo) keys, sorted, with their counts ``n``
    summed."""
    order = np.lexsort((lo, hi))
    hi, lo, n = hi[order], lo[order], n[order]
    st = np.flatnonzero(np.r_[True, (hi[1:] != hi[:-1])
                              | (lo[1:] != lo[:-1])])
    return hi[st], lo[st], np.add.reduceat(n, st)


def _merge_hist(sums: list, hi: np.ndarray, lo: np.ndarray,
                n: np.ndarray) -> None:
    """Add the counts ``n`` of the keys (``hi`` = (window, c0), ``lo``)
    to the histograms of ``sums`` (window i is ``sums[i]``): one grouped
    sum over their keys and the new ones. A histogram past ``KGRAM_CAP``
    keys is cut (``_cut_hist``)."""
    old = [s.hist for s in sums]
    hh, ll, nn = _sum_keys(
        np.concatenate([hi] + [(i << _CP_BITS) | o[0]
                               for i, o in enumerate(old)]),
        np.concatenate([lo] + [o[1] for o in old]),
        np.concatenate([n] + [o[2] for o in old]))
    cut = np.searchsorted(hh >> _CP_BITS, np.arange(len(sums) + 1))
    hh &= (1 << _CP_BITS) - 1
    for i, s in enumerate(sums):
        h, l, c = (x[cut[i]:cut[i + 1]].copy() for x in (hh, ll, nn))
        if len(c) > KGRAM_CAP:
            h, l, c = _cut_hist(h, l, c)
            s.spilled = True
        s.hist = (h, l, c)


def _cut_hist(hi: np.ndarray, lo: np.ndarray, n: np.ndarray):
    """A histogram of at most ``KGRAM_CAP`` keys from a larger one: its
    ``KGRAM_CAP // 16`` heaviest keys stay whole, and the others are cut
    to their first k_max - 1 characters, then fewer, until the keys fit
    (none, if even one character does not fit). A cut key reads as a
    shorter k-gram that ends its turn, so the k-grams up to the cut keep
    exact counts; ``finish`` takes the others of each k as one symbol."""
    whole = np.zeros(len(n), dtype=bool)
    whole[np.argsort(-n, kind="stable")[:KGRAM_CAP // 16]] = True
    for bits in range(_CP_BITS, 64, _CP_BITS):
        cut = np.where(whole, lo, lo >> bits << bits)
        out = _sum_keys(hi, cut, n)
        if len(out[2]) <= KGRAM_CAP:
            return out
    return hi[whole], lo[whole], n[whole]


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
                 kgram_freqs: bool = False):
        if len(bigram) != 2:
            raise ValueError(f"bigram={bigram!r}: the designated bigram "
                             "has exactly two characters")
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
        if t.num_rows == 0:
            return self._schema(conv.type).empty_table()

        # ---- raw-row arrays: everything text-related is computed ONCE
        # per raw turn; the sliding c-fold fan-out replicates only small
        # int arrays ----
        n_raw = t.num_rows
        ts_raw = _int64_us(t["ts"])
        conv = conv.dictionary_encode()
        conv_raw = conv.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        role5_raw = _role_codes(t)
        # ---- window assignment / fan-out: ``rows`` indexes the raw row
        # behind each emitted (row, window) membership pair ----
        size = self.window_size_us or 0
        step = self.step_us
        explicit = step is None and "window_start" in names
        sliding = step is not None and step != size
        if explicit:
            rows = np.arange(n_raw)
            ws_e = _int64_us(t["window_start"])
        elif not sliding:
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
            keep = (ws_e - self.offset_us) // self.slab_l_us \
                == slab_raw[rows]
            if not (sliding or keep.all()):
                # the memberships of a tumbling or explicit call are its
                # raw rows (``_text_stats`` reads their characters in
                # place), so rows outside their slab leave the table
                return self.table(t.filter(pa.array(keep)))
            rows, ws_e = rows[keep], ws_e[keep]
            if len(rows) == 0:
                return self._schema(conv.type).empty_table()
            n_conv = np.int64(len(conv.dictionary))
            cg_raw, cg_key = pd.factorize(slab_raw * n_conv + conv_raw)
            cg_raw = cg_raw.astype(np.int64)
            cg_conv, cg_slab = cg_key % n_conv, cg_key // n_conv
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
        masked = np.bincount(codes, weights=_tool_flags(t)[rows],
                             minlength=G)
        out.update(role_stats(role_counts, masked))

        if self.profile == "counts" or "text" not in names:
            return self._finish(out, G)
        cp, lens_raw = _text_codes(t["text"])
        n_kgrams, kgrams = self._text_kgrams(
            cp, lens_raw, codes, G, ts_raw, cg_raw, cg_slab, ws_uniq, ukey, K1)
        bigrams = (np.bincount(codes, weights=self._bigram_counts(
            cp, lens_raw)[rows], minlength=G)
            if self.profile == "full" else None)
        return self._finish(out, G, n_kgrams, kgrams, bigrams,
                            (t, rows, ts_e, codes, role5_e)
                            if self._need_seq() else None)

    def _text_kgrams(self, cp, lens_raw, codes, G, ts_raw,
                     cg_raw, cg_slab, ws_uniq, ukey, K1):
        """``_finish``'s ``n_kgrams`` and ``kgrams`` for the call's windows:
        the k-grams of k = 1..k_max from ONE sort of (group, c0, c1, c2,
        c3) keys.

        Case folding is ASCII-only (length-preserving); classes c are
        dense ranks 1..n of the folded code points in code-point order,
        so sorted keys list every k-gram in the order the kernels' sorted
        iteration adds entropy terms, for ASCII and multibyte text alike.
        Classes past a turn's end are 0 (``_distinct_keys``): a k-gram
        lies inside its turn exactly when its last class is not 0, and
        the k-gram counts are the runs of equal (group, c0..c_k-1)
        prefixes of the sorted keys. A key is the pair hi = (group, c0),
        lo = (c1, c2, c3), which holds any alphabet; ``_sort_pairs`` packs
        it into one int64 when it fits.

        A tumbling or explicit call has one membership per raw row, so
        the group of each character is its row's window (``codes``) and
        ``_window_kgrams`` sums the runs. A sliding call has c = size /
        step memberships per row: each character is sorted once, with its
        (cg, step slot) ``q`` and no group, and ``_slot_kgrams`` rolls the
        per-slot counts up to k = 3, 2, 1 and spreads them into the
        covering windows.
        """
        ccls, cbits = _char_classes(cp)
        kmax = _KMAX[self.profile]
        size, step = self.window_size_us or 0, self.step_us
        sliding = step is not None and step != size

        q = None
        if not sliding:
            def kgrams_in(k):
                return np.bincount(
                    codes, weights=np.maximum(lens_raw - k + 1, 0),
                    minlength=G)
            grp = np.repeat(codes, lens_raw)
        else:
            # ---- SLOT PRE-COMPRESSION (round-3 VERDICT #7): a window's
            # count of a k-gram is the sum of the k-gram's counts in the c
            # slots that cover the window (``_slot_kgrams``) ----
            c = size // step
            # ``_slot_kgrams`` runs in int32 when each position of its axes,
            # at most c per character or row, fits (bounded by c times the
            # characters plus ``_SENTINELS`` per row); a group over
            # _CHUNK_CHARS runs alone and can need int64
            n_pos = len(cp) + _SENTINELS * len(lens_raw)
            dt = np.int32 if c * n_pos <= _I32_MAX else np.int64
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
            wc = np.full(valid.shape, -1, dtype=dt)
            wc[valid] = np.searchsorted(
                ukey, np.broadcast_to(sq_cg[:, None], valid.shape)[valid]
                * K1 + np.searchsorted(ws_uniq, ws_cand[valid]))
            wc = wc.ravel()
            in_call = wc >= 0

            def kgrams_in(k):
                per_slot = np.bincount(
                    sq_codes, weights=np.maximum(lens_raw - k + 1, 0),
                    minlength=len(sq_uniq))
                return np.bincount(wc[in_call], weights=np.repeat(
                    per_slot, c)[in_call], minlength=G)
            grp = 0
            q = np.repeat(sq_codes, lens_raw)
        if len(cp) == 0:
            return kgrams_in, ()
        # distinct (group, c0..c3[, slot]) keys with their counts; every
        # k works on these
        hi, lo, q, ecnt = _distinct_keys(ccls, lens_raw, grp, cbits, kmax, q)
        if sliding:
            return kgrams_in, _slot_kgrams(
                hi, lo, q.astype(dt), ecnt.astype(dt), cbits, kmax,
                _slot_axis(sq_cg, sq_slot, c, dt), wc, c)
        return kgrams_in, _window_kgrams(hi, lo, ecnt, cbits, kmax)

    def _bigram_counts(self, cp: np.ndarray,
                       lens_raw: np.ndarray) -> np.ndarray:
        """Occurrences of the designated bigram (A9) in each turn: every
        one, overlapping ones included ("aa" occurs 3 times in "aaaa"),
        as the reference's sliding di-k-mer count; none crosses a turn
        boundary."""
        n_raw = len(lens_raw)
        if len(cp) < 2:
            return np.zeros(n_raw, dtype=np.int64)
        b0, b1 = (ord(ch) for ch in self.bigram)
        m = (cp[:-1] == b0) & (cp[1:] == b1)
        ends = np.cumsum(lens_raw) - 1
        ends = ends[(ends >= 0) & (ends < len(m))]
        m[ends] = False                      # cross-turn matches
        row_of_pos = np.repeat(np.arange(n_raw), lens_raw)[: len(m)]
        return np.bincount(row_of_pos[m], minlength=n_raw)

    def _finish(self, out: dict, G: int, n_kgrams=None, kgrams=(),
                bigrams=None, seq=None, spilled=False) -> pa.Table:
        """``out``'s G windows (window and role columns set) as a table
        with the text and CTW columns; ``table`` and ``finish`` end here.
        ``n_kgrams(k)``: each window's k-grams inside its turns, float64
        (None: no text columns). ``kgrams``: (k, window, count) of every
        k-gram, each window's in k-gram order; if ``spilled``, a window
        takes the k-grams its counts miss as one more symbol, added last.
        ``bigrams``: designated-bigram counts; ``seq``: ``_finish_ctw``'s
        arguments."""
        zeros = np.zeros(G, dtype=np.float64)
        for name in _TEXT_STATS + ("bigram_rate", "ctw_roles_bpb",
                                   "ctw_text_bpb"):
            out[name] = zeros
        if n_kgrams is None:
            out["n_chars"] = np.zeros(G, dtype=np.int64)
            return self._frame(out)
        out["n_chars"] = n_kgrams(1).astype(np.int64)
        for k, w, cnt in kgrams:
            denom = n_kgrams(k)
            if spilled:
                rest = denom - np.bincount(w, weights=cnt, minlength=G)
                more = np.flatnonzero(rest)
                w, cnt = np.r_[w, more], np.r_[cnt, rest[more]]
            denom[denom == 0] = 1.0
            out[_TEXT_STATS[k - 1]] = _segment_entropy(w, cnt, G, denom)
        if bigrams is not None:
            out["bigram_rate"] = bigrams / np.maximum(out["n_chars"], 1)
        if seq is not None:
            self._finish_ctw(out, G, *seq)
        return self._frame(out)

    def _finish_ctw(self, out, G, t, rows, ts_e, codes, role5_e):
        """The order-dependent columns: CTW of each window's roles and,
        with ``ctw_text``, of its text's character classes, each by one
        ``ctw_batch`` call over every window's symbols back to back, and
        the ``kgram_freqs`` vectors. A window's turns go in (ts, turn_uid
        | turn_idx, row) order, the stream engine's order; membership i
        is raw row ``rows[i]`` of ``t``, in window ``codes[i]``."""
        from .. import kernels as K

        uid_col = next((c for c in ("turn_uid", "turn_idx")
                        if c in t.column_names), None)
        uid_raw = (t[uid_col].to_numpy() if uid_col
                   else np.arange(t.num_rows))
        order = np.lexsort((uid_raw[rows], ts_e, codes))
        codes_s = codes[order]
        # window i's memberships are order[offsets[i]:offsets[i + 1]]
        offsets = np.r_[np.searchsorted(codes_s, np.arange(G)), len(order)]
        if self.ctw_depth >= 0:
            out["ctw_roles_bpb"] = K.ctw_batch(
                np.where(role5_e < 4, role5_e, 255)[order].astype(np.uint8),
                offsets, self.ctw_depth)
        # char-class CTW over ordered window text (opt-in; the reference's
        # per-character dominant cost, fw.rs:92 over the window sequence)
        if self.ctw_text:
            _, data, off = _utf8(t["text"].take(
                pa.array(rows[order], pa.int64())))
            out["ctw_text_bpb"] = K.ctw_batch(K._TEXT_CLASS_LUT[data],
                                              off[offsets], self.ctw_depth)

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

    def _need_seq(self) -> bool:
        """Whether a window's stats need its rows in order (CTW)."""
        return self.profile != "counts" and (
            self.ctw_depth >= 0 or self.ctw_text or self.kgram_freqs)

    def fold(self, sums: list[WindowSummary], t: pa.Table,
             win: np.ndarray) -> None:
        """Add the stream engine's log rows ``t`` (``ts``, ``turn_uid``,
        ``role``, ``text``, ``tool``), one per window membership and each
        window's in arrival order, to the summaries: row i to
        ``sums[win[i]]``. The k-gram keys of all rows come from one sort
        (``_distinct_keys``) and merge into the histograms by one grouped
        sum (``_merge_hist``, which cuts a histogram past ``KGRAM_CAP``
        keys)."""
        W = len(sums)
        ts = _int64_us(t["ts"])
        role5 = _role_codes(t)
        roles = np.bincount(win * 5 + role5, minlength=W * 5).reshape(W, 5)
        masked = np.bincount(win, weights=_tool_flags(t), minlength=W)
        last = np.full(W, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(last, win, ts)
        big = np.zeros(W)
        totals = np.zeros((W, 4))
        kmax = _KMAX[self.profile]
        if kmax:
            cp, lens = _text_codes(t["text"])
            if self.profile == "full":
                big = np.bincount(win, weights=self._bigram_counts(cp, lens),
                                  minlength=W)
            totals = np.stack([np.bincount(win, weights=np.maximum(
                lens - j, 0), minlength=W) for j in range(4)], axis=1)
            if len(cp):
                hi, lo, _, n = _distinct_keys(
                    _ascii_upper(cp).astype(np.int64) + 1, lens,
                    np.repeat(win, lens), _CP_BITS, kmax)
                _merge_hist(sums, hi, lo, n)
        for i, s in enumerate(sums):
            s.roles += roles[i]
            s.masked += int(masked[i])
            s.bigrams += int(big[i])
            s.totals += totals[i].astype(np.int64)
            s.last_ts = max(s.last_ts, int(last[i]))
        if self._need_seq():
            seq = pa.table({"ts": ts, "turn_uid": t["turn_uid"],
                            "role": role5.astype(np.int8),
                            **({"text": t["text"]} if self.ctw_text
                               else {})})
            order = np.argsort(win, kind="stable")
            cut = np.searchsorted(win[order], np.arange(W + 1))
            for i, s in enumerate(sums):
                mine = seq.take(order[cut[i]:cut[i + 1]])
                s.seq = mine if s.seq is None else pa.concat_tables(
                    [s.seq, mine])

    def finish(self, sums: list[WindowSummary], conv_id: list,
               start, end) -> pa.Table:
        """One stats row per summary: ``table``'s row on the summary's
        rows, for the windows (``conv_id``, ``start``) ending at ``end``
        (epoch us). The k-grams of every k come from the histograms by
        ``table``'s own ``_window_kgrams``; a spilled histogram takes the
        k-grams it cut as one more symbol per k."""
        G = len(sums)
        out: dict = {"conv_id": pa.array(conv_id, pa.string())}
        for name, v in (("window_start", start), ("window_end", end),
                        ("last_ts", [s.last_ts for s in sums])):
            out[name] = np.asarray(v, dtype=np.int64).astype("datetime64[us]")
        out.update(role_stats(np.stack([s.roles for s in sums]),
                              np.array([s.masked for s in sums], np.float64)))
        kmax = _KMAX[self.profile]
        if not kmax:
            return self._finish(out, G)
        totals = np.stack([s.totals for s in sums]).astype(np.float64)
        hi = np.concatenate([(g << _CP_BITS) | s.hist[0]
                             for g, s in enumerate(sums)])
        lo, cnt = (np.concatenate([s.hist[j] for s in sums]) for j in (1, 2))
        kgrams = _window_kgrams(hi, lo, cnt, _CP_BITS, kmax) if len(cnt) \
            else ()
        seq = None
        if self._need_seq():
            t = pa.concat_tables([s.seq for s in sums])
            seq = (t, np.arange(t.num_rows), t["ts"].to_numpy(),
                   np.repeat(np.arange(G), [s.seq.num_rows for s in sums]),
                   t["role"].to_numpy().astype(np.int64))
        return self._finish(
            out, G, lambda k: totals[:, k - 1].copy(), kgrams,
            np.array([s.bigrams for s in sums], np.float64)
            if self.profile == "full" else None, seq,
            any(s.spilled for s in sums))

    def _frame(self, out: dict) -> pa.Table:
        schema = self._schema(out["conv_id"].type)
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
