"""Pure (no-Ray) numerical kernels for per-window statistics.

Semantic ports of the reference math in tolkit/fasta_windows, re-expressed
for the transcript domain (role sequences and turn text instead of DNA).
Every kernel cites the reference file:line whose behaviour it reproduces;
none of this is a code translation — the reference is Rust over `&[u8]`,
these are numpy/python over Arrow-derived buffers.

Reference semantics reproduced here:
- 256-bin byte entropy with lowercase-acgtn folding   (seq_statsu8.rs:87-106)
- 6-bin "fast" entropy, masked variant                 (entropy.rs:12-74)
- Shannon diversity of a k-gram histogram (log2)       (kmeru8.rs:113-123)
- k-gram counting: case-fold, skip k-grams with 'N'    (kmeru8.rs:42-52)
- fixed k-gram vocabulary in lexicographic order       (kmer_maps.rs:30-36)
- GC/AT proportions & skews incl. NaN on 0/0           (seq_statsu8.rs:108-119)
- KT(0) / CTW bits-per-base with context flush         (kmeru8.rs:127-319)

The per-window kernels are the oracles of the batch kernels at the end of
this module, which compute every window of a block in one call.

Float discipline: accumulate entropies in f64, iterating classes in
ascending bin order (the reference iterates its arrays in index order;
its HashMap-ordered diversity sum is not order-deterministic, so matching
to ~1e-12 is the contract there).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

LN2 = math.log(2.0)

# ---------------------------------------------------------------------------
# Histograms and entropy
# ---------------------------------------------------------------------------

# Fold table: lowercase acgtn -> uppercase; every other byte is itself.
# Mirrors seq_statsu8.rs:92-100 (only acgtn are folded, NOT all lowercase).
_FOLD_ACGTN = np.arange(256, dtype=np.uint8)
for _lo, _up in zip(b"acgtn", b"ACGTN"):
    _FOLD_ACGTN[_lo] = _up

# 6-bin LUT: A=0 C=1 G=2 T=3 N=4 other=5, lowercase folded (entropy.rs:12-26).
_NUC_LUT = np.full(256, 5, dtype=np.uint8)
for _i, _ch in enumerate(b"ACGTN"):
    _NUC_LUT[_ch] = _i
    _NUC_LUT[_ch + 32] = _i  # lowercase

# Masked LUT: only uppercase ACGTN counted, everything else skipped
# (entropy.rs:29-38).
_MASKED_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(b"ACGTN"):
    _MASKED_LUT[_ch] = _i


def entropy_from_counts(counts: Sequence[int] | np.ndarray,
                        denom: float | None = None) -> float:
    """-sum p*log2(p) over positive counts, ascending index order.

    Shared kernel behind seq_statsu8.rs:102-105, kmeru8.rs:113-123 and
    entropy.rs:67-73. ``denom`` defaults to sum(counts); the 256-bin
    main-mode entropy passes the *window length* explicitly because its
    denominator is the full window even though every byte lands in a bin.
    """
    if isinstance(counts, (list, tuple)):
        # fast path for the stateful engine's small per-window lists
        # (no numpy round-trip); same ascending-index term order and
        # identical float ops as the array path below
        total = float(sum(counts)) if denom is None else float(denom)
        if total <= 0:
            return 0.0
        ent = 0.0
        for c in counts:
            if c > 0:
                p = c / total
                ent -= p * math.log2(p)
        return ent
    arr = np.asarray(counts, dtype=np.float64)
    total = float(arr.sum()) if denom is None else float(denom)
    if total <= 0:
        return 0.0
    ent = 0.0
    for c in arr[arr > 0]:
        p = c / total
        ent -= p * math.log2(p)
    return ent


def byte_histogram_256(data: bytes | np.ndarray) -> np.ndarray:
    """256-bin byte histogram with acgtn folded to ACGTN (seq_statsu8.rs:90-101)."""
    arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
    return np.bincount(_FOLD_ACGTN[arr], minlength=256)


def shannon_entropy_256(data: bytes | str) -> float:
    """Main-mode window entropy (seq_statsu8.rs:87-106).

    256 distinct byte classes (ambiguity codes stay distinct), lowercase
    acgtn folded to uppercase, denominator = window length. Ignores masking.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if len(data) == 0:
        return 0.0
    return entropy_from_counts(byte_histogram_256(data), denom=len(data))


def entropy_fast(data: bytes | str, masked: bool = False) -> float:
    """Entropy-mode 6-bin entropy (entropy.rs:49-74).

    Ambiguity codes collapse into the single "other" bin, so this differs
    from :func:`shannon_entropy_256` on windows containing them (the
    reference's two modes genuinely disagree there — FIXTURES.md F25).
    masked=True counts only uppercase ACGTN and divides by their count;
    zero countable symbols -> 0.0 (entropy.rs:63-66). Oracle of
    :func:`entropy_fast_batch`.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    arr = np.frombuffer(data, dtype=np.uint8)
    if masked:
        binned = _MASKED_LUT[arr]
        counts = np.bincount(binned[binned != 255], minlength=6)[:6]
    else:
        counts = np.bincount(_NUC_LUT[arr], minlength=6)
    return entropy_from_counts(counts)


def text_char_entropy(text: str, fold_case: bool = True) -> float:
    """Transcript-domain char entropy: 256-class byte entropy of ``text``.

    Graft analogue of shannon_entropy_256; ``fold_case=True`` upper-cases
    the whole string (the transcript generalisation of acgtn-folding —
    documented divergence: we fold ALL ascii lowercase, matching SQL
    ``upper()`` so the DuckDB oracle is expressible).
    """
    if fold_case:
        text = text.upper()
    b = text.encode("utf-8", "surrogatepass")
    if not b:
        return 0.0
    counts = np.bincount(np.frombuffer(b, dtype=np.uint8), minlength=256)
    return entropy_from_counts(counts, denom=len(b))


# ---------------------------------------------------------------------------
# k-gram counting and diversity
# ---------------------------------------------------------------------------

def gen_all_kgrams(alphabet: str = "ACGT", k: int = 2) -> list[str]:
    """All |alphabet|^k k-grams in lexicographic order (kmer_maps.rs:70-86)."""
    out = [""]
    for _ in range(k):
        out = [p + ch for p in out for ch in alphabet]
    return sorted(out)


def kgram_counts(text: str, k: int, skip_char: str | None = "N",
                 fold_case: bool = True) -> dict[str, int]:
    """Sliding (stride-1) k-gram counts within one string.

    Reference semantics (kmeru8.rs:42-52): upper-case each k-gram, skip any
    k-gram containing ``skip_char``. Returns only observed k-grams; combine
    with a vocabulary via :func:`dense_kgram_vector` for the fixed-order
    zero-filled output columns (kmer_maps.rs:30-36).
    """
    if fold_case:
        text = text.upper()
    n = len(text)
    out: dict[str, int] = {}
    for i in range(n - k + 1):
        kg = text[i:i + k]
        if skip_char is not None and skip_char in kg:
            continue
        out[kg] = out.get(kg, 0) + 1
    return out


def kgram_counts_vectorized(texts: Iterable[str], k: int,
                            fold_case: bool = True) -> dict[str, int]:
    """Merged k-gram counts across many strings, numpy-vectorized.

    K-grams never cross string (turn) boundaries. No skip-char (transcript
    profile); use :func:`kgram_counts` for the DNA-semantics path.
    """
    ranks_all: list[np.ndarray] = []
    for t in texts:
        if fold_case:
            t = t.upper()
        b = np.frombuffer(t.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        if len(b) < k:
            continue
        r = b[: len(b) - k + 1].astype(np.int64)
        for j in range(1, k):
            r = r * 256 + b[j: len(b) - k + 1 + j]
        ranks_all.append(r)
    if not ranks_all:
        return {}
    ranks = np.concatenate(ranks_all)
    uniq, cnt = np.unique(ranks, return_counts=True)
    out: dict[str, int] = {}
    for rank, c in zip(uniq.tolist(), cnt.tolist()):
        chars = bytes((rank >> (8 * (k - 1 - j))) & 0xFF for j in range(k))
        out[chars.decode("utf-8", "replace")] = int(c)
    return out


def shannon_diversity(counts: Iterable[int]) -> float:
    """-sum p*log2(p), p = count/sum, zero counts filtered (kmeru8.rs:113-123).

    (The reference comment says natural log; the code is log2 — we follow
    the code.) Reference sums in HashMap order (non-deterministic); we sum
    ascending-key, deterministic, equal to ~1e-12.
    """
    return entropy_from_counts(np.asarray(list(counts), dtype=np.int64))


def dense_kgram_vector(counts: Mapping[str, int], vocab: Sequence[str]) -> np.ndarray:
    """Fixed-order int32 vector over ``vocab`` (absent k-grams -> 0).

    Mirrors the pre-seeded KmerMap -> sorted-by-key value vector
    (kmer_maps.rs:30-36, kmeru8.rs:60-62). Out-of-vocab observed k-grams are
    NOT included (they still count toward diversity, as in the reference,
    where or_insert adds them to the map feeding shannon_diversity).
    """
    return np.asarray([counts.get(kg, 0) for kg in vocab], dtype=np.int32)


def kgram_diversity_dna(text: str) -> dict:
    """Full kmeru8.rs:32-110 equivalent: k in {2,3,4} over one window string.

    Returns diversity per k plus the dense lexicographic frequency vectors
    over the ACGT vocabulary (16/64/256 long). Diversity includes observed
    out-of-vocab (non-N ambiguity) k-grams, as the reference does.
    Oracle of :func:`kgram_diversity_batch`.
    """
    out: dict = {}
    for k, name in ((2, "di"), (3, "tri"), (4, "tetra")):
        counts = kgram_counts(text, k, skip_char="N")
        ordered = [counts[key] for key in sorted(counts)]
        out[f"{name}_diversity"] = shannon_diversity(ordered)
        out[f"{name}_freq"] = dense_kgram_vector(counts, gen_all_kgrams("ACGT", k))
    return out


def specific_kgram_rate(texts: Iterable[str], pattern: str,
                        total_chars: int) -> float:
    """Occurrence rate of one designated k-gram: count / window length.

    CpG-proportion analogue: di_freq["CG"] / window_len (fw.rs:120 — note
    the denominator is the window length, not the k-gram total).
    ``pattern`` must not be self-overlapping for str.count to equal the
    sliding count (true for "CG" and for our default '"k').
    """
    if total_chars <= 0:
        return 0.0
    c = sum(t.count(pattern) for t in texts)
    return c / float(total_chars)


# ---------------------------------------------------------------------------
# Proportions and skews (role-histogram stats)
# ---------------------------------------------------------------------------

def seq_stats_dna(text: str, masked: bool = False) -> dict:
    """Full seq_statsu8.rs:34-122 equivalent over a DNA-like string.

    Oracle of :func:`seq_stats_batch` (the FASTA job's production path)
    and used by the conformance fixtures; the transcript profile uses
    :func:`role_stats` over a role histogram instead.
    """
    b = np.frombuffer(text.encode(), dtype=np.uint8)
    counts = np.bincount(b, minlength=256)
    length = float(len(b))

    def c(ch: str) -> int:
        return int(counts[ord(ch)])

    if masked:
        g, cc, a, t, n = c("G"), c("C"), c("A"), c("T"), c("N")
        masked_counts = 0
        w, s = c("W"), c("S")
    else:
        g, cc = c("G") + c("g"), c("C") + c("c")
        a, t = c("A") + c("a"), c("T") + c("t")
        n = c("N") + c("n")
        masked_counts = sum(c(ch) for ch in "acgtmrwsykvhbdn")
        w = c("W") + c("w")
        s = c("S") + c("s")

    def ratio32(num: int, den: int) -> float:
        # f32 division incl. 0/0 -> NaN (seq_statsu8.rs:110-111)
        if den == 0:
            return float("nan") if num == 0 else float(np.float32(num) * np.inf)
        return float(np.float32(num) / np.float32(den))

    return {
        "gc_proportion": ratio32(g + cc + s, g + cc + s + a + t + w),
        "gc_skew": ratio32(g - cc, g + cc),
        "at_skew": ratio32(a - t, a + t),
        "shannon_entropy": shannon_entropy_256(text),
        "nuc_counts": [a, cc, g, t, n],
        "g_s": float(np.float32(g) / np.float32(length)) if length else float("nan"),
        "c_s": float(np.float32(cc) / np.float32(length)) if length else float("nan"),
        "a_s": float(np.float32(a) / np.float32(length)) if length else float("nan"),
        "t_s": float(np.float32(t) / np.float32(length)) if length else float("nan"),
        "n_s": float(np.float32(n) / np.float32(length)) if length else float("nan"),
        "masked": float(np.float32(masked_counts) / np.float32(length)) if length else float("nan"),
        "len": length,
    }


ROLES = ("user", "assistant", "system", "tool", "other")
# Fixed role alphabet mapping (FIXTURES.md): A→user C→assistant G→system
# T→tool N→other.
ROLE_TO_SYM = {"user": 0, "assistant": 1, "system": 2, "tool": 3}


def role_stats(role_counts: Mapping[str, int], n_masked: int = 0) -> dict:
    """Transcript analogue of seq_stats over the window's role histogram.

    GC-proportion analogue: (system+assistant)/(core 4 roles);
    skews with 0/0 -> NaN preserved (seq_statsu8.rs:108-119).
    Computed in f64 (our engine's documented divergence from the
    reference's f32 output columns; Parquet stores full doubles).
    """
    a = int(role_counts.get("user", 0))
    c = int(role_counts.get("assistant", 0))
    g = int(role_counts.get("system", 0))
    t = int(role_counts.get("tool", 0))
    n = int(role_counts.get("other", 0))
    length = a + c + g + t + n

    def ratio(num: float, den: float) -> float:
        return num / den if den != 0 else (float("nan") if num == 0 else math.copysign(math.inf, num))

    return {
        "n_turns": length,
        "n_user": a, "n_assistant": c, "n_system": g, "n_tool": t, "n_other": n,
        "sys_asst_share": ratio(g + c, g + c + a + t),
        "sys_asst_skew": ratio(g - c, g + c),
        "user_tool_skew": ratio(a - t, a + t),
        "role_entropy": entropy_from_counts(
            np.asarray([a, c, g, t, n], dtype=np.int64)),
        "masked_share": ratio(n_masked, length),
    }


# ---------------------------------------------------------------------------
# KT(0) and Context-Tree Weighting
# ---------------------------------------------------------------------------

DNA_SYM = {ord(ch): i for i, ch in enumerate("ACGT")}
DNA_SYM.update({ord(ch): i for i, ch in enumerate("acgt")})


def _map_symbols(seq, symbol_map) -> list[int | None]:
    if isinstance(seq, str):
        return [symbol_map.get(ord(ch)) for ch in seq]
    if isinstance(seq, (bytes, bytearray)):
        return [symbol_map.get(b) for b in seq]
    return [symbol_map.get(s) if not isinstance(s, int) else s for s in seq]


def kt0_bits_per_base(seq, symbol_map=DNA_SYM, m: int = 4) -> float:
    """Zero-order Krichevsky–Trofimov code length, bits/symbol.

    Exact semantics of kmeru8.rs:127-159: sequential predictive factors
    (c_s + 1/2)/(N + m/2), unmapped symbols skipped, n_eff==0 -> 0.0.
    """
    counts = [0] * m
    n_eff = 0
    sum_log2 = 0.0
    for sym in _map_symbols(seq, symbol_map):
        if sym is None:
            continue
        n = float(sum(counts))
        sum_log2 += math.log((counts[sym] + 0.5) / (n + m / 2.0)) / LN2
        counts[sym] += 1
        n_eff += 1
    if n_eff == 0:
        return 0.0
    return -sum_log2 / n_eff


class _CTWNode:
    __slots__ = ("counts", "total", "log_p_kt", "log_w", "children")

    def __init__(self, m: int):
        self.counts = [0] * m
        self.total = 0
        self.log_p_kt = 0.0
        self.log_w = 0.0
        self.children: list[_CTWNode | None] = [None] * m


def _log2_sum_weighted(a: float, b: float, beta: float) -> float:
    # log2(beta*2^a + (1-beta)*2^b), guarded like kmeru8.rs:195-212
    if a == -math.inf and b == -math.inf:
        return -math.inf
    mx = max(a, b)
    ta = 0.0 if (a - mx) < -50.0 else beta * 2.0 ** (a - mx)
    tb = 0.0 if (b - mx) < -50.0 else (1.0 - beta) * 2.0 ** (b - mx)
    return mx + math.log(ta + tb) / LN2


def ctw_bits_per_base(seq, max_depth: int = 6, symbol_map=DNA_SYM,
                      m: int = 4, beta: float = 0.5) -> float:
    """Context-Tree Weighting compressibility, bits per effective symbol.

    Semantic port of kmeru8.rs:170-319: KT estimator with 1/2 pseudo-counts,
    beta=0.5 mixture, leaf rule log_w = log_p_kt, unmapped symbols are
    skipped AND flush the context (kmeru8.rs:296-299), most-recent-first
    context, depth 0 falls back to exact KT(0), n_eff==0 -> 0.0.

    Iterative path update equivalent to the reference's recursion: per
    symbol, walk root->leaf along the current context, then update leaf
    first and unwind upward (KT update with pre-increment counts, children
    log-product, beta mixture). Oracle of :func:`ctw_batch`.
    """
    if max_depth == 0:
        return kt0_bits_per_base(seq, symbol_map, m)

    root = _CTWNode(m)
    ctx: list[int] = []  # most recent first
    total_delta = 0.0
    n_eff = 0

    for sym in _map_symbols(seq, symbol_map):
        if sym is None:
            ctx.clear()
            continue
        before = root.log_w

        # walk down the context path, creating nodes as needed
        path = [root]
        node = root
        for a in ctx:
            child = node.children[a]
            if child is None:
                child = _CTWNode(m)
                node.children[a] = child
            path.append(child)
            node = child

        # update deepest-first (the recursion's unwind order)
        for depth_i in range(len(path) - 1, -1, -1):
            nd = path[depth_i]
            num = nd.counts[sym] + 0.5
            den = nd.total + m / 2.0
            nd.log_p_kt += math.log(num / den) / LN2
            nd.counts[sym] += 1
            nd.total += 1
            if depth_i == len(path) - 1:  # leaf of current context
                nd.log_w = nd.log_p_kt
            else:
                s_children = 0.0
                for ch in nd.children:
                    if ch is not None:
                        s_children += ch.log_w
                nd.log_w = _log2_sum_weighted(nd.log_p_kt, s_children, beta)

        total_delta += root.log_w - before
        n_eff += 1
        if len(ctx) == max_depth:
            ctx.pop()
        ctx.insert(0, sym)

    if n_eff == 0:
        return 0.0
    return -total_delta / n_eff


def ctw_roles(roles: Sequence[str], max_depth: int = 6) -> float:
    """CTW over a window's role sequence; role 'other' (N analogue) and
    unknown roles are skipped and flush the context."""
    syms = [ROLE_TO_SYM.get(r) for r in roles]
    return ctw_bits_per_base(syms, max_depth=max_depth,
                             symbol_map={i: i for i in range(4)}, m=4)


# char-class CTW: the reference's CTW runs over the window's full byte
# sequence (fw.rs:92 on the window seq); the transcript analogue maps each
# text byte to a 4-class alphabet (alpha/digit/space/other) and codes the
# window's concatenated class stream. m=4, beta=0.5, same node math.
_TEXT_CLASS_LUT = np.full(256, 3, dtype=np.uint8)     # other
_TEXT_CLASS_LUT[list(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")] = 0
_TEXT_CLASS_LUT[list(b"0123456789")] = 1                # digit
_TEXT_CLASS_LUT[list(b" \t\n\r")] = 2                   # whitespace


def text_class_symbols(text: str) -> bytes:
    """4-class symbol bytes for a text (alpha/digit/space/other)."""
    return _TEXT_CLASS_LUT[np.frombuffer(
        text.encode("utf-8", "surrogatepass"), dtype=np.uint8)].tobytes()


def ctw_text_classes(texts, max_depth: int = 6) -> float:
    """CTW bits/char over the concatenated 4-class stream of ``texts``
    (ordered). Empty input -> 0.0."""
    syms: list[int] = []
    for t in texts:
        syms.extend(text_class_symbols(t))
    return ctw_bits_per_base(syms, max_depth=max_depth,
                             symbol_map={i: i for i in range(4)}, m=4)


# ---------------------------------------------------------------------------
# Batch kernels: every window of a block in one call
# ---------------------------------------------------------------------------
#
# A batch kernel takes the windows of a block back to back as one uint8
# array ``buf`` plus ``offsets`` (window i is ``buf[offsets[i]:offsets[i+1]]``)
# and returns one value (or row) per window. They are the production path of
# ``pipelines.fasta_compat`` and of the CTW columns of
# ``stages.window_stats``; the per-window kernels above are their oracles.
# Work runs in chunks of whole windows so transient arrays stay bounded
# for windows up to ``_CHUNK_SYMS`` symbols.

_CHUNK_SYMS = 1 << 15
_CHUNK_WINDOWS = 1024

# DNA_SYM as a byte table: ACGT/acgt -> 0..3, every other byte -> 255
DNA_CODES = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(b"ACGT"):
    DNA_CODES[_ch] = DNA_CODES[_ch + 32] = _i

# str.upper() on ASCII bytes (kgram_counts folds the whole window)
_ASCII_UPPER = np.arange(256, dtype=np.uint8)
_ASCII_UPPER[97:123] -= 32


def _window_chunks(offsets: np.ndarray):
    """(w0, w1) runs of whole windows, each at most ``_CHUNK_WINDOWS``
    windows and ``_CHUNK_SYMS`` symbols. A window longer than that goes
    alone, so above 32k symbols a kernel's transient memory grows linearly
    with the window (see :func:`ctw_batch`)."""
    n_win = len(offsets) - 1
    w0 = 0
    while w0 < n_win:
        w1 = int(np.searchsorted(offsets, offsets[w0] + _CHUNK_SYMS,
                                 side="right")) - 1
        w1 = min(max(w1, w0 + 1), w0 + _CHUNK_WINDOWS, n_win)
        yield w0, w1
        w0 = w1


def _chunked(kernel, buf: np.ndarray, offsets, *args):
    """Run ``kernel(buf_chunk, local_offsets, *args)`` chunk by chunk and
    concatenate its per-window outputs (arrays, or dicts of arrays)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    buf = np.asarray(buf, dtype=np.uint8)
    parts = [kernel(buf[offsets[w0]:offsets[w1]],
                    offsets[w0:w1 + 1] - offsets[w0], *args)
             for w0, w1 in _window_chunks(offsets)]
    if not parts:
        return kernel(buf[:0], np.zeros(1, dtype=np.int64), *args)
    if isinstance(parts[0], dict):
        return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    return np.concatenate(parts)


def _window_ids(offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                     np.diff(offsets))


def _log2(x: np.ndarray) -> np.ndarray:
    """``math.log2`` elementwise, evaluated once per distinct value: the
    scalar kernels' libm call, so entropy terms are bit-equal to theirs."""
    uniq, inv = np.unique(x, return_inverse=True)
    return np.fromiter(map(math.log2, uniq.tolist()), dtype=np.float64,
                       count=len(uniq))[inv]


def _grouped_entropy(group: np.ndarray, counts: np.ndarray,
                     denom: np.ndarray, n_groups: int) -> np.ndarray:
    """-sum p*log2(p), p = count/denom[group], over positive counts given
    group-major in ascending class order. ``bincount`` adds in input
    order from 0.0, which is :func:`entropy_from_counts`' loop exactly."""
    if len(counts) == 0:
        return np.zeros(n_groups, dtype=np.float64)
    p = counts / denom[group]
    return np.bincount(group, weights=-p * _log2(p), minlength=n_groups)


def ratio_f32(num, den) -> np.ndarray:
    """f32 division as f64 values, 0/0 -> NaN, x/0 -> +-inf
    (seq_statsu8.rs:110-111; :func:`seq_stats_dna`'s ``ratio32``)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.asarray(num).astype(np.float32)
                / np.asarray(den).astype(np.float32)).astype(np.float64)


def _seq_stats_chunk(buf, offsets, masked):
    n_win = len(offsets) - 1
    lens = np.diff(offsets)
    wid = _window_ids(offsets)
    hist = np.bincount(wid * 256 + buf,
                       minlength=n_win * 256).reshape(n_win, 256)

    def c(chars: bytes) -> np.ndarray:
        return hist[:, list(chars)].sum(axis=1)

    if masked:
        g, cc, a, t, n = c(b"G"), c(b"C"), c(b"A"), c(b"T"), c(b"N")
        masked_counts = np.zeros(n_win, dtype=np.int64)
        w, s = c(b"W"), c(b"S")
    else:
        g, cc, a, t, n = c(b"Gg"), c(b"Cc"), c(b"Aa"), c(b"Tt"), c(b"Nn")
        masked_counts = c(b"acgtmrwsykvhbdn")
        w, s = c(b"Ww"), c(b"Ss")
    folded = np.bincount(wid * 256 + _FOLD_ACGTN[buf],
                         minlength=n_win * 256).reshape(n_win, 256)
    row, col = np.nonzero(folded)
    return {
        "gc_proportion": ratio_f32(g + cc + s, g + cc + s + a + t + w),
        "gc_skew": ratio_f32(g - cc, g + cc),
        "at_skew": ratio_f32(a - t, a + t),
        "shannon_entropy": _grouped_entropy(
            row, folded[row, col], lens.astype(np.float64), n_win),
        "nuc_counts": np.stack([a, cc, g, t, n], axis=1),
        "g_s": ratio_f32(g, lens), "c_s": ratio_f32(cc, lens),
        "a_s": ratio_f32(a, lens), "t_s": ratio_f32(t, lens),
        "n_s": ratio_f32(n, lens),
        "masked": ratio_f32(masked_counts, lens),
        "len": lens,
    }


def seq_stats_batch(buf: np.ndarray, offsets, masked: bool = False) -> dict:
    """:func:`seq_stats_dna` for every window of ``buf`` at once: a dict of
    per-window arrays with the same keys (``nuc_counts`` is (W, 5))."""
    return _chunked(_seq_stats_chunk, buf, offsets, masked)


def _kgram_chunk(buf, offsets):
    n_win = len(offsets) - 1
    wid = _window_ids(offsets)
    up = _ASCII_UPPER[buf]
    is_n = up == ord("N")
    code = DNA_CODES[up]
    n = len(up)
    out = {}
    for k, name in ((2, "di"), (3, "tri"), (4, "tetra")):
        m = max(n - k + 1, 0)
        key = up[:m].astype(np.int64)
        vocab = code[:m].astype(np.int64)
        ok = wid[:m] == wid[k - 1:k - 1 + m]
        in_vocab = code[:m] < 4
        ok &= ~is_n[:m]
        for j in range(1, k):
            key = (key << 8) | up[j:j + m]
            vocab = vocab * 4 + code[j:j + m]
            ok &= ~is_n[j:j + m]
            in_vocab &= code[j:j + m] < 4
        # distinct k-grams per window, ascending byte order == sorted(str)
        uk, cnt = np.unique((wid[:m][ok] << 32) | key[ok], return_counts=True)
        kw = uk >> 32
        total = np.bincount(kw, weights=cnt, minlength=n_win)
        out[f"{name}_diversity"] = _grouped_entropy(kw, cnt, total, n_win)
        sel = ok & in_vocab
        out[f"{name}_freq"] = np.bincount(
            wid[:m][sel] * 4 ** k + vocab[sel],
            minlength=n_win * 4 ** k).reshape(n_win, 4 ** k)
    return out


def kgram_diversity_batch(buf: np.ndarray, offsets) -> dict:
    """:func:`kgram_diversity_dna` for every window at once: the same keys,
    each ``*_freq`` a (W, 4^k) int64 array. Same semantics: case fold,
    k-grams containing N skipped, out-of-vocabulary k-grams counted toward
    diversity but not in the frequency vectors."""
    return _chunked(_kgram_chunk, buf, offsets)


def _entropy_fast_chunk(buf, offsets, masked):
    n_win = len(offsets) - 1
    wid = _window_ids(offsets)
    if masked:
        bins = _MASKED_LUT[buf]
        keep = bins != 255
        wid, bins = wid[keep], bins[keep]
    else:
        bins = _NUC_LUT[buf]
    hist = np.bincount(wid * 6 + bins, minlength=n_win * 6).reshape(n_win, 6)
    row, col = np.nonzero(hist)
    return _grouped_entropy(row, hist[row, col],
                            hist.sum(axis=1).astype(np.float64), n_win)


def entropy_fast_batch(buf: np.ndarray, offsets,
                       masked: bool = False) -> np.ndarray:
    """:func:`entropy_fast` for every window at once."""
    return _chunked(_entropy_fast_chunk, buf, offsets, masked)


def _kt_tables(n: int):
    """KT(0) prefix tables for m = 4 over counts 0..n:
    ``num[c] = sum_{i<c} log2(i + 1/2)``, ``den[k] = sum_{j<k} log2(j + 2)``."""
    num = np.fromiter((math.log(i + 0.5) / LN2 for i in range(n)),
                      dtype=np.float64, count=n)
    den = np.fromiter((math.log(j + 2.0) / LN2 for j in range(n)),
                      dtype=np.float64, count=n)
    return (np.concatenate([[0.0], np.cumsum(num)]),
            np.concatenate([[0.0], np.cumsum(den)]))


_CTW_BETA = 0.5   # the reference's fixed CTW mixture weight (kmeru8.rs)
# widest (key, position) pair ``_ctw_chunk`` packs into one int64 and sorts
# by value; wider pairs (over about 2^30 symbols in one chunk) take lexsort
_CTW_PACK_BITS = 63


def _log2_mix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # _log2_sum_weighted elementwise at beta = 0.5 (kmeru8.rs:195-212)
    mx = np.maximum(a, b)
    ta = np.where(a - mx < -50.0, 0.0, _CTW_BETA * np.exp2(a - mx))
    tb = np.where(b - mx < -50.0, 0.0, (1.0 - _CTW_BETA) * np.exp2(b - mx))
    return mx + np.log(ta + tb) / LN2


def _ctw_chunk(sym, offsets, max_depth, kt):
    n_win = len(offsets) - 1
    lens = np.diff(offsets)
    wid = _window_ids(offsets)
    mapped = sym < 4
    n_eff = np.bincount(wid[mapped], minlength=n_win)
    out = np.zeros(n_win, dtype=np.float64)
    if not mapped.any():
        return out
    # context length per symbol: mapped symbols since the window start or
    # the last flush, capped at max_depth. A negative max_depth is no cap,
    # as in the scalar kernel, whose ``len(ctx) == max_depth`` never holds.
    pos = np.arange(len(sym), dtype=np.int64)
    brk = np.zeros(len(sym), dtype=bool)
    brk[offsets[:-1][lens > 0]] = True
    brk[1:] |= ~mapped[:-1]
    ctx_len = pos - np.maximum.accumulate(np.where(brk, pos, 0))
    del pos, brk
    if max_depth >= 0:
        np.minimum(ctx_len, max_depth, out=ctx_len)
    kt_num, kt_den = kt
    # The events of a level (symbol positions ``p``) are ordered by node
    # key, and in time order within a node, so a node's events are one run
    # and its last visit is the run's last event. Level 0 is time order,
    # which groups events by window already. A depth-d key is the parent's
    # rank times 4 plus the symbol d steps back; ranks are dense, so keys
    # stay below 4x the symbol count at any depth.
    pb = max(len(sym) - 1, 1).bit_length()
    p = np.flatnonzero(mapped)
    key = wid[p]
    levels = []
    d = 0
    while True:
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        visits = np.diff(np.append(starts, len(key)))
        rank = np.cumsum(first) - 1
        counts = np.bincount(rank * 4 + sym[p],
                             minlength=4 * len(starts)).reshape(-1, 4)
        kt = (kt_num[counts[:, 0]] + kt_num[counts[:, 1]]
              + kt_num[counts[:, 2]] + kt_num[counts[:, 3]] - kt_den[visits])
        # A leaf's log_w is its KT value whatever lies below it, so its
        # events stop here. A node visited once is a leaf too: its KT value
        # is -1 + 0 + 0 + 0 - 1 = -2.0, and so is every node below it, and
        # _log2_mix(-2.0, -2.0) is exactly -2.0.
        leaf = (ctx_len[p[starts + visits - 1]] == d) | (visits == 1)
        levels.append((key[starts], kt, leaf))
        go = ~leaf[rank]
        go &= ctx_len[p] > d
        p = p[go]
        if not len(p):
            break
        d += 1
        key = rank[go] * 4 + sym[p - d]
        if (4 * len(starts)).bit_length() + pb > _CTW_PACK_BITS:
            order = np.lexsort((p, key))
            key, p = key[order], p[order]
        else:
            packed = np.left_shift(key, pb)
            packed |= p
            packed.sort()
            key = packed >> pb
            p = packed & ((1 << pb) - 1)
    log_w = levels[-1][1]     # deepest level: every node is a leaf
    for d in range(len(levels) - 2, -1, -1):
        _, kt, leaf = levels[d]
        # a child's key // 4 is its parent's rank; bincount adds children
        # in ascending key, so in ascending symbol, as the scalar loop adds
        kids = np.bincount(levels[d + 1][0] >> 2, weights=log_w,
                           minlength=len(kt))
        log_w = kt.copy()
        inner = ~leaf
        log_w[inner] = _log2_mix(kt[inner], kids[inner])
    roots = levels[0][0]
    out[roots] = -log_w / n_eff[roots]
    return out


def ctw_batch(sym: np.ndarray, offsets, max_depth: int = 6) -> np.ndarray:
    """:func:`ctw_bits_per_base` (m = 4, beta = 0.5) for every window at once.

    ``sym`` holds symbols 0..3; any other value is skipped and flushes the
    context (map DNA bytes with ``DNA_CODES``). ``max_depth`` takes the
    scalar kernel's values: 0 is KT(0), a negative depth is unbounded.
    Time grows with the number of symbols times the depth of the deepest
    context seen at least twice (capped at ``max_depth``), never with the
    4^depth tree. Windows are processed in chunks of up to
    ``_CHUNK_SYMS`` symbols, but a longer window is one chunk, and its
    transient arrays take about 77 bytes per symbol: peak RSS rose by
    77 MB for one 1 Mb window and 154 MB for a 2 Mb window (depth 6),
    so expect about 0.8 GB for a 10 Mb window (``-w 10000000``).

    Closed form. The scalar kernel returns ``-total_delta / n_eff`` where
    ``total_delta`` sums the root's per-symbol change of ``log_w``; the sum
    telescopes, so it is the root's final ``log_w`` (the closed forms of
    ``tests/test_ctw_oracle.py`` rest on the same identity). A node's final
    ``log_w`` is fixed by two things only:

    - its final symbol counts: the KT code length is a product of
      sequential factors (c_s + 1/2)/(N + 2) whose value does not depend
      on the order of the symbols, so
      ``log_p_kt = sum_s sum_{i<c_s} log2(i + 1/2) - sum_{j<N} log2(j + 2)``
      (kmeru8.rs:127-159), read from prefix tables;
    - how its last visit ended. If the context path stopped at the node
      (it was the leaf, because fewer than ``max_depth`` symbols had been
      seen since the window start or the last flush, kmeru8.rs:296-299; or
      it is at ``max_depth``), ``log_w = log_p_kt`` and older children are
      ignored. Otherwise ``log_w`` is the beta mixture of ``log_p_kt`` and
      the sum of its children's ``log_w``. Every visit of a child also
      visits its parent, so the children are final by then too.

    The kernel walks the tree top-down one depth at a time. A level's
    events (one per symbol whose context reaches that depth) are kept
    ordered by node, and in time order within a node, so a node's events
    are one run: its symbols are counted with ``bincount`` and its last
    visit is the run's last event. The next level comes from one
    ``np.sort`` of (child key, position) pairs packed into int64, or a
    ``np.lexsort`` when a pair needs more than 63 bits (level 0, the
    windows, needs no sort: time order groups it already). A leaf's
    subtree is never read, so its events leave the loop; a node visited
    once is a leaf too, since its ``log_w`` is exactly -2.0 whatever lies
    below it. Then the tree is folded bottom-up one depth at a time.
    Values equal the scalar kernel's to ~1e-14 (summation order);
    ``tests/test_ctw_batch.py`` holds them to 1e-12 and pins their bits.
    """
    # one pair of KT tables for the call, sized for its longest window; a
    # shorter table is a prefix of a longer one (sequential cumsums)
    offsets = np.asarray(offsets, dtype=np.int64)
    kt = _kt_tables(int(np.diff(offsets).max(initial=0)))
    return _chunked(_ctw_chunk, sym, offsets, max_depth, kt)


def reverse_complement(seq: str) -> str:
    """DNA reverse complement utility (kmeru8.rs:321-344): A<->T, C<->G,
    anything else -> N, then reverse. Not reachable from the reference CLI
    (canonical k-mers hard-disabled at fw.rs:36-39); ported as a utility
    for inventory completeness (SURVEY.md K5)."""
    comp = {"A": "T", "C": "G", "T": "A", "G": "C", "N": "N"}
    return "".join(comp.get(ch, "N") for ch in reversed(seq))
