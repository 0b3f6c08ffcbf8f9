"""Stateful streaming window engine — the north-star core.

One ``StreamEngine`` owns a hash partition of conv_ids and keeps:

- a **row log** for open tumbling and sliding windows in final mode: the
  accepted rows, as one Arrow table. Each ``process_rows``/``flush``
  call finalizes every window that became due in that call from its
  rows, with the batch kernel (``BucketWindowStats.table``, CTW by
  ``ctw_batch``), cut into whole-window chunks of about ``_CHUNK_CHARS``
  characters; a row leaves the log once its newest covering window is
  due. Stream and batch share one stats implementation, so their rows
  are equal bit for bit;
- a **watermark** = max event ts seen in the partition − allowed
  lateness (derived from data, never wall clock). A row is late iff its
  ts is below the watermark set by the rows before it; late rows are
  dropped and counted, and exact ``(turn_uid, ts)`` replays are dropped
  as duplicates (``seen_uids``, pruned below the watermark);
- **per-window accumulators** (``_WindowAcc``: role/char/k-gram
  histograms, with ``_BoundedKgrams`` past ``KGRAM_CAP`` distinct
  k-grams) for the windows the log does not hold: sessions, count
  windows, updates mode and early firing, ``custom_aggs``, and a log
  window whose buffered rows plus characters pass ``KGRAM_CAP`` (it is
  promoted: its rows fold into an accumulator, which bounds its memory,
  and ``Metrics.windows_promoted`` counts it). Accumulator windows wait
  on a min-heap of window ends;
- **checkpoint/resume**: ``snapshot()``/``restore()`` round-trip the whole
  state (row log, accumulators, watermark, dedup sets, metrics).

In final mode no accepted row falls into a window that is already due,
so draining once per call emits exactly what draining after every row
would, and the output does not depend on how the input is split into
calls.

Emission does NOT buffer: ``process_rows``/``flush`` RETURN the emitted
rows and the engine retains no emitted history (a long-running partition
actor's heap stays flat; callers collect the returns, see
state/runner.py).

Partitioning contract: one ``StreamEngine`` instance owns a hash
partition of conv_ids; rows must arrive partition-ordered by event-log
order (bounded disorder allowed up to ``lateness_us``).
"""

from __future__ import annotations

import heapq
import math
import pickle
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import kernels as K
from ..stages.window_stats import (_CHUNK_CHARS, STATS_COLUMNS,
                                   BucketWindowStats, _group_chunks)
from ..windows import sliding_starts_expand, tumbling_start

ROLE_IDX = {"user": 0, "assistant": 1, "system": 2, "tool": 3, "other": 4}

# ASCII-only case fold — length-preserving, matching the vectorized
# path's _ascii_upper and the documented engine-wide folding definition
# (str.upper() can change length, e.g. 'ß' -> 'SS', and would desync
# n_chars from the char-offset corpus)
_ASCII_UP = str.maketrans("abcdefghijklmnopqrstuvwxyz",
                          "ABCDEFGHIJKLMNOPQRSTUVWXYZ")

# distinct-k-gram cap before a window's histogram spills to the bounded
# sketch (count-min + Misra-Gries); spills are surfaced via
# Metrics.kgram_spills so approximate windows are attributable. A window
# of the row log whose buffered rows plus UTF-8 text bytes pass the same
# cap moves to an accumulator (Metrics.windows_promoted)
KGRAM_CAP = 65_536


@lru_cache(maxsize=1 << 16)
def _ctw_roles_lru(roles: tuple, depth: int) -> float:
    return K.ctw_roles(roles, depth)


def _ctw_roles_cached(roles: tuple, depth: int) -> float:
    """Memoized CTW over a role tuple. Windows are sparse (a few turns
    each), so the same short role sequences recur constantly — caching
    the pure function removes the dominant finalize cost (profiled 16%
    of engine wall). Deterministic: same sequence -> same bits. Long
    sequences bypass the cache (unbounded tuple keys would defeat the
    lru's memory bound)."""
    if len(roles) <= 32:
        return _ctw_roles_lru(roles, depth)
    return K.ctw_roles(roles, depth)


def _text_stats(text: str, up: str, bigram: str):
    """Per-text histograms, computed ONCE per row.

    Returns (n_chars, char_counts, (kg2, kg3, kg4), bigram_count).
    Char histogram keyed by CODEPOINT (not UTF-8 byte): keeps the
    denominator (chars) and the classes consistent on multibyte text,
    matching the vectorized path and the SQL oracle's substr-per-character
    semantics (round-1 ADVICE). Pure-ASCII strings iterate the encoded
    bytes (same values, faster). Counter counts in C; merged counts are
    bit-identical to per-occurrence increments.
    """
    cc = Counter(up.encode() if up.isascii() else map(ord, up))
    kgs = []
    for k in (2, 3, 4):
        n = len(up) - k + 1
        kgs.append(Counter([up[i:i + k] for i in range(n)]) if n > 0
                   else {})
    return len(up), cc, kgs, text.count(bigram)


def _merge_counts(dst: dict, src) -> None:
    """dst[g] += c for every (g, c) in src; C-speed copy when dst empty."""
    if dst:
        get = dst.get
        for g, c in src.items():
            dst[g] = get(g, 0) + c
    else:
        dst.update(src)


@dataclass
class WindowConfig:
    kind: str = "tumbling"              # tumbling | sliding | session | count
    size_us: int = 6 * 3600 * 1_000_000
    step_us: int | None = None          # sliding only; size % step == 0
    gap_us: int = 30 * 60 * 1_000_000   # session only
    count_turns: int = 0                # count only: turns per window
    offset_us: int = 0
    lateness_us: int = 0                # allowed out-of-orderness
    bigram: str = '"k'
    ctw_depth: int = 6
    profile: str = "full"
    custom_aggs: tuple = ()             # functions.registry names
    ctw_text: bool = False              # char-class CTW over window text
    # emission mode: "final" emits each window ONCE when the watermark
    # passes its end and drops anything later; "updates" (Flink-style
    # allowed lateness) RETAINS the emitted window's accumulator for
    # ``retention_us`` past its end — a late row inside retention is
    # folded in and the window RE-EMITS immediately with ``revision``
    # incremented (revision 0 = on-time pane). Downstream the
    # exactly-once sink keyed by (conv_id, window_start) upserts, so
    # the latest revision wins (state/runner.latest_revision resolves
    # replayed output). tumbling/sliding only.
    emit: str = "final"                 # final | updates
    retention_us: int = 0               # updates mode: keep state this long
    # early firing (Beam/Flink accumulating trigger): in updates mode,
    # an OPEN window also emits a speculative pane every N arrivals —
    # same revision stream as late updates (the watermark pane and any
    # late panes just keep incrementing), so latest_revision resolves
    # exactly the same way. 0 = watermark-only emission.
    early_fire_every: int = 0

    def starts_for(self, ts: int):
        """Covering window starts for an event at ``ts`` — pure int math
        (Python ``//`` floors like the vectorized numpy path)."""
        if self.kind == "tumbling":
            return ((ts - self.offset_us) // self.size_us * self.size_us
                    + self.offset_us,)
        if self.kind == "sliding":
            step = self.step_us
            off = self.offset_us
            top = (ts - off) // step * step + off
            return [s for s in range(top, top - self.size_us, -step)
                    if s >= off]
        raise ValueError(self.kind)


class _BoundedKgrams:
    """Spilled k-gram histogram with BOUNDED memory (north_rule's
    count-min k-gram sketch): a count-min sketch (depth x width int64,
    linear: supports evict) plus a Misra-Gries heavy-hitter table.
    Created only when a window exceeds ``KGRAM_CAP`` distinct k-grams —
    below the cap the accumulator keeps an exact plain dict
    (bit-identical stats, the path every oracle-gated window takes).
    Diversity on a spilled histogram is approximate (heavy hitters + one
    aggregated tail term, a lower bound) and surfaced via
    Metrics.kgram_spills.
    """

    __slots__ = ("cms", "hh", "total", "cap", "depth", "width")

    def __init__(self, exact: dict, cap: int = KGRAM_CAP, depth: int = 4,
                 width: int = 1 << 15):
        self.total = sum(exact.values())
        self.cap = cap
        self.depth = depth
        self.width = width
        cms = np.zeros((depth, width), dtype=np.int64)
        for g, c in exact.items():
            for d, r in enumerate(self._rows(g)):
                cms[d, r] += c
        # seed heavy hitters with the current top cap//16 keys
        self.cms = cms
        self.hh = dict(sorted(exact.items(),
                              key=lambda kv: -kv[1])[:cap // 16])

    def _rows(self, g) -> list[int]:
        import zlib
        b = g.encode()
        return [zlib.crc32(b, 0x9E3779B9 * (d + 1) & 0xFFFFFFFF)
                % self.width for d in range(self.depth)]

    def add(self, g, c: int = 1):
        self.total += c
        for d, r in enumerate(self._rows(g)):
            self.cms[d, r] += c
        hh = self.hh
        if g in hh:
            hh[g] += c
        elif len(hh) < self.cap // 16:
            hh[g] = c
        else:                           # Misra-Gries decrement step
            dead = [k for k in hh if hh[k] <= c]
            for k in dead:
                del hh[k]
            if dead:
                hh[g] = c

    def evict(self, g, c: int = 1):
        self.total -= c
        for d, r in enumerate(self._rows(g)):
            self.cms[d, r] -= c         # CMS is linear: exact decrement
        if g in self.hh:
            self.hh[g] -= c
            if self.hh[g] <= 0:
                del self.hh[g]

    def entropy(self) -> float:
        # approximate: heavy hitters exact-ish, tail mass as one symbol
        n = self.total
        if n <= 0:
            return 0.0
        hh_counts = [c for c in self.hh.values() if c > 0]
        rest = n - sum(hh_counts)
        counts = hh_counts + ([rest] if rest > 0 else [])
        return K.entropy_from_counts(sorted(counts))


class _WindowAcc:
    """Rolling accumulation for one open (conv_id, window_start)."""

    __slots__ = ("role_counts", "masked", "char_counts", "kg", "kg_spill",
                 "big_cnt", "n_chars", "turns", "texts", "custom", "_nt",
                 "_ts_counts")

    def __init__(self):
        self.role_counts = [0] * 5
        self.masked = 0
        self.char_counts: dict[int, int] = {}
        self.kg: list = [{}, {}, {}]    # exact k-gram dicts (k=2,3,4)
        self.kg_spill: dict | None = None   # {k_index: _BoundedKgrams}
        self.big_cnt = 0
        self.n_chars = 0
        # (ts, turn_uid, role) kept ONLY when an order-dependent stat
        # (CTW) needs the sequence; otherwise a ts->count dict so evict
        # stays an exact inverse (last_ts included — round-2 ADVICE) while
        # a huge window's accumulator holds ints only (round-1 VERDICT #9)
        self.turns: list[tuple] | None = []
        self.texts: dict = {}           # (ts, turn_uid) -> text (ctw_text only)
        self.custom: dict | None = None # custom-aggregate states (lazy)
        self._nt = 0
        self._ts_counts: dict | None = None

    @staticmethod
    def _need_seq(cfg: WindowConfig) -> bool:
        return (cfg.ctw_depth >= 0 and cfg.profile in ("full", "fast")) \
            or cfg.ctw_text

    def add(self, ts: int, turn_uid, role: str, text: str, tool: str,
            cfg: WindowConfig, stats=None):
        self.role_counts[ROLE_IDX.get(role, 4)] += 1
        if tool:
            self.masked += 1
        self._nt += 1
        if self._need_seq(cfg):
            self.turns.append((ts, turn_uid, role))
        else:
            self.turns = None           # ints-only state: ts -> count
            tc = self._ts_counts
            if tc is None:
                tc = self._ts_counts = {}
            tc[ts] = tc.get(ts, 0) + 1
        if cfg.ctw_text:
            self.texts[(ts, turn_uid)] = text
        if cfg.custom_aggs:
            from ..functions import registry
            if self.custom is None:
                self.custom = {n: registry.get(n).init()
                               for n in cfg.custom_aggs}
            row = {"ts": ts, "turn_uid": turn_uid, "role": role,
                   "text": text, "tool": tool}
            for n in cfg.custom_aggs:
                registry.get(n).add(self.custom[n], row)
        if cfg.profile == "counts":
            return
        if stats is None:
            up = text.translate(_ASCII_UP)
            stats = _text_stats(text, up, cfg.bigram)
        n_chars, cc, kgs, big = stats
        self.n_chars += n_chars
        _merge_counts(self.char_counts, cc)
        spill = self.kg_spill
        for j in (0, 1, 2):
            src = kgs[j]
            if not src:
                continue
            d = self.kg[j]
            if d is None:               # already spilled for this k
                bk = spill[j]
                for g, c in src.items():
                    bk.add(g, c)
                continue
            _merge_counts(d, src)
            if len(d) > KGRAM_CAP:
                if spill is None:
                    spill = self.kg_spill = {}
                spill[j] = _BoundedKgrams(d)
                self.kg[j] = None
        self.big_cnt += big

    def evict(self, ts: int, turn_uid, role: str, text: str, tool: str,
              cfg: WindowConfig):
        """Inverse of add — used by the rolling sliding-window path and by
        exact-dedup replays. Histograms are integer, so add+evict is
        bit-identical to never having added (F19/F22 gates)."""
        self.role_counts[ROLE_IDX.get(role, 4)] -= 1
        if tool:
            self.masked -= 1
        self._nt -= 1
        if self.turns is not None:
            self.turns.remove((ts, turn_uid, role))
        elif self._ts_counts is not None:
            self._ts_counts[ts] -= 1
            if self._ts_counts[ts] == 0:
                del self._ts_counts[ts]
        if cfg.ctw_text:
            self.texts.pop((ts, turn_uid), None)
        if cfg.custom_aggs and self.custom is not None:
            from ..functions import registry
            row = {"ts": ts, "turn_uid": turn_uid, "role": role,
                   "text": text, "tool": tool}
            for n in cfg.custom_aggs:
                registry.get(n).evict(self.custom[n], row)
        if cfg.profile == "counts":
            return
        up = text.translate(_ASCII_UP)
        n_chars, cc, kgs, big = _text_stats(text, up, cfg.bigram)
        self.n_chars -= n_chars
        for b, c in cc.items():
            self.char_counts[b] -= c
            if self.char_counts[b] == 0:
                del self.char_counts[b]
        for j in (0, 1, 2):
            src = kgs[j]
            if not src:
                continue
            d = self.kg[j]
            if d is None:
                bk = self.kg_spill[j]
                for g, c in src.items():
                    bk.evict(g, c)
                continue
            for g, c in src.items():
                d[g] -= c
                if d[g] == 0:
                    del d[g]
        self.big_cnt -= big

    def finalize(self, conv_id: str, start_us: int, end_us: int,
                 cfg: WindowConfig) -> dict:
        """Emit the window's stats row. Timestamps are emitted as int64
        epoch-microseconds; ``emitted_to_frame`` converts to
        datetime64[us] in one vectorized pass (per-row np.datetime64
        construction profiled as a finalize hot spot)."""
        rc = self.role_counts
        n_turns = sum(rc)
        a, c, g, t = rc[0], rc[1], rc[2], rc[3]

        def ratio(num, den):
            return num / den if den else (math.nan if num == 0
                                          else math.copysign(math.inf, num))

        if self.turns is not None:
            turns = sorted(self.turns)
            last = turns[-1][0] if turns else start_us
        else:
            turns = []
            last = (max(self._ts_counts) if self._ts_counts else start_us)
        row = {
            "conv_id": conv_id,
            "window_start": start_us,
            "window_end": end_us,
            "last_ts": last,
            "n_turns": n_turns,
            "n_user": a, "n_assistant": c, "n_system": g, "n_tool": t,
            "n_other": rc[4],
            "sys_asst_share": ratio(g + c, g + c + a + t),
            "sys_asst_skew": ratio(g - c, g + c),
            "user_tool_skew": ratio(a - t, a + t),
            "masked_share": ratio(self.masked, n_turns),
            "role_entropy": K.entropy_from_counts(rc),
            "n_chars": self.n_chars,
        }
        denom = self.n_chars if self.n_chars else 1
        # ascending-bin iteration matches the vectorized batch path
        cc = self.char_counts
        row["char_entropy"] = K.entropy_from_counts(
            [cc[b] for b in sorted(cc)], denom=self.n_chars) if cc else 0.0
        for j, name in ((0, "bigram_diversity"), (1, "trigram_diversity"),
                        (2, "quadgram_diversity")):
            d = self.kg[j]
            if d is None:
                row[name] = self.kg_spill[j].entropy()
            elif d:
                row[name] = K.entropy_from_counts([d[g] for g in sorted(d)])
            else:
                row[name] = 0.0
        row["bigram_rate"] = self.big_cnt / denom
        row["ctw_roles_bpb"] = (_ctw_roles_cached(
            tuple(r for _, _, r in turns), cfg.ctw_depth)
            if cfg.profile in ("full", "fast") else 0.0)
        row["ctw_text_bpb"] = (K.ctw_text_classes(
            [self.texts[(t0, t1)] for t0, t1, _ in turns], cfg.ctw_depth)
            if cfg.ctw_text else 0.0)
        if cfg.custom_aggs:
            from ..functions import registry
            for n in cfg.custom_aggs:
                row[n] = (registry.get(n).emit(self.custom[n])
                          if self.custom is not None
                          else registry.get(n).emit(registry.get(n).init()))
        return row


@dataclass
class Metrics:
    rows_in: int = 0
    late_dropped: int = 0
    dup_dropped: int = 0
    windows_emitted: int = 0
    sessions_emitted: int = 0
    kgram_spills: int = 0     # windows emitted with a spilled (approx) histogram
    late_updates: int = 0     # updates mode: re-emissions caused by late rows
    windows_expired: int = 0  # updates mode: retained windows GC'd at retention
    early_panes: int = 0      # speculative panes fired before the watermark
    windows_promoted: int = 0  # log windows moved to an accumulator

    def as_dict(self) -> dict:
        return dict(self.__dict__)


# the row log: accepted rows of open log windows, in arrival order;
# turn_uid is the engine's uid (turn_uid, else turn_idx, else row number)
_LOG_SCHEMA = pa.schema([("conv_id", pa.string()), ("ts", pa.int64()),
                         ("turn_uid", pa.int64()), ("role", pa.string()),
                         ("text", pa.large_string()), ("tool", pa.string())])


def _str_array(values: np.ndarray, typ: pa.DataType) -> pa.Array:
    """``values`` as Arrow strings of type ``typ``, None/NaN as null;
    other objects by ``str``, as the per-row path converts them."""
    try:
        arr = pa.array(values, from_pandas=True)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        arr = pa.array([None if v is None or v != v else str(v)
                        for v in values], typ)
    return arr if arr.type == typ else arr.cast(typ)


def _text_bytes(t: pa.Table) -> np.ndarray:
    """UTF-8 text bytes per row of a log table (null text: 0)."""
    return pc.fill_null(pc.binary_length(t["text"]), 0).to_numpy() \
        .astype(np.int64)


def _row_values(t: pa.Table):
    """(ts, uid, role, text, tool) per row of a log table, with the
    engine's null conventions, as ``_WindowAcc.add`` takes them."""
    return zip(t["ts"].to_pylist(), t["turn_uid"].to_pylist(),
               pc.fill_null(t["role"], "user").to_pylist(),
               pc.fill_null(t["text"], "").to_pylist(),
               pc.fill_null(t["tool"], "").to_pylist())


def _emitted_rows(t: pa.Table) -> list[dict]:
    """Kernel output as emitted rows: timestamps as int64 epoch-us, and
    NaN where the kernel wrote a 0/0 ratio as null."""
    cols = []
    for f in t.schema:
        col = t[f.name]
        if pa.types.is_timestamp(f.type):
            col = col.cast(pa.int64())
        elif pa.types.is_floating(f.type):
            col = pc.fill_null(col, math.nan)
        cols.append(col.to_pylist())
    names = t.column_names
    return [dict(zip(names, v)) for v in zip(*cols)]


def _emit_order(row: dict) -> tuple:
    """Emission order of the window heap: (end, conv_id, start)."""
    return row["window_end"], row["conv_id"], row["window_start"]


class StreamEngine:
    """State machine for one partition (a hash range of conv_ids).

    ``process_rows``/``flush`` RETURN emitted rows; the engine keeps no
    emitted history (long-running actors stay flat — callers collect)."""

    def __init__(self, cfg: WindowConfig, partition_id: int = 0):
        if cfg.emit not in ("final", "updates"):
            raise ValueError(f"emit={cfg.emit!r} (final | updates)")
        if cfg.emit == "updates" and cfg.kind in ("session", "count"):
            raise ValueError("updates mode requires tumbling/sliding "
                             "windows (sessions/count windows have no "
                             "fixed event-time end to retain against)")
        if cfg.kind == "count" and cfg.count_turns < 1:
            raise ValueError("count windows need count_turns >= 1")
        if cfg.early_fire_every and cfg.emit != "updates":
            raise ValueError("early_fire_every needs emit='updates' "
                             "(speculative panes are revisions)")
        self.cfg = cfg
        self.partition_id = partition_id
        self.watermark = -(1 << 62)
        self.max_ts = -(1 << 62)
        # open tumbling/sliding windows: (conv_id, start) -> _WindowAcc
        self.open: dict[tuple, _WindowAcc] = {}
        self.heap: list[tuple] = []      # (window_end, conv_id, start)
        # session state: conv_id -> (first_ts, last_ts, n_turns)
        self.sessions: dict[str, list] = {}
        # count-window state: conv_id -> [chunks_emitted, acc, rows_in_acc]
        self.count_bufs: dict[str, list] = {}
        self.seen_uids: dict[str, set] = {}   # exact dedup of (conv, turn_uid)
        # per-conv amortized prune trigger for seen_uids (see _prune_seen)
        self._seen_prune_at: dict[str, int] = {}
        # updates mode: per-window revision counters + retention GC heap
        self.revisions: dict[tuple, int] = {}
        self.ret_heap: list[tuple] = []  # (end + retention_us, conv, start)
        # early firing: arrivals since the window's last speculative pane
        self._since_fire: dict[tuple, int] = {}
        self.metrics = Metrics()
        self._drains = 0      # throttles the O(#convs) GC scans in _drain
        # final-mode tumbling/sliding windows without custom aggregates
        # live in the row log; ``open`` then holds promoted windows only
        self._log_mode = (cfg.kind in ("tumbling", "sliding")
                         and cfg.emit == "final" and not cfg.custom_aggs)
        self.log = _LOG_SCHEMA.empty_table()
        # (conv_id, start) -> buffered rows + text bytes of a log window
        self._log_cost: dict[tuple, int] = {}
        self._stats = BucketWindowStats(profile=cfg.profile,
                                        ctw_depth=cfg.ctw_depth,
                                        bigram=cfg.bigram,
                                        ctw_text=cfg.ctw_text)

    def _prune_seen(self, conv: str, seen: set) -> set:
        """Bound dedup state: a duplicate with ts < watermark would be
        late-dropped before the dedup check, so entries older than the
        watermark can NEVER match again — dropping them is always exact.
        Amortized O(1)/insert: a conv's set is rescanned only once it
        doubles past its post-prune size (a genuinely hot conv with many
        live uids inside lateness just raises its own threshold).
        Updates mode accepts a row iff SOME covering window is still
        live (s + size_us + retention_us > watermark); the largest
        covering start is <= ts, so acceptance implies
        ts > watermark - size_us - retention_us — the prune threshold
        must back off by BOTH terms (retention alone pruned entries of
        still-acceptable rows, letting a replayed duplicate double-
        count into a live window's next revision). Count windows accept
        ANY ts (arrival-order semantics), so pruning is never exact
        there — keep everything; a conv's dedup set is then bounded by
        its true turn count, not the corpus."""
        if self.cfg.kind == "count":
            self._seen_prune_at[conv] = max(1024, 2 * len(seen))
            return seen
        wm = self.watermark
        if self.cfg.emit == "updates":
            wm -= self.cfg.size_us + self.cfg.retention_us
        kept = {e for e in seen if e[1] >= wm}
        self.seen_uids[conv] = kept
        self._seen_prune_at[conv] = max(1024, 2 * len(kept))
        return kept

    # -- ingest -------------------------------------------------------------

    def process_rows(self, rows: pd.DataFrame) -> list[dict]:
        """Feed a batch of rows (any column order; requires conv_id, ts;
        turn_uid/role/text/tool optional). Returns rows emitted by the
        watermark advancing past window ends."""
        cfg = self.cfg
        cols = rows.columns
        ts_arr = rows["ts"].to_numpy()
        if ts_arr.dtype != "M8[us]":
            ts_arr = rows["ts"].astype("datetime64[us]").to_numpy()
        ts_arr = ts_arr.view(np.int64)
        if "turn_uid" in cols:
            uid_arr = rows["turn_uid"].to_numpy()
        elif "turn_idx" in cols:
            uid_arr = rows["turn_idx"].to_numpy()
        else:
            uid_arr = np.arange(len(rows))
        if self._log_mode:
            return self._process_log(rows, ts_arr,
                                     np.asarray(uid_arr, dtype=np.int64))
        get = {c: rows[c].to_numpy() for c in
               ("conv_id", "role", "text", "tool") if c in cols}
        want_stats = cfg.profile != "counts"
        updates = cfg.emit == "updates"
        # count windows are arrival-order semantics (Flink countWindow):
        # event-time lateness does not apply
        is_count = cfg.kind == "count"
        out: list[dict] = []
        for i in range(len(rows)):
            ts = int(ts_arr[i])
            self.metrics.rows_in += 1
            late = ts < self.watermark and not is_count
            late_starts = None
            if late:
                if not updates:
                    self.metrics.late_dropped += 1
                    continue
                # live covering windows only; fully-expired rows drop
                # BEFORE the dedup insert so seen_uids never grows on
                # dead rows
                late_starts = [s for s in cfg.starts_for(ts)
                               if s + cfg.size_us + cfg.retention_us
                               > self.watermark]
                if not late_starts:
                    self.metrics.late_dropped += 1
                    continue
            conv = str(get["conv_id"][i])
            uid = uid_arr[i]
            seen = self.seen_uids.setdefault(conv, set())
            key_uid = (int(uid), ts)
            if key_uid in seen:
                self.metrics.dup_dropped += 1
                continue
            seen.add(key_uid)
            if len(seen) >= self._seen_prune_at.get(conv, 1024):
                seen = self._prune_seen(conv, seen)
            # nulls normalize to "" (str(None) would count 4 chars of
            # "None" and make tool truthy — engine-wide null convention,
            # shared with the salted/vectorized paths and the SQL
            # oracles' coalesce semantics)
            role = get["role"][i] if "role" in get else "user"
            role = "user" if role is None or role != role else str(role)
            text = get["text"][i] if "text" in get else ""
            text = "" if text is None or text != text else str(text)
            tool = get["tool"][i] if "tool" in get else ""
            tool = "" if tool is None or tool != tool else str(tool)
            # per-row text histograms computed ONCE, merged into every
            # covering window (bit-identical counts; see module docstring)
            if want_stats:
                up = text.translate(_ASCII_UP)
                stats = _text_stats(text, up, cfg.bigram)
            else:
                stats = None

            if cfg.kind == "session":
                self._ingest_session(conv, ts, int(uid), role, text, tool,
                                     out, stats)
            elif is_count:
                self._ingest_count(conv, ts, int(uid), role, text, tool,
                                   out, stats)
            elif not late:
                for s in cfg.starts_for(ts):
                    key = (conv, s)
                    acc = self.open.get(key)
                    if acc is None:
                        acc = self.open[key] = _WindowAcc()
                        heapq.heappush(self.heap,
                                       (s + cfg.size_us, conv, s))
                    acc.add(ts, int(uid), role, text, tool, cfg, stats)
                    if cfg.early_fire_every:
                        n = self._since_fire.get(key, 0) + 1
                        if n >= cfg.early_fire_every \
                                and s + cfg.size_us > self.watermark:
                            # speculative pane for a still-open window
                            out.append(self._finalize_row(
                                conv, s, s + cfg.size_us, acc, pane=True))
                            n = 0
                        self._since_fire[key] = n
            else:
                # updates mode, late-but-retained row: fold into every
                # live covering window; windows already past the
                # watermark RE-EMIT immediately with revision += 1
                for s in late_starts:
                    key = (conv, s)
                    end = s + cfg.size_us
                    acc = self.open.get(key)
                    if acc is None:
                        acc = self.open[key] = _WindowAcc()
                        if end > self.watermark:
                            # covering window not yet due: normal path
                            heapq.heappush(self.heap, (end, conv, s))
                        else:
                            # opened BY a late row: schedule retention GC
                            heapq.heappush(
                                self.ret_heap,
                                (end + cfg.retention_us, conv, s))
                    acc.add(ts, int(uid), role, text, tool, cfg, stats)
                    if end <= self.watermark:
                        out.append(self._finalize_row(conv, s, end, acc))
                        self.metrics.late_updates += 1

            if ts > self.max_ts:
                self.max_ts = ts
                self.watermark = ts - cfg.lateness_us
                self._drain(out)
        return out

    # -- row log (final-mode tumbling/sliding) -------------------------------

    def _process_log(self, rows: pd.DataFrame, ts: np.ndarray,
                     uid: np.ndarray) -> list[dict]:
        """``process_rows`` for log windows. Each row is judged late or
        duplicate against the watermark of the rows before it, as one
        row at a time would be; the accepted rows go to the log in one
        append, and one drain emits every window due at the call's end."""
        cfg, m = self.cfg, self.metrics
        n = len(ts)
        m.rows_in += n
        wm0 = self.watermark
        run = np.maximum.accumulate(np.r_[np.int64(self.max_ts), ts])[:-1]
        wm_row = np.maximum(run - cfg.lateness_us, wm0)
        keep = ts >= wm_row
        idx = np.flatnonzero(keep)
        m.late_dropped += n - len(idx)
        convs: list[str] = []
        seen_uids, prune_at = self.seen_uids, self._seen_prune_at
        for i, c, key, w in zip(idx.tolist(), rows["conv_id"].to_numpy()[idx],
                                zip(uid[idx].tolist(), ts[idx].tolist()),
                                wm_row[idx].tolist()):
            conv = str(c)
            seen = seen_uids.setdefault(conv, set())
            if key in seen:
                keep[i] = False
                continue
            seen.add(key)
            if len(seen) >= prune_at.get(conv, 1024):
                self.watermark = w          # the watermark this row saw
                self._prune_seen(conv, seen)
            convs.append(conv)
        self.watermark = wm0
        m.dup_dropped += len(idx) - len(convs)
        if n and int(ts.max()) > self.max_ts:
            self.max_ts = int(ts.max())
            self.watermark = self.max_ts - cfg.lateness_us
        if convs:
            sel = np.flatnonzero(keep)
            cols = rows.columns
            self._append(pa.table({
                "conv_id": pa.array(convs, pa.string()),
                "ts": pa.array(ts[sel]), "turn_uid": pa.array(uid[sel]),
                **{c: (_str_array(rows[c].to_numpy()[sel], typ) if c in cols
                       else pa.nulls(len(sel), typ))
                   for c, typ in (("role", pa.string()),
                                  ("text", pa.large_string()),
                                  ("tool", pa.string()))}},
                schema=_LOG_SCHEMA), wm0)
        out: list[dict] = []
        self._drain_log(out, wm0, self.watermark)
        self._drain(out)
        out.sort(key=_emit_order)
        return out

    def _memberships(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, window start) of every window covering each of ``ts``,
        in row order."""
        cfg = self.cfg
        if cfg.kind == "tumbling":
            return (np.arange(len(ts)),
                    tumbling_start(ts, cfg.size_us, cfg.offset_us))
        return sliding_starts_expand(ts, cfg.size_us, cfg.step_us,
                                     cfg.offset_us)

    def _windows_of(self, t: pa.Table):
        """``_memberships`` of a log table's rows, plus each membership's
        conv_id."""
        r, s = self._memberships(t["ts"].to_numpy())
        return r, s, np.asarray(t["conv_id"].to_pylist(), dtype=object)[r]

    def _add_costs(self, conv, starts, cost) -> tuple[list, set]:
        """Add each membership's cost to its log window's buffered cost.
        Returns the memberships of promoted windows (positions) and the
        windows now past ``KGRAM_CAP``."""
        book, accs = self._log_cost, self.open
        to_acc, over = [], set()
        for j, key, c in zip(range(len(starts)), zip(conv, starts.tolist()),
                             cost.tolist()):
            if key in accs:
                to_acc.append(j)
                continue
            c += book.get(key, 0)
            book[key] = c
            if c > KGRAM_CAP:
                over.add(key)
        return to_acc, over

    def _append(self, new: pa.Table, wm0: int) -> None:
        """Log the accepted rows ``new``; a window whose buffered cost
        passes ``KGRAM_CAP`` is promoted to an accumulator, and rows of
        promoted windows go to theirs."""
        r, s, conv = self._windows_of(new)
        to_acc, over = self._add_costs(conv, s, (1 + _text_bytes(new))[r])
        if to_acc:
            # a row whose every window is promoted stays out of the log
            live = np.ones(len(r), dtype=bool)
            live[to_acc] = False
            self.log = pa.concat_tables([self.log, new.filter(
                np.bincount(r[live], minlength=new.num_rows) > 0)])
            vals = list(_row_values(new))
            for j in to_acc:
                self.open[(conv[j], int(s[j]))].add(*vals[r[j]], self.cfg)
        else:
            self.log = pa.concat_tables([self.log, new])
        if over:
            self._promote(sorted(over), wm0)

    def _promote(self, keys: list, wm0: int) -> None:
        """Fold the log rows of each window in ``keys`` into a new
        accumulator, in arrival order, and drop the log rows whose
        unemitted windows are all promoted."""
        cfg, log = self.cfg, self.log
        r, s, conv = self._windows_of(log)
        for key in keys:
            acc = _WindowAcc()
            mine = r[(conv == key[0]) & (s == key[1])]
            for v in _row_values(log.take(mine)):
                acc.add(*v, cfg)
            self.open[key] = acc
            heapq.heappush(self.heap, (key[1] + cfg.size_us, *key))
            del self._log_cost[key]
            self.metrics.windows_promoted += 1
        live = np.fromiter((k not in self.open for k in zip(conv, s.tolist())),
                           dtype=bool, count=len(r))
        live &= s + cfg.size_us > wm0
        self.log = log.filter(np.bincount(r[live], minlength=log.num_rows) > 0)

    def _drain_log(self, out: list[dict], lo: int, hi: int) -> None:
        """Emit every log window with ``lo < window_end <= hi``, in
        whole-window chunks of about ``_CHUNK_CHARS`` per kernel call, and
        drop the rows whose newest window is among them."""
        cfg, log = self.cfg, self.log
        if not log.num_rows:
            return
        size, off = cfg.size_us, cfg.offset_us
        step = cfg.step_us if cfg.kind == "sliding" else size
        # window ends lie on the grid off + size + k * step
        if (lo - off - size) // step * step + step + off + size > hi:
            return
        ts = log["ts"].to_numpy()
        r, s = self._memberships(ts)
        due = (s + size > lo) & (s + size <= hi)
        if self.open:
            conv = log["conv_id"].to_pylist()
            due &= np.fromiter(((conv[i], w) not in self.open for i, w
                                in zip(r.tolist(), s.tolist())),
                               dtype=bool, count=len(r))
        r, s = r[due], s[due]
        if len(r):
            codes = log["conv_id"].combine_chunks().dictionary_encode() \
                .indices.to_numpy().astype(np.int64)[r]
            order = np.lexsort((s, codes))
            r, s, codes = r[order], s[order], codes[order]
            t = log.take(r).append_column("window_start", pa.array(s)) \
                .append_column("window_end", pa.array(s + size))
            first = np.r_[True, (codes[1:] != codes[:-1]) | (s[1:] != s[:-1])]
            for a, b in _group_chunks(np.cumsum(first), 1 + _text_bytes(t),
                                      _CHUNK_CHARS):
                rows = _emitted_rows(self._stats.table(t.slice(a, b - a)))
                self.metrics.windows_emitted += len(rows)
                out.extend(rows)
            w = np.flatnonzero(first)
            for key in zip(t["conv_id"].take(w).to_pylist(), s[w].tolist()):
                self._log_cost.pop(key, None)
        newest = tumbling_start(ts, step, off) + size
        if (newest <= hi).any():
            self.log = log.filter(newest > hi).combine_chunks()

    def _ingest_session(self, conv: str, ts: int, uid: int, role: str,
                        text: str, tool: str, out: list[dict], stats=None):
        """Gap sessions close EAGERLY on the first gap-exceeding arrival
        and fold any non-late arrival into the currently-open session —
        correct iff rows arrive per-conv ts-ordered, which is the
        session contract (same as ``_ingest_count``; the Dataset replay
        path sorts by (ts, turn_uid), and the batch twin
        ``windows.session_ids`` defines the semantics over sorted ts).
        An out-of-order-but-in-lateness row would join the WRONG session
        here (the open one, even across a backward gap) — watermark-
        deferred session close would need per-row buffering until
        last_ts + gap passes the watermark, a different memory contract;
        disordered streams should route through the sorted replay or the
        batch session paths (stages/sessions.py, stages/salted.py)."""
        st = self.sessions.get(conv)
        if st is not None and ts - st[1] > self.cfg.gap_us:
            out.append(self._session_row(conv, st))
            st = None
        if st is None:
            st = self.sessions[conv] = [ts, ts, _WindowAcc()]
        st[0] = min(st[0], ts)
        st[1] = max(st[1], ts)
        st[2].add(ts, uid, role, text, tool, self.cfg, stats)

    def _ingest_count(self, conv: str, ts: int, uid: int, role: str,
                      text: str, tool: str, out: list[dict], stats=None):
        """Count windows (reference analogue: fw.rs:83
        ``seq.chunks(window_size)`` over turn position; Flink
        countWindow): every ``count_turns`` arrivals per conv emit one
        window immediately — no watermark involved. Rows must arrive in
        the intended order per conv (the Dataset replay path sorts by
        (ts, turn_uid); see turn_window_counts for the vectorized twin)."""
        st = self.count_bufs.get(conv)
        if st is None:
            st = self.count_bufs[conv] = [0, _WindowAcc(), 0]
        st[1].add(ts, uid, role, text, tool, self.cfg, stats)
        st[2] += 1
        if st[2] >= self.cfg.count_turns:
            out.append(self._count_row(conv, st))
            st[0] += 1
            st[1] = _WindowAcc()
            st[2] = 0

    def _count_row(self, conv: str, st: list) -> dict:
        """Positional window bounds: win_end clamps to the true turn
        count for the trailing partial (the reference's issues #8/#9
        end-clamp, re-expressed over turn offsets)."""
        if st[1].kg_spill is not None:
            self.metrics.kgram_spills += 1
        row = st[1].finalize(conv, 0, 0, self.cfg)
        start = st[0] * self.cfg.count_turns
        row["win_start"] = start
        row["win_end"] = start + st[2]
        del row["window_start"], row["window_end"], row["last_ts"]
        self.metrics.windows_emitted += 1
        return row

    def _session_row(self, conv: str, st: list) -> dict:
        """Full stats over the session's turns; session bounds are the
        observed first/last ts (gap-based windows have no fixed size)."""
        self.metrics.sessions_emitted += 1
        if st[2].kg_spill is not None:
            self.metrics.kgram_spills += 1
        row = st[2].finalize(conv, st[0], st[1], self.cfg)
        row["session_start"] = row.pop("window_start")
        row["session_end"] = row.pop("window_end")
        del row["last_ts"]
        return row

    def _finalize_row(self, conv: str, s: int, end: int,
                      acc: _WindowAcc, pane: bool = False) -> dict:
        """Shared emission: finalize (non-destructive) + metrics; in
        updates mode stamps the per-window ``revision`` (0 = first pane).
        ``pane=True`` marks a speculative early fire (counted separately
        from windows_emitted)."""
        if acc.kg_spill is not None:
            self.metrics.kgram_spills += 1
        row = acc.finalize(conv, s, end, self.cfg)
        if pane:
            self.metrics.early_panes += 1
        else:
            self.metrics.windows_emitted += 1
        if self.cfg.emit == "updates":
            rev = self.revisions.get((conv, s), -1) + 1
            # track the counter whenever this window can emit again
            # (retention or early firing); at retention 0 without early
            # fire, don't accumulate dead keys
            if self.cfg.retention_us > 0 or self.cfg.early_fire_every:
                self.revisions[(conv, s)] = rev
            row["revision"] = rev
        return row

    def _drain(self, out: list[dict]):
        cfg = self.cfg
        retain = cfg.emit == "updates" and cfg.retention_us > 0
        while self.heap and self.heap[0][0] <= self.watermark:
            end, conv, s = heapq.heappop(self.heap)
            key = (conv, s)
            if retain:
                # keep the accumulator for late updates; GC at
                # end + retention_us
                acc = self.open.get(key)
                if acc is None:
                    continue
                heapq.heappush(self.ret_heap,
                               (end + cfg.retention_us, conv, s))
            else:
                acc = self.open.pop(key, None)
                if acc is None:
                    continue
            out.append(self._finalize_row(conv, s, end, acc))
            self._since_fire.pop(key, None)
            if not retain:      # no further emission possible for key
                self.revisions.pop(key, None)
        # retention GC: drop accumulators whose late-update horizon passed
        while self.ret_heap and self.ret_heap[0][0] <= self.watermark:
            _, conv, s = heapq.heappop(self.ret_heap)
            if self.open.pop((conv, s), None) is not None:
                self.metrics.windows_expired += 1
            self.revisions.pop((conv, s), None)
        # GC scans iterate every conv key, and _drain runs per watermark
        # advance (≈ per row) — unthrottled this was O(rows × convs),
        # 35% of engine wall (round-2 profile). Throttle: correctness is
        # unaffected (pruning is an optimization; delayed session close
        # still happens before flush, and emission only requires the
        # watermark to have passed the gap).
        self._drains += 1
        # (dedup-state pruning happens amortized per-conv at insert time
        # — _prune_seen — not here: a per-drain scan of every conv was
        # the round-2 O(rows x convs) hidden quadratic)
        # session GC: close sessions whose gap has definitively elapsed
        if cfg.kind == "session" and (self._drains & 63) == 0:
            stale = [c for c, st in self.sessions.items()
                     if self.watermark - st[1] > cfg.gap_us]
            for c in stale:
                out.append(self._session_row(c, self.sessions.pop(c)))

    # -- end of stream ------------------------------------------------------

    def flush(self) -> list[dict]:
        """Close every remaining window/session (input exhausted)."""
        out: list[dict] = []
        self._drain_log(out, self.watermark, np.iinfo(np.int64).max)
        while self.heap:
            end, conv, s = heapq.heappop(self.heap)
            acc = self.open.pop((conv, s), None)
            if acc is None:
                continue
            out.append(self._finalize_row(conv, s, end, acc))
        if self._log_mode:
            out.sort(key=_emit_order)
        for conv in sorted(self.sessions):
            out.append(self._session_row(conv, self.sessions.pop(conv)))
        for conv in sorted(self.count_bufs):   # trailing partial chunks
            st = self.count_bufs.pop(conv)
            if st[2] > 0:
                out.append(self._count_row(conv, st))
        return out

    # -- checkpoint ---------------------------------------------------------

    def snapshot(self) -> bytes:
        return pickle.dumps({
            "cfg": self.cfg, "partition_id": self.partition_id,
            "watermark": self.watermark, "max_ts": self.max_ts,
            "open": self.open, "heap": self.heap,
            "sessions": self.sessions, "seen_uids": self.seen_uids,
            "metrics": self.metrics,
            "revisions": self.revisions, "ret_heap": self.ret_heap,
            "count_bufs": self.count_bufs, "since_fire": self._since_fire,
            "log": self.log,
        })

    @classmethod
    def restore(cls, blob: bytes) -> "StreamEngine":
        d = pickle.loads(blob)
        eng = cls(d["cfg"], d["partition_id"])
        eng.watermark, eng.max_ts = d["watermark"], d["max_ts"]
        eng.open, eng.heap = d["open"], d["heap"]
        eng.sessions, eng.seen_uids = d["sessions"], d["seen_uids"]
        # older snapshots lack the newer counters and the row log
        eng.metrics = Metrics(**vars(d["metrics"]))
        eng.revisions = d.get("revisions", {})
        eng.ret_heap = d.get("ret_heap", [])
        eng.count_bufs = d.get("count_bufs", {})
        eng._since_fire = d.get("since_fire", {})
        if eng._log_mode and "log" in d:
            eng.log = d["log"]
            r, s, conv = eng._windows_of(eng.log)
            live = s + eng.cfg.size_us > eng.watermark
            eng._add_costs(conv[live], s[live],
                           (1 + _text_bytes(eng.log))[r][live])
        return eng


_TS_INT_COLS = frozenset({"window_start", "window_end", "last_ts",
                          "session_start", "session_end"})


def emitted_to_frame(rows: list[dict], kind: str,
                     extra_cols: tuple = ()) -> pd.DataFrame:
    """Columnar assembly of emitted rows (list-of-dicts -> DataFrame via
    per-column lists: pandas' nested-dict inference profiled at 22% of
    replay wall). Timestamp columns arrive as int64 epoch-us from
    ``finalize`` and convert in one vectorized view here."""
    if kind == "session":
        base = ["conv_id", "session_start", "session_end", "n_turns"]
        if rows and len(rows[0]) > len(base):
            cols = base + [c for c in STATS_COLUMNS
                           if c in rows[0] and c not in base] + list(extra_cols)
        else:
            cols = base
    elif kind == "count":
        base = ["conv_id", "win_start", "win_end", "n_turns"]
        cols = base + [c for c in STATS_COLUMNS
                       if rows and c in rows[0] and c not in base] \
            + list(extra_cols)
    else:
        cols = STATS_COLUMNS + list(extra_cols)
    if not rows:
        return pd.DataFrame({c: pd.Series(dtype="object") for c in cols})
    data = {}
    for c in cols:
        vals = [r[c] for r in rows]
        if c in _TS_INT_COLS and isinstance(vals[0], (int, np.integer)):
            data[c] = np.asarray(vals, dtype=np.int64).view("M8[us]")
        else:
            data[c] = vals
    df = pd.DataFrame(data)
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
    return df
