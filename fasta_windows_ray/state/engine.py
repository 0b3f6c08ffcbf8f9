"""Stateful streaming window engine — the north-star core.

One ``StreamEngine`` owns a hash partition of conv_ids and keeps:

- a **row log** for every window (tumbling, sliding, session and count,
  with or without ``custom_aggs``, in both emission modes): the accepted
  rows, in arrival order, as one Arrow table. Each
  ``process_rows``/``flush`` call computes every window it emits with the
  batch kernel (``BucketWindowStats.table``, CTW by ``ctw_batch``), in
  whole-window chunks of about ``_CHUNK_CHARS`` characters, and folds
  custom aggregates over each window's rows in arrival order. In final
  mode a window closes: tumbling/sliding, once the watermark reaches its
  end (a row leaves the log with its newest window); session, when a row
  of its conv comes more than ``gap_us`` after its last ts, at a call's
  end once the watermark is more than ``gap_us`` past that ts, or at
  ``flush``; count (a row's chunk is its rank among its conv's accepted
  rows // ``count_turns``), once full, or at ``flush`` with a clamped
  end. In updates mode each emission is a **pane**: the window's log
  rows up to the row that fires it (see ``_fire``), and a row leaves the
  log once its newest window is ``retention_us`` past the watermark;
- a **watermark** = max event ts seen in the partition − allowed
  lateness (derived from data, never wall clock). A row is late iff its
  ts is below the watermark set by the rows before it; late rows are
  dropped and counted (not for count windows, which follow arrival
  order; in updates mode, only when no covering window is live), and
  exact ``(turn_uid, ts)`` replays are dropped as duplicates
  (``seen_uids``, pruned below the watermark);
- a **summary** (``WindowSummary``) for each final-mode log window whose
  buffered rows plus text bytes pass ``KGRAM_CAP``: the window is
  promoted, its log rows fold into the summary, which bounds its memory,
  and ``Metrics.windows_promoted`` counts it. Each call folds the rows of
  every promoted window with the kernel's code (``BucketWindowStats.fold``:
  one sort into ``table``'s k-gram keys, one grouped sum into each
  window's histogram) and emits a closed one by ``finish``, which ends in
  ``table``'s own finishing code, so its row equals the kernel's on the
  same rows. Past ``KGRAM_CAP`` keys a histogram cuts its lighter keys
  short, so short k-grams stay exact (``Metrics.kgram_spills``);
- **checkpoint/resume**: ``snapshot()``/``restore()`` round-trip the whole
  state (row log, open sessions, count positions, summaries, revisions,
  watermark, dedup sets, metrics).

Late and duplicate checks are per row, against the watermark of the
rows before it, and so are the panes a row fires; so draining once per
call emits exactly what draining after every row would, and the output
does not depend on how the input is split into calls.

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
import io
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.window_stats import (_CHUNK_CHARS, KGRAM_CAP, STATS_COLUMNS,
                                   BucketWindowStats, WindowSummary,
                                   _group_chunks)
from ..windows import sliding_starts_expand, tumbling_start


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
    # allowed lateness) RETAINS the emitted window's log rows for
    # ``retention_us`` past its end — a late row inside retention joins
    # the window and it RE-EMITS immediately with ``revision``
    # incremented (revision 0 = first pane). Downstream the
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
    windows_promoted: int = 0  # log windows moved to a summary

    def as_dict(self) -> dict:
        return dict(self.__dict__)


# the row log: accepted rows of open log windows, in arrival order;
# turn_uid is the engine's uid (turn_uid, else turn_idx, else row number).
# Session and count logs add each row's window id (``wid``): its
# session's per-conv ordinal, or its chunk's first turn offset
_LOG_SCHEMA = pa.schema([("conv_id", pa.string()), ("ts", pa.int64()),
                         ("turn_uid", pa.int64()), ("role", pa.string()),
                         ("text", pa.large_string()), ("tool", pa.string())])
_WID = pa.field("wid", pa.int64())

# emitted (start, end) columns of the window kinds keyed by window id
_BOUNDS = {"session": ("session_start", "session_end"),
           "count": ("win_start", "win_end")}


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


_ROW_KEYS = ("ts", "turn_uid", "role", "text", "tool")


def _row_values(t: pa.Table):
    """(ts, uid, role, text, tool) per row of a log table, with the
    engine's null conventions, as custom aggregates see them."""
    return zip(t["ts"].to_pylist(), t["turn_uid"].to_pylist(),
               pc.fill_null(t["role"], "user").to_pylist(),
               pc.fill_null(t["text"], "").to_pylist(),
               pc.fill_null(t["tool"], "").to_pylist())


def _runs(keys: np.ndarray):
    """Runs of equal adjacent ``keys``: each run's first index, each
    key's offset in its run, and the run lengths."""
    starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    cnt = np.diff(starts, append=len(keys))
    return starts, np.arange(len(keys)) - np.repeat(starts, cnt), cnt


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
        # promoted final-mode windows: (conv_id, start | window id) ->
        # summary
        self.open: dict[tuple, WindowSummary] = {}
        self.heap: list[tuple] = []      # (window_end, conv_id, start)
        # open session of each conv: [ordinal, first ts, last ts]
        self.open_sessions: dict[str, list] = {}
        # count windows: accepted rows of each conv
        self.count_rows: dict[str, int] = {}
        self.seen_uids: dict[str, set] = {}   # exact dedup of (conv, turn_uid)
        # per-conv amortized prune trigger for seen_uids (see _prune_seen)
        self._seen_prune_at: dict[str, int] = {}
        # updates mode: per-window revision counters + retention GC heap
        self.revisions: dict[tuple, int] = {}
        self.ret_heap: list[tuple] = []  # (end + retention_us, conv, start)
        # early firing: arrivals since the window's last speculative pane
        self._since_fire: dict[tuple, int] = {}
        self.metrics = Metrics()
        self._updates = cfg.emit == "updates"
        # session and count windows are keyed by (conv_id, window id)
        self._keyed = cfg.kind in ("session", "count")
        self.log = (_LOG_SCHEMA.append(_WID) if self._keyed
                    else _LOG_SCHEMA).empty_table()
        # (conv_id, window) -> buffered rows + text bytes of a log window
        self._log_cost: dict[tuple, int] = {}
        self._stats = BucketWindowStats(profile=cfg.profile,
                                        ctw_depth=cfg.ctw_depth,
                                        bigram=cfg.bigram,
                                        ctw_text=cfg.ctw_text)

    def _prune_seen(self, conv: str, seen: set) -> set:
        """Bound dedup state. A duplicate below the watermark is dropped
        as late before the dedup check, so entries below it never match
        again and pruning them is exact. A conv's set is rescanned only
        once it doubles past its post-prune size (amortized O(1) per
        insert). Updates mode accepts a row iff some covering window is
        live (start + size_us + retention_us > watermark), that is iff
        ts > watermark - size_us - retention_us, so it prunes below
        that. Count windows accept any ts: their sets are never pruned,
        and stay bounded by the conv's turn count."""
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
        turn_uid/role/text/tool optional). Returns the rows of the windows
        that closed, or the panes that fired, in the batch."""
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
        return self._process_log(rows, ts_arr,
                                 np.asarray(uid_arr, dtype=np.int64))

    # -- row log ------------------------------------------------------------

    def _process_log(self, rows: pd.DataFrame, ts: np.ndarray,
                     uid: np.ndarray) -> list[dict]:
        """``process_rows``' one ingest path. Each row is judged late or
        duplicate, and given its session or count chunk, as one row at a
        time would be, against the watermark of the rows before it; the
        accepted rows go to the log in one append, and one drain emits
        every window closed, or pane fired (``_fire``), in the call."""
        cfg, m = self.cfg, self.metrics
        n = len(ts)
        m.rows_in += n
        wm0 = self.watermark
        run = np.maximum.accumulate(np.r_[np.int64(self.max_ts), ts])[:-1]
        wm_row = np.maximum(run - cfg.lateness_us, wm0)
        # count windows follow arrival order: lateness does not apply
        keep = (ts >= wm_row) | (cfg.kind == "count")
        if self._updates:
            # a late row is kept while its newest covering window is live
            step = cfg.step_us if cfg.kind == "sliding" else cfg.size_us
            top = tumbling_start(ts, step, cfg.offset_us)
            keep |= (top + cfg.size_us + cfg.retention_us > wm_row) & (
                (top >= cfg.offset_us) | (cfg.kind == "tumbling"))
        idx = np.flatnonzero(keep)
        m.late_dropped += n - len(idx)
        convs: list[str] = []
        wids: list[int] = []
        closed: dict[tuple, tuple] = {}     # see _drain_keyed
        assign = {"session": self._session_of,
                  "count": self._chunk_of}.get(cfg.kind)
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
            if assign is not None:
                wids.append(assign(conv, key[1], closed))
        self.watermark = wm0
        m.dup_dropped += len(idx) - len(convs)
        if n and int(ts.max()) > self.max_ts:
            self.max_ts = int(ts.max())
            self.watermark = self.max_ts - cfg.lateness_us
        if convs:
            sel = np.flatnonzero(keep)
            cols = rows.columns
            new = {"conv_id": pa.array(convs, pa.string()),
                   "ts": pa.array(ts[sel]), "turn_uid": pa.array(uid[sel]),
                   **{c: (_str_array(rows[c].to_numpy()[sel], typ)
                          if c in cols else pa.nulls(len(sel), typ))
                      for c, typ in (("role", pa.string()),
                                     ("text", pa.large_string()),
                                     ("tool", pa.string()))}}
            if self._keyed:
                new["wid"] = pa.array(wids, pa.int64())
            new = pa.table(new, schema=self.log.schema)
            if self._updates:       # updates-mode windows are never promoted
                self.log = pa.concat_tables([self.log, new])
                wm = wm_row[sel]
                return self._fire(wm0, wm, np.r_[wm[1:], self.watermark])
            self._append(new, wm0)
        out: list[dict] = []
        if self._keyed:
            self._drain_keyed(out, closed, self.watermark - cfg.gap_us)
        elif not self._updates:         # updates mode fires in ``_fire``
            self._drain_log(out, wm0, self.watermark)
            self._drain(out, self.watermark)
        self._sort(out)
        return out

    def _session_of(self, conv: str, ts: int, closed: dict) -> int:
        """Session ordinal of an accepted row; a row more than ``gap_us``
        past its conv's open session closes it and opens the next one.
        Ordinals restart at 0 when a conv has no open session: a closed
        session leaves the engine in the call that closes it."""
        st = self.open_sessions.get(conv)
        if st is not None and ts - st[2] <= self.cfg.gap_us:
            st[1], st[2] = min(st[1], ts), max(st[2], ts)
            return st[0]
        o = 0
        if st is not None:
            closed[(conv, st[0])] = (st[1], st[2])
            o = st[0] + 1
        self.open_sessions[conv] = [o, ts, ts]
        return o

    def _chunk_of(self, conv: str, ts: int, closed: dict) -> int:
        """First turn offset of an accepted row's count chunk; the row
        that fills a chunk closes it."""
        k = self.count_rows.get(conv, 0)
        start = k - k % self.cfg.count_turns
        self.count_rows[conv] = k + 1
        if (k + 1) % self.cfg.count_turns == 0:
            closed[(conv, start)] = (start, k + 1)
        return start

    def _memberships(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, window start) of every window covering each of ``ts``,
        in row order."""
        cfg = self.cfg
        if cfg.kind == "tumbling":
            return (np.arange(len(ts)),
                    tumbling_start(ts, cfg.size_us, cfg.offset_us))
        return sliding_starts_expand(ts, cfg.size_us, cfg.step_us,
                                     cfg.offset_us)

    def _windows_of(self, t: pa.Table, wm: int):
        """(row, window start or id, conv_id) of every membership of a log
        table's rows in a window not yet emitted at watermark ``wm``, in
        row order."""
        if self._keyed:
            r, s = np.arange(t.num_rows), t["wid"].to_numpy()
        else:
            r, s = self._memberships(t["ts"].to_numpy())
            live = s + self.cfg.size_us > wm
            r, s = r[live], s[live]
        return r, s, np.asarray(t["conv_id"].to_pylist(), dtype=object)[r]

    def _add_costs(self, conv, starts, cost) -> tuple[list, set]:
        """Add each membership's cost to its log window's buffered cost.
        Returns the memberships of promoted windows (positions) and the
        windows now past ``KGRAM_CAP``."""
        book, sums = self._log_cost, self.open
        to_sum, over = [], set()
        for j, key, c in zip(range(len(starts)), zip(conv, starts.tolist()),
                             cost.tolist()):
            if key in sums:
                to_sum.append(j)
                continue
            c += book.get(key, 0)
            book[key] = c
            if c > KGRAM_CAP:
                over.add(key)
        return to_sum, over

    def _append(self, new: pa.Table, wm0: int) -> None:
        """Log the accepted rows ``new``; a window whose buffered cost
        passes ``KGRAM_CAP`` is promoted to a summary, and rows of
        promoted windows fold into theirs."""
        r, s, conv = self._windows_of(new, wm0)
        to_sum, over = self._add_costs(conv, s, (1 + _text_bytes(new))[r])
        if to_sum:
            # a row whose every window is promoted stays out of the log
            live = np.ones(len(r), dtype=bool)
            live[to_sum] = False
            self.log = pa.concat_tables([self.log, new.filter(
                np.bincount(r[live], minlength=new.num_rows) > 0)])
        else:
            self.log = pa.concat_tables([self.log, new])
        parts = [(new.take(r[to_sum]), conv[to_sum], s[to_sum])]
        if over:
            parts.append(self._promote(over, wm0))
        t, conv, s = zip(*parts)
        if sum(x.num_rows for x in t):
            self._fold(pa.concat_tables(t), np.concatenate(conv),
                       np.concatenate(s))

    def _promote(self, keys: set, wm0: int) -> tuple:
        """Give each window in ``keys`` a new summary, and drop the log
        rows whose unemitted windows are all promoted. Returns the
        memberships of the windows' log rows, to fold: (rows, conv_id,
        start), in arrival order."""
        cfg, log = self.cfg, self.log
        aggs = self._aggs()
        for key in sorted(keys):
            sm = self.open[key] = WindowSummary()
            if aggs:
                sm.custom = [agg.init() for agg in aggs]
            if not self._keyed:
                heapq.heappush(self.heap, (key[1] + cfg.size_us, *key))
            del self._log_cost[key]
            self.metrics.windows_promoted += 1
        r, s, conv = self._windows_of(log, wm0)
        member = list(zip(conv, s.tolist()))
        mine = np.fromiter((k in keys for k in member), bool, len(r))
        live = np.fromiter((k not in self.open for k in member), bool,
                           len(r))
        self.log = log.filter(np.bincount(r[live], minlength=log.num_rows) > 0)
        return log.take(r[mine]), conv[mine], s[mine]

    def _fold(self, t: pa.Table, conv: np.ndarray, starts: np.ndarray):
        """Fold the log rows ``t``, one per membership of a promoted window
        (``conv``, ``starts``) and each window's in arrival order, into
        the windows' summaries, custom aggregates included."""
        idx: dict = {}
        win = np.fromiter((idx.setdefault(k, len(idx)) for k in
                           zip(conv, starts.tolist())), np.int64, len(conv))
        sums = [self.open[k] for k in idx]
        self._stats.fold(sums, t, win)
        if self.cfg.custom_aggs:
            self._fold_custom(t, win, [sm.custom for sm in sums])

    def _aggs(self) -> list:
        """The ``custom_aggs`` aggregates."""
        if not self.cfg.custom_aggs:
            return []
        from ..functions import registry
        return [registry.get(n) for n in self.cfg.custom_aggs]

    def _emit(self, r: np.ndarray, w: np.ndarray,
              e: np.ndarray | None = None) -> list[dict]:
        """Kernel rows of the log windows of the memberships (log row
        ``r``, window ``w``: a start, a window id or a pane number; all of
        each window's rows), in whole-window calls of about
        ``_CHUNK_CHARS``. ``e`` gives each membership's
        window end; tumbling/sliding windows default to ``w`` +
        ``size_us``, and keyed windows have none."""
        cfg, log = self.cfg, self.log
        codes = log["conv_id"].combine_chunks().dictionary_encode() \
            .indices.to_numpy().astype(np.int64)[r]
        # stable: a window's rows stay in arrival order
        order = np.lexsort((w, codes))
        r, w, codes = r[order], w[order], codes[order]
        t = log.take(r).append_column("window_start", pa.array(w))
        if e is not None:
            t = t.append_column("window_end", pa.array(e[order]))
        elif not self._keyed:
            t = t.append_column("window_end", pa.array(w + cfg.size_us))
        first = np.r_[True, (codes[1:] != codes[:-1]) | (w[1:] != w[:-1])]
        heads = np.flatnonzero(first)
        keys = list(zip(t["conv_id"].take(heads).to_pylist(),
                        w[heads].tolist()))
        custom = None
        if cfg.custom_aggs:
            aggs = self._aggs()
            states = [[agg.init() for agg in aggs] for _ in keys]
            self._fold_custom(t, np.cumsum(first) - 1, states)
            custom = {key: {agg.name: agg.emit(x) for agg, x in zip(aggs, st)}
                      for key, st in zip(keys, states)}
        out = []
        for a, b in _group_chunks(np.cumsum(first), 1 + _text_bytes(t),
                                  _CHUNK_CHARS):
            for row in _emitted_rows(self._stats.table(t.slice(a, b - a))):
                if custom is not None:
                    row.update(custom[(row["conv_id"], row["window_start"])])
                out.append(row)
        for key in keys:
            self._log_cost.pop(key, None)
        return out

    def _fold_custom(self, t: pa.Table, win: np.ndarray,
                     states: list) -> None:
        """Fold ``custom_aggs`` over the rows of ``t`` in order: row i into
        the aggregate states ``states[win[i]]``."""
        aggs = self._aggs()
        for w, v in zip(win.tolist(), _row_values(t)):
            row = dict(zip(_ROW_KEYS, v))
            for agg, x in zip(aggs, states[w]):
                agg.add(x, row)

    def _finish(self, row: dict, bounds: dict | None = None) -> dict:
        """Count an emitted final-mode window; a keyed window's row gets
        its kind's (start, end) columns from ``bounds`` for the window
        columns."""
        if self.cfg.kind == "session":
            self.metrics.sessions_emitted += 1
        else:
            self.metrics.windows_emitted += 1
        if self._keyed:
            s, e = _BOUNDS[self.cfg.kind]
            row[s], row[e] = bounds[(row["conv_id"], row["window_start"])]
            del row["window_start"], row["window_end"], row["last_ts"]
        return row

    def _summary_rows(self, keys: list, ends: list,
                      bounds: dict | None = None) -> list[dict]:
        """The rows of the promoted windows ``keys``, ending at ``ends``,
        from their summaries, which leave ``open``."""
        sums = [self.open.pop(k) for k in keys]
        rows = _emitted_rows(self._stats.finish(
            sums, [k[0] for k in keys], [k[1] for k in keys], ends))
        aggs = self._aggs()
        for row, sm in zip(rows, sums):
            self.metrics.kgram_spills += sm.spilled
            if aggs:
                row.update({agg.name: agg.emit(x)
                            for agg, x in zip(aggs, sm.custom)})
        return [self._finish(row, bounds) for row in rows]

    def _drain_log(self, out: list[dict], lo: int, hi: int) -> None:
        """Emit every tumbling/sliding log window with ``lo < window_end
        <= hi``, and drop the rows whose newest window is among them."""
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
        if due.any():
            out += map(self._finish, self._emit(r[due], s[due]))
        self._drop_rows(ts, hi)

    def _drop_rows(self, ts: np.ndarray, hi: int) -> None:
        """Drop the log rows (timestamps ``ts``) whose newest
        tumbling/sliding window ended at or before ``hi`` (updates mode:
        ``retention_us`` before it)."""
        cfg = self.cfg
        step = cfg.step_us if cfg.kind == "sliding" else cfg.size_us
        done = tumbling_start(ts, step, cfg.offset_us) + cfg.size_us
        if self._updates:
            done += cfg.retention_us
        if (done <= hi).any():
            self.log = self.log.filter(done > hi).combine_chunks()

    def _fire(self, wm0: int, wm_row: np.ndarray,
              wm_after: np.ndarray) -> list[dict]:
        """Updates mode: emit every pane that the call's accepted rows
        fire. They are the log's last ``len(wm_row)`` rows; ``wm_row`` is
        the watermark each saw and ``wm_after`` the one after it (``flush``
        passes no rows and one watermark past every end), and ``wm0`` the
        watermark before the call. A pane is a window's log rows up to
        the row that fires it:

        - a late row fires each live covering window (end +
          ``retention_us`` above its watermark) whose end is at or below
          its watermark (``late_updates``);
        - an on-time row fires each covering window on that window's
          every ``early_fire_every``-th on-time row (``early_panes``);
        - a window with rows fires on time at the row that moves the
          watermark to or past its end.

        Output is by firing row: its late and early panes in
        covering-window order, then its on-time panes by (end, conv_id,
        start); a window's panes carry consecutive ``revision``s. All
        panes go through one ``_emit``. Windows ``retention_us`` past the
        watermark then expire, and rows of no live window leave the log.
        """
        cfg, log, met = self.cfg, self.log, self.metrics
        size, ret, efe = cfg.size_us, cfg.retention_us, cfg.early_fire_every
        n = log.num_rows
        p0 = n - len(wm_row)
        ts = log["ts"].to_numpy()
        r, s = self._memberships(ts)
        conv = log["conv_id"].combine_chunks().dictionary_encode()
        names = np.array(conv.dictionary.to_pylist(), dtype=object)
        by_name = np.argsort(names)
        names, code = names[by_name].tolist(), \
            np.argsort(by_name)[conv.indices.to_numpy()]
        # window number of each membership, in (conv_id, start) order;
        # ``fr`` is each window's first membership (memberships are in row
        # order)
        su, si = np.unique(s, return_inverse=True)
        wk, fr, w = np.unique(code[r] * len(su) + si, return_index=True,
                              return_inverse=True)
        w_conv, w_start = wk // len(su), su[wk % len(su)]
        w_end = w_start + size

        def key(x):
            return names[w_conv[x]], int(w_start[x])

        j = np.flatnonzero(r >= p0)             # the call's memberships
        wm = wm_row[r[j] - p0]
        e = s[j] + size
        late = j[(e <= wm) & (e + ret > wm)]
        early = j[:0]
        fire_counts = {}
        if efe:
            # k-th on-time arrival of each window since its last early pane
            on = j[ts[r[j]] >= wm]
            on = on[np.argsort(w[on], kind="stable")]
            runs, k, cnt = _runs(w[on])
            prev = np.array([self._since_fire.get(key(x), 0)
                             for x in w[on][runs]], dtype=np.int64)
            early = on[(np.repeat(prev, cnt) + k + 1) % efe == 0]
            fire_counts = {key(x): (p + c) % efe for x, p, c in
                           zip(w[on][runs].tolist(), prev.tolist(),
                               cnt.tolist())}
        # on-time: at the first row whose watermark after reaches the end,
        # for a window open before the call with a row before that one;
        # by (end, conv_id, start)
        at = np.searchsorted(wm_after, w_end)
        ontime = np.flatnonzero((w_end > wm0) & (at < len(wm_after))
                                & (r[fr] < p0 + at))
        ontime = ontime[np.argsort(w_end[ontime], kind="stable")]
        lj = np.sort(np.r_[late, early])        # row, then covering order
        pw = np.r_[w[lj], ontime]               # pane -> window
        cut = np.r_[r[lj] + 1, p0 + at[ontime]]  # pane rows: r < cut
        # by firing row, its late and early panes before its on-time ones
        order = np.argsort(np.r_[2 * r[lj], 2 * cut[len(lj):] + 1],
                           kind="stable")
        pw, cut = pw[order], cut[order]
        # revision: the window's next one plus the pane's rank among its
        # panes of this call
        by_w = np.argsort(pw, kind="stable")
        runs, k, cnt = _runs(pw[by_w])
        base = np.array([self.revisions.get(key(x), -1) + 1
                         for x in pw[by_w][runs]], dtype=np.int64)
        rev = np.empty(len(pw), dtype=np.int64)
        rev[by_w] = np.repeat(base, cnt) + k
        # each pane's memberships: a prefix of its window's, by arrival
        ms = np.argsort(w, kind="stable")
        ck = w[ms] * (n + 1) + r[ms]
        a = np.searchsorted(ck, pw * (n + 1))
        c = np.searchsorted(ck, pw * (n + 1) + cut) - a
        take = ms[np.repeat(a - np.cumsum(c) + c, c) + np.arange(c.sum())]
        pane = np.repeat(np.arange(len(pw)), c)
        out = [None] * len(pw)
        for row in (self._emit(r[take], pane, w_end[pw][pane])
                    if len(pw) else []):
            p = row["window_start"]
            row["window_start"] = int(w_start[pw[p]])
            row["revision"] = int(rev[p])
            out[p] = row
        met.late_updates += len(late)
        met.early_panes += len(early)
        met.windows_emitted += len(late) + len(ontime)
        self._since_fire.update(fire_counts)
        if ret or efe:
            for x, v in zip(pw[by_w][runs], base + cnt - 1):
                self.revisions[key(x)] = int(v)
        for x in ontime.tolist():
            self._since_fire.pop(key(x), None)
            if ret:
                heapq.heappush(self.ret_heap, (int(w_end[x]) + ret, *key(x)))
            else:
                self.revisions.pop(key(x), None)
        # windows a late row opened expire at retention too
        for x in w[late[r[late] == r[fr[w[late]]]]].tolist():
            heapq.heappush(self.ret_heap, (int(w_end[x]) + ret, *key(x)))
        while self.ret_heap and self.ret_heap[0][0] <= self.watermark:
            _, cv, st = heapq.heappop(self.ret_heap)
            self.revisions.pop((cv, st), None)
            met.windows_expired += 1
        self._drop_rows(ts, self.watermark)
        return out

    def _drain_keyed(self, out: list[dict], closed: dict,
                     before: int) -> None:
        """Close the open sessions whose last ts is below ``before``, and
        emit the closed keyed windows ``closed`` ((conv_id, window id) ->
        (start, end)), from the log or from their summaries."""
        for conv in [c for c, st in self.open_sessions.items()
                     if st[2] < before]:
            o, first, last = self.open_sessions.pop(conv)
            closed[(conv, o)] = (first, last)
        if not closed:
            return
        wid = self.log["wid"].to_numpy()
        due = np.fromiter((k in closed for k in zip(
            self.log["conv_id"].to_pylist(), wid.tolist())), bool, len(wid))
        if due.any():
            out += [self._finish(row, closed)
                    for row in self._emit(np.flatnonzero(due), wid[due])]
            self.log = self.log.filter(~due)
        keys = [k for k in sorted(closed) if k in self.open]
        if keys:
            out += self._summary_rows(keys, [0] * len(keys), closed)

    def _sort(self, out: list[dict]) -> None:
        """Emission order: (end, conv_id, start)."""
        s, e = _BOUNDS.get(self.cfg.kind, ("window_start", "window_end"))
        out.sort(key=lambda row: (row[e], row["conv_id"], row[s]))

    def _drain(self, out: list[dict], hi: int) -> None:
        """Emit the promoted tumbling/sliding windows whose end is at or
        below ``hi``."""
        keys, ends = [], []
        while self.heap and self.heap[0][0] <= hi:
            end, conv, s = heapq.heappop(self.heap)
            if (conv, s) in self.open:
                keys.append((conv, s))
                ends.append(end)
        if keys:
            out += self._summary_rows(keys, ends)

    # -- end of stream ------------------------------------------------------

    def flush(self) -> list[dict]:
        """Close every remaining window/session (input exhausted)."""
        out: list[dict] = []
        top = np.iinfo(np.int64).max
        if self._keyed:
            n = self.cfg.count_turns      # partial count chunks
            closed = {(c, k - k % n): (k - k % n, k)
                      for c, k in self.count_rows.items() if k % n}
            self.count_rows = {}
            self._drain_keyed(out, closed, top)
        elif self._updates:
            out = self._fire(self.watermark, np.empty(0, np.int64),
                             np.array([top]))
            self.log = self.log.slice(0, 0)
        else:
            self._drain_log(out, self.watermark, top)
            self._drain(out, top)
        self._sort(out)
        return out

    # -- checkpoint ---------------------------------------------------------

    def snapshot(self) -> bytes:
        return pickle.dumps({
            "cfg": self.cfg, "partition_id": self.partition_id,
            "watermark": self.watermark, "max_ts": self.max_ts,
            "open": self.open, "heap": self.heap,
            "open_sessions": self.open_sessions,
            "count_rows": self.count_rows, "seen_uids": self.seen_uids,
            "metrics": self.metrics,
            "revisions": self.revisions, "ret_heap": self.ret_heap,
            "since_fire": self._since_fire, "log": self.log,
        })

    @classmethod
    def restore(cls, blob: bytes) -> "StreamEngine":
        d = _Unpickler(io.BytesIO(blob)).load()
        eng = cls(d["cfg"], d["partition_id"])
        eng.watermark, eng.max_ts = d["watermark"], d["max_ts"]
        if any(isinstance(sm.hist, list) for sm in d["open"].values()):
            raise ValueError("snapshot's promoted windows keep one k-gram "
                             "histogram per k; it cannot resume: replay "
                             "the input from its start")
        eng.open, eng.heap = d["open"], d["heap"]
        eng.seen_uids = d["seen_uids"]
        # older snapshots lack the newer counters and the row log
        eng.metrics = Metrics(**vars(d["metrics"]))
        eng.revisions = d.get("revisions", {})
        eng.ret_heap = d.get("ret_heap", [])
        eng._since_fire = d.get("since_fire", {})
        eng.open_sessions = d.get("open_sessions", {})
        eng.count_rows = d.get("count_rows", {})
        if d.get("log") is not None and d["log"].num_rows:
            eng.log = d["log"]
            if not eng._updates:
                r, s, conv = eng._windows_of(eng.log, eng.watermark)
                eng._add_costs(conv, s, (1 + _text_bytes(eng.log))[r])
        return eng


class _Unpickler(pickle.Unpickler):
    """Refuses a snapshot that holds per-row window accumulators: windows
    of older engines, promoted or from before the row log, whose rows
    are gone."""

    def find_class(self, module, name):
        if module == __name__ and name in ("_WindowAcc", "_BoundedKgrams"):
            raise ValueError(
                "snapshot holds windows as per-row accumulators, from before "
                "promoted windows were kernel summaries; it cannot resume: "
                "replay the input from its start")
        return super().find_class(module, name)


_TS_INT_COLS = frozenset({"window_start", "window_end", "last_ts",
                          "session_start", "session_end"})


def emitted_to_frame(rows: list[dict], kind: str,
                     extra_cols: tuple = ()) -> pd.DataFrame:
    """Columnar assembly of emitted rows (list-of-dicts -> DataFrame via
    per-column lists: pandas' nested-dict inference profiled at 22% of
    replay wall). Timestamp columns arrive as int64 epoch-us (the
    engine's ``_emitted_rows`` gives them so, for log and promoted
    windows alike) and convert in one vectorized view here."""
    if kind in _BOUNDS:
        base = ["conv_id", *_BOUNDS[kind], "n_turns"]
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
