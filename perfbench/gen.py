"""Seeded input generators for the three benchmark workloads.

Kept apart from the package under test on purpose: nothing here imports
``fasta_windows_ray``, so a change to the program can never change the
inputs it is measured on. The same seed always gives the same bytes.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

EPOCH_US = 1_704_067_200_000_000          # 2024-01-01T00:00:00Z
HOUR_US = 3600 * 1_000_000
DAY_US = 24 * HOUR_US

# --------------------------------------------------------------------------
# fasta_genome
# --------------------------------------------------------------------------

FASTA_RECORD_BP = (37_237, 29_911, 23_503, 17_150, 11_777, 612)
FASTA_LINE = 60


FASTA_GC = (0.38, 0.45, 0.52, 0.60, 0.41, 0.50)
FASTA_MASK_EVERY, FASTA_MASK_LEN = 4000, 600    # one soft-masked run per 4 kb
FASTA_GAP_EVERY, FASTA_GAP_LEN = 20000, 250     # one N run per 20 kb


def _runs(rng, n: int, every: int, length: int):
    """One run of ``length`` at a random offset inside each ``every``-long
    stratum: positions move with the seed, the covered total does not."""
    for lo in range(0, n - length, every):
        a = lo + int(rng.integers(0, min(every, n - lo) - length + 1))
        yield a, a + length


def make_fasta(path: str, seed: int) -> dict:
    """Multi-record FASTA with soft-masked (lowercase) runs, N runs, a
    per-record GC bias, ragged record lengths (trailing partial windows)
    and one record shorter than a 1 kb window. The seed moves bases and
    run positions; lengths, GC and the masked/N totals are fixed, so the
    per-base work is the same for every seed.

    Returns {"records": [(id, seq), ...], "bases": int}; the sequences are
    the exact strings written, for the output checks.
    """
    rng = np.random.default_rng(seed)
    alphabet = np.frombuffer(b"ACGT", dtype=np.uint8)
    records = []
    with open(path, "w") as f:
        for i, (n, gc) in enumerate(zip(FASTA_RECORD_BP, FASTA_GC)):
            p = np.array([(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2])
            seq = alphabet[rng.choice(4, size=n, p=p)].copy()
            for a, b in _runs(rng, n, FASTA_MASK_EVERY, FASTA_MASK_LEN):
                seq[a:b] |= 0x20                 # soft-masked repeat
            for a, b in _runs(rng, n, FASTA_GAP_EVERY, FASTA_GAP_LEN):
                seq[a:b] = ord("N")              # assembly gap
            s = seq.tobytes().decode()
            rid = f"chr{i + 1}" if n >= 1000 else f"scaffold_{i + 1}"
            desc = f" len={n} seed={seed}" if i % 2 == 0 else ""
            f.write(f">{rid}{desc}\n")
            for lo in range(0, n, FASTA_LINE):
                f.write(s[lo:lo + FASTA_LINE] + "\n")
            records.append((rid, s))
    return {"records": records, "bases": sum(FASTA_RECORD_BP)}


# --------------------------------------------------------------------------
# shared text model
# --------------------------------------------------------------------------

_WORDS = np.array(
    "the window stream state batch arrow shuffle actor join entropy kgram "
    "watermark ray data parquet turn conversation role text tool timestamp "
    "please check output error retry result cache query plan index table "
    "merge sort filter group count user assistant system reply answer "
    "question context token model request response latency".split())
_MULTIBYTE = np.array(["café", "naïve", "größe", "東京", "数据流", "😀",
                       "résumé", "Ωmega", "façade", "日本語"])
_JSONISH = '{"key": "value", "kind": "tool_call"}'


def _texts(rng: np.random.Generator, n: int, median_chars: float,
           sigma: float, mb: np.ndarray) -> list[str]:
    """Log-normal text lengths; texts flagged in ``mb`` carry a multibyte
    word, ~10% a JSON fragment (holds the default designated bigram
    '"k')."""
    lens = np.maximum(1, rng.lognormal(np.log(median_chars), sigma, n)
                      .astype(np.int64))
    nwords = np.maximum(1, lens // 6)
    words = _WORDS[rng.integers(0, len(_WORDS), int(nwords.sum()))]
    js = rng.random(n) < 0.10
    out = []
    pos = 0
    for i in range(n):
        w = list(words[pos:pos + nwords[i]])
        pos += nwords[i]
        if mb[i]:
            w[int(rng.integers(0, len(w)))] = str(
                _MULTIBYTE[int(rng.integers(0, len(_MULTIBYTE)))])
        t = " ".join(w)
        if js[i]:
            t = t + " " + _JSONISH
        out.append(t)
    return out


# --------------------------------------------------------------------------
# transcripts_sliding
# --------------------------------------------------------------------------

EVENT_TYPES = np.array(["click", "error", "purchase", "signup", "view"])
# event type -> transcript role, as documented by transcripts.EVENT_ROLE_MAP
ROLE_OF_EVENT = {"click": "user", "error": "assistant", "purchase": "system",
                 "signup": "tool", "view": "other"}
EVENT_P = np.array([0.42, 0.38, 0.08, 0.08, 0.04])

SLIDING_TURNS = 9_000
SLIDING_CONVS = 400
SLIDING_DAYS = 30
SLIDING_MULTILINGUAL_EVERY = 50  # every 50th conversation by size rank


def make_transcripts(sf_dir: str, seed: int, n_turns: int = SLIDING_TURNS,
                     n_convs: int = SLIDING_CONVS,
                     days: int = SLIDING_DAYS) -> dict:
    """``{sf_dir}/events.parquet`` in the events layout that
    ``transcripts.read_transcripts`` projects onto the transcript schema
    (conv_id <- user_id, role <- event_type, text <- props).

    Conversation sizes are Zipf (a few hot conversations hold most turns);
    each conversation lives in a random sub-span of ``days`` days with
    uniformly spread turns; text lengths are log-normal with a median of
    ~300 characters. A few conversations, at fixed size ranks, are
    multilingual (a third of their turns hold multibyte words), so only
    the hash buckets that own them take the code-point path. Rows are
    written in ts order. The seed moves conversations, lifetimes and
    text, not the size distribution.
    """
    import os
    rng = np.random.default_rng(seed)
    w = 1.0 / np.arange(1, n_convs + 1) ** 1.1
    rank = rng.permutation(n_convs)            # conv -> size rank
    w = w[rank]
    sizes = np.maximum(1, np.floor(w / w.sum() * n_turns)).astype(np.int64)
    conv = np.repeat(np.arange(n_convs, dtype=np.int64), sizes)
    n = len(conv)
    span = days * DAY_US
    life = (rng.uniform(0.4, 1.0, n_convs) * span).astype(np.int64)
    start = (rng.random(n_convs) * (span - life)).astype(np.int64)
    ts = EPOCH_US + start[conv] + (rng.random(n) * life[conv]).astype(np.int64)
    order = np.argsort(ts, kind="stable")
    conv, ts = conv[order], ts[order]
    etype = EVENT_TYPES[rng.choice(5, size=n, p=EVENT_P)]
    multi = rank % SLIDING_MULTILINGUAL_EVERY == 10
    mb = multi[conv] & (rng.random(n) < 0.33)
    user_id = 10_000 + conv * 7
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64) + 1),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "user_id": pa.array(user_id, pa.int64()),
        "event_type": pa.array(etype, pa.string()),
        "props": pa.array(_texts(rng, n, 300.0, 0.8, mb), pa.string()),
    })
    os.makedirs(sf_dir, exist_ok=True)
    path = os.path.join(sf_dir, "events.parquet")
    pq.write_table(t, path, row_group_size=16_384)
    return {"path": path, "rows": n, "bytes": os.path.getsize(path),
            "table": t}


# --------------------------------------------------------------------------
# stream_ooo
# --------------------------------------------------------------------------

STREAM_CONVS = 400
STREAM_PARTITIONS = 4          # StreamingJob's default num_partitions
STREAM_TICK_S = 0.04           # open-loop send interval
STREAM_WINDOW_US = 250_000     # tumbling 250 ms of event time
STREAM_LATENESS_US = 200_000
STREAM_JITTER_US = 90_000      # in-bound disorder (< lateness)
STREAM_DISORDER = 0.3          # share of rows carrying jitter
STREAM_LATE = 0.01             # share planted beyond the lateness
STREAM_DUP = 0.01              # share planted as exact replays


def route(conv_ids, partitions: int) -> np.ndarray:
    """The crc32 partition routing of ``StreamingJob.run``."""
    return np.asarray([zlib.crc32(str(c).encode()) % partitions
                       for c in conv_ids], dtype=np.int64)


def make_stream(seed: int, phases: list[tuple[float, float]]) -> dict:
    """Open-loop event stream over fixed-rate phases [(rate/s, secs)].

    Event time advances 1:1 with the send schedule: row ``i`` is due at
    ``due_s[i]`` seconds after the stream starts and its nominal event
    time is ``EPOCH_US + due_s[i] * 1e6``. Disorder stays inside the
    lateness except for the planted late rows, whose ts lies below the
    receiving partition's watermark when they arrive; planted duplicates
    replay an earlier on-time row of the same partition that is still
    above the watermark. Both plants are exact by construction, so the
    engine's late/dup counters must equal them.
    """
    rng = np.random.default_rng(seed)
    P = STREAM_PARTITIONS
    convs = np.array([f"s{c:04d}" for c in range(STREAM_CONVS)], dtype=object)
    cpart = route(convs, P)
    w = 1.0 / np.arange(1, STREAM_CONVS + 1) ** 1.2
    w /= w.sum()
    roles = np.array(["user", "assistant", "system", "tool", "other"])

    due = []
    t = 0.0
    for rate, secs in phases:
        k = int(round(rate * secs))
        due.append(t + (np.arange(k) + 1) / rate)
        t += secs
    due_s = np.concatenate(due)
    n = len(due_s)
    nominal = EPOCH_US + (due_s * 1e6).astype(np.int64)
    kind = rng.random(n)
    conv_i = rng.choice(STREAM_CONVS, size=n, p=w)
    jit = np.where(rng.random(n) < STREAM_DISORDER,
                   rng.integers(0, STREAM_JITTER_US, n), 0)
    role_i = rng.choice(5, size=n, p=[0.4, 0.35, 0.1, 0.1, 0.05])
    texts = _texts(rng, n, 60.0, 0.6, rng.random(n) < 0.06)

    conv_o = np.empty(n, dtype=object)
    uid_o = np.empty(n, dtype=np.int64)
    ts_o = np.empty(n, dtype=np.int64)
    role_o = np.empty(n, dtype=object)
    text_o = np.empty(n, dtype=object)
    tool_o = np.empty(n, dtype=object)
    late_o = np.zeros(n, dtype=bool)
    dup_o = np.zeros(n, dtype=bool)
    max_ts = np.full(P, -(1 << 62), dtype=np.int64)
    recent: list[list[int]] = [[] for _ in range(P)]
    warm = int(0.05 * n)
    for i in range(n):
        c = conv_i[i]
        p = cpart[c]
        plant = kind[i] if i >= warm else 1.0
        src = -1
        if plant < STREAM_DUP:
            floor = max_ts[p] - STREAM_LATENESS_US + 20_000
            cand = [j for j in recent[p][-64:] if ts_o[j] >= floor]
            if cand:
                src = cand[int(rng.integers(0, len(cand)))]
        if src >= 0:
            conv_o[i], uid_o[i], ts_o[i] = conv_o[src], uid_o[src], ts_o[src]
            role_o[i], text_o[i], tool_o[i] = \
                role_o[src], text_o[src], tool_o[src]
            dup_o[i] = True
            continue
        conv_o[i] = convs[c]
        uid_o[i] = i + 1
        role_o[i] = roles[role_i[i]]
        text_o[i] = texts[i]
        tool_o[i] = "grep" if role_i[i] == 3 else ""
        if STREAM_DUP <= plant < STREAM_DUP + STREAM_LATE \
                and max_ts[p] > -(1 << 61):
            ts_o[i] = max_ts[p] - STREAM_LATENESS_US \
                - int(rng.integers(50_000, 1_000_000))
            late_o[i] = True
            continue
        ts_o[i] = nominal[i] - jit[i]
        max_ts[p] = max(max_ts[p], ts_o[i])
        recent[p].append(i)
        if len(recent[p]) > 256:
            del recent[p][:128]

    part = cpart[np.searchsorted(convs, conv_o)] if n else np.zeros(0, int)
    return {
        "due_s": due_s, "conv_id": conv_o, "turn_uid": uid_o, "ts": ts_o,
        "role": role_o, "text": text_o, "tool": tool_o, "part": part,
        "late": late_o, "dup": dup_o, "rows": n,
    }
