"""Batch kernels == their per-window oracles.

``ctw_batch`` (closed form over the final context tree) against the
sequential ``ctw_bits_per_base``; ``seq_stats_batch``,
``kgram_diversity_batch`` and ``entropy_fast_batch`` against
``seq_stats_dna``, ``kgram_diversity_dna`` and ``entropy_fast``. No Ray.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fasta_windows_ray import kernels as K

FLUSH = 255
IDMAP = {i: i for i in range(4)}


def _oracle(win, depth):
    return K.ctw_bits_per_base([None if s == FLUSH else int(s) for s in win],
                               max_depth=depth, symbol_map=IDMAP, m=4)


def _batch(wins, depth):
    buf = (np.concatenate([np.asarray(w, dtype=np.uint8) for w in wins])
           if wins else np.zeros(0, dtype=np.uint8))
    offsets = np.cumsum([0] + [len(w) for w in wins])
    return K.ctw_batch(buf, offsets, depth)


@given(st.lists(st.lists(st.sampled_from([0, 1, 2, 3, FLUSH]),
                         max_size=1500), max_size=4),
       st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_ctw_batch_equals_sequential(wins, depth):
    got = _batch(wins, depth)
    assert len(got) == len(wins)
    for w, g in zip(wins, got):
        assert abs(g - _oracle(w, depth)) <= 1e-12


@pytest.mark.parametrize("depth", range(7))
def test_ctw_batch_random_streams(depth):
    """Seeded streams of every length class up to 1500, from flush-free
    to flush-heavy, one batch per depth."""
    rng = np.random.default_rng(depth)
    wins = []
    for n in (0, 1, 2, 3, 5, 6, 7, 8, 13, 64, 257, 1000, 1500):
        p_flush = rng.choice([0.0, 0.01, 0.2, 0.6])
        p = np.append(rng.dirichlet(np.ones(4)) * (1 - p_flush), p_flush)
        wins.append(rng.choice([0, 1, 2, 3, FLUSH], n, p=p))
    for w, g in zip(wins, _batch(wins, depth)):
        assert abs(g - _oracle(w, depth)) <= 1e-12


def test_ctw_batch_empty_and_all_flush():
    assert len(_batch([], 6)) == 0
    assert _batch([[]], 6).tolist() == [0.0]
    assert _batch([[FLUSH] * 9, [], [FLUSH]], 6).tolist() == [0.0] * 3
    # all-N DNA window
    codes = K.DNA_CODES[np.frombuffer(b"NNNNnnnn", dtype=np.uint8)]
    assert K.ctw_batch(codes, [0, 8], 6).tolist() == [0.0]
    assert K.ctw_bits_per_base("NNNNnnnn", 6) == 0.0


def test_ctw_batch_flush_grid():
    """The 48x48 a * 'other' * b grid of test_ctw_oracle, all in one
    batch: the leaf rule after a flush must discard deeper mixtures."""
    wins = [[0] * a + [FLUSH] + [0] * b for a in range(48) for b in range(48)]
    for w, g in zip(wins, _batch(wins, 6)):
        assert abs(g - K.ctw_roles(
            ["user" if s == 0 else "other" for s in w])) <= 1e-12


def test_ctw_batch_chunking(monkeypatch):
    """Tiny chunks (windows split across many kernel calls, one window
    larger than a chunk) give the same values as one chunk."""
    rng = np.random.default_rng(5)
    wins = [rng.choice([0, 1, 2, 3, FLUSH], int(n))
            for n in rng.integers(0, 90, 40)] + [rng.integers(0, 4, 300)]
    whole = _batch(wins, 6)
    monkeypatch.setattr(K, "_CHUNK_SYMS", 64)
    monkeypatch.setattr(K, "_CHUNK_WINDOWS", 3)
    assert np.array_equal(_batch(wins, 6), whole)


# windows whose contexts repeat up to the window length, where a context
# seen once (the kernel's leaf cut) sits deep under repeated ones
PERIODIC = [[0, 1] * 150, [0, 0, 1] * 100, [0, 1, 2, 3] * 40,
            [0, 1] * 40 + [FLUSH] + [0, 1] * 40,
            [0, 0, 1] * 20 + [FLUSH] + [0, 1, 0, 0, 1] * 12 + [2]]


@pytest.mark.parametrize("depth", [21, 26, 40, -1])
def test_ctw_batch_deep_and_unbounded_depths(depth):
    """Any depth the scalar kernel takes: deeper than the 4^depth keys
    could pack into int64, and negative (no cap on the context).
    Periodic windows, with a flush inside a repeat, included."""
    rng = np.random.default_rng(abs(depth))
    wins = [rng.choice([0, 1, 2, 3, FLUSH], int(n), p=[.3, .3, .2, .19, .01])
            for n in (0, 1, 25, 60, 300)] + [[1] * 80] + PERIODIC
    for w, g in zip(wins, _batch(wins, depth)):
        assert abs(g - _oracle(w, depth)) <= 1e-12


@pytest.mark.parametrize("depth", [0, 3, 6, -1])
def test_ctw_batch_wide_keys_take_lexsort(monkeypatch, depth):
    """With the packed-width limit at 0 every level after the first takes
    the ``np.lexsort`` branch; it must give the packed sort's bits."""
    rng = np.random.default_rng(7)
    wins = [rng.choice([0, 1, 2, 3, FLUSH], int(n), p=[.3, .3, .2, .19, .01])
            for n in (0, 1, 25, 60, 300, 1000)] + PERIODIC
    packed = _batch(wins, depth)
    monkeypatch.setattr(K, "_CTW_PACK_BITS", 0)
    assert np.array_equal(_batch(wins, depth).view(np.uint64),
                          packed.view(np.uint64))


def _pinned_inputs():
    """Seeded inputs of the three shapes ``ctw_batch`` runs on: 1 kb DNA
    windows with N runs (the FASTA job), short role-like windows with
    flushes (the window-stats role column), and periodic windows."""
    rng = np.random.default_rng(20261020)
    dna = K.DNA_CODES[rng.choice(np.frombuffer(b"ACGTacgtN", np.uint8),
                                 20_500, p=[.2] * 4 + [.04] * 4 + [.04])]
    for s in rng.integers(0, 20_000, 12):
        dna[s:s + rng.integers(1, 300)] = FLUSH
    lens = rng.integers(1, 60, 600)
    roles = rng.choice([0, 1, 2, 3, FLUSH], int(lens.sum()),
                       p=[.45, .4, .05, .05, .05])
    periodic = [np.asarray(w, dtype=np.uint8) for w in PERIODIC]
    periodic += [np.tile(rng.integers(0, 4, n), 600 // n)
                 .astype(np.uint8) for n in (1, 2, 5, 7)]
    return {
        "dna": (dna, np.append(np.arange(0, 20_500, 1000), 20_500)),
        "roles": (roles, np.cumsum(np.append(0, lens))),
        "periodic": (np.concatenate(periodic),
                     np.cumsum([0] + [len(w) for w in periodic])),
    }


# md5 of ``ctw_batch(...).view(np.uint64)`` for each input and depth, as
# the per-level argsort kernel computed them. These pin every bit (x86-64
# Linux, this project's numpy), where the oracle tests allow 1e-12.
PINNED = {
    ("dna", 0): "5e1064af4ef5488558b3bad00108d6ff",
    ("dna", 1): "e7e41c8630117d1904b88a210002f362",
    ("dna", 3): "06229a39308b4e3da2405a133720a976",
    ("dna", 6): "9b7bd0662a91098195f8f71d0db207a6",
    ("dna", 21): "c7fa679655e5070f3a04a843459407e3",
    ("dna", -1): "c7fa679655e5070f3a04a843459407e3",
    ("roles", 0): "2b3c5f329aea4ab0d1f18b110d00ea7c",
    ("roles", 1): "e4d36a6d2a55756659578749e788afeb",
    ("roles", 3): "8a01dbbeba8deec18dcc834f535856d6",
    ("roles", 6): "f8486bf02be262e64fdb692d808c27a9",
    ("roles", 21): "408fa36e4c270dc00f855a087ab40e20",
    ("roles", -1): "408fa36e4c270dc00f855a087ab40e20",
    ("periodic", 0): "9aeab0c2dac68b4bb8210df056570ae2",
    ("periodic", 1): "3435cbd1f01bfc81fd55fec28c7cce36",
    ("periodic", 3): "f6fedfdbd766b88c32548c7fcf7dc11e",
    ("periodic", 6): "db15fe37d1dd2bc5c446b3d00ab75257",
    ("periodic", 21): "e31f6653d10d783d801504973940a8cd",
    ("periodic", -1): "a531e0a9f3416fcb5656b50e3d5f33ea",
}


@pytest.mark.parametrize("case", ["dna", "roles", "periodic"])
@pytest.mark.parametrize("depth", [0, 1, 3, 6, 21, -1])
def test_ctw_batch_pinned_bits(case, depth):
    sym, offsets = _pinned_inputs()[case]
    got = K.ctw_batch(sym, offsets, depth)
    assert len(got) == len(offsets) - 1
    assert hashlib.md5(got.view(np.uint64).tobytes()).hexdigest() \
        == PINNED[case, depth]


def test_ctw_batch_dna_codes_match_str_kernel():
    seq = "ACGTacgtNNRYacgggTTTAnCCsw" * 7
    buf = np.frombuffer(seq.encode(), dtype=np.uint8)
    offsets = [0, 10, 11, 50, len(seq)]
    got = K.ctw_batch(K.DNA_CODES[buf], offsets, 6)
    for (lo, hi), g in zip(zip(offsets, offsets[1:]), got):
        assert abs(g - K.ctw_bits_per_base(seq[lo:hi], 6)) <= 1e-12


# --- seq stats, k-grams, entropy-mode entropy --------------------------------

def _dna_windows(seed):
    """Windows with soft-masked runs, N/n runs and IUPAC codes, of
    lengths 0..1200 (k-gram windows shorter than k included)."""
    rng = np.random.default_rng(seed)
    alphabet = np.frombuffer(b"ACGTacgtNnRYSWrysw", dtype=np.uint8)
    p = np.array([4] * 4 + [2] * 4 + [1] * 2 + [0.3] * 8)
    wins = []
    for n in [0, 1, 2, 3, 4, 5] + rng.integers(6, 1200, 14).tolist():
        wins.append(alphabet[rng.choice(len(alphabet), n, p=p / p.sum())]
                    .tobytes().decode())
    buf = np.frombuffer("".join(wins).encode(), dtype=np.uint8)
    return wins, buf, np.cumsum([0] + [len(w) for w in wins])


def _same(a, b):
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12


@pytest.mark.parametrize("masked", [False, True])
def test_seq_stats_batch_equals_oracle(masked):
    wins, buf, offsets = _dna_windows(1)
    got = K.seq_stats_batch(buf, offsets, masked=masked)
    for i, w in enumerate(wins):
        want = K.seq_stats_dna(w, masked=masked)
        assert got["nuc_counts"][i].tolist() == want["nuc_counts"]
        assert got["len"][i] == want["len"]
        for key in ("gc_proportion", "gc_skew", "at_skew", "shannon_entropy",
                    "g_s", "c_s", "a_s", "t_s", "n_s", "masked"):
            assert _same(got[key][i], want[key]), (i, key)


def test_kgram_diversity_batch_equals_oracle():
    wins, buf, offsets = _dna_windows(2)
    got = K.kgram_diversity_batch(buf, offsets)
    for i, w in enumerate(wins):
        want = K.kgram_diversity_dna(w)
        for name in ("di", "tri", "tetra"):
            assert got[f"{name}_freq"][i].tolist() \
                == want[f"{name}_freq"].tolist()
            assert _same(got[f"{name}_diversity"][i],
                         want[f"{name}_diversity"]), (i, name)


@pytest.mark.parametrize("masked", [False, True])
def test_entropy_fast_batch_equals_oracle(masked):
    wins, buf, offsets = _dna_windows(3)
    got = K.entropy_fast_batch(buf, offsets, masked=masked)
    for w, g in zip(wins, got):
        assert _same(g, K.entropy_fast(w, masked))


@pytest.mark.parametrize("depth", [3, 24, -1])
def test_window_stats_ctw_matches_stream_engine(depth):
    """The batch job's CTW columns (``ctw_batch``) equal the
    stream engine's scalar kernels at any depth the engine takes."""
    import pandas as pd

    from fasta_windows_ray.stages.window_stats import BucketWindowStats
    from fasta_windows_ray.state.engine import StreamEngine, WindowConfig, \
        emitted_to_frame

    S = 1_000_000
    rng = np.random.default_rng(11)
    n = 120
    df = pd.DataFrame({
        "conv_id": rng.choice(["a", "b"], n),
        "turn_uid": np.arange(n, dtype=np.int64),
        "role": rng.choice(["user", "assistant", "system", "tool", "zzz"], n),
        "text": ["".join(rng.choice(["ab", "7", " ", "!?", "Zz"], 5))
                 for _ in range(n)],
        "tool": [""] * n,
        "ts": pd.to_datetime(1_700_000_000 * S + np.arange(n) * 60 * S,
                             unit="us"),
    })
    vec = BucketWindowStats(profile="full", ctw_depth=depth, ctw_text=True,
                            window_size_us=3600 * S, step_us=3600 * S)(df)
    eng = StreamEngine(WindowConfig(kind="tumbling", size_us=3600 * S,
                                    ctw_depth=depth, ctw_text=True))
    st = emitted_to_frame(eng.process_rows(df) + eng.flush(), "tumbling")
    key = ["conv_id", "window_start"]
    vec = vec.sort_values(key).reset_index(drop=True)
    st = st.sort_values(key).reset_index(drop=True)
    assert len(vec) == len(st) > 2
    # a negative depth disables the batch job's role CTW column only
    cols = ["ctw_text_bpb"] + (["ctw_roles_bpb"] if depth >= 0 else [])
    for col in cols:
        np.testing.assert_allclose(vec[col].astype(float),
                                   st[col].astype(float), rtol=0, atol=1e-12)


def test_repeated_role_strings_each_get_the_oracle_value(monkeypatch):
    """Windows of one ``table`` call whose role strings repeat each get
    the oracle's value, from one ``ctw_batch`` call per CTW column over
    the symbols of every window."""
    import pyarrow as pa

    from fasta_windows_ray.stages.window_stats import (ROLE_ORDER,
                                                       BucketWindowStats)

    S = 1_000_000
    wins = [bytes([0, 1, 2, 3][:i]) + bytes([FLUSH, i % 4]) for i in range(5)]
    wins += wins[:2]
    role = {**dict(enumerate(ROLE_ORDER)), FLUSH: "other"}
    words = ["ab", "7 ", "!?", "é", "Zz", ""]
    rows = [(w, j, role[s], words[j]) for w, win in enumerate(wins)
            for j, s in enumerate(win)]
    ts = pa.timestamp("us")
    t = pa.table({
        "conv_id": ["c"] * len(rows),
        "turn_uid": list(range(len(rows))),
        "role": [r[2] for r in rows], "text": [r[3] for r in rows],
        "tool": [""] * len(rows),
        "ts": pa.array([r[0] * 10 * S + r[1] * S for r in rows], ts),
        "window_start": pa.array([r[0] * 10 * S for r in rows], ts)})
    calls = []
    real = K.ctw_batch

    def counting(buf, offsets, depth):
        calls.append(len(offsets) - 1)
        return real(buf, offsets, depth)

    monkeypatch.setattr(K, "ctw_batch", counting)
    got = BucketWindowStats(ctw_text=True, window_size_us=10 * S).table(t)
    assert calls == [len(wins)] * 2
    np.testing.assert_allclose(got["ctw_roles_bpb"].to_numpy(),
                               [_oracle(w, 6) for w in wins],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(got["ctw_text_bpb"].to_numpy(),
                               [K.ctw_text_classes(words[:len(w)], 6)
                                for w in wins], rtol=0, atol=1e-12)


def test_ctw_equal_ts_turns_follow_turn_idx():
    """Without ``turn_uid``, turns sharing one ts are ordered by
    ``turn_idx``, as in the stream engine, not by row position: three
    turns stored in turn_idx order 2, 0, 1."""
    import pandas as pd

    from fasta_windows_ray.stages.window_stats import BucketWindowStats
    from fasta_windows_ray.state.engine import StreamEngine, WindowConfig, \
        emitted_to_frame

    S = 1_000_000
    df = pd.DataFrame({
        "conv_id": ["c"] * 3,
        "turn_idx": np.array([2, 0, 1], dtype=np.int32),
        "role": ["user", "assistant", "assistant"],
        "text": ["a", "b", "c"], "tool": [""] * 3,
        "ts": pd.to_datetime([60 * S] * 3, unit="us"),
    })
    vec = BucketWindowStats(profile="full", ctw_depth=3,
                            window_size_us=3600 * S, step_us=3600 * S)(df)
    eng = StreamEngine(WindowConfig(kind="tumbling", size_us=3600 * S,
                                    ctw_depth=3))
    st = emitted_to_frame(eng.process_rows(df) + eng.flush(), "tumbling")
    assert round(st["ctw_roles_bpb"][0], 4) == 1.2103  # row order: 1.5594
    assert abs(vec["ctw_roles_bpb"][0] - st["ctw_roles_bpb"][0]) <= 1e-12
