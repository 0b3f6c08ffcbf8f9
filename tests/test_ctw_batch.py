"""Batch kernels == their per-window oracles.

``ctw_batch`` (closed form over the final context tree) against the
sequential ``ctw_bits_per_base``; ``seq_stats_batch``,
``kgram_diversity_batch`` and ``entropy_fast_batch`` against
``seq_stats_dna``, ``kgram_diversity_dna`` and ``entropy_fast``. No Ray.
"""

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


@pytest.mark.parametrize("depth", [21, 26, 40, -1])
def test_ctw_batch_deep_and_unbounded_depths(depth):
    """Any depth the scalar kernel takes: deeper than the 4^depth keys
    could pack into int64, and negative (no cap on the context)."""
    rng = np.random.default_rng(abs(depth))
    wins = [rng.choice([0, 1, 2, 3, FLUSH], int(n), p=[.3, .3, .2, .19, .01])
            for n in (0, 1, 25, 60, 300)] + [[1] * 80]
    for w, g in zip(wins, _batch(wins, depth)):
        assert abs(g - _oracle(w, depth)) <= 1e-12


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


def test_ctw_distinct_computes_each_string_once(monkeypatch):
    """Repeated symbol strings of one call reach ``ctw_batch`` once, and
    every window gets its own string's value back."""
    from fasta_windows_ray.stages import window_stats as W

    wins = [bytes([0, 1, 2, 3][:i]) + bytes([FLUSH, i % 4]) for i in range(5)]
    sizes = []
    real = K.ctw_batch

    def counting(buf, offsets, depth):
        sizes.append(len(offsets) - 1)
        return real(buf, offsets, depth)

    monkeypatch.setattr(K, "ctw_batch", counting)
    got = W._ctw_distinct(wins + wins[:2], 6)
    assert sizes == [5]
    want = [_oracle(w, 6) for w in wins]
    np.testing.assert_allclose(got, want + want[:2], rtol=0, atol=1e-12)


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
