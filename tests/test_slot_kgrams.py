"""Slot path of the sliding char stats: the (k-gram, slot) roll-up and the
spread into windows, against a brute-force per-window k-gram count."""

import numpy as np
import pandas as pd
import pytest

from fasta_windows_ray.stages import window_stats as W

CBITS = 3                  # classes 0..7; 0 is the sentinel after a turn


def _slots(rng, c):
    """Sorted distinct (cg, slot) pairs with gaps, each group's slots in
    its slab [slab * L, slab * L + L + c - 1), and the window code of each
    (slot, cover) at q * c + j: -1 for a start before slot 0 (the offset
    edge) or outside the group's slab (the slab edge). Codes are a random
    permutation, so no order can come from them."""
    L = 8
    pairs = []
    for cg in range(int(rng.integers(2, 5))):
        slab = int(rng.integers(0, 3))
        span = np.arange(slab * L, slab * L + L + c - 1)
        keep = rng.random(len(span)) < rng.uniform(0.2, 0.9)
        keep[rng.integers(len(span))] = True
        pairs += [(cg, slab, int(s)) for s in span[keep]]
    wins = sorted({(cg, s - j) for cg, slab, s in pairs for j in range(c)
                   if s - j >= 0 and slab * L <= s - j < (slab + 1) * L})
    perm = rng.permutation(len(wins))
    code = {wn: int(perm[i]) for i, wn in enumerate(wins)}
    wc = np.array([code.get((cg, s - j), -1)
                   for cg, _, s in pairs for j in range(c)], dtype=np.int32)
    return (np.array([p[0] for p in pairs]), np.array([p[2] for p in pairs]),
            wc, {v: k for k, v in code.items()})


def _rows(rng, n_q):
    """Distinct (4-gram, q) rows sorted by (c0, c1..c3, q), with counts.
    Each 4-gram sits in several slots of several groups; classes after a
    0 are 0, as after a turn's end."""
    grams = set()
    while len(grams) < 12:
        g = [int(rng.integers(1, 8))] + list(rng.integers(0, 8, 3))
        for i in range(1, 4):
            if g[i] == 0:
                g[i:] = [0] * (4 - i)
        grams.add(tuple(int(x) for x in g))
    rows = sorted((g, int(q)) for g in grams
                  for q in rng.choice(n_q, int(rng.integers(1, n_q + 1)),
                                      replace=False))
    hi = np.array([g[0] for g, _ in rows], dtype=np.int64)
    lo = np.array([(g[1] << 2 * CBITS) | (g[2] << CBITS) | g[3]
                   for g, _ in rows], dtype=np.int64)
    q = np.array([r[1] for r in rows])
    cnt = rng.integers(1, 50, len(rows))
    return rows, hi, lo, q, cnt


def _brute(rows, cnt, wc, win_of, c, k):
    """(window, count) of every window's k-grams, in (k-gram, cg, window
    start) order, by adding each row's count to each window it covers."""
    acc = {}
    for (g, q), n in zip(rows, cnt):
        if k > 1 and g[k - 1] == 0:
            continue                     # ends past its turn
        for j in range(c):
            w = int(wc[q * c + j])
            if w >= 0:
                key = (g[:k], *win_of[w])
                acc[key] = acc.get(key, 0) + int(n)
    keys = sorted(acc)
    code = {v: w for w, v in win_of.items()}
    return ([code[key[1:]] for key in keys], [acc[key] for key in keys],
            [key[0] for key in keys])


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", range(4))
def test_slot_kgrams_match_brute_force(c, seed):
    rng = np.random.default_rng(100 * c + seed)
    sq_cg, sq_slot, wc, win_of = _slots(rng, c)
    rows, hi, lo, q, cnt = _rows(rng, len(sq_cg))
    cs = W._slot_axis(sq_cg, sq_slot, c, np.int32)
    got = list(W._slot_kgrams(hi, lo, q.astype(np.int32),
                              cnt.astype(np.int32), CBITS, 4, cs, wc, c))
    assert [k for k, _, _ in got] == [4, 3, 2, 1]
    for k, w, n in got:
        ew, en, _ = _brute(rows, cnt, wc, win_of, c, k)
        assert w.dtype == n.dtype == np.int32
        assert w.tolist() == ew, k
        assert n.tolist() == en, k


@pytest.mark.parametrize("c", [1, 3, 6])
def test_spread_window_kgrams_ascending(c):
    """Each window gets each k-gram once, in ascending k-gram order. The
    count of k-gram i is 1 + i * (c + 1) per row, so a window's total m
    rows of it, m <= c, give back i."""
    rng = np.random.default_rng(c)
    sq_cg, sq_slot, wc, win_of = _slots(rng, c)
    rows, hi, lo, q, _ = _rows(rng, len(sq_cg))
    item = np.unique([g for g, _ in rows], axis=0, return_inverse=True)[1]
    item = item.ravel().astype(np.int32)
    cnt = (1 + item * (c + 1)).astype(np.int32)
    w, tot = W._spread(item, q.astype(np.int32), cnt,
                       W._slot_axis(sq_cg, sq_slot, c, np.int32), wc, c)
    m = tot % (c + 1)
    assert (m >= 1).all()
    got = pd.DataFrame({"w": w, "item": tot // (c + 1) // m})
    for _, items in got.groupby("w", sort=False)["item"]:
        assert (np.diff(items.to_numpy()) > 0).all()
    want = {(w_, i) for i in range(item.max() + 1)
            for w_ in {int(wc[q_ * c + j]) for q_ in q[item == i]
                       for j in range(c)} - {-1}}
    assert set(zip(got["w"].tolist(), got["item"].tolist())) == want


def test_roll_up_sums_and_sorts():
    rng = np.random.default_rng(5)
    item = rng.integers(0, 30, 500).astype(np.int32)
    q = rng.integers(0, 20, 500).astype(np.int32)
    cnt = rng.integers(1, 9, 500).astype(np.int32)
    ri, rq, rc = W._roll_up(item, q, cnt, W._bits(19))
    want = pd.DataFrame({"i": item, "q": q, "n": cnt}).groupby(
        ["i", "q"])["n"].sum().reset_index()
    assert ri.dtype == rq.dtype == rc.dtype == np.int32
    assert ri.tolist() == want["i"].tolist()
    assert rq.tolist() == want["q"].tolist()
    assert rc.tolist() == want["n"].tolist()


def test_roll_up_wide_keys(monkeypatch):
    """Items past 63 bits with the slot and count take _argsort_pairs and
    give the same rows."""
    rng = np.random.default_rng(6)
    base = rng.integers(0, 40, 400)
    q = rng.integers(0, 9, 400)
    cnt = rng.integers(1, 9, 400)
    narrow = W._roll_up(base, q, cnt, W._bits(8))
    calls = []
    real = W._argsort_pairs
    monkeypatch.setattr(W, "_argsort_pairs", lambda *a: calls.append(1)
                        or real(*a))
    wide = W._roll_up(base + (1 << 58), q, cnt, W._bits(8))
    assert calls
    assert (wide[0] - (1 << 58)).tolist() == narrow[0].tolist()
    assert wide[1].tolist() == narrow[1].tolist()
    assert wide[2].tolist() == narrow[2].tolist()


def test_int64_dtype_gives_same_stats(monkeypatch):
    """A call too large for int32 runs the slot path in int64 and gives
    the same table."""
    rng = np.random.default_rng(7)
    n = 600
    S = 1_000_000
    df = pd.DataFrame({
        "conv_id": [f"c{i % 5}" for i in range(n)],
        "turn_uid": np.arange(n),
        "role": rng.choice(["user", "assistant", "tool"], n),
        "text": ["".join(rng.choice(list("abcab ÄΩ"), rng.integers(0, 12)))
                 for _ in range(n)],
        "ts": (np.sort(rng.integers(0, 200, n)) * S).astype("datetime64[us]"),
    })
    inst = W.BucketWindowStats(profile="full", window_size_us=20 * S,
                               step_us=5 * S)
    seen = []
    real = W._spread
    monkeypatch.setattr(W, "_spread", lambda *a: seen.append(a[2].dtype)
                        or real(*a))
    small = inst(df)
    monkeypatch.setattr(W, "_I32_MAX", 0)
    large = inst(df)
    assert set(seen[:4]) == {np.dtype(np.int32)}
    assert set(seen[4:]) == {np.dtype(np.int64)}
    pd.testing.assert_frame_equal(small, large, check_exact=True)
