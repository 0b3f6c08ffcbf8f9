"""Hypothesis property tests for the core invariants."""

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from fasta_windows_ray import kernels as K
from fasta_windows_ray.windows import session_ids, sliding_starts_expand, \
    tumbling_start

texts = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                min_size=0, max_size=40)


@given(st.lists(texts, min_size=0, max_size=8), st.integers(2, 4))
@settings(max_examples=50, deadline=None)
def test_kgram_vectorized_equals_scalar(ts, k):
    merged: dict = {}
    for t in ts:
        for kg, c in K.kgram_counts(t, k, skip_char=None).items():
            merged[kg] = merged.get(kg, 0) + c
    assert K.kgram_counts_vectorized(ts, k) == merged


@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=50),
       st.integers(1, 1000))
@settings(max_examples=50, deadline=None)
def test_tumbling_assignment_invariant(xs, size):
    ws = tumbling_start(np.asarray(xs), size)
    assert ((ws <= xs) & (np.asarray(xs) < ws + size)).all()
    assert (ws % size == 0).all()


@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=30),
       st.integers(1, 500), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_sliding_covers_exactly(xs, step, c):
    size = step * c
    rows, starts = sliding_starts_expand(np.asarray(xs), size, step)
    # every emitted (row, start) covers the row's value
    vals = np.asarray(xs)[rows]
    assert ((starts <= vals) & (vals < starts + size)).all()
    # every row appears in at most c windows, and in exactly c when far
    # enough from the origin
    counts = np.bincount(rows, minlength=len(xs))
    assert (counts <= c).all()
    far = np.asarray(xs) >= size
    assert (counts[far] == c).all()


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
       st.integers(1, 10**5))
@settings(max_examples=50, deadline=None)
def test_session_ids_gap_invariant(ts, gap):
    t = np.sort(np.asarray(ts))
    sid = session_ids(t, gap)
    assert sid[0] == 0
    d = np.diff(t)
    brk = np.diff(sid)
    assert ((brk == 1) == (d > gap)).all()


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10**6)),
                min_size=1, max_size=40),
       st.integers(1, 10**5))
@settings(max_examples=50, deadline=None)
def test_session_ids_with_key_equals_per_key(rows, gap):
    """One keyed call over (key, ts)-sorted rows gives each key the
    sessions of its own call, numbered on from the previous key's."""
    key, ts = (np.asarray(c) for c in zip(*sorted(rows)))
    sid = session_ids(ts, gap, key)
    want, base = [], 0
    for k in np.unique(key):
        s = session_ids(ts[key == k], gap) + base
        want.extend(s.tolist())
        base = s[-1] + 1
    assert sid.tolist() == want


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
       st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1,
                max_size=8))
@settings(max_examples=100, deadline=None)
def test_quantiles_from_hist_equals_sorted_indexing(vals, qs):
    """Histogram-walk quantiles == inverted-CDF indexing of the fully
    sorted array, for any multiset and any q in [0, 1]. The reference
    index is DuckDB quantile_disc's for a DOUBLE q (a raw ceil(q*n)
    is not: see the DuckDB cross-check below)."""
    from fasta_windows_ray.stages.analytics import quantiles_from_hist
    arr = np.asarray(vals, dtype=np.int64)
    uniq, cnt = np.unique(arr, return_counts=True)
    srt = np.sort(arr)
    n = len(arr)
    for q, v in quantiles_from_hist(uniq, cnt, qs):
        idx = max(1, n - int(np.floor(n - q * n))) - 1
        assert v == srt[idx]


def test_quantiles_from_hist_matches_duckdb_quantile_disc():
    """quantiles_from_hist == DuckDB quantile_disc(v, q::DOUBLE) on
    seeded multisets, with q at and a few ulps either side of k/n,
    where ceil(q*n) and DuckDB disagree."""
    import duckdb

    from fasta_windows_ray.stages.analytics import quantiles_from_hist
    rng = np.random.default_rng(11)
    cases = [([0, 1, 1, 1], 0.25000000000000006), (list(range(100)), 0.07),
             ([5], 0.0), ([2, 9], 1.0)]
    for _ in range(150):
        n = int(rng.integers(1, 120))
        vals = rng.integers(-20, 20, n).tolist()
        k = int(rng.integers(0, n + 1))
        q = k / n + float(rng.choice([-1, 0, 1])) * float(
            rng.choice([1e-16, 1e-15, 1e-14, 1e-13]))
        cases.append((vals, min(max(q, 0.0), 1.0)))
    con = duckdb.connect()
    for vals, q in cases:
        want = con.execute(
            "SELECT quantile_disc(v, $1::DOUBLE) "
            "FROM (SELECT unnest($2::BIGINT[]) AS v)", [q, vals]).fetchone()[0]
        uniq, cnt = np.unique(np.asarray(vals, dtype=np.int64),
                              return_counts=True)
        (_, got), = quantiles_from_hist(uniq, cnt, [q])
        assert got == want, (vals, q)


@given(st.lists(st.tuples(st.integers(0, 3),      # key
                          st.integers(0, 5),      # ts (many ties)
                          st.integers(0, 2)),     # type code
                min_size=0, max_size=40))
@settings(max_examples=60, deadline=None)
def test_match_sequence_scan_equals_reference(rows):
    """The REAL vectorized shift-compare CEP kernel (cep.scan_matches)
    == a per-key Python scan, including heavy ts ties (deterministic
    (ts, id) ordering) and cross-key boundaries."""
    import pandas as pd
    from fasta_windows_ray.stages.cep import scan_matches
    pat = ["t0", "t1"]
    within = 10**9
    df = pd.DataFrame({
        "k": [r[0] for r in rows],
        "ts": pd.to_datetime([r[1] * 1000 for r in rows], unit="us"),
        "eid": np.arange(len(rows)),
        "ty": ["t%d" % r[2] for r in rows],
    })
    out = scan_matches(df, "k", "ty", "ts", "eid", pat, within)
    got = sorted(zip(out["k"], out["start_event_id"], out["end_event_id"]))
    want = []
    for k, g in df.sort_values(["ts", "eid"]).groupby("k"):
        t = g["ty"].to_numpy(); e = g["eid"].to_numpy()
        tt = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        for i in range(len(g) - 1):
            if t[i] == pat[0] and t[i + 1] == pat[1] \
                    and tt[i + 1] - tt[i] <= within:
                want.append((k, e[i], e[i + 1]))
    assert got == sorted(want)


# ---------------------------------------------------------------------------
# Round-4 sketch kernels (no Ray needed)
# ---------------------------------------------------------------------------

@given(st.lists(st.text(min_size=0, max_size=8), min_size=1, max_size=300),
       st.integers(1, 150))
@example(keys=["", "\x00"], cut=1)
@settings(max_examples=60, deadline=None)
def test_hll_registers_merge_any_split(keys, cut):
    """Register-wise max over ANY 2-way split equals the whole-stream
    registers (the HLL mergeability invariant)."""
    import pandas as pd
    from fasta_windows_ray.stages.sketches import hll_partial
    p = 8

    def regs(ks):
        r = np.zeros(1 << p, np.int64)
        if len(ks):
            idx, rho = hll_partial(pd.Series(ks, dtype=object), p)
            np.maximum.at(r, idx, rho)
        return r

    cut = min(cut, len(keys))
    whole = regs(keys)
    merged = np.maximum(regs(keys[:cut]), regs(keys[cut:]))
    assert (whole == merged).all()


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=32),
                min_size=1, max_size=500),
       st.integers(20, 400))
@settings(max_examples=60, deadline=None)
def test_tdigest_compress_invariants(vals, delta):
    """Compression preserves total weight and weighted mean exactly,
    emits sorted centroids, and never grows the centroid count."""
    from fasta_windows_ray.stages.sketches import tdigest_compress
    v = np.asarray(vals, np.float64)
    m, w = tdigest_compress(v, np.ones(len(v)), delta)
    assert len(m) <= len(v)
    assert w.sum() == pytest.approx(len(v))
    assert (m * w).sum() == pytest.approx(v.sum(), rel=1e-9, abs=1e-6)
    assert (np.diff(m) >= -1e-12).all()


@given(st.lists(st.floats(0, 1e3, allow_nan=False), min_size=2,
                max_size=300))
@settings(max_examples=60, deadline=None)
def test_tdigest_quantile_bounded_by_extremes(vals):
    from fasta_windows_ray.stages.sketches import (tdigest_compress,
                                                   tdigest_quantile)
    v = np.asarray(vals, np.float64)
    m, w = tdigest_compress(v, np.ones(len(v)), 100)
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        est = tdigest_quantile(m, w, [q])[0]
        assert v.min() - 1e-9 <= est <= v.max() + 1e-9


@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=200),
       st.integers(1, 100))
@settings(max_examples=40, deadline=None)
def test_bloom_membership_no_false_negative_property(keys, nb_exp):
    import pandas as pd
    from fasta_windows_ray.stages.bloom import (_bloom_positions,
                                                bloom_contains)
    n_bits = 1 << 12
    s = pd.Series(keys, dtype=object)
    pos = _bloom_positions(s, n_bits, 4)
    bm = np.zeros(n_bits // 64, np.uint64)
    np.bitwise_or.at(bm, pos.ravel() >> 6,
                     np.uint64(1) << (pos.ravel().astype(np.uint64)
                                      & np.uint64(63)))
    assert bloom_contains(bm, s, 4).all()


@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_ppm_roundtrip_property(h, w, seed):
    from fasta_windows_ray.stages.multimodal import ppm_decode, ppm_encode
    img = np.random.RandomState(seed).randint(
        0, 256, (h, w, 3)).astype(np.uint8)
    assert np.array_equal(ppm_decode(ppm_encode(img)), img)


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=60, deadline=None)
def test_ppm_decode_never_crashes_on_garbage(buf):
    """Arbitrary bytes either decode to a valid image or raise
    ValueError — no other exception type escapes the parser."""
    from fasta_windows_ray.stages.multimodal import ppm_decode
    try:
        img = ppm_decode(b"P6" + buf)
    except ValueError:
        pass
    else:
        assert img.ndim == 3 and img.shape[2] == 3


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_png_roundtrip_property(h, w, seed):
    from fasta_windows_ray.stages.multimodal import png_decode, png_encode
    img = np.random.RandomState(seed).randint(
        0, 256, (h, w, 3)).astype(np.uint8)
    assert np.array_equal(png_decode(png_encode(img)), img)


@given(st.binary(min_size=0, max_size=96))
@settings(max_examples=60, deadline=None)
def test_png_decode_never_crashes_on_garbage(buf):
    """Arbitrary bytes after the PNG signature either decode or raise
    ValueError — zlib/struct errors never escape raw."""
    from fasta_windows_ray.stages.multimodal import _PNG_SIG, png_decode
    try:
        png_decode(_PNG_SIG + buf)
    except ValueError:
        pass


@given(st.integers(1, 4000), st.integers(1, 2), st.integers(0, 2**32 - 1),
       st.sampled_from([8000, 16000, 44100]))
@settings(max_examples=40, deadline=None)
def test_wav_roundtrip_property(n, ch, seed, sr):
    from fasta_windows_ray.stages.audio import wav_decode, wav_encode
    pcm = np.random.RandomState(seed).randint(
        -32768, 32768, (n, ch)).astype(np.int16)
    out, sr2 = wav_decode(wav_encode(pcm, sr))
    assert sr2 == sr and np.array_equal(out, pcm)


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=60, deadline=None)
def test_wav_decode_never_crashes_on_garbage(buf):
    from fasta_windows_ray.stages.audio import wav_decode
    try:
        wav_decode(b"RIFF" + buf)
    except ValueError:
        pass


@given(st.lists(st.integers(0, 1000), min_size=2, max_size=8),
       st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_psi_properties(counts, scale):
    """PSI is symmetric, zero for proportional distributions, positive
    otherwise."""
    from fasta_windows_ray.stages.drift import psi
    p = np.asarray(counts, float)
    if p.sum() == 0:
        return
    assert psi(p, p * scale) == pytest.approx(0, abs=1e-9)
    q = p[::-1].copy()
    assert psi(p, q) == pytest.approx(psi(q, p))
    assert psi(p, q) >= -1e-12


@given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=105),
               min_size=0, max_size=12),
       st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_bpe_apply_reconstructs_word(word, seed):
    """Any merge ranking: the tokens always concatenate back to the
    EOW-marked word (BPE apply never loses or duplicates characters)."""
    from fasta_windows_ray.stages.bpe import EOW, apply_merges
    rng = np.random.RandomState(seed)
    # random plausible merge table over this alphabet
    syms = [chr(c) for c in range(97, 106)]
    pool = syms + [a + b for a in syms for b in syms[:3]] \
        + [s + EOW for s in syms]
    ranks = {}
    for i in range(rng.randint(0, 20)):
        a, b = pool[rng.randint(len(pool))], pool[rng.randint(len(pool))]
        ranks.setdefault((a, b), len(ranks))
    toks = apply_merges(word, ranks)
    want = word + EOW if word else ""
    assert "".join(toks) == want


# ---- temporal join laws (state/temporal.py vs stages/temporal.py) ----

_key_st = st.integers(0, 3)
_ts_st = st.integers(0, 50)


@st.composite
def _cdc_script(draw):
    """Random per-key version script: alternating insert/delete at
    strictly increasing ts per key -> (history rows, CDC rows)."""
    hist, cdc = [], []
    for k in range(draw(st.integers(1, 4))):
        times = sorted(draw(st.sets(st.integers(1, 60),
                                    min_size=1, max_size=5)))
        for i, t in enumerate(times):
            val = float(k * 100 + i)
            nxt = times[i + 1] if i + 1 < len(times) else None
            # each version either updates (delete+insert at nxt) or
            # the key dies at nxt, drawn per step
            die = draw(st.booleans()) if nxt is not None else False
            end = nxt if nxt is not None else None
            hist.append((f"k{k}", val, t * 1_000_000,
                         None if end is None else end * 1_000_000))
            cdc.append((f"k{k}", t * 1_000_000, "insert", val))
            if end is not None:
                cdc.append((f"k{k}", end * 1_000_000, "delete", val))
            if die:
                break
    return hist, cdc


@given(_cdc_script(),
       st.lists(st.tuples(st.integers(0, 5), _ts_st),
                min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_temporal_joiner_equals_interval_semantics(script, ev_spec):
    """TemporalJoiner (watermark state machine, in-order replay) ==
    the declarative interval semantics on random CDC scripts."""
    import pandas as pd
    from fasta_windows_ray.state.temporal import (TemporalConfig,
                                                  TemporalJoiner,
                                                  temporal_to_frame)
    hist, cdc = script
    hist_df = pd.DataFrame(hist, columns=["k", "v", "f", "t"])
    ev = pd.DataFrame({
        "k": [f"k{k}" for k, _ in ev_spec],
        "uid": np.arange(len(ev_spec), dtype=np.int64),
        "ts": np.asarray([t * 1_000_000 for _, t in ev_spec],
                         np.int64)})
    log = pd.concat([
        ev.rename(columns={"uid": "turn_uid"}).assign(
            side=0, _change=None, v=np.nan),
        pd.DataFrame(cdc, columns=["k", "ts", "_change", "v"]).assign(
            side=1, turn_uid=-1)],
        ignore_index=True).sort_values(
            ["ts", "side", "turn_uid"], kind="stable")
    cfg = TemporalConfig(value_cols=("v",), key_col="k",
                         uid_col="turn_uid")
    j = TemporalJoiner(cfg)
    rows = j.process_rows(log.reset_index(drop=True))
    rows.extend(j.flush())
    got = (temporal_to_frame(rows, cfg)
           .sort_values("turn_uid").reset_index(drop=True))
    got["ts"] = got["ts"].astype("datetime64[us]").astype("int64")

    # declarative truth: value where valid_from <= ts < valid_to
    want = []
    for _, e in ev.iterrows():
        m = hist_df[(hist_df["k"] == e["k"])
                    & (hist_df["f"] <= e["ts"])
                    & (hist_df["t"].isna() | (hist_df["t"] > e["ts"]))]
        assert len(m) <= 1          # intervals disjoint by construction
        want.append(float(m["v"].iloc[0]) if len(m) else np.nan)
    assert np.allclose(got["v"].to_numpy(np.float64, na_value=np.nan),
                       np.asarray(want), equal_nan=True)
    assert j.buffered() == 0
