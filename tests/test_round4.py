"""Round-4 additions: real BMP codec + resample, hot-bucket splitting in
embedding near-dup, persisted IVF index, two-level pack_documents scan,
hash_join null-key / suffixed-int semantics, null-key analytics contract,
vectorized LangId equivalence."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd


# ---------------------------------------------------------------------------
# BMP codec + nearest resample (stages/multimodal.py)
# ---------------------------------------------------------------------------

def _formula_img(doc_id: int) -> np.ndarray:
    w, h = 8 + doc_id % 9, 8 + doc_id % 7
    y, x = np.mgrid[0:h, 0:w]
    r = (doc_id * 31 + x * 7 + y * 13) % 256
    return np.stack([r, (r + 85) % 256, (r + 170) % 256],
                    axis=-1).astype(np.uint8)


def test_bmp_roundtrip_exact():
    from fasta_windows_ray.stages.multimodal import bmp_decode, bmp_encode
    rng = np.random.default_rng(7)
    for h, w in [(1, 1), (3, 5), (7, 4), (16, 16), (9, 13)]:
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        assert np.array_equal(bmp_decode(bmp_encode(img)), img)


def test_bmp_decode_parses_real_layout():
    """Hand-check one pixel through the raw bytes: bottom-up rows, BGR
    order, 4-byte stride padding."""
    from fasta_windows_ray.stages.multimodal import bmp_encode
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (10, 20, 30)     # top-left RGB
    img[1, 2] = (40, 50, 60)     # bottom-right
    buf = bmp_encode(img)
    stride = (3 * 3 + 3) & ~3    # 12
    body = buf[54:]
    # bottom row stored first; bottom-right pixel at bytes 6..8, BGR
    assert tuple(body[6:9]) == (60, 50, 40)
    # top row second; top-left at stride+0, BGR
    assert tuple(body[stride:stride + 3]) == (30, 20, 10)


def test_bmp_decode_rejects_garbage():
    from fasta_windows_ray.stages.multimodal import bmp_decode
    with pytest.raises(ValueError):
        bmp_decode(b"not a bitmap at all")
    with pytest.raises(ValueError):
        bmp_decode(b"BM" + b"\x00" * 100)  # bpp=0 → unsupported


def test_resize_nearest_matches_naive():
    from fasta_windows_ray.stages.multimodal import resize_nearest
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (11, 7, 3), dtype=np.uint8)
    out = resize_nearest(img, 5, 5)
    for i in range(5):
        for j in range(5):
            assert np.array_equal(out[i, j], img[(i * 11) // 5, (j * 7) // 5])


def test_resize_stub_real_path_checksum():
    """End-to-end: encode the formula image, decode+resample via
    ResizeStub (strict — BMP is the real path), reproduce the checksum
    from the generator formula (what SQL_MEDIA_DECODE does)."""
    from fasta_windows_ray.stages.multimodal import ResizeStub, bmp_encode
    ids = [0, 5, 17, 123]
    batch = pd.DataFrame({
        "media_id": np.asarray(ids, dtype=np.int64),
        "payload": [bmp_encode(_formula_img(i)) for i in ids]})
    out = ResizeStub(width=5, height=5, strict=True)(batch)
    for row, i in zip(out.itertuples(), ids):
        img = _formula_img(i)
        h, w = img.shape[:2]
        yi = (np.arange(5) * h) // 5
        xi = (np.arange(5) * w) // 5
        px = img[yi[:, None], xi[None, :]].astype(np.int64)
        assert row.src_height == h and row.src_width == w
        assert row.pixel_checksum == int((px * np.array([3, 5, 7])).sum())


def test_resize_stub_strict_still_raises_on_non_bmp():
    from fasta_windows_ray.stages.multimodal import ResizeStub
    batch = pd.DataFrame({"media_id": np.asarray([1], dtype=np.int64),
                          "payload": [b"JPEG-ish bytes"]})
    with pytest.raises(NotImplementedError):
        ResizeStub(strict=True)(batch)


def test_resize_stub_bm_prefixed_text_falls_back():
    """Payload that SNIFFS like BMP ('BM' prefix) but isn't one: the
    non-strict path must fall back to the deterministic digest (the
    media_resize oracle digests text||tag for every doc); strict
    raises."""
    import hashlib
    from fasta_windows_ray.stages.multimodal import ResizeStub
    p = b"BMW dealerships reported strong sales this quarter."
    batch = pd.DataFrame({"media_id": np.asarray([1], dtype=np.int64),
                          "payload": [p]})
    out = ResizeStub(width=32, height=32)(batch)
    assert out["resized_md5"].iloc[0] == hashlib.md5(p + b"|32x32").hexdigest()
    with pytest.raises(ValueError):
        ResizeStub(width=32, height=32, strict=True)(batch)


# ---------------------------------------------------------------------------
# Hot-bucket splitting in embedding near-dup (stages/dedup.py)
# ---------------------------------------------------------------------------

def _unit(v):
    return v / np.linalg.norm(v)


def test_bucket_cosine_pairs_splits_dense_bucket():
    """A 600-vector dense cluster (pairwise cos < threshold) with 5
    planted near-identical pairs: splitting must bound per-matmul size
    while keeping all planted pairs (they rarely cross a split plane)."""
    from fasta_windows_ray.stages.dedup import bucket_cosine_pairs
    rng = np.random.default_rng(42)
    d, n = 32, 600
    base = _unit(rng.standard_normal(d))
    E = np.stack([_unit(base + 0.55 * rng.standard_normal(d))
                  for _ in range(n)])
    # pairwise cluster cosine ≈ 0.75-0.85 — below the 0.95 threshold
    planted = [(50, 550), (100, 400), (200, 300), (10, 590), (250, 260)]
    for a, b in planted:
        E[b] = _unit(E[a] + 1e-4 * rng.standard_normal(d))
    ids = np.arange(n, dtype=np.int64)
    out = bucket_cosine_pairs(E, ids, bucket_code=7, threshold=0.95,
                              seed=11, max_bucket=128)
    got = set(zip(out["vec_a"].astype(int), out["vec_b"].astype(int)))
    assert set(planted) <= got, f"lost planted pairs: {set(planted) - got}"
    # nothing below threshold sneaks in
    assert (out["cos_sim"] >= 0.95).all()


def test_bucket_cosine_pairs_unsplittable_mass_bounded():
    """All-identical vectors can't be split by any plane: the sample
    fallback must bound output (≤ C(max_bucket, 2)) and terminate."""
    from fasta_windows_ray.stages.dedup import bucket_cosine_pairs
    d, n, cap = 8, 500, 64
    E = np.tile(_unit(np.ones(d)), (n, 1))
    ids = np.arange(n, dtype=np.int64)
    out = bucket_cosine_pairs(E, ids, bucket_code=1, threshold=0.95,
                              seed=11, max_bucket=cap, max_depth=4)
    assert 0 < len(out) <= cap * (cap - 1) // 2
    assert np.allclose(out["cos_sim"], 1.0)


def test_embedding_near_dups_end_to_end_with_dense_cluster(ray_session):
    """Distributed path: dense cluster + planted dups through the full
    LSH → split-bucket → dedup pipeline; planted pairs survive."""
    from fasta_windows_ray.stages.dedup import embedding_near_dups
    rng = np.random.default_rng(5)
    d, n = 16, 400
    base = _unit(rng.standard_normal(d))
    E = np.stack([_unit(base + 0.4 * rng.standard_normal(d))
                  for _ in range(n)])
    planted = [(3, 350), (77, 200)]
    for a, b in planted:
        E[b] = _unit(E[a] + 1e-5 * rng.standard_normal(d))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(E.astype(np.float32)))}))
    out = embedding_near_dups(ds, threshold=0.95).to_pandas()
    got = set(zip(out["vec_a"].astype(int), out["vec_b"].astype(int)))
    assert set(planted) <= got


# ---------------------------------------------------------------------------
# Persisted IVF index (stages/similarity.py)
# ---------------------------------------------------------------------------

def test_ivf_build_query_pruned_and_resumable(ray_session, tmp_path):
    from fasta_windows_ray.stages.similarity import (brute_force_topk,
                                                     ivf_build, ivf_query)
    rng = np.random.default_rng(9)
    n, d = 800, 24
    E = rng.standard_normal((n, d)).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(E))}))
    idx = str(tmp_path / "ivf")
    C = ivf_build(ds, idx, n_centroids=8, seed=3)
    assert C.shape == (8, d)
    # rebuild is a no-op (persisted): returns identical centroids
    C2 = ivf_build(ds, idx, n_centroids=8, seed=3)
    assert np.array_equal(C, C2)

    Q = E[:2].astype(np.float64)
    # pruned read: one query probing 3/8 lists touches a strict subset
    narrow = ivf_query(idx, Q[:1], [0], k=5, nprobe=3)
    assert 0 < narrow.attrs["bytes_read"] < narrow.attrs["bytes_total"]
    res = ivf_query(idx, Q, [0, 1], k=5, nprobe=7)
    # near-exhaustive probing (7/8) must recover most of the exact top-5
    exact = brute_force_topk(ds, Q, [0, 1], k=5)
    for qid in (0, 1):
        got = set(res.loc[res["query_id"] == qid, "vec_id"])
        want = set(exact.loc[exact["query_id"] == qid, "vec_id"])
        assert len(got & want) >= 4


# ---------------------------------------------------------------------------
# pack_documents: two-level scan across multiple super-slabs
# ---------------------------------------------------------------------------

def test_pack_documents_two_level_scan_matches_serial(ray_session):
    from fasta_windows_ray.stages.analytics import pack_documents
    rng = np.random.default_rng(1)
    n = 300
    ids = np.arange(n, dtype=np.int64)
    tok = rng.integers(1, 50, n).astype(np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids),
                                 "n_tokens": pa.array(tok)}))
    # slab=4, super_factor=4 → ~19 super-slabs: exercises the sentinel
    # rows + distributed slab-offset path across many supers
    out = pack_documents(ds, budget_tokens=100, slab=4, super_factor=4) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    expect = np.concatenate(([0], np.cumsum(tok)[:-1])) // 100
    assert np.array_equal(out["pack_id"].to_numpy(), expect)
    assert np.array_equal(out["n_tokens"].to_numpy(), tok)


# ---------------------------------------------------------------------------
# hash_join: null keys + suffixed int restore (round-3 ADVICE)
# ---------------------------------------------------------------------------

def test_hash_join_null_keys_sql_semantics(ray_session):
    from fasta_windows_ray.stages.joins import hash_join
    l = pd.DataFrame({"k": ["a", None, "b"], "lv": [1, 2, 3]})
    r = pd.DataFrame({"k": ["a", None], "rv": [10, 20]})
    sl = {"k": pa.string(), "lv": pa.int64()}
    sr = {"k": pa.string(), "rv": pa.int64()}
    inner = hash_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                      num_buckets=4, left_schema=sl,
                      right_schema=sr).to_pandas()
    # SQL inner join: NULL never matches
    assert sorted(inner["k"]) == ["a"]
    left = hash_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                     how="left", num_buckets=4, left_schema=sl,
                     right_schema=sr).to_pandas()
    # left join keeps the null-key row, unmatched
    assert len(left) == 3
    nullrow = left[left["k"].isna()]
    assert len(nullrow) == 1 and nullrow["rv"].isna().all()


def test_hash_join_suffixed_int_columns_stay_int(ray_session):
    from fasta_windows_ray.stages.joins import hash_join
    l = pd.DataFrame({"k": ["a", "b"], "v": [1, 2]})
    r = pd.DataFrame({"k": ["a", "b"], "v": [10, 20]})
    sch = {"k": pa.string(), "v": pa.int64()}
    out = hash_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                    num_buckets=4, left_schema=sch,
                    right_schema=sch).to_pandas()
    assert out["v"].dtype == np.int64
    assert out["v_r"].dtype == np.int64
    assert sorted(out["v_r"]) == [10, 20]


# ---------------------------------------------------------------------------
# analytics null-key contract + empty-input guards (round-3 ADVICE)
# ---------------------------------------------------------------------------

def test_grouped_topk_keeps_null_string_keys(ray_session):
    from fasta_windows_ray.stages.analytics import grouped_topk
    df = pd.DataFrame({"g": ["x", "x", None, None, None],
                       "u": ["a", None, "a", None, None]})
    out = grouped_topk(rd.from_pandas(df), "g", "u", k=5)
    # every input row lands in a group: totals == 5
    assert out["n_rows"].sum() == 5
    # null group folded to "" is present
    assert "" in set(out["g"])


def test_windowed_distinct_counts_null_users(ray_session):
    from fasta_windows_ray.stages.analytics import windowed_distinct
    ts = pd.to_datetime([0, 1, 2, 3], unit="s")
    df = pd.DataFrame({"ts": ts, "user": ["u1", None, None, "u2"]})
    out = windowed_distinct(rd.from_pandas(df), "ts", "user",
                            size_us=10_000_000)
    assert out["n_events"].sum() == 4          # count(*) semantics
    assert out["n_users"].iloc[0] == 3         # u1, u2, "" (null-fold)


def test_grouped_topk_empty_input(ray_session):
    from fasta_windows_ray.stages.analytics import grouped_topk
    df = pd.DataFrame({"g": pd.Series(dtype=object),
                       "u": pd.Series(dtype=object)})
    out = grouped_topk(rd.from_pandas(df), "g", "u", k=3)
    assert len(out) == 0
    assert list(out.columns) == ["g", "u", "n_rows", "rank"]


def test_exact_quantiles_empty_input(ray_session):
    from fasta_windows_ray.stages.analytics import exact_quantiles
    df = pd.DataFrame({"v": pd.Series(dtype=np.int64)})
    out = exact_quantiles(rd.from_pandas(df), "v", [0.5])
    assert len(out) == 0


def test_windowed_distinct_empty_input(ray_session):
    from fasta_windows_ray.stages.analytics import windowed_distinct
    df = pd.DataFrame({"ts": pd.Series(dtype="datetime64[us]"),
                       "user": pd.Series(dtype=object)})
    out = windowed_distinct(rd.from_pandas(df), "ts", "user",
                            size_us=10_000_000)
    assert len(out) == 0


# ---------------------------------------------------------------------------
# LangId vectorized == naive reference
# ---------------------------------------------------------------------------

def test_lang_id_vectorized_matches_naive():
    from fasta_windows_ray.stages.text_analysis import (LANG_PROFILES,
                                                        LangId)
    import re
    tok = re.compile(r"[A-Za-z0-9_]+")

    def naive(text):
        toks = tok.findall(text.lower())
        if not toks:
            return "und"
        best, best_score = "und", 0
        for lang in sorted(LANG_PROFILES):
            s = sum(t in LANG_PROFILES[lang] for t in toks)
            if s > best_score:
                best, best_score = lang, s
        return best

    texts = ["The cat and the dog", "der die das und", "le la les et",
             "el la los y es", "", "12345 !!!", "the der le el",
             "no stopwords here whatsoever", "a to in is it"]
    batch = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                          "text": texts})
    out = LangId()(batch)
    assert list(out["pred_lang"]) == [naive(t) for t in texts]


# ---------------------------------------------------------------------------
# Connected components / dedup clusters (stages/dedup.py)
# ---------------------------------------------------------------------------

def _union_find_clusters(n_nodes, pairs):
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in range(n_nodes)}


def test_connected_components_matches_union_find(ray_session):
    from fasta_windows_ray.stages.dedup import connected_components
    pairs = [(1, 2), (2, 3), (3, 4),          # chain
             (10, 11), (10, 12), (11, 12),     # clique
             (20, 21)]                         # pair
    ds = rd.from_items([{"doc_a": a, "doc_b": b} for a, b in pairs])
    out = connected_components(ds, num_buckets=4).to_pandas()
    got = dict(zip(out["node"], out["cluster_id"]))
    want = _union_find_clusters(25, pairs)
    touched = {x for p in pairs for x in p}
    assert got == {x: want[x] for x in touched}


def test_connected_components_long_chain_converges(ray_session):
    from fasta_windows_ray.stages.dedup import connected_components
    pairs = [(i, i + 1) for i in range(30)]    # diameter 30
    ds = rd.from_items([{"doc_a": a, "doc_b": b} for a, b in pairs])
    out = connected_components(ds, num_buckets=4).to_pandas()
    assert set(out["cluster_id"]) == {0}
    assert len(out) == 31


def test_dedup_clusters_keepers_and_singletons(ray_session):
    from fasta_windows_ray.stages.dedup import dedup_clusters
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(12, dtype=np.int64))}))
    pairs = rd.from_items([{"doc_a": 2, "doc_b": 5},
                           {"doc_a": 5, "doc_b": 9},
                           {"doc_a": 7, "doc_b": 8}])
    out = dedup_clusters(docs, pairs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(out) == 12
    cl = dict(zip(out["doc_id"], out["cluster_id"]))
    assert cl[2] == cl[5] == cl[9] == 2
    assert cl[7] == cl[8] == 7
    for single in (0, 1, 3, 4, 6, 10, 11):
        assert cl[single] == single
    keepers = set(out.loc[out["keep"] == 1, "doc_id"])
    assert keepers == {0, 1, 2, 3, 4, 6, 7, 10, 11}


def test_dedup_clusters_quality_keeper_policy(ray_session):
    """quality_col switches the keeper from min-id to best-quality
    (ties -> min id); singletons and cluster_ids are unchanged."""
    from fasta_windows_ray.stages.dedup import dedup_clusters
    qual = np.array([.1, .2, .3, .4, .5, .9, .6, .7, .7, .2, .1, .8])
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(12, dtype=np.int64)),
        "quality": pa.array(qual)}))
    pairs = rd.from_items([{"doc_a": 2, "doc_b": 5},
                           {"doc_a": 5, "doc_b": 9},
                           {"doc_a": 7, "doc_b": 8}])
    out = dedup_clusters(docs, pairs, quality_col="quality").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    cl = dict(zip(out["doc_id"], out["cluster_id"]))
    assert cl[2] == cl[5] == cl[9] == 2          # cluster ids unchanged
    keepers = set(out.loc[out["keep"] == 1, "doc_id"])
    # cluster {2,5,9}: doc 5 has the best quality (0.9); cluster
    # {7,8}: tie at 0.7 -> min id 7; singletons always keep
    assert keepers == {0, 1, 3, 4, 5, 6, 7, 10, 11}
    assert out["keep"].sum() == 9


# ---------------------------------------------------------------------------
# Slot pre-compression (sliding char stats) — bit-equality with explicit windows
# ---------------------------------------------------------------------------

def test_slot_path_bit_equal_to_explicit_windows(ray_session):
    """The slot-compressed sliding char-stats path must be bit-identical
    to the per-window path on every stat column: the same sliding
    memberships, fed as explicit window_start/window_end rows, are the
    reference."""
    from fasta_windows_ray.stages.window_stats import BucketWindowStats
    from fasta_windows_ray.windows import sliding_starts_expand
    rng = np.random.default_rng(8)
    n = 4000
    convs = [f"c{i % 37}" for i in range(n)]
    ts = (rng.integers(0, 40, n).cumsum() * 60_000_000).astype("datetime64[us]")
    roles = rng.choice(["user", "assistant", "system", "tool", "zzz"], n)
    words = ["alpha", "beta", "Gamma!", "δelta", "x", ""]
    texts = ["".join(rng.choice(words, rng.integers(0, 9))) for _ in range(n)]
    df = pd.DataFrame({"conv_id": convs, "turn_uid": np.arange(n),
                       "role": roles, "text": texts,
                       "tool": [None] * n, "ts": ts})
    SIZE, STEP = 4 * 3600 * 1_000_000, 1 * 3600 * 1_000_000
    kw = dict(profile="full", window_size_us=SIZE, ctw_depth=2)
    a = BucketWindowStats(step_us=STEP, **kw)(df)
    rows, ws = sliding_starts_expand(ts.astype(np.int64), SIZE, STEP)
    members = df.iloc[rows].reset_index(drop=True).assign(
        window_start=ws.astype("datetime64[us]"),
        window_end=(ws + SIZE).astype("datetime64[us]"))
    b = BucketWindowStats(**kw)(members)
    key = ["conv_id", "window_start"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_exact=True)


# ---------------------------------------------------------------------------
# PPM (P6) codec — the second real decode format
# ---------------------------------------------------------------------------

def test_ppm_roundtrip_and_header_parsing():
    from fasta_windows_ray.stages.multimodal import ppm_decode, ppm_encode
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, (9, 13, 3), dtype=np.uint8)
    assert np.array_equal(ppm_decode(ppm_encode(img)), img)
    # foreign writer quirks: comments + arbitrary whitespace
    quirky = (b"P6\n# written by gimp\n 13\t9 # dims\n255 "
              + img.tobytes())
    assert np.array_equal(ppm_decode(quirky), img)
    for bad in (b"P5\n1 1\n255\nx",                    # wrong magic
                b"P6\n2 2\n65535\n" + b"\0" * 24,      # 16-bit samples
                b"P6\n4 4\n255\n" + b"\0" * 5):        # truncated body
        with pytest.raises(ValueError):
            ppm_decode(bad)


def test_resize_stub_real_path_ppm():
    """PPM payloads take the REAL decode->resample->re-encode path in
    strict mode, producing the same pixel checksum as the BMP route
    for the same image (format-independent resample semantics)."""
    from fasta_windows_ray.stages.multimodal import (ResizeStub,
                                                     bmp_encode,
                                                     ppm_encode)
    ids = [0, 7, 42]
    imgs = [_formula_img(i) for i in ids]
    as_bmp = ResizeStub(width=5, height=5, strict=True)(pd.DataFrame({
        "media_id": np.asarray(ids, np.int64),
        "payload": [bmp_encode(m) for m in imgs]}))
    as_ppm = ResizeStub(width=5, height=5, strict=True)(pd.DataFrame({
        "media_id": np.asarray(ids, np.int64),
        "payload": [ppm_encode(m) for m in imgs]}))
    assert as_bmp["pixel_checksum"].tolist() == \
        as_ppm["pixel_checksum"].tolist()
    assert (as_ppm["src_height"] == as_bmp["src_height"]).all()
    # md5s differ (different container formats around the same pixels)
    assert (as_ppm["resized_md5"] != as_bmp["resized_md5"]).all()
