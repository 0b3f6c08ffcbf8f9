"""fasta_windows / entropy_windows (batch kernels over each block) ==
the per-window oracles, window by window, and entropy mode keeps input
order when the file is read as many blocks."""

import math

import numpy as np
import pytest

from fasta_windows_ray import kernels as K
from fasta_windows_ray.sources.fasta import parse_fasta

W = 100


def _records(seed):
    """Soft-masked runs, N and n runs, IUPAC R/Y/S/W, ragged lengths
    (trailing partial windows) and records shorter than a window."""
    rng = np.random.default_rng(seed)
    recs = []
    for i, n in enumerate([537, 1000, 42, 299, 1, 100, 763, 7]):
        seq = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, n)]
        seq = seq.copy()
        for _ in range(3):
            a = int(rng.integers(0, n))
            seq[a:a + int(rng.integers(1, 60))] |= 0x20     # soft-masked
        for ch in b"Nn":
            a = int(rng.integers(0, n))
            seq[a:a + int(rng.integers(1, 25))] = ch
        iupac = rng.random(n) < 0.02
        seq[iupac] = np.frombuffer(b"RYSW", dtype=np.uint8)[
            rng.integers(0, 4, int(iupac.sum()))]
        desc = f" rec {i}" if i % 2 else ""
        recs.append((f"seq{i}{desc}", seq.tobytes().decode()))
    return recs


@pytest.fixture(scope="module")
def fasta(tmp_path_factory):
    path = tmp_path_factory.mktemp("fa") / "mixed.fa"
    recs = _records(17)
    with open(path, "w") as f:
        for header, seq in recs:
            f.write(f">{header}\n")
            for lo in range(0, len(seq), 60):
                f.write(seq[lo:lo + 60] + "\n")
    return str(path)


def _windows(path, w=W, truncate_id=False):
    with open(path) as f:
        recs = parse_fasta(f.read(), truncate_id)
    for rid, desc, seq in recs:
        for start in range(0, len(seq), w):
            yield rid, desc, start, min(start + w, len(seq)), \
                seq[start:start + w]


def _close(a, b):
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12


@pytest.mark.parametrize("masked", [False, True])
def test_fasta_windows_equals_per_window_oracles(ray_session, fasta, masked):
    from fasta_windows_ray.pipelines.fasta_compat import fasta_windows

    pdf = fasta_windows(fasta, window_size=W, masked=masked)
    want = sorted(_windows(fasta), key=lambda r: r[0])   # stable by id
    assert len(pdf) == len(want)
    for row, (rid, desc, start, end, win) in zip(pdf.itertuples(), want):
        assert (row.id, row.desc, row.start, row.end) \
            == (rid, desc or "No description.", start, end)
        st = K.seq_stats_dna(win, masked=masked)
        kd = K.kgram_diversity_dna(win)
        assert list(row.nuc_counts) == st["nuc_counts"]
        assert list(row.divalues) == kd["di_freq"].tolist()
        assert list(row.trivalues) == kd["tri_freq"].tolist()
        assert list(row.tetravalues) == kd["tetra_freq"].tolist()
        cpg = float(np.float32(kd["di_freq"][6]) / np.float32(st["len"]))
        floats = {
            "gc_proportion": st["gc_proportion"], "gc_skew": st["gc_skew"],
            "at_skew": st["at_skew"], "shannon_entropy": st["shannon_entropy"],
            "ctw_bpb": K.ctw_bits_per_base(win, 6),
            "g_s": st["g_s"], "c_s": st["c_s"], "a_s": st["a_s"],
            "t_s": st["t_s"], "n_s": st["n_s"], "masked": st["masked"],
            "cpg_s": cpg, "dinucleotides": kd["di_diversity"],
            "trinucleotides": kd["tri_diversity"],
            "tetranucleotides": kd["tetra_diversity"]}
        for col, v in floats.items():
            assert _close(getattr(row, col), v), (rid, start, col)


@pytest.mark.parametrize("masked", [False, True])
def test_entropy_windows_equals_per_window_oracles(ray_session, fasta,
                                                   masked):
    from fasta_windows_ray.pipelines.fasta_compat import entropy_windows

    pdf = entropy_windows(fasta, W, masked=masked)
    want = list(_windows(fasta, truncate_id=True))
    assert len(pdf) == len(want)
    for row, (rid, _, start, end, win) in zip(pdf.itertuples(), want):
        assert (row.id, row.start, row.end) == (rid, start, end)
        assert _close(row.entropy, K.entropy_fast(win, masked))
        assert _close(row.ctw, K.ctw_bits_per_base(win, 6))


def test_entropy_windows_input_order_over_many_blocks(ray_session, tmp_path,
                                                      monkeypatch):
    """A file read as many byte-range blocks still comes out in input
    order. Ray Data does not preserve block order by default; the
    patched reader makes the disorder certain by permuting its blocks.
    Ids are not sorted, so only the carried record ordinal can restore
    the order."""
    from fasta_windows_ray.pipelines import fasta_compat
    from fasta_windows_ray.sources.fasta import read_fasta

    def small_blocks(path, truncate_id=False):
        return read_fasta(path, truncate_id, target_bytes=64) \
            .randomize_block_order(seed=3)

    rng = np.random.default_rng(9)
    names = [f"r{int(x)}" for x in rng.permutation(60)]
    path = tmp_path / "many.fa"
    path.write_text("".join(
        f">{name} x\n{''.join(rng.choice(list('ACGTN'), 35))}\n"
        for name in names))
    monkeypatch.setattr(fasta_compat, "read_fasta", small_blocks)
    assert fasta_compat.read_fasta(str(path), truncate_id=True) \
        .materialize().num_blocks() > 20
    pdf = fasta_compat.entropy_windows(str(path), 10)
    want = [(rid, start) for rid, _, start, _, _ in
            _windows(path, 10, truncate_id=True)]
    assert list(zip(pdf["id"], pdf["start"])) == want


def _small_blocks(path, truncate_id=False):
    """read_fasta as many 64-byte ranges, blocks in a permuted order."""
    from fasta_windows_ray.sources.fasta import read_fasta

    return read_fasta(path, truncate_id, target_bytes=64) \
        .randomize_block_order(seed=3)


_MAIN_COLUMNS = {
    "id": "object", "desc": "object", "start": "int64", "end": "int64",
    "nuc_counts": "object", "gc_proportion": "float64",
    "gc_skew": "float64", "at_skew": "float64",
    "shannon_entropy": "float64", "ctw_bpb": "float64", "g_s": "float64",
    "c_s": "float64", "a_s": "float64", "t_s": "float64", "n_s": "float64",
    "masked": "float64", "cpg_s": "float64", "dinucleotides": "float64",
    "trinucleotides": "float64", "tetranucleotides": "float64",
    "divalues": "object", "trivalues": "object", "tetravalues": "object"}


def _read_all(paths):
    out = []
    for p in paths:
        with open(p, "rb") as f:
            out.append(f.read())
    return out


def test_fasta_windows_over_many_blocks(ray_session, tmp_path, monkeypatch):
    """Main mode over many permuted blocks gives the one-block frame and
    the same TSV bytes, in fw.rs's stable order by id: the id that
    appears twice keeps its records in file order."""
    import pandas as pd

    from fasta_windows_ray.pipelines import fasta_compat

    rng = np.random.default_rng(11)
    names = [f"r{int(x)}" for x in rng.permutation(50)]
    names.insert(37, names[4])
    lens = rng.integers(0, 45, len(names))
    lens[[4, 37]] = 38                  # several windows per twin record
    path = tmp_path / "many.fa"
    path.write_text("".join(
        f">{name}{' d' + str(i) if i % 3 else ''}\n"
        f"{''.join(rng.choice(list('ACGTNacgt'), int(n)))}\n"
        for i, (name, n) in enumerate(zip(names, lens))))

    one = fasta_compat.fasta_windows(str(path), window_size=10)
    monkeypatch.setattr(fasta_compat, "read_fasta", _small_blocks)
    assert fasta_compat.read_fasta(str(path)).materialize().num_blocks() > 20
    many = fasta_compat.fasta_windows(str(path), window_size=10)

    pd.testing.assert_frame_equal(many, one, check_exact=True)
    want = sorted(_windows(path, 10), key=lambda r: r[0])
    assert list(zip(many["id"], many["start"])) == \
        [(rid, start) for rid, _, start, _, _ in want]
    assert {str(k): str(v) for k, v in many.dtypes.items()} == _MAIN_COLUMNS
    assert list(many.columns) == list(_MAIN_COLUMNS)
    for col, k in (("nuc_counts", 5), ("divalues", 16), ("trivalues", 64),
                   ("tetravalues", 256)):
        assert all(type(v) is list and len(v) == k
                   and all(type(x) is int for x in v) for v in many[col])
    assert _read_all(fasta_compat.write_outputs(
        many, str(tmp_path / "many"), "fw", description=True)) == \
        _read_all(fasta_compat.write_outputs(
            one, str(tmp_path / "one"), "fw", description=True))


def _outputs(main, ent, out_dir) -> list[bytes]:
    """The five TSVs (with descriptions) and the BED, as bytes."""
    from fasta_windows_ray.pipelines.fasta_compat import (write_bed,
                                                          write_outputs)

    return _read_all([*write_outputs(main, str(out_dir), "fw",
                                     description=True),
                      write_bed(ent, str(out_dir), "fw")])


@pytest.mark.parametrize("kind", ["empty", "header_only", "gzip"])
def test_edge_inputs_both_modes(ray_session, fasta, tmp_path, kind):
    """A 0-byte file and a header-only record give no windows: an empty
    frame, header-only TSVs and an empty BED. A gzip copy of a FASTA
    gives the plain file's frames and bytes."""
    import gzip
    import shutil

    import pandas as pd

    from fasta_windows_ray.pipelines.fasta_compat import (entropy_windows,
                                                          fasta_windows)

    path = str(tmp_path / "in.fa")
    if kind == "gzip":
        path += ".gz"
        with open(fasta, "rb") as src, gzip.open(path, "wb") as dst:
            shutil.copyfileobj(src, dst)
        want_main = fasta_windows(fasta, window_size=W)
        want_ent = entropy_windows(fasta, W)
    else:
        with open(path, "w") as f:
            f.write(">x\n" if kind == "header_only" else "")
        want_main = pd.DataFrame(columns=["id", "desc", "start", "end"])
        want_ent = pd.DataFrame(
            columns=["id", "start", "end", "entropy", "ctw"])

    main = fasta_windows(path, window_size=W)
    ent = entropy_windows(path, W)
    pd.testing.assert_frame_equal(main, want_main, check_exact=True)
    pd.testing.assert_frame_equal(ent, want_ent, check_exact=True)
    got = _outputs(main, ent, tmp_path / "got")
    assert got == _outputs(want_main, want_ent, tmp_path / "want")
    if kind != "gzip":
        assert [t.count(b"\n") for t in got[:5]] == [1] * 5
        assert got[0].startswith(b"ID\tdescription\tstart\tend\tGC_prop\t")
        assert got[1] == b"ID\tdescription\tstart\tend\tA\tC\tG\tT\tN\n"
        assert got[5] == b""
