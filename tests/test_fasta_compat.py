"""fasta_windows drop-in compatibility: same TSV/BED outputs, same
headers, same values (reference format contracts cited in
pipelines/fasta_compat.py)."""

import hashlib
import math
import os

import pytest

from fasta_windows_ray import kernels as K
from fasta_windows_ray.sources.fasta import parse_fasta

FASTA = """>chr1 test chromosome
ACGTACGTACGTACGTACGT
acgtacgtNN
>chr2
AAaCCcTTtGGg
"""


@pytest.fixture(scope="module")
def fasta_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("fa") / "test.fa"
    p.write_text(FASTA)
    return str(p)


def test_parse_fasta():
    recs = parse_fasta(FASTA)
    assert recs[0][0] == "chr1" and recs[0][1] == "test chromosome"
    assert recs[0][2] == "ACGTACGTACGTACGTACGT" + "acgtacgtNN"
    assert recs[1] == ("chr2", "", "AAaCCcTTtGGg")
    trunc = parse_fasta(FASTA, truncate_id=True)
    assert trunc[0][0] == "chr1" and trunc[0][1] == ""


def test_fasta_windows_values(ray_session, fasta_path):
    from fasta_windows_ray.pipelines.fasta_compat import fasta_windows

    pdf = fasta_windows(fasta_path, window_size=10, masked=False)
    # chr1: 30 bases -> 3 full windows; chr2: 12 -> [0,10),[10,12)
    # (trailing partial, issue #8)
    assert list(zip(pdf["id"], pdf["start"], pdf["end"])) == [
        ("chr1", 0, 10), ("chr1", 10, 20), ("chr1", 20, 30),
        ("chr2", 0, 10), ("chr2", 10, 12)]
    w0 = pdf.iloc[0]
    assert w0["gc_proportion"] == pytest.approx(0.5)
    assert abs(w0["shannon_entropy"]
               - K.shannon_entropy_256("ACGTACGTAC")) < 1e-12

    # W=12: chr2 == the reference's own masked-proportion test string in
    # one window (record == window size); issue-#9 analogue: W=20 > 12
    pdf12 = fasta_windows(fasta_path, window_size=12, masked=False)
    w3 = pdf12[pdf12["id"] == "chr2"].iloc[0]
    assert (w3["start"], w3["end"]) == (0, 12)
    assert w3["masked"] == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert w3["nuc_counts"] == [3, 3, 3, 3, 0]  # A,C,G,T,N (case folded)
    pdf20 = fasta_windows(fasta_path, window_size=20)
    w_short = pdf20[pdf20["id"] == "chr2"].iloc[0]
    assert (w_short["start"], w_short["end"]) == (0, 12)  # issue #9
    # trailing window of chr1 contains lowercase + N
    w2 = pdf.iloc[2]
    assert w2["n_s"] == pytest.approx(0.2)      # 2 N's of 10
    assert w2["masked"] == pytest.approx(0.8)   # 8 lowercase of 10


def test_tsv_outputs_format(ray_session, fasta_path, tmp_path):
    from fasta_windows_ray.pipelines.fasta_compat import (fasta_windows,
                                                          write_outputs)

    pdf = fasta_windows(fasta_path, window_size=10)
    paths = write_outputs(pdf, str(tmp_path), "fw", description=False,
                          ctw=True)
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == ("ID\tstart\tend\tGC_prop\tGC_skew\tAT_skew\t"
                        "Shannon_entropy\tctw\tProp_Gs\tProp_Cs\tProp_As\t"
                        "Prop_Ts\tProp_Ns\tProp_masked\tCpG_prop\t"
                        "Dinucleotide_Shannon\tTrinucleotide_Shannon\t"
                        "Tetranucleotide_Shannon")  # fw.rs:237
    assert len(lines) == 1 + 5
    row0 = lines[1].split("\t")
    assert row0[:3] == ["chr1", "0", "10"]
    assert row0[3] == "0.500"
    # dinuc file: header has CG at column index 3+6 (fw.rs:317; CG rank 6)
    dlines = open(paths[2]).read().splitlines()
    assert dlines[0].split("\t")[3 + 6] == "CG"
    assert len(dlines[0].split("\t")) == 3 + 16
    # tetranuc: 3 + 256 columns (README warns these files are large)
    tlines = open(paths[4]).read().splitlines()
    assert len(tlines[0].split("\t")) == 3 + 256
    # mononuc counts row: A C G T N for window 0 of chr1
    mlines = open(paths[1]).read().splitlines()
    assert mlines[0] == "ID\tstart\tend\tA\tC\tG\tT\tN"  # fw.rs:310
    assert mlines[1].split("\t")[3:] == ["3", "3", "2", "2", "0"]


def test_description_and_noctw_variants(ray_session, fasta_path, tmp_path):
    from fasta_windows_ray.pipelines.fasta_compat import (fasta_windows,
                                                          write_outputs)

    pdf = fasta_windows(fasta_path, window_size=10, ctw=False)
    paths = write_outputs(pdf, str(tmp_path), "fw", description=True,
                          ctw=False)
    lines = open(paths[0]).read().splitlines()
    assert lines[0].startswith("ID\tdescription\tstart\tend\t")  # fw.rs:238
    assert "\tctw\t" not in lines[0]
    assert lines[1].split("\t")[1] == "test chromosome"
    assert lines[4].split("\t")[1] == "No description."  # fw.rs:100


def test_nan_formatting(ray_session, tmp_path):
    from fasta_windows_ray.pipelines.fasta_compat import (fasta_windows,
                                                          write_outputs)

    fa = tmp_path / "nan.fa"
    fa.write_text(">only_at\nAATT\n")      # G+C == 0 -> gc_skew NaN
    pdf = fasta_windows(str(fa), window_size=4)
    assert math.isnan(pdf.iloc[0]["gc_skew"])
    paths = write_outputs(pdf, str(tmp_path), "fw")
    row = open(paths[0]).read().splitlines()[1].split("\t")
    assert row[4] == "NaN"                  # Rust {:.3} NaN spelling


def test_entropy_mode_bed(ray_session, fasta_path, tmp_path):
    from fasta_windows_ray.pipelines.fasta_compat import (entropy_windows,
                                                          write_bed)

    pdf = entropy_windows(fasta_path, window_size=10)
    path = write_bed(pdf, str(tmp_path), "fw")
    lines = open(path).read().splitlines()
    assert len(lines) == 5
    first = lines[0].split("\t")
    assert first[0] == "chr1" and first[1] == "0" and first[2] == "10"
    assert first[3] == f"{K.entropy_fast('ACGTACGTAC'):.6f}"
    assert first[4] == f"{K.ctw_bits_per_base('ACGTACGTAC', 6):.6f}"
    # case-folding: trailing window 'acgtacgtNN' entropy counts folded
    last = lines[2].split("\t")
    assert last[3] == f"{K.entropy_fast('acgtacgtNN'):.6f}"


def test_byte_range_reader_equals_whole_file(ray_session, tmp_path):
    """Tiny target_bytes forces many byte-range tasks with record
    boundaries straddling ranges every few bytes — output must equal the
    whole-file parse, in records and contents."""
    import numpy as np

    from fasta_windows_ray.sources.fasta import parse_fasta, read_fasta

    rng = np.random.default_rng(3)
    lines = []
    for i in range(25):
        lines.append(f">rec{i} some description {i}")
        seq = "".join(rng.choice(list("ACGTN"), rng.integers(10, 200)))
        # multi-line wrapping at 37 chars
        for j in range(0, len(seq), 37):
            lines.append(seq[j:j + 37])
    path = tmp_path / "multi.fa"
    path.write_text("\n".join(lines) + "\n")

    whole = parse_fasta(path.read_text())
    for tb in (16, 64, 1024):
        got = read_fasta(str(path), target_bytes=tb).to_pandas()
        got = got.sort_values("id", key=lambda s: s.str[3:].astype(int)) \
            .reset_index(drop=True)
        assert len(got) == len(whole)
        for i, (rid, desc, seq) in enumerate(whole):
            assert got["id"][i] == rid
            assert got["desc"][i] == desc
            assert got["seq"][i] == seq


def test_gzip_fasta_reader(ray_session, tmp_path):
    """.gz FASTA streams through the single-task gzip path with identical
    records to the plain-text parse (needletail's transparent gzip)."""
    import gzip

    import numpy as np

    from fasta_windows_ray.sources.fasta import parse_fasta, read_fasta

    rng = np.random.default_rng(5)
    lines = []
    for i in range(1200):     # >512 records exercises batch chunking
        lines.append(f">g{i} desc{i}")
        lines.append("".join(rng.choice(list("ACGT"), 50)))
    text = "\n".join(lines) + "\n"
    path = tmp_path / "multi.fa.gz"
    with gzip.open(path, "wt") as f:
        f.write(text)

    whole = parse_fasta(text)
    got = read_fasta(str(path)).to_pandas()
    got = got.sort_values("id", key=lambda s: s.str[1:].astype(int)) \
        .reset_index(drop=True)
    assert len(got) == len(whole)
    assert (got["id"] == [r[0] for r in whole]).all()
    assert (got["seq"] == [r[2] for r in whole]).all()


# md5 of the five files ``write_outputs`` writes for the fixture's FASTA at
# 10 bp windows and for a FASTA without windows, keyed (empty, description,
# ctw), as the row-by-row writer wrote them
WRITE_GOLDEN = {
    (False, False, False): [
        ("fw_freq_windows.tsv", "cb5136ebdf8d2aeaa9b00630868c3c85"),
        ("fw_mononuc_windows.tsv", "7b7521728bb3e0b7cee671e923ae069d"),
        ("fw_dinuc_windows.tsv", "fdf06763cbb5a5b108cb0f123bd6f092"),
        ("fw_trinuc_windows.tsv", "af6d4f30352513fffd32db3c0e7862c6"),
        ("fw_tetranuc_windows.tsv", "b96784055a99055eca9d8aa2ba0f45be"),
    ],
    (False, False, True): [
        ("fw_freq_windows.tsv", "79267c677f9aa0488e9d2691e89724f3"),
        ("fw_mononuc_windows.tsv", "7b7521728bb3e0b7cee671e923ae069d"),
        ("fw_dinuc_windows.tsv", "fdf06763cbb5a5b108cb0f123bd6f092"),
        ("fw_trinuc_windows.tsv", "af6d4f30352513fffd32db3c0e7862c6"),
        ("fw_tetranuc_windows.tsv", "b96784055a99055eca9d8aa2ba0f45be"),
    ],
    (False, True, False): [
        ("fw_freq_windows.tsv", "8d6a60378867cdd3e82334581bc2283c"),
        ("fw_mononuc_windows.tsv", "1c28c6892f3ff15ba324621b5ef488cf"),
        ("fw_dinuc_windows.tsv", "313468b5ab0781210ff7c49ca45eaabe"),
        ("fw_trinuc_windows.tsv", "4de92fe5605b562d3e5e06ea19be39a1"),
        ("fw_tetranuc_windows.tsv", "9eab45d7f53dcac51807368665d301e6"),
    ],
    (False, True, True): [
        ("fw_freq_windows.tsv", "3e4e7487135b536411dcd6e930a34d60"),
        ("fw_mononuc_windows.tsv", "1c28c6892f3ff15ba324621b5ef488cf"),
        ("fw_dinuc_windows.tsv", "313468b5ab0781210ff7c49ca45eaabe"),
        ("fw_trinuc_windows.tsv", "4de92fe5605b562d3e5e06ea19be39a1"),
        ("fw_tetranuc_windows.tsv", "9eab45d7f53dcac51807368665d301e6"),
    ],
    (True, False, False): [
        ("fw_freq_windows.tsv", "9db9f8769287dc6ebb81873a5c9304b2"),
        ("fw_mononuc_windows.tsv", "2f7add54c4b08a3ae92cc0cfb4f3d937"),
        ("fw_dinuc_windows.tsv", "9e3de453393fe4d1219c507b8716609e"),
        ("fw_trinuc_windows.tsv", "6f5aa2b9963fe531d936138e35205512"),
        ("fw_tetranuc_windows.tsv", "121d068af11dc852add2d1814240f139"),
    ],
    (True, False, True): [
        ("fw_freq_windows.tsv", "48148c87d24b36e8e0a43201ba64bb58"),
        ("fw_mononuc_windows.tsv", "2f7add54c4b08a3ae92cc0cfb4f3d937"),
        ("fw_dinuc_windows.tsv", "9e3de453393fe4d1219c507b8716609e"),
        ("fw_trinuc_windows.tsv", "6f5aa2b9963fe531d936138e35205512"),
        ("fw_tetranuc_windows.tsv", "121d068af11dc852add2d1814240f139"),
    ],
    (True, True, False): [
        ("fw_freq_windows.tsv", "02aaf0567a3cc8e17167c9db5af41f47"),
        ("fw_mononuc_windows.tsv", "fc7398dba50b19cf8f351b6be33e5f6f"),
        ("fw_dinuc_windows.tsv", "dec602b915c0e34d7603172c2503a3e9"),
        ("fw_trinuc_windows.tsv", "5d58244426841c32b06b38c18d37b8d3"),
        ("fw_tetranuc_windows.tsv", "8354a7c0ac18bd42945a45d381b6d278"),
    ],
    (True, True, True): [
        ("fw_freq_windows.tsv", "02275248556b73943f830e8efe394f2e"),
        ("fw_mononuc_windows.tsv", "fc7398dba50b19cf8f351b6be33e5f6f"),
        ("fw_dinuc_windows.tsv", "dec602b915c0e34d7603172c2503a3e9"),
        ("fw_trinuc_windows.tsv", "5d58244426841c32b06b38c18d37b8d3"),
        ("fw_tetranuc_windows.tsv", "8354a7c0ac18bd42945a45d381b6d278"),
    ],
}


@pytest.mark.parametrize("description", [False, True])
@pytest.mark.parametrize("ctw", [False, True])
@pytest.mark.parametrize("empty", [False, True])
def test_write_outputs_golden_bytes(ray_session, fasta_path, tmp_path,
                                    description, ctw, empty):
    from fasta_windows_ray.pipelines.fasta_compat import (fasta_windows,
                                                          write_outputs)

    if empty:       # a record without bases: a frame without count columns
        fasta_path = tmp_path / "empty.fa"
        fasta_path.write_text(">x\n\n")
    pdf = fasta_windows(str(fasta_path), window_size=10, ctw=ctw)
    paths = write_outputs(pdf, str(tmp_path), "fw", description=description,
                          ctw=ctw)
    got = []
    for p in paths:
        with open(p, "rb") as f:
            got.append((os.path.basename(p), hashlib.md5(f.read()).hexdigest()))
    assert got == WRITE_GOLDEN[empty, description, ctw]
