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
