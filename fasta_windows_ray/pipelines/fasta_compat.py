"""Drop-in fasta_windows compatibility pipeline.

A user of tolkit/fasta_windows can point this at a FASTA file and get
the same five TSV outputs (or the entropy-mode BED) with the same
headers, column order, formatting ({:.3}/{:.6}, NaN spelled "NaN") and
values — computed by the kernel layer, distributed over Ray Data.

Format contracts reproduced from:
- windows TSV headers + row format     fw.rs:235-240, 280-283
- mono/di/tri/tetra TSV headers + rows fw.rs:301-331, 333-375
- output file naming                   main.rs:91-110
- entropy-mode BED                     entropy.rs:139-148
- window bounds incl. issues #8/#9     fw.rs:73-79, 130-144
- global order: stable sort by id      fw.rs:149-152
"""

from __future__ import annotations

import math
import os

import numpy as np
import pandas as pd

from .. import kernels as K
from ..sources.fasta import read_fasta


_ORDER = ["range_start", "range_index"]     # file order of the records


def _windows(df: pd.DataFrame, window_size: int):
    """The records of a batch back to back as one uint8 buffer, cut into
    windows: (buf, offsets, record of each window, start, end).

    Windows tile each record from 0 with the last one clamped to the
    record end (fw.rs:73-79, 130-144); positions are byte offsets, as in
    the reference, which reads records as bytes.
    """
    seqs = [s.encode() for s in df["seq"]]
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    n_win = -(-lens // window_size)
    rec = np.repeat(np.arange(len(seqs)), n_win)
    first = np.cumsum(n_win) - n_win
    start = (np.arange(len(rec)) - first[rec]) * window_size
    end = np.minimum(start + window_size, lens[rec])
    buf = np.frombuffer(b"".join(seqs), dtype=np.uint8)
    offsets = np.append(np.cumsum(lens)[rec] - lens[rec] + start, len(buf))
    return buf, offsets, rec, start, end


def _order(df: pd.DataFrame, rec: np.ndarray) -> dict:
    return {c: df[c].to_numpy()[rec] for c in _ORDER}


def fasta_windows(fasta_path: str, window_size: int = 1000,
                  masked: bool = False, ctw: bool = True) -> pd.DataFrame:
    """Main-mode pipeline: one row per (record, window), ordered by
    (id, start) — fw.rs:149-152's stable sort by id, windows in order.

    Each block's windows go through the batch kernels
    (``K.seq_stats_batch``, ``K.kgram_diversity_batch``,
    ``K.ctw_batch``) in one call each.
    """
    ds = read_fasta(fasta_path)

    def per_batch(df: pd.DataFrame) -> pd.DataFrame:
        buf, offsets, rec, start, end = _windows(df, window_size)
        st = K.seq_stats_batch(buf, offsets, masked=masked)
        kd = K.kgram_diversity_batch(buf, offsets)
        desc = np.asarray([d if d else "No description." for d in df["desc"]],
                          dtype=object)
        return pd.DataFrame({
            "id": df["id"].to_numpy()[rec], "desc": desc[rec],
            "start": start, "end": end,
            "nuc_counts": st["nuc_counts"].tolist(),
            "gc_proportion": st["gc_proportion"], "gc_skew": st["gc_skew"],
            "at_skew": st["at_skew"], "shannon_entropy": st["shannon_entropy"],
            "ctw_bpb": (K.ctw_batch(K.DNA_CODES[buf], offsets, 6) if ctw
                        else np.zeros(len(rec))),
            "g_s": st["g_s"], "c_s": st["c_s"], "a_s": st["a_s"],
            "t_s": st["t_s"], "n_s": st["n_s"], "masked": st["masked"],
            # CpG: di_freq index 6 is "CG"; denominator window length (fw.rs:120)
            "cpg_s": K.ratio_f32(kd["di_freq"][:, 6], st["len"]),
            "dinucleotides": kd["di_diversity"],
            "trinucleotides": kd["tri_diversity"],
            "tetranucleotides": kd["tetra_diversity"],
            "divalues": kd["di_freq"].tolist(),
            "trivalues": kd["tri_freq"].tolist(),
            "tetravalues": kd["tetra_freq"].tolist(),
            **_order(df, rec),
        })

    pdf = ds.map_batches(per_batch, batch_format="pandas").to_pandas()
    if len(pdf) == 0 or "id" not in pdf.columns:
        return pd.DataFrame(columns=["id", "desc", "start", "end"])
    # records of one id keep file order, as the reference's stable sort
    return pdf.sort_values(["id", *_ORDER, "start"], kind="stable") \
        .drop(columns=_ORDER).reset_index(drop=True)


def _f32_3(x: float) -> str:
    # Rust {:.3} of f32: NaN -> "NaN", inf -> "inf"
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.3f}"


def write_outputs(entries: pd.DataFrame, out_dir: str, output: str,
                  description: bool = False, ctw: bool = True) -> list[str]:
    """The five TSV files with reference naming (main.rs:91-110)."""
    os.makedirs(out_dir, exist_ok=True)
    names = [f"{output}_freq_windows.tsv", f"{output}_mononuc_windows.tsv",
             f"{output}_dinuc_windows.tsv", f"{output}_trinuc_windows.tsv",
             f"{output}_tetranuc_windows.tsv"]
    paths = [os.path.join(out_dir, n) for n in names]

    stat_cols = ("GC_prop\tGC_skew\tAT_skew\tShannon_entropy\t"
                 + ("ctw\t" if ctw else "")
                 + "Prop_Gs\tProp_Cs\tProp_As\tProp_Ts\tProp_Ns\t"
                   "Prop_masked\tCpG_prop\tDinucleotide_Shannon\t"
                   "Trinucleotide_Shannon\tTetranucleotide_Shannon")
    id_cols = "ID\tdescription\t" if description else "ID\t"
    kmer_header = "ID\tdescription\tstart\tend\t" if description \
        else "ID\tstart\tend\t"

    with open(paths[0], "w") as f:
        f.write(f"{id_cols}start\tend\t{stat_cols}\n")
        for e in entries.itertuples():
            desc = f"{e.desc}\t" if description else ""
            ctw_part = f"{e.ctw_bpb:.3f}\t" if ctw else ""
            f.write(
                f"{e.id}\t{desc}{e.start}\t{e.end}\t"
                f"{_f32_3(e.gc_proportion)}\t{_f32_3(e.gc_skew)}\t"
                f"{_f32_3(e.at_skew)}\t{e.shannon_entropy:.3f}\t{ctw_part}"
                f"{_f32_3(e.g_s)}\t{_f32_3(e.c_s)}\t{_f32_3(e.a_s)}\t"
                f"{_f32_3(e.t_s)}\t{_f32_3(e.n_s)}\t{_f32_3(e.masked)}\t"
                f"{_f32_3(e.cpg_s)}\t{e.dinucleotides:.3f}\t"
                f"{e.trinucleotides:.3f}\t{e.tetranucleotides:.3f}\n")

    vocabs = {1: "A\tC\tG\tT\tN",
              2: "\t".join(K.gen_all_kgrams("ACGT", 2)),
              3: "\t".join(K.gen_all_kgrams("ACGT", 3)),
              4: "\t".join(K.gen_all_kgrams("ACGT", 4))}
    val_cols = {1: "nuc_counts", 2: "divalues", 3: "trivalues",
                4: "tetravalues"}
    for k, path in zip((1, 2, 3, 4), paths[1:]):
        with open(path, "w") as f:
            f.write(f"{kmer_header}{vocabs[k]}\n")
            for e in entries.itertuples():
                desc = f"{e.desc}\t" if description else ""
                vals = "\t".join(str(v) for v in getattr(e, val_cols[k]))
                f.write(f"{e.id}\t{desc}{e.start}\t{e.end}\t{vals}\n")
    return paths


def entropy_windows(fasta_path: str, window_size: int,
                    masked: bool = False) -> pd.DataFrame:
    """Entropy-mode fast path (entropy.rs:86-156): id truncated at first
    whitespace, 6-bin entropy + CTW(6) per window, input order."""
    ds = read_fasta(fasta_path, truncate_id=True)

    def per_batch(df: pd.DataFrame) -> pd.DataFrame:
        buf, offsets, rec, start, end = _windows(df, window_size)
        return pd.DataFrame({
            "id": df["id"].to_numpy()[rec], "start": start, "end": end,
            "entropy": K.entropy_fast_batch(buf, offsets, masked=masked),
            "ctw": K.ctw_batch(K.DNA_CODES[buf], offsets, 6),
            **_order(df, rec),
        })

    pdf = ds.map_batches(per_batch, batch_format="pandas").to_pandas()
    cols = ["id", "start", "end", "entropy", "ctw"]
    if len(pdf) == 0 or "id" not in pdf.columns:
        return pd.DataFrame(columns=cols)
    # blocks arrive in any order; the BED is in input order
    return pdf.sort_values([*_ORDER, "start"], kind="stable")[cols] \
        .reset_index(drop=True)


def write_bed(entries: pd.DataFrame, out_dir: str, output: str) -> str:
    """entropy.rs:139-148: 5 cols, {:.6} floats, input order."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{output}_entropy.bed")
    with open(path, "w") as f:
        for e in entries.itertuples():
            f.write(f"{e.id}\t{e.start}\t{e.end}\t{e.entropy:.6f}\t"
                    f"{e.ctw:.6f}\n")
    return path
