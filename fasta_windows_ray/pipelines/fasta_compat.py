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
import pyarrow as pa
import pyarrow.compute as pc

from .. import kernels as K
from ..sources.fasta import read_fasta


_ORDER = ["range_start", "range_index"]     # file order of the records


def _windows(tbl: pa.Table, window_size: int):
    """The records of a block back to back as one uint8 buffer, cut into
    windows: (buf, offsets, record of each window, start, end).

    Windows tile each record from 0 with the last one clamped to the
    record end (fw.rs:73-79, 130-144); positions are byte offsets, as in
    the reference, which reads records as bytes. ``buf`` is a view of the
    ``seq`` column's UTF-8 data, not a copy.
    """
    seq = tbl.column("seq").combine_chunks().cast(pa.large_string())
    _, offs, data = seq.buffers()
    bounds = np.frombuffer(offs, dtype=np.int64)[
        seq.offset:seq.offset + len(seq) + 1]
    buf = np.frombuffer(data, dtype=np.uint8)[bounds[0]:bounds[-1]]
    bounds = bounds - bounds[0]
    lens = np.diff(bounds)
    n_win = -(-lens // window_size)
    rec = np.repeat(np.arange(len(lens)), n_win)
    first = np.cumsum(n_win) - n_win
    start = (np.arange(len(rec)) - first[rec]) * window_size
    end = np.minimum(start + window_size, lens[rec])
    offsets = np.append(bounds[:-1][rec] + start, len(buf))
    return buf, offsets, rec, start, end


def _order(tbl: pa.Table, rec: np.ndarray) -> dict:
    return {c: tbl.column(c).take(rec) for c in _ORDER}


def _lists(counts: np.ndarray) -> pa.FixedSizeListArray:
    """A (windows, k) count matrix as a fixed-size list column, zero-copy."""
    flat = np.ascontiguousarray(counts).reshape(-1)
    return pa.FixedSizeListArray.from_arrays(flat, counts.shape[1])


def _collect(ds, per_batch, keys) -> pa.Table | None:
    """Run the plan once and sort its Arrow blocks on ``keys`` (a stable
    sort); None when no block has a row. Blocks arrive in any order.

    ``Dataset.to_arrow_refs`` is not used: it asks for the schema after
    execution, and on a lazy plan that runs the whole plan again.
    """
    blocks = [b for b in ds.map_batches(per_batch, batch_format="pyarrow")
              .iter_batches(batch_size=None, batch_format="pyarrow")
              if b.num_rows]
    if not blocks:
        return None
    return pa.concat_tables(blocks).sort_by([(k, "ascending") for k in keys]) \
        .drop_columns(_ORDER)


def _frame(tbl: pa.Table) -> pd.DataFrame:
    """The caller's frame: fixed-size list columns become Python lists."""
    def column(col):
        if pa.types.is_fixed_size_list(col.type):
            return col.combine_chunks().flatten().to_numpy() \
                .reshape(len(col), col.type.list_size).tolist()
        return col.to_pandas()
    return pd.DataFrame({c: column(col)
                         for c, col in zip(tbl.column_names, tbl.columns)})


def fasta_windows(fasta_path: str, window_size: int = 1000,
                  masked: bool = False, ctw: bool = True) -> pd.DataFrame:
    """Main-mode pipeline: one row per (record, window), ordered by
    (id, start) — fw.rs:149-152's stable sort by id, windows in order.

    Each Arrow block's windows go through the batch kernels
    (``K.seq_stats_batch``, ``K.kgram_diversity_batch``,
    ``K.ctw_batch``) in one call each; the block that comes back is Arrow
    too, its four count vectors fixed-size lists over the kernels' count
    matrices. This function runs the plan once, sorts the blocks in Arrow on
    (id, file order, start), and only then builds the frame, with Python
    ``list`` cells in ``nuc_counts``, ``divalues``, ``trivalues`` and
    ``tetravalues``. A file without windows gives an empty frame with
    columns id, desc, start and end.
    """
    ds = read_fasta(fasta_path)

    def per_batch(tbl: pa.Table) -> pa.Table:
        buf, offsets, rec, start, end = _windows(tbl, window_size)
        st = K.seq_stats_batch(buf, offsets, masked=masked)
        kd = K.kgram_diversity_batch(buf, offsets)
        desc = tbl.column("desc")
        desc = pc.if_else(pc.equal(desc, ""), "No description.", desc)
        return pa.table({
            "id": tbl.column("id").take(rec), "desc": desc.take(rec),
            "start": start, "end": end,
            "nuc_counts": _lists(st["nuc_counts"]),
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
            "divalues": _lists(kd["di_freq"]),
            "trivalues": _lists(kd["tri_freq"]),
            "tetravalues": _lists(kd["tetra_freq"]),
            **_order(tbl, rec),
        })

    # records of one id keep file order, as the reference's stable sort
    tbl = _collect(ds, per_batch, ["id", *_ORDER, "start"])
    if tbl is None:
        return pd.DataFrame(columns=["id", "desc", "start", "end"])
    return _frame(tbl)


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
    whitespace, 6-bin entropy + CTW(6) per window, input order.

    Blocks are Arrow tables in and out, as in :func:`fasta_windows`; this
    function runs the plan once and sorts the blocks in Arrow on (file
    order, start). A file without windows gives an empty frame with the
    five columns id, start, end, entropy and ctw.
    """
    ds = read_fasta(fasta_path, truncate_id=True)

    def per_batch(tbl: pa.Table) -> pa.Table:
        buf, offsets, rec, start, end = _windows(tbl, window_size)
        return pa.table({
            "id": tbl.column("id").take(rec), "start": start, "end": end,
            "entropy": K.entropy_fast_batch(buf, offsets, masked=masked),
            "ctw": K.ctw_batch(K.DNA_CODES[buf], offsets, 6),
            **_order(tbl, rec),
        })

    # blocks arrive in any order; the BED is in input order
    tbl = _collect(ds, per_batch, [*_ORDER, "start"])
    if tbl is None:
        return pd.DataFrame(columns=["id", "start", "end", "entropy", "ctw"])
    return _frame(tbl)


def write_bed(entries: pd.DataFrame, out_dir: str, output: str) -> str:
    """entropy.rs:139-148: 5 cols, {:.6} floats, input order."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{output}_entropy.bed")
    with open(path, "w") as f:
        for e in entries.itertuples():
            f.write(f"{e.id}\t{e.start}\t{e.end}\t{e.entropy:.6f}\t"
                    f"{e.ctw:.6f}\n")
    return path
