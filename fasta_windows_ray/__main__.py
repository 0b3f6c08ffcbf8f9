"""CLI entry point — `python -m fasta_windows_ray …` (the script a
`ray job submit -- python -m fasta_windows_ray …` invocation runs).

Two surfaces:

1. ``fasta`` — flag-compatible with the reference binary
   (main.rs:13-79: -f/--fasta, -w/--window_size, -o/--output,
   -d/--description, -m/--masked, -c/--ctw, -e/--entropy), writing the
   same ./fw_out/ TSV/BED layout (main.rs:86-110).
2. ``transcripts`` — the Parquet windowed-stats engine (tumbling /
   sliding / session; batch or stateful path; parquet output).
3. ``profile`` — the one-pass per-column data card over any Parquet
   table (stages/profile.py).
4. ``curate`` — the end-to-end curation funnel over a documents table
   (pipelines/curation.py curate_full).
5. ``fsck`` / ``vacuum`` — catalog table maintenance: integrity check
   (exit 1 if not clean) and orphan reclamation (dry-run by default).
6. ``drift`` — per-column PSI / binned-KS between two parquet
   snapshots (``--fail-psi`` for CI gating).
7. ``tokenize`` — train (or load) a BPE vocabulary and write per-doc
   token counts.
8. ``conv-stats`` — per-conversation stats / whole-conversation
   filtering.
9. ``temporal-join`` — event-time enrichment of an event table against
   the catalog dimension version valid at each event's ts (SCD-2
   history derived from the catalog's CDC).
10. ``validate`` — data-contract expectations over a parquet table
    (exit 1 on any failed rule, CI-gateable).

Owns its Ray session (guarded init) — the only package module allowed
to; otherwise only tests, scripts and perfbench do.
"""

from __future__ import annotations

import argparse
import sys


def _ensure_ray(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def cmd_fasta(args) -> int:
    from .pipelines.fasta_compat import (entropy_windows, fasta_windows,
                                         write_bed, write_outputs)
    _ensure_ray(args.num_cpus)
    out_dir = args.out_dir or "./fw_out"
    if args.entropy:
        pdf = entropy_windows(args.fasta, args.window_size, masked=args.masked)
        path = write_bed(pdf, out_dir, args.output)
        print(f"[+]\tOutput written to: {path}")
    else:
        pdf = fasta_windows(args.fasta, args.window_size, masked=args.masked,
                            ctw=args.ctw)
        paths = write_outputs(pdf, out_dir, args.output,
                              description=args.description, ctw=args.ctw)
        print(f"[+]\tOutput written to directory: {out_dir}")
        for p in paths:
            print(f"[+]\t  {p}")
    return 0


def cmd_transcripts(args) -> int:
    from .transcripts import read_transcripts
    _ensure_ray(args.num_cpus)
    size = args.window_hours * 3600 * 1_000_000
    step = args.step_hours * 3600 * 1_000_000 if args.step_hours else None
    if args.stateful or args.kind in ("session", "count"):
        from .state.engine import WindowConfig
        from .state.runner import stateful_window_run
        cfg = WindowConfig(kind=args.kind, size_us=size, step_us=step,
                           gap_us=args.gap_minutes * 60 * 1_000_000,
                           lateness_us=args.lateness_minutes * 60 * 1_000_000,
                           profile=args.profile,
                           count_turns=args.count_turns,
                           emit="updates" if args.updates else "final",
                           retention_us=args.retention_minutes
                           * 60 * 1_000_000,
                           early_fire_every=args.early_fire_every)
        out = stateful_window_run(read_transcripts(args.input_dir), cfg,
                                  num_buckets=args.buckets)
    else:
        from .stages.window_stats import window_stats
        out = window_stats(read_transcripts(args.input_dir), size,
                           step_us=step, profile=args.profile,
                           num_buckets=args.buckets)
    from .sinks import write_partitioned
    from .stages.window_stats import add_bucket
    report = write_partitioned(add_bucket(out, args.buckets), args.out_dir)
    done = int((~report["skipped"]).sum())
    print(f"[+]\t{report['n_rows'].sum()} window rows across "
          f"{len(report)} partitions ({done} written, "
          f"{int(report['skipped'].sum())} already committed) -> "
          f"{args.out_dir}")
    return 0


def cmd_profile(args) -> int:
    import ray.data as rd

    from .stages.profile import dataset_profile
    _ensure_ray(args.num_cpus)
    cols = args.columns.split(",") if args.columns else None
    if args.catalog:
        from .sources.catalog import catalog_read
        ds = catalog_read(args.input, columns=cols)
    else:
        ds = rd.read_parquet(args.input, columns=cols)
    card = dataset_profile(ds, columns=cols, p=args.hll_p,
                           capacity=args.capacity, top_k=args.top_k)
    import pandas as pd
    with pd.option_context("display.width", 200,
                           "display.max_columns", None,
                           "display.max_colwidth", 48):
        print(card.to_string(index=False))
    if args.out:
        card.to_parquet(args.out, index=False)
        print(f"[+]\tProfile written to: {args.out}")
    return 0


def cmd_curate(args) -> int:
    import ray.data as rd

    from .pipelines.curation import curate_full
    _ensure_ray(args.num_cpus)
    docs = rd.read_parquet(args.input)
    eval_ds = rd.read_parquet(args.eval) if args.eval else None
    survivors, funnel = curate_full(
        docs, eval_ds, min_tokens=args.min_tokens,
        jaccard_tau=args.jaccard_tau)
    survivors.write_parquet(args.out_dir)
    print(f"[+]\t{funnel} -> {args.out_dir}")
    return 0


def cmd_fsck(args) -> int:
    import json as _json

    from .sources.catalog import catalog_fsck
    if args.deep:
        _ensure_ray(args.num_cpus)
    rep = catalog_fsck(args.table_dir, deep=args.deep)
    print(_json.dumps(rep, indent=1))
    return 0 if rep["clean"] else 1


def cmd_vacuum(args) -> int:
    from .sources.catalog import catalog_vacuum
    paths = catalog_vacuum(args.table_dir, keep_versions=args.keep,
                           dry_run=not args.force)
    verb = "deleted" if args.force else "would delete (pass --force)"
    print(f"[+]\t{verb}: {len(paths)} files")
    for p in paths:
        print(f"[+]\t  {p}")
    return 0


def _drift_side(spec: str, catalog: bool):
    import ray.data as rd
    if not catalog:
        return rd.read_parquet(spec)
    from .sources.catalog import catalog_read
    if "@" in spec:                       # table_dir@version
        path, ver = spec.rsplit("@", 1)
        return catalog_read(path, version=int(ver))
    return catalog_read(spec)


def cmd_drift(args) -> int:
    from .stages.drift import drift_report
    _ensure_ray(args.num_cpus)
    ref = _drift_side(args.reference, args.catalog)
    cur = _drift_side(args.current, args.catalog)
    rep = drift_report(
        ref, cur,
        numeric_cols=args.numeric.split(",") if args.numeric else [],
        categorical_cols=args.categorical.split(",")
        if args.categorical else [],
        bins=args.bins)
    print(rep.to_string(index=False))
    if args.out:
        rep.to_parquet(args.out, index=False)
    worst = rep["psi"].max()
    if args.fail_psi is not None and worst > args.fail_psi:
        print(f"[!]\tmax PSI {worst:.4f} > --fail-psi {args.fail_psi}")
        return 1
    return 0


def cmd_tokenize(args) -> int:
    import json as _json

    import ray.data as rd

    from .stages.bpe import bpe_tokenize, bpe_train
    _ensure_ray(args.num_cpus)
    docs = rd.read_parquet(args.input, columns=[args.id_col, args.text_col])
    if args.merges and not args.train:
        with open(args.merges) as f:
            merges = [tuple(p) for p in _json.load(f)["merges"]]
    else:
        model = bpe_train(docs, n_merges=args.n_merges,
                          text_col=args.text_col, max_words=args.max_words)
        merges = model["merges"]
        if args.merges:
            with open(args.merges, "w") as f:
                _json.dump({"merges": [list(p) for p in merges],
                            "n_words_used": model["n_words_used"],
                            "n_words_total": model["n_words_total"]}, f)
        print(f"[+]\ttrained {len(merges)} merges over "
              f"{model['n_words_used']}/{model['n_words_total']} words")
    out = bpe_tokenize(docs, merges, text_col=args.text_col,
                       id_col=args.id_col)
    out.write_parquet(args.out_dir)
    print(f"[+]\ttoken counts -> {args.out_dir}")
    return 0


def cmd_conv_stats(args) -> int:
    from .stages.conv_stats import conv_stats, filter_conversations
    from .transcripts import read_transcripts
    _ensure_ray(args.num_cpus)
    ds = read_transcripts(args.input_dir)
    if args.out_dir:
        kept, stats = filter_conversations(
            ds, min_turns=args.min_turns, max_turns=args.max_turns,
            min_chars_per_turn=args.min_chars_per_turn,
            max_tool_rate=args.max_tool_rate,
            require_user_start=args.require_user_start)
        kept.write_parquet(args.out_dir)
        n_kept = int(stats["kept"].sum())
        print(f"[+]\t{n_kept}/{len(stats)} conversations kept -> "
              f"{args.out_dir}")
    else:
        stats = conv_stats(ds)
        import pandas as pd
        with pd.option_context("display.width", 200,
                               "display.max_columns", None):
            print(stats.head(50).to_string(index=False))
        print(f"[+]\t{len(stats)} conversations")
    if args.stats_out:
        stats.to_parquet(args.stats_out, index=False)
    return 0


def cmd_temporal_join(args) -> int:
    """Event-time enrich a parquet event table against a catalog
    dimension: derive the SCD-2 history from the catalog's CDC, probe
    per event ts, write the enriched rows."""
    import ray.data as rd

    from .stages.temporal import scd2_history, temporal_join
    _ensure_ray(args.num_cpus)
    hist = scd2_history(args.dim_table, args.key)
    if args.history_out:
        hist.write_parquet(args.history_out)
        print(f"[+]\tSCD-2 history -> {args.history_out}")
    events = rd.read_parquet(args.events)
    out = temporal_join(events, hist, key=args.key,
                        value_cols=args.values.split(","),
                        ts_col=args.ts_col,
                        num_buckets=args.num_buckets)
    out.write_parquet(args.out_dir)
    print(f"[+]\t{out.count()} enriched rows -> {args.out_dir}")
    return 0


def cmd_validate(args) -> int:
    """Data-contract check over a parquet table; rules from a JSON
    list of [check, col, params...] arrays. Exit 1 on any failure."""
    import json

    import ray.data as rd

    from .stages.validate import validate
    _ensure_ray(args.num_cpus)
    with open(args.rules) as f:
        rules = [tuple(r) for r in json.load(f)]
    ds = rd.read_parquet(args.input)
    rep = validate(ds, rules, id_col=args.id_col)
    import pandas as pd
    with pd.option_context("display.width", 200,
                           "display.max_columns", None):
        print(rep.to_string(index=False))
    if args.report_out:
        rep.to_parquet(args.report_out, index=False)
    return 0 if bool(rep["ok"].all()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fasta_windows_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    fa = sub.add_parser("fasta", help="reference-compatible FASTA mode")
    fa.add_argument("-f", "--fasta", required=True)
    fa.add_argument("-w", "--window_size", type=int, default=1000)
    fa.add_argument("-o", "--output", default="fasta_windows")
    fa.add_argument("-d", "--description", action="store_true")
    fa.add_argument("-m", "--masked", action="store_true")
    fa.add_argument("-c", "--ctw", action="store_true")
    fa.add_argument("-e", "--entropy", action="store_true")
    fa.add_argument("--out-dir", default=None)
    fa.set_defaults(fn=cmd_fasta)

    tr = sub.add_parser("transcripts", help="Parquet windowed-stats engine")
    tr.add_argument("input_dir")
    tr.add_argument("out_dir")
    tr.add_argument("--kind", choices=["tumbling", "sliding", "session",
                                       "count"],
                    default="tumbling")
    tr.add_argument("--window-hours", type=int, default=6)
    tr.add_argument("--step-hours", type=int, default=None)
    tr.add_argument("--gap-minutes", type=int, default=30)
    tr.add_argument("--lateness-minutes", type=int, default=0)
    tr.add_argument("--count-turns", type=int, default=0,
                    help="count windows: turns per window (--kind count)")
    tr.add_argument("--updates", action="store_true",
                    help="allowed-lateness re-emission with revisions "
                         "(tumbling/sliding)")
    tr.add_argument("--retention-minutes", type=int, default=0,
                    help="updates mode: late-update horizon past each "
                         "window end")
    tr.add_argument("--early-fire-every", type=int, default=0,
                    help="updates mode: speculative pane every N arrivals")
    tr.add_argument("--profile", choices=["full", "fast", "counts"],
                    default="full")
    tr.add_argument("--buckets", type=int, default=64)
    tr.add_argument("--stateful", action="store_true")
    tr.set_defaults(fn=cmd_transcripts)

    pr = sub.add_parser("profile", help="one-pass per-column data card "
                                        "over Parquet (counts, nulls, "
                                        "distinct~, quantiles~, top values)")
    pr.add_argument("input", help="parquet file or directory")
    pr.add_argument("--columns", default=None,
                    help="comma-separated subset (prunes the read)")
    pr.add_argument("--hll-p", type=int, default=12)
    pr.add_argument("--capacity", type=int, default=4096)
    pr.add_argument("--top-k", type=int, default=10)
    pr.add_argument("--out", default=None, help="write the card as parquet")
    pr.add_argument("--catalog", action="store_true",
                    help="input is a catalog table dir (profiles the "
                         "LATEST snapshot, not raw data files)")
    pr.set_defaults(fn=cmd_profile)

    cu = sub.add_parser("curate", help="end-to-end curation: normalize, "
                                       "filter, near-dup keep-best, "
                                       "decontaminate, split")
    cu.add_argument("input", help="documents parquet (doc_id, text, ...)")
    cu.add_argument("out_dir")
    cu.add_argument("--eval", default=None,
                    help="eval-set parquet for decontamination")
    cu.add_argument("--min-tokens", type=int, default=10)
    cu.add_argument("--jaccard-tau", type=float, default=0.5)
    cu.set_defaults(fn=cmd_curate)

    fs = sub.add_parser("fsck", help="catalog table integrity check; "
                                     "exit 1 if not clean")
    fs.add_argument("table_dir")
    fs.add_argument("--deep", action="store_true",
                    help="also open every live file (row counts, "
                         "bucket placement)")
    fs.set_defaults(fn=cmd_fsck)

    va = sub.add_parser("vacuum", help="reclaim unreferenced catalog "
                                       "data files (dry-run unless "
                                       "--force)")
    va.add_argument("table_dir")
    va.add_argument("--keep", type=int, default=1,
                    help="manifest versions to retain (default 1)")
    va.add_argument("--force", action="store_true",
                    help="actually delete (default: list only)")
    va.set_defaults(fn=cmd_vacuum)

    dr = sub.add_parser("drift", help="per-column PSI / binned-KS drift "
                                      "between two parquet snapshots")
    dr.add_argument("reference")
    dr.add_argument("current")
    dr.add_argument("--numeric", default=None,
                    help="comma-separated numeric columns")
    dr.add_argument("--categorical", default=None,
                    help="comma-separated categorical columns")
    dr.add_argument("--bins", type=int, default=10)
    dr.add_argument("--out", default=None, help="write report parquet")
    dr.add_argument("--fail-psi", type=float, default=None,
                    help="exit 1 if any column's PSI exceeds this")
    dr.add_argument("--catalog", action="store_true",
                    help="sides are catalog tables, optionally pinned "
                         "as table_dir@version (drift between snapshots "
                         "of one table: t@3 t@5)")
    dr.set_defaults(fn=cmd_drift)

    tk = sub.add_parser("tokenize", help="train a BPE vocab on the corpus "
                                         "(or load one) and write per-doc "
                                         "token counts")
    tk.add_argument("input", help="documents parquet")
    tk.add_argument("out_dir")
    tk.add_argument("--n-merges", type=int, default=200)
    tk.add_argument("--max-words", type=int, default=65536)
    tk.add_argument("--merges", default=None,
                    help="JSON path: save trained merges here (or load "
                         "with --no-train)")
    tk.add_argument("--no-train", dest="train", action="store_false",
                    help="load merges from --merges instead of training")
    tk.add_argument("--id-col", default="doc_id")
    tk.add_argument("--text-col", default="text")
    tk.set_defaults(fn=cmd_tokenize)

    cs = sub.add_parser("conv-stats", help="per-conversation stats; with "
                                           "OUT_DIR, filter whole "
                                           "conversations by thresholds")
    cs.add_argument("input_dir", help="transcript parquet dir")
    cs.add_argument("out_dir", nargs="?", default=None,
                    help="write surviving turns here (enables filtering)")
    cs.add_argument("--min-turns", type=int, default=2)
    cs.add_argument("--max-turns", type=int, default=10 ** 9)
    cs.add_argument("--min-chars-per-turn", type=float, default=0.0)
    cs.add_argument("--max-tool-rate", type=float, default=1.0)
    cs.add_argument("--require-user-start", action="store_true")
    cs.add_argument("--stats-out", default=None,
                    help="also write the stats table as parquet")
    cs.set_defaults(fn=cmd_conv_stats)

    tj = sub.add_parser("temporal-join",
                        help="event-time enrich events against the "
                             "catalog dimension version valid at each "
                             "event's ts (SCD-2 from catalog CDC)")
    tj.add_argument("events", help="event parquet dir/file")
    tj.add_argument("dim_table", help="catalog table dir (commit_ts-"
                                      "stamped versions)")
    tj.add_argument("out_dir", help="enriched parquet output dir")
    tj.add_argument("--key", required=True, help="join key column")
    tj.add_argument("--values", required=True,
                    help="comma-separated dimension value columns")
    tj.add_argument("--ts-col", default="ts")
    tj.add_argument("--num-buckets", type=int, default=32)
    tj.add_argument("--history-out", default=None,
                    help="also write the derived SCD-2 history")
    tj.set_defaults(fn=cmd_temporal_join)

    vd = sub.add_parser("validate", help="data-contract expectations "
                                         "over a parquet table; exit 1 "
                                         "on any failed rule")
    vd.add_argument("input", help="parquet dir/file")
    vd.add_argument("rules", help="JSON file: [[check, col, ...], ...]")
    vd.add_argument("--id-col", default=None,
                    help="column sampled for offender ids")
    vd.add_argument("--report-out", default=None,
                    help="write the report as parquet")
    vd.set_defaults(fn=cmd_validate)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
