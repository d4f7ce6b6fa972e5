"""Command-line front end: synth -> ingest -> indicators -> fairness /
correlate, each step reading and writing files so runs are reproducible
and plotting can be done with external tools.

Exit codes: 0 success, 2 usage or input error, 1 internal error.  The
default output directory is $CITEFAIR_OUT, falling back to the current
directory.  All outputs are deterministic given inputs and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from dataclasses import replace
from itertools import compress
from pathlib import Path

# One BLAS thread: a second costs half of numpy's import and makes dot-product bits host-dependent.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import fairness as fair
from . import indicators as ind
from . import ingest as ing
from . import stats
from . import synth
from .errors import CiteFairError, ValidationError
from .model import cluster_order_key

__all__ = ["main", "run", "build_parser"]


def _out_path(args) -> Path:
    return Path(args.out_dir or os.environ.get("CITEFAIR_OUT", "."))


def _out_dir(args) -> Path:
    out = _out_path(args)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _one_char(value: str) -> str:
    if len(value) != 1:
        raise argparse.ArgumentTypeError(f"the delimiter must be one character, got {value!r}")
    return value


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=None,
                   help="output directory (default: $CITEFAIR_OUT or '.')")


def cmd_synth(args) -> int:
    if args.profile_file:
        profile = synth.profile_from_json(args.profile_file)
    else:
        profile = synth.builtin_profile(args.profile)
    if args.seed is not None:
        profile = replace(profile, seed=args.seed)
    if args.items is not None:
        profile = replace(profile, items_per_journal=tuple(args.items))
    dataset = synth.generate(profile)
    out = _out_dir(args)
    paths = ing.write_dataset(dataset, out)
    print(f"profile: {args.profile_file or args.profile} (seed {profile.seed})")
    print(f"clusters: {len(dataset.clusters)}  journals: {len(dataset.journals)}  "
          f"events: {len(dataset.citation_events)}  census year: {dataset.census_year}")
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def cmd_ingest(args) -> int:
    try:
        config = ing.IngestConfig(
            min_cluster_size=args.min_cluster_size,
            unknown_cited_policy=args.unknown_cited,
            zero_refs_policy=args.zero_refs,
            delimiter=args.delimiter,
        )
    except ValueError as exc:
        raise CiteFairError(str(exc)) from None
    out = _out_path(args)
    summary = ing.ingest_bundle(args.journals, args.publications, args.citations, out,
                                census_year=args.census_year, config=config)
    print(f"dataset: {summary.retained_journals} journals in "
          f"{summary.retained_clusters} clusters, {summary.retained_events} events, "
          f"census year {summary.census_year}")
    if summary.excluded_clusters:
        listed = ", ".join(f"{cid} '{name}' ({size})"
                           for cid, name, size in summary.excluded_clusters)
        print(f"excluded clusters (size < {config.min_cluster_size}): {listed}")
        print(f"excluded journals: {summary.excluded_journals}, "
              f"events dropped with them: {summary.events_dropped_excluded_clusters}")
    else:
        print("excluded clusters: none")
    if summary.events_dropped_unknown_cited:
        print(f"events dropped (unknown cited journal): {summary.events_dropped_unknown_cited}")
    if summary.events_dropped_zero_refs:
        print(f"events dropped (n_refs = 0): {summary.events_dropped_zero_refs}")
    print(f"bundle written to {out}")
    return 0


def _spec_from_args(args) -> ind.IndicatorSpec:
    window: int | str | None = args.window
    if window not in (None, ind.WINDOW_ALL):
        with suppress(ValueError):  # not an integer: the spec rejects it by its text
            window = int(window)
    try:
        return ind.IndicatorSpec(kind=args.kind, window=window, counting=args.counting)
    except ValueError as exc:
        raise CiteFairError(str(exc)) from None


def cmd_indicators(args) -> int:
    counts, partition = ing.load_counts(args.dataset)
    if args.kind:
        specs = [_spec_from_args(args)]
    else:
        specs = ind.standard_specs()
    tables = ind.tables_from_counts(counts, specs)
    out = _out_dir(args)
    written = []
    for table in tables:
        path = out / f"{table.indicator_id}.tsv"
        ind.write_table(table, path)
        written.append(path)
        if args.rescale:
            rescaled = ind.rescale(table, partition)
            rs_path = out / f"{rescaled.indicator_id}.tsv"
            ind.write_table(rescaled, rs_path)
            written.append(rs_path)
    for path in written:
        print(f"wrote {path}")
        if args.stdout:
            sys.stdout.write(path.read_text(encoding="utf-8"))
    return 0


def _read_table(path: str, partition, census_year: int) -> ind.IndicatorTable:
    """Read a table computed for the bundle's census year, restricted (as an
    external table may need) to the dataset's journals."""
    table = ind.read_table(path)
    if table.census_year != census_year:
        raise ValidationError(f"{path}: census_year {table.census_year} differs from "
                              f"census_year {census_year} of the bundle")
    inside = list(map(partition.__contains__, table.journal_ids))
    ignored = inside.count(False)
    if not ignored:
        return table
    print(f"{table.indicator_id}: ignoring {ignored} journal(s) outside the dataset")
    return replace(table, journal_ids=tuple(compress(table.journal_ids, inside)),
                   column=table.column[np.array(inside, dtype=bool)])


def cmd_fairness(args) -> int:
    partition, cluster_names, census_year = ing.load_partition(args.dataset)
    tables = [_read_table(p, partition, census_year) for p in args.table]
    out = _out_dir(args)
    reports = []
    for table in tables:
        report = fair.fairness_test(table, partition,
                                    z=args.z, ci_level=args.ci_level)
        reports.append(report)
        tsv = out / f"{table.indicator_id}-fairness.tsv"
        fair.write_report_tsv(report, tsv, cluster_names)
        fair.write_report_json(report, out / f"{table.indicator_id}-fairness.json",
                               cluster_names)
        print(f"wrote {tsv} (and .json)")
        if args.stdout:
            if args.format == "structured":
                sys.stdout.write((out / f"{table.indicator_id}-fairness.json")
                                 .read_text(encoding="utf-8"))
            else:
                sys.stdout.write(tsv.read_text(encoding="utf-8"))
    if len(tables) == 2:
        comparison = fair.compare_reports(reports[0], reports[1])
        cmp_path = out / (f"comparison-{tables[0].indicator_id}"
                          f"-vs-{tables[1].indicator_id}.tsv")
        fair.write_comparison_tsv(comparison, cmp_path,
                                  tables[0].indicator_id, tables[1].indicator_id)
        print(f"wrote {cmp_path} (overall: {comparison.overall})")
    return 0


def cmd_correlate(args) -> int:
    if len(args.table) < 2:
        raise CiteFairError("correlate needs at least two --table files")
    partition, _, census_year = ing.load_partition(args.dataset)
    tables = [_read_table(p, partition, census_year) for p in args.table]
    out = _out_dir(args)

    # each table as a column over the dataset's journals in id order, NaN
    # where it has no defined value; the first table of each id is kept
    journals = sorted(partition)
    position = dict(zip(journals, range(len(journals))))
    columns = []
    by_id: dict[str, np.ndarray] = {}
    for table in tables:
        column = np.full(len(journals), np.nan)
        column[list(map(position.__getitem__, table.journal_ids))] = table.column
        columns.append(column)
        by_id.setdefault(table.indicator_id, column)

    # correlation matrix: Spearman above the diagonal, Pearson below
    ids = list(by_id)
    lines = ["\t".join(["indicator"] + ids)]
    for i, rid in enumerate(ids):
        row = [rid]
        for j, cid in enumerate(ids):
            if i == j:
                row.append("")
                continue
            r = (stats.spearman if j > i else stats.pearson)(by_id[rid], by_id[cid])
            row.append("n/a" if r is None else f"{r:.3f}")
        lines.append("\t".join(row))
    matrix_path = out / "correlation-matrix.tsv"
    matrix_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {matrix_path}")
    if args.stdout:
        sys.stdout.write(matrix_path.read_text(encoding="utf-8"))

    # per-decile rank correlations against the first table
    baseline = columns[0]
    for table, other in zip(tables[1:], columns[1:]):
        rhos = stats.decile_rhos(baseline, other, k=args.deciles)
        shared_n = int(np.sum(~np.isnan(baseline) & ~np.isnan(other)))
        sizes = stats.bin_sizes(shared_n, args.deciles)
        dec_lines = ["\t".join(("bin", "size", "spearman"))]
        for b, (size, rho) in enumerate(zip(sizes, rhos), start=1):
            dec_lines.append(f"{b}\t{size}\t" + ("n/a" if rho is None else f"{rho:.3f}"))
        dec_path = out / f"deciles-{tables[0].indicator_id}-vs-{table.indicator_id}.tsv"
        dec_path.write_text("\n".join(dec_lines) + "\n", encoding="utf-8")
        print(f"wrote {dec_path}")

    # per-cluster ECDF points and pairwise KS distances for each table
    clusters, codes = stats.cluster_codes(journals, partition)
    groups = sorted(range(len(clusters)), key=lambda g: cluster_order_key(clusters[g]))
    for indicator_id, column in by_id.items():
        values, bounds = stats.cluster_sort(column, codes, clusters)
        steps = stats.ecdf_steps(values, bounds)
        ecdf_lines = ["\t".join(("cluster", "value", "cumulative_fraction"))]
        for g in groups:
            xs, fractions = steps[g]
            ecdf_lines += [f"{clusters[g]}\t{value!r}\t{frac!r}"
                           for value, frac in zip(xs.tolist(), fractions.tolist())]
        epath = out / f"ecdf-{indicator_id}.tsv"
        epath.write_text("\n".join(ecdf_lines) + "\n", encoding="utf-8")

        ks = stats.ks_matrix(values, bounds).tolist()
        ks_lines = ["\t".join(["cluster"] + [clusters[g] for g in groups])]
        for g in groups:
            ks_lines.append("\t".join([clusters[g]] + ["" if g == h else f"{ks[g][h]:.4f}"
                                                        for h in groups]))
        kpath = out / f"ks-{indicator_id}.tsv"
        kpath.write_text("\n".join(ks_lines) + "\n", encoding="utf-8")
        print(f"wrote {epath} and {kpath}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citefair",
        description="Journal citation indicators, field normalization, "
                    "and the top-share fairness test.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic input files")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--profile", default="paper2010",
                       help="built-in profile name (default: paper2010)")
    group.add_argument("--profile-file", help="JSON profile file")
    p.add_argument("--seed", type=int, default=None, help="override the profile seed")
    p.add_argument("--items", type=int, nargs=2, metavar=("LO", "HI"),
                   help="override items-per-journal-year range")
    _add_out(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse, validate and bundle the input files")
    p.add_argument("--journals", required=True)
    p.add_argument("--publications", required=True)
    p.add_argument("--citations", required=True)
    p.add_argument("--census-year", type=int, default=None,
                   help="evaluation year t (default: latest citing year)")
    p.add_argument("--min-cluster-size", type=int, default=10)
    p.add_argument("--unknown-cited", choices=[ing.POLICY_DROP, ing.POLICY_ERROR],
                   default=ing.POLICY_DROP)
    p.add_argument("--zero-refs", choices=[ing.POLICY_DROP_WARN, ing.POLICY_ERROR],
                   default=ing.POLICY_DROP_WARN)
    p.add_argument("--delimiter", default="\t", type=_one_char,
                   help="delimiter of the input files (one character)")
    _add_out(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("indicators", help="compute indicator tables from a bundle")
    p.add_argument("--dataset", required=True, help="bundle directory from 'ingest'")
    p.add_argument("--kind", choices=ind.KINDS, default=None,
                   help="one indicator kind (default: the standard battery)")
    p.add_argument("--window", default=None, help="2, 5 or 'all'")
    p.add_argument("--counting", choices=ind.COUNTINGS, default="integer")
    p.add_argument("--rescale", dest="rescale", action="store_true", default=True,
                   help="also write per-cluster mean-rescaled variants (default)")
    p.add_argument("--no-rescale", dest="rescale", action="store_false")
    p.add_argument("--stdout", action="store_true", help="mirror tables to stdout")
    _add_out(p)
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("fairness", help="top-share fairness report for table file(s)")
    p.add_argument("--dataset", required=True)
    p.add_argument("--table", action="append", required=True,
                   help="indicator table file; give twice to compare two tables")
    p.add_argument("--z", type=float, default=10.0, help="top share in percent (default 10)")
    p.add_argument("--ci-level", type=float, default=0.90)
    p.add_argument("--format", choices=["tsv", "structured"], default="tsv")
    p.add_argument("--stdout", action="store_true")
    _add_out(p)
    p.set_defaults(func=cmd_fairness)

    p = sub.add_parser("correlate",
                       help="correlation matrix, decile correlations, ECDF and KS files")
    p.add_argument("--dataset", required=True)
    p.add_argument("--table", action="append", required=True,
                   help="indicator table file (at least two)")
    p.add_argument("--deciles", type=int, default=10)
    p.add_argument("--stdout", action="store_true")
    _add_out(p)
    p.set_defaults(func=cmd_correlate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (CiteFairError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
