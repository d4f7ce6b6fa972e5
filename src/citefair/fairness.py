"""Top-share fairness test: is membership in the global top-z% of an
indicator independent of the field a journal belongs to?

Under a fair indicator the number m_g of cluster-g journals inside the
top set follows the hypergeometric distribution with parameters
(N, N_g, n_z); each cluster's observed m_g is checked against a central
confidence interval of that distribution.  Journals with UNDEFINED values
are excluded from N and from their cluster's N_g before the test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import FairnessError
from .indicators import IndicatorTable, _id_order
from .model import cluster_order_key
from .stats import HypergeomParams, cluster_codes, hypergeom_ci, share_count, top_rows

__all__ = [
    "ClusterFairness",
    "FairnessSummary",
    "FairnessReport",
    "ReportComparison",
    "percentage_summary",
    "fairness_test",
    "compare_reports",
    "calibration",
    "write_report_tsv",
    "write_report_json",
    "write_comparison_tsv",
]

@dataclass(frozen=True)
class ClusterFairness:
    """One cluster's share of the top set and its fair-indicator band."""

    cluster_id: str
    n_g: int
    m_g: int
    pct: float
    expected_pct: float
    ci_counts: tuple[int, int]
    ci_pct: tuple[float, float]
    within_ci: bool


@dataclass(frozen=True)
class FairnessSummary:
    """The across-cluster summary of a report's percentages."""

    mean_pct: float
    sd_pct: Optional[float]
    sum_abs_dev: float
    all_within_ci: bool


@dataclass(frozen=True)
class FairnessReport:
    """The top-z% fairness test of one table: per cluster and overall."""

    z: float
    ci_level: float
    n_z: int
    per_cluster: tuple[ClusterFairness, ...]
    summary: FairnessSummary


def percentage_summary(pcts: Sequence[float], z: float) -> tuple[float, Optional[float], float]:
    """Aggregate per-cluster percentages: unweighted mean, sample standard
    deviation (n-1), and the sum of absolute deviations from z."""
    if not pcts:
        raise FairnessError("no cluster percentages to summarize")
    arr = np.asarray(pcts, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if len(arr) > 1 else None
    sum_abs = float(np.sum(np.abs(arr - z)))
    return mean, sd, sum_abs


def fairness_test(table: IndicatorTable,
                  partition: Mapping[str, str],
                  z: float = 10.0,
                  ci_level: float = 0.90) -> FairnessReport:
    """Run the fairness test for one indicator table over a partition.

    Every journal in the table must belong to the partition, and every
    cluster must contribute at least one defined value.
    """
    ids, column = table.journal_ids, table.column
    inside = list(map(partition.__contains__, ids))
    if not all(inside):
        raise FairnessError(f"journal '{ids[inside.index(False)]}' missing from the partition")
    clusters, codes = cluster_codes(ids, partition)
    order = _id_order(ids)
    codes, column = codes[order], column[order]

    n_by_cluster = np.bincount(codes[~np.isnan(column)], minlength=len(clusters)).tolist()
    empty = sorted((g for g, n in zip(clusters, n_by_cluster) if n == 0), key=cluster_order_key)
    if empty:
        raise FairnessError(
            f"cluster(s) without any defined value: {', '.join(empty)}")

    top = top_rows(column, z)
    m_by_cluster = np.bincount(codes[top], minlength=len(clusters)).tolist()
    n_total, n_z = sum(n_by_cluster), len(top)
    rows = []
    for g, n_g, m_g in sorted(zip(clusters, n_by_cluster, m_by_cluster),
                              key=lambda row: cluster_order_key(row[0])):
        m_lo, m_hi = hypergeom_ci(HypergeomParams(n_total, n_g, n_z), ci_level)
        rows.append(ClusterFairness(
            cluster_id=g,
            n_g=n_g,
            m_g=m_g,
            pct=100.0 * m_g / n_g,
            expected_pct=z,
            ci_counts=(m_lo, m_hi),
            ci_pct=(100.0 * m_lo / n_g, 100.0 * m_hi / n_g),
            within_ci=m_lo <= m_g <= m_hi,
        ))

    mean, sd, sum_abs = percentage_summary([r.pct for r in rows], z)
    summary = FairnessSummary(
        mean_pct=mean,
        sd_pct=sd,
        sum_abs_dev=sum_abs,
        all_within_ci=all(r.within_ci for r in rows),
    )
    return FairnessReport(z=z, ci_level=ci_level, n_z=n_z,
                          per_cluster=tuple(rows), summary=summary)


@dataclass(frozen=True)
class ReportComparison:
    """Criterion-by-criterion verdicts ('a', 'b' or 'tie') plus an overall
    ordering ('a', 'b', 'tie', or 'mixed' when the criteria disagree)."""

    criteria: dict[str, str]
    overall: str
    a_summary: FairnessSummary
    b_summary: FairnessSummary


def _smaller_wins(va: Optional[float], vb: Optional[float]) -> str:
    if va is None or vb is None:
        return "tie"
    if va < vb:
        return "a"
    if vb < va:
        return "b"
    return "tie"


def compare_reports(a: FairnessReport, b: FairnessReport) -> ReportComparison:
    """Order two reports by the fairness criteria: smaller sum of absolute
    deviations, smaller sd of cluster percentages, and CI-membership
    dominance."""
    if a.z != b.z:
        raise FairnessError(f"reports use different z: {a.z} vs {b.z}")
    part_a = [(r.cluster_id, r.n_g) for r in a.per_cluster]
    part_b = [(r.cluster_id, r.n_g) for r in b.per_cluster]
    if part_a != part_b:
        raise FairnessError("reports were computed over different partitions")

    criteria = {
        "sum_abs_dev": _smaller_wins(a.summary.sum_abs_dev, b.summary.sum_abs_dev),
        "sd_pct": _smaller_wins(a.summary.sd_pct, b.summary.sd_pct),
    }
    if a.summary.all_within_ci == b.summary.all_within_ci:
        criteria["all_within_ci"] = "tie"
    else:
        criteria["all_within_ci"] = "a" if a.summary.all_within_ci else "b"

    winners = {v for v in criteria.values() if v != "tie"}
    if not winners:
        overall = "tie"
    elif len(winners) == 1:
        overall = winners.pop()
    else:
        overall = "mixed"
    return ReportComparison(criteria=criteria, overall=overall,
                            a_summary=a.summary, b_summary=b.summary)


def calibration(group_sizes: Mapping[str, int], trials: int,
                z: float = 10.0, ci_level: float = 0.90,
                seed: int = 0) -> dict[str, float]:
    """Empirical within-CI coverage per cluster under a fair indicator.

    Each trial draws i.i.d. uniform scores for the whole journal set (any
    exchangeable continuous law selects the same top sets in distribution)
    and records whether each cluster's count of top-set members falls
    inside its confidence interval.  The CI per cluster depends only on
    (N, N_g, n_z), so it is computed once.  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise FairnessError(f"trials must be >= 1, got {trials}")
    ids = list(group_sizes)
    sizes = np.asarray([group_sizes[g] for g in ids], dtype=np.int64)
    if (sizes < 1).any():
        raise FairnessError("all group sizes must be >= 1")
    n_total = int(sizes.sum())
    n_z = share_count(z, n_total)
    if n_z == 0:
        raise FairnessError(f"top-{z}% of {n_total} journals selects nothing")

    bounds = np.empty((len(ids), 2), dtype=np.int64)
    for i, g in enumerate(ids):
        bounds[i] = hypergeom_ci(
            HypergeomParams(n_total, int(sizes[i]), n_z), ci_level)

    labels = np.repeat(np.arange(len(ids)), sizes)
    rng = np.random.default_rng(seed)
    within = np.zeros(len(ids), dtype=np.int64)
    for _ in range(trials):
        scores = rng.random(n_total)
        top = np.argpartition(scores, n_total - n_z)[n_total - n_z:]
        m = np.bincount(labels[top], minlength=len(ids))
        within += (bounds[:, 0] <= m) & (m <= bounds[:, 1])
    return {g: float(within[i] / trials) for i, g in enumerate(ids)}


def _cluster_label(cluster_id: str, names: Mapping[str, str] | None) -> str:
    if names and cluster_id in names:
        return f"{cluster_id}. {names[cluster_id]}"
    return cluster_id


def write_report_tsv(report: FairnessReport, path: str | Path,
                     cluster_names: Mapping[str, str] | None = None) -> None:
    """Write the report as a table: one row per cluster, then the
    "Mean (± st.dev.)" and "Σ|x−z|" summary rows."""
    lines = ["\t".join((
        "cluster", "N_g", "m_g", "pct", "expected_pct",
        "ci_lo_pct", "ci_hi_pct", "ci_lo_count", "ci_hi_count", "within_ci"))]
    for r in report.per_cluster:
        lines.append("\t".join((
            _cluster_label(r.cluster_id, cluster_names),
            str(r.n_g), str(r.m_g),
            f"{r.pct:.2f}", f"{r.expected_pct:.2f}",
            f"{r.ci_pct[0]:.2f}", f"{r.ci_pct[1]:.2f}",
            str(r.ci_counts[0]), str(r.ci_counts[1]),
            "yes" if r.within_ci else "no")))
    sd = f"{report.summary.sd_pct:.2f}" if report.summary.sd_pct is not None else "n/a"
    lines.append("\t".join((
        "Mean (± st.dev.)", "", "", f"{report.summary.mean_pct:.2f} (± {sd})",
        "", "", "", "", "", "")))
    lines.append("\t".join((
        f"Σ|x−{report.z:g}|", "", "", f"{report.summary.sum_abs_dev:.2f}",
        "", "", "", "", "",
        "yes" if report.summary.all_within_ci else "no")))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report_json(report: FairnessReport, path: str | Path,
                      cluster_names: Mapping[str, str] | None = None) -> None:
    """Machine-readable report with all fields at full precision."""
    payload = asdict(report)
    if cluster_names:
        for row in payload["per_cluster"]:
            row["cluster_name"] = cluster_names.get(row["cluster_id"], "")
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_comparison_tsv(comparison: ReportComparison, path: str | Path,
                         label_a: str = "a", label_b: str = "b") -> None:
    def fmt(v):
        return "n/a" if v is None else f"{v:.2f}"

    a, b = comparison.a_summary, comparison.b_summary
    name = {"a": label_a, "b": label_b, "tie": "tie", "mixed": "mixed"}
    lines = [
        "\t".join(("criterion", label_a, label_b, "winner")),
        "\t".join(("sum_abs_dev", fmt(a.sum_abs_dev), fmt(b.sum_abs_dev),
                   name[comparison.criteria["sum_abs_dev"]])),
        "\t".join(("sd_pct", fmt(a.sd_pct), fmt(b.sd_pct),
                   name[comparison.criteria["sd_pct"]])),
        "\t".join(("all_within_ci",
                   "yes" if a.all_within_ci else "no",
                   "yes" if b.all_within_ci else "no",
                   name[comparison.criteria["all_within_ci"]])),
        "\t".join(("overall", "", "", name[comparison.overall])),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
