"""Statistics kernel: hypergeometric distribution and confidence intervals,
top-share extraction, one-way variance decomposition, correlations, decile
rank correlations, empirical CDFs and the two-sample KS statistic.

Conventions
-----------
Indicator values are mappings ``journal_id -> float | None`` where ``None``
marks an UNDEFINED value (zero denominator).  UNDEFINED values are excluded
from means, ranks and correlations by pairwise deletion.  All functions are
pure; callers may parallelize per-cluster or per-bin work freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import StatsError

__all__ = [
    "HypergeomParams",
    "VarianceDecomposition",
    "hypergeom_pmf",
    "hypergeom_cdf",
    "hypergeom_ci",
    "rank_order",
    "share_count",
    "top_fraction",
    "variance_decomposition",
    "pearson",
    "spearman",
    "average_ranks",
    "decile_correlations",
    "bin_sizes",
    "ecdf_by_group",
    "ks_two_sample",
]

Values = Mapping[str, Optional[float]]


@dataclass(frozen=True)
class HypergeomParams:
    """Urn parameters: ``population`` N, ``successes`` K, ``draws`` n.

    For the fairness test, K is a cluster's journal count and n the size
    of the extracted top set.
    """

    population: int
    successes: int
    draws: int

    def __post_init__(self):
        n_pop, k, n = self.population, self.successes, self.draws
        if n_pop < 0 or not (0 <= k <= n_pop) or not (0 <= n <= n_pop):
            raise StatsError(
                f"invalid hypergeometric parameters N={n_pop}, K={k}, n={n}")

    @property
    def support(self) -> range:
        lo = max(0, self.draws + self.successes - self.population)
        hi = min(self.draws, self.successes)
        return range(lo, hi + 1)


def _log_choose(a: int, b: int) -> float:
    # log-gamma form: naive factorials overflow long before N ~ 1e4
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def hypergeom_pmf(m: int, params: HypergeomParams) -> float:
    """P(X = m): C(K,m) C(N-K,n-m) / C(N,n), exponentiated once from log space."""
    if m not in params.support:
        return 0.0
    n_pop, k, n = params.population, params.successes, params.draws
    return math.exp(
        _log_choose(k, m) + _log_choose(n_pop - k, n - m) - _log_choose(n_pop, n)
    )


def hypergeom_cdf(m: int, params: HypergeomParams) -> float:
    """P(X <= m), accumulated over the support."""
    support = params.support
    if m < support.start:
        return 0.0
    if m >= support.stop - 1:
        return 1.0
    return math.fsum(hypergeom_pmf(i, params) for i in range(support.start, m + 1))


def hypergeom_ci(params: HypergeomParams, level: float) -> tuple[int, int]:
    """Central equal-tail interval on counts.

    ``m_lo`` is the smallest m whose CDF exceeds (1-level)/2 (equivalently,
    the largest m whose lower tail is still within the left allowance);
    ``m_hi`` is the smallest m whose CDF reaches 1-(1-level)/2.  By
    construction CDF(m_hi) - CDF(m_lo - 1) >= level.
    """
    if not 0.0 < level < 1.0:
        raise StatsError(f"confidence level must lie in (0, 1), got {level}")
    alpha = (1.0 - level) / 2.0
    support = params.support
    m_lo = m_hi = support.stop - 1
    cdf = 0.0
    found_lo = found_hi = False
    for m in support:
        cdf += hypergeom_pmf(m, params)
        if not found_lo and cdf > alpha:
            m_lo, found_lo = m, True
        if not found_hi and cdf >= 1.0 - alpha:
            m_hi, found_hi = m, True
            break
    return m_lo, m_hi


def rank_order(values: Values) -> list[tuple[str, float]]:
    """Defined values sorted by value descending, ties by id ascending."""
    defined = [(jid, v) for jid, v in values.items() if v is not None]
    defined.sort(key=lambda kv: (-kv[1], kv[0]))
    return defined


def share_count(z: float, n: int) -> int:
    """floor(z*n/100), computed exactly so decimal z never loses a unit
    to binary rounding (10.1% of 1000 is 101, not floor(100.999...))."""
    return int(Fraction(str(z)) * n / 100)


def top_fraction(values: Values, z: float) -> tuple[frozenset[str], int]:
    """Extract the top z% set: the floor(z*N/100) highest-ranked journals.

    N counts journals with defined values only.  Returns the selected ids
    and n_z; a fraction too small to select anything is an error.
    """
    if not 0.0 < z <= 100.0:
        raise StatsError(f"z must lie in (0, 100], got {z}")
    ordered = rank_order(values)
    n_defined = len(ordered)
    if n_defined == 0:
        raise StatsError("no defined values to rank")
    n_z = share_count(z, n_defined)
    if n_z == 0:
        raise StatsError(
            f"top-{z}% of {n_defined} values selects nothing (n_z = 0)")
    return frozenset(jid for jid, _ in ordered[:n_z]), n_z


@dataclass(frozen=True)
class VarianceDecomposition:
    """One-way sums of squares: ss_total = ss_between + ss_within."""

    ss_total: float
    ss_between: float
    ss_within: float
    group_means: dict[str, float]
    grand_mean: float
    eta_squared: Optional[float]


def variance_decomposition(values: Values, partition: Mapping[str, str]) -> VarianceDecomposition:
    """Decompose total spread into between- and within-group components.

    ss_between = sum_j n_j (mean_j - grand_mean)^2 with n_j the number of
    defined values in group j; ss_within is the remainder.
    """
    xs: list[float] = []
    groups: list[str] = []
    for jid, v in values.items():
        if v is None:
            continue
        try:
            groups.append(partition[jid])
        except KeyError:
            raise StatsError(f"journal '{jid}' missing from the partition") from None
        xs.append(v)
    if len(xs) < 2:
        raise StatsError("variance decomposition needs at least 2 defined values")

    x = np.asarray(xs, dtype=float)
    grand = float(x.mean())
    ss_total = float(np.sum((x - grand) ** 2))

    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for g, v in zip(groups, xs):
        sums[g] = sums.get(g, 0.0) + v
        counts[g] = counts.get(g, 0) + 1
    group_means = {g: sums[g] / counts[g] for g in sums}
    ss_between = float(
        sum(counts[g] * (group_means[g] - grand) ** 2 for g in group_means))
    ss_within = max(0.0, ss_total - ss_between)
    eta = ss_between / ss_total if ss_total > 0.0 else None
    return VarianceDecomposition(ss_total, ss_between, ss_within, group_means, grand, eta)


def _paired_arrays(x: Sequence[Optional[float]], y: Sequence[Optional[float]]):
    if len(x) != len(y):
        raise StatsError(f"length mismatch: {len(x)} vs {len(y)}")
    pairs = [(a, b) for a, b in zip(x, y) if a is not None and b is not None]
    if len(pairs) < 2:
        raise StatsError(f"need at least 2 defined pairs, got {len(pairs)}")
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0], arr[:, 1]


def _pearson_arrays(xs: np.ndarray, ys: np.ndarray) -> Optional[float]:
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def pearson(x: Sequence[Optional[float]], y: Sequence[Optional[float]]) -> Optional[float]:
    """Sample Pearson r with pairwise deletion; None if either variance is 0."""
    xs, ys = _paired_arrays(x, y)
    return _pearson_arrays(xs, ys)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    values = np.asarray(values, dtype=float)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    mean_rank = (starts + ends + 1) / 2.0
    return mean_rank[inverse]


def spearman(x: Sequence[Optional[float]], y: Sequence[Optional[float]]) -> Optional[float]:
    """Spearman rho: Pearson correlation of average-ranked values."""
    xs, ys = _paired_arrays(x, y)
    return _pearson_arrays(average_ranks(xs), average_ranks(ys))


def bin_sizes(n: int, k: int) -> list[int]:
    """Split n items into k contiguous bins; the remainder goes one each
    to the top bins."""
    base, rem = divmod(n, k)
    return [base + 1] * rem + [base] * (k - rem)


def decile_correlations(baseline: Values, other: Values, k: int = 10) -> list[Optional[float]]:
    """Per-bin Spearman between two indicators along the baseline ranking.

    Journals defined in both tables are sorted by the baseline (value
    descending, id ascending) and cut into k contiguous bins.  A bin where
    either variable is constant (including single-journal bins) yields None.
    """
    if k < 2:
        raise StatsError(f"need at least 2 bins, got k={k}")
    shared = {jid: v for jid, v in baseline.items()
              if v is not None and other.get(jid) is not None}
    if len(shared) < k:
        raise StatsError(
            f"shared defined support {len(shared)} is smaller than k={k}")
    ordered = [jid for jid, _ in rank_order(shared)]
    out: list[Optional[float]] = []
    pos = 0
    for size in bin_sizes(len(ordered), k):
        ids = ordered[pos:pos + size]
        pos += size
        if size < 2:
            out.append(None)
            continue
        xs = np.asarray([baseline[j] for j in ids], dtype=float)
        ys = np.asarray([other[j] for j in ids], dtype=float)
        out.append(_pearson_arrays(average_ranks(xs), average_ranks(ys)))
    return out


def ecdf_by_group(values: Values, partition: Mapping[str, str]) -> dict[str, list[tuple[float, float]]]:
    """Right-continuous ECDF step points per cluster, over defined values.

    Each cluster maps to ascending (value, cumulative fraction) pairs with
    fractions in (0, 1]; duplicated values collapse into a single step.
    """
    grouped: dict[str, list[float]] = {g: [] for g in dict.fromkeys(partition.values())}
    for jid, v in values.items():
        if v is None:
            continue
        try:
            grouped[partition[jid]].append(v)
        except KeyError:
            raise StatsError(f"journal '{jid}' missing from the partition") from None
    out: dict[str, list[tuple[float, float]]] = {}
    for g, xs in grouped.items():
        if not xs:
            raise StatsError(f"cluster '{g}' has no defined values")
        uniq, counts = np.unique(np.asarray(xs, dtype=float), return_counts=True)
        frac = np.cumsum(counts) / len(xs)
        out[g] = list(zip(uniq.tolist(), frac.tolist()))
    return out


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> float:
    """sup |ECDF_a - ECDF_b| over the pooled sample points."""
    if len(a) == 0 or len(b) == 0:
        raise StatsError("both samples must be nonempty")
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / len(xa)
    cdf_b = np.searchsorted(xb, grid, side="right") / len(xb)
    return float(np.max(np.abs(cdf_a - cdf_b)))
