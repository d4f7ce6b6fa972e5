"""Statistics kernel: hypergeometric distribution and confidence intervals,
top-share extraction, one-way variance decomposition, correlations, decile
rank correlations, empirical CDFs and the two-sample KS statistic.

Conventions
-----------
The ranking, variance, decile and ECDF kernels take columns: float64
arrays holding one value per journal, journals in ascending id order, NaN
marking an UNDEFINED value (zero denominator).  UNDEFINED values are
excluded from means, ranks and correlations by pairwise deletion; tied
values are ordered by journal id, and -0.0 ties with 0.0.  All functions
are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    "ranking",
    "share_count",
    "top_rows",
    "variance_decomposition",
    "pearson",
    "spearman",
    "average_ranks",
    "decile_rhos",
    "bin_sizes",
    "cluster_codes",
    "cluster_sort",
    "ecdf_steps",
    "ks_matrix",
]

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


def _ratio(params: HypergeomParams, m):
    """p(m+1)/p(m) as (numerator, denominator); at least 1 just below the mode."""
    n_pop, k, n = params.population, params.successes, params.draws
    return (k - m) * (n - m), (m + 1) * (n_pop - k - n + m + 1)


@lru_cache(maxsize=16)
def _distribution(params: HypergeomParams) -> tuple[np.ndarray, np.ndarray]:
    """The pmf over the support and its running sum, the CDF, as read-only
    float64 vectors: the ratio recurrence taken outward from the mode, so
    that no factor exceeds 1, and normalised so that the CDF ends at 1."""
    num, den = _ratio(params, np.arange(params.support.start, params.support.stop - 1,
                                        dtype=np.float64))
    mode = np.count_nonzero(num >= den)  # its offset in the support
    weights = np.concatenate((np.cumprod((den[:mode] / num[:mode])[::-1])[::-1], [1.0],
                              np.cumprod(num[mode:] / den[mode:])))
    running = np.cumsum(weights)
    pmf, cdf = weights / running[-1], running / running[-1]
    pmf.flags.writeable = cdf.flags.writeable = False
    return pmf, cdf


def hypergeom_pmf(m: int, params: HypergeomParams) -> float:
    """P(X = m): C(K,m) C(N-K,n-m) / C(N,n), read from the urn's pmf vector."""
    if m not in params.support:
        return 0.0
    return float(_distribution(params)[0][m - params.support.start])


def hypergeom_cdf(m: int, params: HypergeomParams) -> float:
    """P(X <= m), accumulated over the support."""
    support = params.support
    if m < support.start:
        return 0.0
    return float(_distribution(params)[1][min(m, support.stop - 1) - support.start])


def _exceeds(params: HypergeomParams, m: int, bound: Fraction) -> bool:
    """Whether CDF(m) exceeds ``bound``, decided in integers.  The terms
    p(i)/p(a) are summed exactly over a window [a, b] around m.  Once the
    ratios fall on both sides away from the window, each tail beyond it is
    at most a geometric series.  The window widens until these bounds
    decide, at the latest when it spans the support."""
    lo, hi = params.support.start, params.support.stop - 1
    width = 16
    while True:
        a, b = max(lo, m - width), min(hi, m + width)
        width *= 2
        (num_a, den_a), (num_b, den_b) = _ratio(params, a - 1), _ratio(params, b)
        if (a > lo and num_a <= den_a) or (b < hi and num_b >= den_b):
            continue  # a tail still rises away from the window
        term = scale = total = 1  # p(i)/p(a) is term/scale; their sum up to i, total/scale
        for i in range(a, b):
            if i == m:
                below = Fraction(total, scale)
            num, den = _ratio(params, i)
            term, scale = term * num, scale * den
            total = total * den + term
        whole = Fraction(total, scale)
        if m == b:
            below = whole
        left = Fraction(den_a, num_a - den_a) if a > lo else 0
        right = Fraction(term * num_b, scale * (den_b - num_b)) if b < hi else 0
        if (below + left) / (whole + left) <= bound:
            return False
        if below / (whole + right) > bound:
            return True


def _crossing(params: HypergeomParams, alpha: Fraction) -> int:
    """The smallest m whose CDF exceeds ``alpha``.  The float CDF settles
    every m but those within its rounding error of ``alpha``; _exceeds
    settles those.  That error is relative: each CDF value sums terms of
    relative error under eps times the support's size."""
    cdf = _distribution(params)[1]
    slack = 8 * np.finfo(np.float64).eps * len(cdf) * float(alpha)
    first, last = np.searchsorted(cdf, [float(alpha) - slack, float(alpha) + slack],
                                  side="right").tolist()
    lo = params.support.start
    for m in range(lo + first, lo + last):
        if _exceeds(params, m, alpha):
            return m
    return lo + last


def hypergeom_ci(params: HypergeomParams, level: float) -> tuple[int, int]:
    """Central equal-tail interval on counts.

    ``m_lo`` is the smallest m whose CDF exceeds (1-level)/2 (equivalently,
    the largest m whose lower tail is still within the left allowance);
    ``m_hi`` is the smallest m whose CDF reaches 1-(1-level)/2.  By
    construction CDF(m_hi) - CDF(m_lo - 1) >= level.  ``level`` is read as
    the decimal it is written as (0.9 is 9/10), and a CDF within rounding
    of an allowance is compared with it exactly.  ``m_hi`` is taken as
    n - m_lo of the mirrored urn (N, N-K, n), whose count is n - X, so that
    each tail is compared with its allowance at the precision of a tail.
    """
    if not 0.0 < level < 1.0:
        raise StatsError(f"confidence level must lie in (0, 1), got {level}")
    alpha = (1 - Fraction(str(level))) / 2
    mirror = HypergeomParams(params.population, params.population - params.successes,
                             params.draws)
    return _crossing(params, alpha), params.draws - _crossing(mirror, alpha)


def ranking(column: np.ndarray) -> np.ndarray:
    """The positions of the defined values of a column, by value descending.
    The sort is stable, so tied values keep id order."""
    defined = np.flatnonzero(~np.isnan(column))
    return defined[np.argsort(-column[defined], kind="stable")]


def share_count(z: float, n: int) -> int:
    """floor(z*n/100), computed exactly so decimal z never loses a unit
    to binary rounding (10.1% of 1000 is 101, not floor(100.999...))."""
    return int(Fraction(str(z)) * n / 100)


def top_rows(column: np.ndarray, z: float) -> np.ndarray:
    """The positions of the top z% of a column: its floor(z*N/100)
    highest-ranked values, N counting defined values only.  A fraction too
    small to select anything is an error."""
    if not 0.0 < z <= 100.0:
        raise StatsError(f"z must lie in (0, 100], got {z}")
    ranked = ranking(column)
    if len(ranked) == 0:
        raise StatsError("no defined values to rank")
    n_z = share_count(z, len(ranked))
    if n_z == 0:
        raise StatsError(
            f"top-{z}% of {len(ranked)} values selects nothing (n_z = 0)")
    return ranked[:n_z]


@dataclass(frozen=True)
class VarianceDecomposition:
    """One-way sums of squares: ss_total = ss_between + ss_within."""

    ss_total: float
    ss_between: float
    ss_within: float
    group_means: dict[str, float]
    grand_mean: float
    eta_squared: Optional[float]


def variance_decomposition(column: np.ndarray, codes: np.ndarray,
                           clusters: Sequence[str]) -> VarianceDecomposition:
    """One-way decomposition of a column's defined values over the clusters
    of ``codes`` and ``clusters`` (as cluster_sort takes them):
    ss_between = sum_g n_g (mean_g - grand_mean)^2, n_g the number of
    defined values in cluster g, and ss_within the remainder.  Cluster sums
    are bincounts in journal order; ``group_means`` holds the clusters with
    defined values, in order."""
    defined = ~np.isnan(column)
    x, codes = column[defined], codes[defined]
    if len(x) < 2:
        raise StatsError("variance decomposition needs at least 2 defined values")
    grand = float(x.mean())
    ss_total = float(np.sum((x - grand) ** 2))
    counts = np.bincount(codes, minlength=len(clusters))
    present = np.flatnonzero(counts)
    means = np.bincount(codes, x, len(clusters))[present] / counts[present]
    group_means = dict(zip([clusters[g] for g in present.tolist()], means.tolist()))
    ss_between = float(np.sum(counts[present] * (means - grand) ** 2))
    ss_within = max(0.0, ss_total - ss_between)
    eta = ss_between / ss_total if ss_total > 0.0 else None
    return VarianceDecomposition(ss_total, ss_between, ss_within, group_means, grand, eta)


def _paired_arrays(x: Sequence[Optional[float]], y: Sequence[Optional[float]]):
    """The pairs where both values are defined (neither None nor NaN)."""
    if len(x) != len(y):
        raise StatsError(f"length mismatch: {len(x)} vs {len(y)}")
    xs, ys = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    both = ~(np.isnan(xs) | np.isnan(ys))
    if both.sum() < 2:
        raise StatsError(f"need at least 2 defined pairs, got {both.sum()}")
    return xs[both], ys[both]


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
    """Sample Pearson r with pairwise deletion of None or NaN values; None
    if either variance is 0."""
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


def decile_rhos(x: np.ndarray, y: np.ndarray, k: int = 10) -> list[Optional[float]]:
    """Per-bin Spearman between two columns along the ranking of ``x``.

    Journals defined in both are ranked by ``x`` (ranking) and cut into k
    contiguous bins (bin_sizes).  A bin where either variable is constant
    (including single-journal bins) yields None.
    """
    if k < 2:
        raise StatsError(f"need at least 2 bins, got k={k}")
    shared = ranking(np.where(np.isnan(y), np.nan, x))
    if len(shared) < k:
        raise StatsError(
            f"shared defined support {len(shared)} is smaller than k={k}")
    out: list[Optional[float]] = []
    for rows in np.split(shared, np.cumsum(bin_sizes(len(shared), k))[:-1]):
        if len(rows) < 2:
            out.append(None)
            continue
        out.append(_pearson_arrays(average_ranks(x[rows]), average_ranks(y[rows])))
    return out


def cluster_sort(column: np.ndarray, codes: np.ndarray,
                 clusters: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The defined values of a column sorted by cluster, then by value,
    and each cluster's bounds: cluster g's values are
    ``values[bounds[g]:bounds[g + 1]]``.  ``codes`` gives each journal's
    index into ``clusters``; a cluster without defined values is an error.
    The sort is stable, so equal values keep id order."""
    defined = ~np.isnan(column)
    column, codes = column[defined], codes[defined]
    sizes = np.bincount(codes, minlength=len(clusters))
    if not sizes.all():
        raise StatsError(f"cluster '{clusters[int(np.argmin(sizes))]}' has no defined values")
    return column[np.lexsort((column, codes))], np.concatenate(([0], np.cumsum(sizes)))


def ecdf_steps(values: np.ndarray, bounds: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Right-continuous ECDF step points per cluster of cluster_sort's
    output: the cluster's distinct values ascending, and the fraction of
    its values at or below each, in (0, 1].  Equal values (-0.0 and 0.0)
    make one step, showing the value of the journal first in id order."""
    steps = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        xs = values[lo:hi]
        starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
        steps.append((xs[starts], np.append(starts[1:], len(xs)) / len(xs)))
    return steps


def ks_matrix(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The two-sample KS statistic sup |ECDF_g - ECDF_h| of every pair of
    clusters of cluster_sort's output.  ECDF_g - ECDF_h changes only at
    values of g or h, so the supremum is the larger of its maxima over g's
    values and over h's values; every ECDF is taken at every value once."""
    spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    cdf = np.array([np.searchsorted(values[lo:hi], values, side="right") / (hi - lo)
                    for lo, hi in spans])
    own = np.array([np.abs(cdf[:, lo:hi] - cdf[g, lo:hi]).max(axis=1)
                    for g, (lo, hi) in enumerate(spans)])
    return np.maximum(own, own.T)


def cluster_codes(ids: Sequence[str], partition: Mapping[str, str]) -> tuple[list[str], np.ndarray]:
    """The partition's clusters in order of their first journal, and the
    index of each journal's cluster among them.  A journal outside the
    partition is an error."""
    clusters = list(dict.fromkeys(partition.values()))
    index = dict(zip(clusters, range(len(clusters))))
    try:
        return clusters, np.array([index[partition[jid]] for jid in ids], dtype=np.intp)
    except KeyError as missing:
        raise StatsError(f"journal '{missing.args[0]}' missing from the partition") from None
