import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citefair import stats
from citefair.errors import StatsError
from citefair.stats import (
    HypergeomParams,
    average_ranks,
    bin_sizes,
    cluster_codes,
    cluster_sort,
    decile_rhos,
    ecdf_steps,
    hypergeom_cdf,
    hypergeom_ci,
    hypergeom_pmf,
    ks_matrix,
    pearson,
    spearman,
    top_rows,
)

from conftest import columns_of, decompose
from oracles import (
    decile_bins_by_sort,
    ecdf_by_dicts,
    exact_cdf,
    exact_equal_tail_ci,
    exact_equal_tail_cis,
    exact_interval_coverage,
    ks_by_counts,
    ks_by_enumeration,
    pearson_by_sums,
    pmf_by_enumeration,
    spearman_by_ranks,
    top_set_by_sort,
    variance_parts_by_definition,
)


def top_ids(values, z):
    """The ids of top_rows of a journal -> value dict's column, and n_z."""
    ids, (column,) = columns_of(values)
    top = top_rows(column, z)
    return frozenset(ids[i] for i in top.tolist()), len(top)


def decile_rhos_of(baseline, other, k):
    """decile_rhos of two journal -> value dicts laid out as columns."""
    _, (x, y) = columns_of(baseline, other)
    return decile_rhos(x, y, k)


def ecdf_of(values, partition):
    """ecdf_steps of a journal -> value dict's column per cluster of the
    partition, as (value, fraction) pairs."""
    ids, (column,) = columns_of(values)
    clusters, codes = cluster_codes(ids, partition)
    steps = ecdf_steps(*cluster_sort(column, codes, clusters))
    return {g: list(zip(xs.tolist(), fractions.tolist()))
            for g, (xs, fractions) in zip(clusters, steps)}


def ks_of(a, b):
    """The ks_matrix entry of two samples laid out as two clusters."""
    column = np.array([*a, *b], dtype=np.float64)
    codes = np.repeat([0, 1], [len(a), len(b)])
    return float(ks_matrix(*cluster_sort(column, codes, ("a", "b")))[0, 1])


class TestHypergeomPmf:
    def test_matches_subset_enumeration(self):
        # m=1, N=5, K=2, n=2: 6 of the C(5,2)=10 subsets hold one success
        oracle = pmf_by_enumeration(1, 5, 2, 2)
        assert oracle == 0.6
        assert hypergeom_pmf(1, HypergeomParams(5, 2, 2)) == pytest.approx(0.6, abs=1e-12)

    def test_no_successes(self):
        params = HypergeomParams(7, 0, 3)
        assert hypergeom_pmf(0, params) == pytest.approx(1.0, abs=1e-12)
        assert hypergeom_pmf(1, params) == 0.0

    def test_sums_to_one(self):
        for n_pop, k, n in [(10, 4, 3), (50, 20, 10), (500, 137, 61)]:
            params = HypergeomParams(n_pop, k, n)
            total = math.fsum(hypergeom_pmf(m, params) for m in params.support)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_outside_support_is_zero(self):
        params = HypergeomParams(10, 6, 8)
        assert params.support == range(4, 7)
        assert hypergeom_pmf(3, params) == 0.0
        assert hypergeom_pmf(7, params) == 0.0

    def test_symmetry_in_k_and_n(self):
        for m in range(0, 5):
            a = hypergeom_pmf(m, HypergeomParams(20, 7, 4))
            b = hypergeom_pmf(m, HypergeomParams(20, 4, 7))
            assert a == pytest.approx(b, rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(StatsError):
            HypergeomParams(5, 6, 2)
        with pytest.raises(StatsError):
            HypergeomParams(5, 2, -1)


class TestHypergeomCi:
    def test_degenerate_single_group(self):
        # K = N: every draw is a success, the count is deterministic
        assert hypergeom_ci(HypergeomParams(12, 12, 5), 0.90) == (5, 5)

    def test_matches_exact_enumeration(self):
        cases = [(20, 10, 10), (30, 7, 12), (50, 25, 10), (9, 4, 6)]
        for n_pop, k, n in cases:
            expected = exact_equal_tail_ci(n_pop, k, n, "0.90")
            assert hypergeom_ci(HypergeomParams(n_pop, k, n), 0.90) == expected

    def test_n20_case_from_enumeration(self):
        # frozen from the exact-rational oracle
        assert exact_equal_tail_ci(20, 10, 10, "0.90") == (3, 7)
        assert hypergeom_ci(HypergeomParams(20, 10, 10), 0.90) == (3, 7)

    def test_coverage_at_least_level(self):
        for n_pop, k, n in [(20, 10, 10), (100, 13, 30), (3695, 31, 369)]:
            m_lo, m_hi = hypergeom_ci(HypergeomParams(n_pop, k, n), 0.90)
            assert exact_interval_coverage(n_pop, k, n, m_lo, m_hi) >= 0.90

    def test_monte_carlo_coverage(self):
        # independent sampler: numpy's own hypergeometric generator
        rng = np.random.default_rng(42)
        for n_pop, k, n in [(20, 10, 10), (200, 40, 50)]:
            m_lo, m_hi = hypergeom_ci(HypergeomParams(n_pop, k, n), 0.90)
            draws = rng.hypergeometric(k, n_pop - k, n, size=20000)
            freq = np.mean((draws >= m_lo) & (draws <= m_hi))
            assert freq >= 0.90 - 0.01

    def test_bad_level(self):
        with pytest.raises(StatsError):
            hypergeom_ci(HypergeomParams(10, 5, 5), 1.0)

    def test_cdf_helper(self):
        params = HypergeomParams(20, 10, 10)
        assert hypergeom_cdf(params.support.start - 1, params) == 0.0
        assert hypergeom_cdf(params.support.stop - 1, params) == 1.0

    def test_cdf_inside_the_support_matches_exact(self):
        for n_pop, k, n in [(20, 10, 10), (30, 7, 12), (97, 60, 41), (400, 37, 250)]:
            params = HypergeomParams(n_pop, k, n)
            for m, exact in exact_cdf(n_pop, k, n).items():
                assert hypergeom_cdf(m, params) == pytest.approx(float(exact), rel=1e-14, abs=1e-300)

    def test_exact_for_every_small_urn(self):
        levels = ("0.8", "0.9", "0.95")
        for n_pop in range(1, 41):
            for k in range(n_pop + 1):
                for n in range(n_pop + 1):
                    params = HypergeomParams(n_pop, k, n)
                    assert ([hypergeom_ci(params, float(level)) for level in levels]
                            == exact_equal_tail_cis(n_pop, k, n, levels)), params

    @pytest.mark.parametrize("n_pop, k, n, band", [
        # CDF(0) = C(14,12)/C(16,12) = 91/1820 = 1/20: the lower allowance at level 0.9
        (16, 2, 12, (1, 2)),
        # one failure among N: P(X = n-1) = n/N = 1/20 whenever n = N/20
        (73_900, 73_899, 3_695, (3_695, 3_695)),
        (1_000_000, 999_999, 50_000, (50_000, 50_000)),
        # one success: CDF(0) = 1 - n/N = 19/20, the upper allowance
        (1_000_000, 1, 50_000, (0, 0)),
    ])
    def test_ties_with_an_allowance_are_exact(self, n_pop, k, n, band):
        assert hypergeom_ci(HypergeomParams(n_pop, k, n), 0.9) == band

    @pytest.mark.parametrize("n_pop, k, n", [(400, 37, 250), (1_500, 700, 300), (2_000, 60, 900)])
    def test_near_ties_are_decided_exactly(self, n_pop, k, n):
        # bounds at and 1e-40 either side of exact CDF values, far out in the
        # tails and near the mode, so that the integer check must bound the
        # tails beyond its window
        params = HypergeomParams(n_pop, k, n)
        cdf = exact_cdf(n_pop, k, n)
        ms = sorted(cdf)
        tiny = Fraction(1, 10 ** 40)
        for m in ms[1:-1:max(1, len(ms) // 7)]:
            for bound in (cdf[m] - tiny, cdf[m], cdf[m] + tiny):
                assert stats._exceeds(params, m, bound) == (cdf[m] > bound)

    def test_integer_check_decides_a_crossing(self, monkeypatch):
        # the smallest urn whose band is settled by _exceeds inside _crossing's loop
        real, settled = stats._exceeds, []

        def exceeds(*args):
            settled.append(real(*args))
            return settled[-1]

        monkeypatch.setattr(stats, "_exceeds", exceeds)
        level = 0.9285714285714286
        assert (hypergeom_ci(HypergeomParams(8, 2, 6), level)
                == exact_equal_tail_ci(8, 2, 6, str(level)) == (0, 2))
        assert True in settled

    def test_level_is_read_as_its_decimal(self):
        # 1 - 0.9 is 0.09999999999999998 in binary; read as 9/10, CDF(0) = 1/20 ties
        params = HypergeomParams(16, 2, 12)
        assert hypergeom_ci(params, 0.9) == exact_equal_tail_ci(16, 2, 12, "0.9") == (1, 2)


class TestHypergeomAgainstScipy:
    """The pmf against scipy's, at census sizes; scipy is a test-time oracle only."""

    @pytest.mark.parametrize("n_pop, tolerance", [(3_695, 1e-13), (200_000, 1e-9),
                                                  (1_000_000, 1e-9)])
    def test_pmf_relative_error(self, n_pop, tolerance):
        hypergeom = pytest.importorskip("scipy.stats").hypergeom
        k = n = n_pop // 10
        params = HypergeomParams(n_pop, k, n)
        ms = np.arange(params.support.start, params.support.stop)
        expected = hypergeom.pmf(ms, n_pop, k, n)
        ms, expected = ms[expected > 1e-300], expected[expected > 1e-300]
        got = np.array([hypergeom_pmf(m, params) for m in ms.tolist()])
        assert np.max(np.abs(got - expected) / expected) <= tolerance

    def test_src_does_not_import_scipy(self):
        src = Path(__file__).resolve().parents[1] / "src" / "citefair"
        imports = re.compile(r"^\s*(from|import)\s+scipy\b", re.MULTILINE)
        for path in src.glob("*.py"):
            assert not imports.search(path.read_text(encoding="utf-8")), path.name


class TestTopFraction:
    def test_floor_rule_large(self):
        values = {f"j{i:04d}": float(i) for i in range(3695)}
        _, n_z = top_ids(values, 10)
        assert n_z == 369  # floor(369.5)

    def test_small_set(self):
        values = {f"j{i}": float(i) for i in range(10)}
        selected, n_z = top_ids(values, 10)
        assert n_z == 1
        assert selected == {"j9"}

    def test_threshold_tie_broken_by_id(self):
        # four journals, n_z = 2, tie at the threshold value
        values = {"a": 5.0, "c": 3.0, "b": 3.0, "d": 1.0}
        selected, n_z = top_ids(values, 50)
        assert n_z == 2
        # exhaustive rule: sort by (value desc, id asc) -> a, b, c, d
        assert selected == {"a", "b"}

    def test_undefined_excluded_from_n(self):
        values = {"a": 3.0, "b": 2.0, "c": 1.0, "d": None, "e": None}
        selected, n_z = top_ids(values, 34)
        assert n_z == 1  # floor(0.34 * 3)
        assert selected == {"a"}

    def test_zero_selection_is_error(self):
        with pytest.raises(StatsError):
            top_ids({"a": 1.0, "b": 2.0}, 10)

    def test_bad_z(self):
        with pytest.raises(StatsError):
            top_ids({"a": 1.0}, 0)
        with pytest.raises(StatsError):
            top_ids({"a": 1.0}, 101)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        values = {f"j{i}": float(v) for i, v in enumerate(rng.random(40))}
        scaled = {k: 3.7 * v for k, v in values.items()}
        assert top_ids(values, 25)[0] == top_ids(scaled, 25)[0]


class TestVarianceDecomposition:
    def test_two_flat_groups(self):
        values = {"a": 1.0, "b": 1.0, "c": 3.0, "d": 3.0}
        partition = {"a": "g1", "b": "g1", "c": "g2", "d": "g2"}
        vd = decompose(values, partition)
        assert vd.grand_mean == 2.0
        assert vd.ss_between == 4.0
        assert vd.ss_within == 0.0
        assert vd.eta_squared == 1.0

    def test_all_equal(self):
        values = {"a": 2.0, "b": 2.0, "c": 2.0}
        partition = {"a": "g1", "b": "g1", "c": "g2"}
        vd = decompose(values, partition)
        assert vd.ss_total == vd.ss_between == vd.ss_within == 0.0
        assert vd.eta_squared is None

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(11)
        groups = {f"g{i}": list(rng.random(rng.integers(2, 8))) for i in range(4)}
        values = {}
        partition = {}
        for g, vs in groups.items():
            for i, v in enumerate(vs):
                values[f"{g}-{i}"] = float(v)
                partition[f"{g}-{i}"] = g
        vd = decompose(values, partition)
        ss_tot, ss_b, ss_w = variance_parts_by_definition(groups)
        assert vd.ss_total == pytest.approx(ss_tot, rel=1e-12)
        assert vd.ss_between == pytest.approx(ss_b, rel=1e-10)
        assert vd.ss_within == pytest.approx(ss_w, rel=1e-9, abs=1e-12)

    def test_identity_holds(self):
        rng = np.random.default_rng(3)
        values = {f"j{i}": float(v) for i, v in enumerate(rng.random(50) * 10)}
        partition = {f"j{i}": f"g{i % 5}" for i in range(50)}
        vd = decompose(values, partition)
        assert vd.ss_total == pytest.approx(vd.ss_between + vd.ss_within, rel=1e-9)

    def test_undefined_excluded(self):
        values = {"a": 1.0, "b": None, "c": 3.0}
        partition = {"a": "g1", "b": "g1", "c": "g2"}
        vd = decompose(values, partition)
        assert vd.group_means == {"g1": 1.0, "g2": 3.0}

    def test_too_few_values(self):
        with pytest.raises(StatsError):
            decompose({"a": 1.0, "b": None}, {"a": "g", "b": "g"})

    def test_all_undefined_cluster_absent_from_group_means(self):
        values = {"a": 1.0, "b": None, "c": 3.0, "d": 5.0}
        partition = {"b": "g0", "a": "g1", "c": "g2", "d": "g2"}
        vd = decompose(values, partition)
        assert list(vd.group_means) == ["g1", "g2"]
        assert vd.group_means == {"g1": 1.0, "g2": 4.0}

    def test_journal_missing_from_partition(self):
        with pytest.raises(StatsError, match="journal 'b' missing from the partition"):
            decompose({"a": 1.0, "b": 2.0, "c": 3.0}, {"a": "g", "c": "g"})


class TestClusterCodes:
    def test_clusters_in_order_of_first_journal(self):
        partition = {"c": "g2", "a": "g1", "b": "g2"}
        clusters, codes = cluster_codes(["a", "b", "c"], partition)
        assert clusters == ["g2", "g1"]
        assert codes.tolist() == [1, 0, 0]

    def test_journal_missing_from_partition(self):
        with pytest.raises(StatsError, match="^journal 'x' missing from the partition$"):
            cluster_codes(["x"], {"y": "g"})
        with pytest.raises(StatsError, match="^journal 'b' missing from the partition$"):
            cluster_codes(["a", "b", "c"], {"a": "g"})


class TestPearson:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2 * v + 3 for v in x]
        assert pearson(x, y) == 1.0

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [-v for v in x]) == -1.0

    def test_five_point_fixture_matches_oracle(self):
        x = [0.31, 2.7, 1.44, 5.0, 3.9]
        y = [1.2, 0.7, 3.1, 2.2, 0.05]
        assert pearson(x, y) == pytest.approx(pearson_by_sums(x, y), abs=1e-12)

    def test_pairwise_deletion(self):
        x = [1.0, None, 2.0, 3.0]
        y = [1.0, 5.0, 2.0, None]
        assert pearson(x, y) == pytest.approx(pearson_by_sums([1, 2], [1, 2]) or 1.0)

    def test_zero_variance_undefined(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None

    def test_too_few_pairs(self):
        with pytest.raises(StatsError):
            pearson([1.0, None], [2.0, 3.0])
        with pytest.raises(StatsError):
            pearson([1.0, 2.0], [2.0])


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        x = [0.3, 1.7, 2.2, 5.9, 3.1]
        fx = [math.exp(v) for v in x]
        assert spearman(fx, x) == 1.0

    def test_average_rank_rule(self):
        assert average_ranks(np.array([1.0, 2.0, 2.0, 3.0])).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_tied_fixture_matches_oracle(self):
        x = [1.0, 2.0, 2.0, 3.0, 1.0, 4.0]
        y = [0.5, 0.5, 2.0, 1.5, 3.0, 3.0]
        assert spearman(x, y) == pytest.approx(spearman_by_ranks(x, y), abs=1e-12)

    def test_monotone_invariance_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.choice(np.arange(10), size=12).astype(float).tolist()
            y = rng.random(12).tolist()
            fx = [math.exp(0.5 * v) + 1 for v in x]  # strictly increasing in v
            rho1 = spearman(x, y)
            rho2 = spearman(fx, y)
            if rho1 is None:
                assert rho2 is None
            else:
                assert rho2 == pytest.approx(rho1, abs=1e-12)


class TestDecileCorrelations:
    def test_identity(self):
        values = {f"j{i}": float(i) for i in range(40)}
        rhos = decile_rhos_of(values, values, 10)
        assert rhos == [1.0] * 10

    def test_constant_other(self):
        values = {f"j{i}": float(i) for i in range(40)}
        flat = {k: 2.0 for k in values}
        assert decile_rhos_of(values, flat, 10) == [None] * 10

    def test_bin_sizes_remainder_to_top(self):
        assert bin_sizes(25, 10) == [3, 3, 3, 3, 3, 2, 2, 2, 2, 2]
        assert bin_sizes(40, 10) == [4] * 10
        assert bin_sizes(11, 2) == [6, 5]

    def test_25_journal_layout(self):
        rng = np.random.default_rng(1)
        baseline = {f"j{i:02d}": float(v) for i, v in enumerate(rng.random(25))}
        other = {k: float(v) for k, v in zip(baseline, rng.random(25))}
        rhos = decile_rhos_of(baseline, other, 10)
        assert len(rhos) == 10

    def test_support_too_small(self):
        with pytest.raises(StatsError):
            decile_rhos_of({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0}, 3)


class TestEcdf:
    def test_simple_steps(self):
        values = {"a": 1.0, "b": 2.0, "c": 3.0}
        partition = {"a": "g", "b": "g", "c": "g"}
        assert ecdf_of(values, partition) == {
            "g": [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]
        }

    def test_duplicates_collapse(self):
        values = {"a": 2.0, "b": 2.0}
        assert ecdf_of(values, {"a": "g", "b": "g"}) == {"g": [(2.0, 1.0)]}

    def test_last_fraction_exactly_one(self):
        rng = np.random.default_rng(9)
        values = {f"j{i}": float(v) for i, v in enumerate(rng.integers(0, 10, 31))}
        points = ecdf_of(values, {k: "g" for k in values})["g"]
        assert points[-1][1] == 1.0
        assert len(points) <= 31

    def test_empty_cluster_is_error(self):
        with pytest.raises(StatsError):
            ecdf_of({"a": 1.0, "b": None}, {"a": "g1", "b": "g2"})

    def test_groups_follow_partition_order(self):
        # 40 clusters listed out of sorted order: the keys keep the listed
        # order, and with every other journal undefined, the first empty
        # cluster in that order is the one named
        clusters = [f"g{(7 * k) % 40}" for k in range(40)]
        partition = {f"j{k}": g for k, g in enumerate(clusters)}
        values = {jid: float(k) for k, jid in enumerate(partition)}
        assert list(ecdf_of(values, partition)) == clusters
        values = {jid: (None if k % 2 else 1.0) for k, jid in enumerate(partition)}
        with pytest.raises(StatsError, match=f"cluster '{clusters[1]}' "):
            ecdf_of(values, partition)


class TestKs:
    def test_identical(self):
        assert ks_of([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint(self):
        assert ks_of([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_half_overlap(self):
        # derived by enumerating the step differences
        assert ks_by_enumeration([1, 2], [1, 3]) == 0.5
        assert ks_of([1.0, 2.0], [1.0, 3.0]) == 0.5

    def test_matches_enumeration_random(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.choice(np.arange(8), size=7).astype(float).tolist()
            b = rng.choice(np.arange(8), size=5).astype(float).tolist()
            assert ks_of(a, b) == pytest.approx(ks_by_enumeration(a, b), abs=1e-12)

    def test_empty_is_error(self):
        with pytest.raises(StatsError):
            ks_of([], [1.0])


# Ids with non-ASCII letters and trailing NULs; values with ties, -0.0
# beside 0.0 and UNDEFINED (None).
IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3)
DEFINED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324, 1e308]),
                    st.floats(0.0, 4.0, allow_nan=False))
TIED = st.one_of(st.none(), DEFINED)
CLUSTERS = st.sampled_from(("g1", "g2", "10", "é"))


@st.composite
def valued_partitions(draw, values=TIED):
    """(values, partition): a journal -> value dict in an order unlike
    sorted order, and a partition of its journals over up to four clusters."""
    ids = draw(st.permutations(draw(st.lists(IDS, min_size=1, max_size=40, unique=True))))
    return {jid: draw(values) for jid in ids}, {jid: draw(CLUSTERS) for jid in ids}


def hexed(rhos):
    return [None if r is None else r.hex() for r in rhos]


class TestAgainstDictOracles:
    """The statistics against one-journal-at-a-time dict oracles, bit for bit."""

    @given(valued_partitions(), st.sampled_from([1, 10, 33.3, 50, 100]))
    @settings(max_examples=300, deadline=None)
    def test_top_fraction(self, case, z):
        values, _ = case
        expected = top_set_by_sort(values, z)
        if expected[1] == 0:
            with pytest.raises(StatsError):
                top_ids(values, z)
        else:
            assert top_ids(values, z) == expected

    @given(valued_partitions(), st.data(), st.integers(2, 5))
    @settings(max_examples=300, deadline=None)
    def test_decile_correlations(self, case, data, k):
        baseline, _ = case
        ids = data.draw(st.lists(st.one_of(st.sampled_from(sorted(baseline)), IDS), max_size=45))
        other = {jid: data.draw(TIED) for jid in ids}
        bins = decile_bins_by_sort(baseline, other, k)
        if sum(map(len, bins)) < k:
            with pytest.raises(StatsError, match="smaller than k"):
                decile_rhos_of(baseline, other, k)
            return
        # each bin's rho is the package's Spearman of the oracle's bin
        expected = [None if len(pairs) < 2 else spearman(*zip(*pairs)) for pairs in bins]
        assert hexed(decile_rhos_of(baseline, other, k)) == hexed(expected)

    @given(valued_partitions())
    @settings(max_examples=300, deadline=None)
    def test_ecdf_by_group(self, case):
        values, partition = case
        expected = ecdf_by_dicts(values, partition)
        empty = [g for g, steps in expected.items() if not steps]
        if empty:
            with pytest.raises(StatsError, match=f"cluster '{empty[0]}' "):
                ecdf_of(values, partition)
            return
        got = ecdf_of(values, partition)
        assert list(got) == list(expected)
        assert {g: [(v.hex(), f.hex()) for v, f in steps] for g, steps in got.items()} == \
            {g: [(v.hex(), f.hex()) for v, f in steps] for g, steps in expected.items()}

    @given(st.lists(DEFINED, min_size=1, max_size=30), st.lists(DEFINED, min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_ks_two_sample(self, a, b):
        assert ks_of(a, b).hex() == ks_by_counts(a, b).hex()

    @given(valued_partitions())
    @settings(max_examples=300, deadline=None)
    def test_ks_matrix(self, case):
        values, partition = case
        samples = {g: [] for g in dict.fromkeys(partition.values())}
        for jid, v in values.items():
            if v is not None:
                samples[partition[jid]].append(v)
        if not all(samples.values()):
            return
        ids = sorted(values)
        clusters, codes = cluster_codes(ids, partition)
        column = np.array([values[jid] for jid in ids], dtype=np.float64)
        ks = ks_matrix(*cluster_sort(column, codes, clusters)).tolist()
        assert clusters == list(samples)
        assert [[v.hex() for v in row] for row in ks] == \
            [[ks_by_counts(samples[g], samples[h]).hex() for h in clusters] for g in clusters]

    @given(valued_partitions(st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324]),
                                       st.floats(0.0, 4.0, allow_nan=False))))
    @settings(max_examples=300, deadline=None)
    def test_variance_decomposition(self, case):
        # 1e308 is left out: its square overflows the oracle's float **
        values, partition = case
        groups = {g: [] for g in dict.fromkeys(partition.values())}
        for jid, v in values.items():
            if v is not None:
                groups[partition[jid]].append(v)
        groups = {g: vs for g, vs in groups.items() if vs}
        if sum(map(len, groups.values())) < 2:
            with pytest.raises(StatsError, match="at least 2 defined values"):
                decompose(values, partition)
            return
        vd = decompose(values, partition)
        ss_tot, ss_b, ss_w = variance_parts_by_definition(groups)
        # numpy sums in another order than fsum: a few ulps of the largest
        # sum, at most 40 * 4.0**2
        tol = {"rel": 1e-9, "abs": 1e-12}
        assert vd.ss_total == pytest.approx(ss_tot, **tol)
        assert vd.ss_between == pytest.approx(ss_b, **tol)
        assert vd.ss_within == pytest.approx(ss_w, **tol)
        assert vd.grand_mean == pytest.approx(
            math.fsum(v for vs in groups.values() for v in vs) / sum(map(len, groups.values())),
            **tol)
        assert list(vd.group_means) == list(groups)
        assert vd.group_means == pytest.approx(
            {g: math.fsum(vs) / len(vs) for g, vs in groups.items()}, **tol)
        assert vd.eta_squared == (vd.ss_between / vd.ss_total if vd.ss_total > 0 else None)

    def test_negative_zero_ties_with_zero(self):
        values = {"b": 0.0, "a": -0.0, "c": 0.0, "d": 1.0, "e": None}
        assert top_ids(values, 50) == (frozenset({"d", "a"}), 2)
        partition = dict.fromkeys(values, "g")
        assert [(v.hex(), f) for v, f in ecdf_of(values, partition)["g"]] == \
            [((-0.0).hex(), 0.75), ((1.0).hex(), 1.0)]
        assert ks_of([-0.0, 1.0], [0.0, 1.0]) == 0.0
