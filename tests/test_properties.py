"""Invariant checks driven by generated inputs (hypothesis where the
search space is worth exploring, seeded loops elsewhere)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from citefair.fairness import fairness_test
from citefair.indicators import IndicatorSpec, compute_table, rescale
from citefair.stats import (
    HypergeomParams,
    cluster_codes,
    hypergeom_ci,
    hypergeom_pmf,
    spearman,
    top_rows,
    variance_decomposition,
)
from citefair.synth import ClusterProfile, SynthProfile, generate

from conftest import columns_of, decompose, table_of, values_of
from oracles import exact_interval_coverage


params_strategy = st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n)))


@given(params_strategy)
@settings(max_examples=80, deadline=None)
def test_pmf_sums_to_one(triple):
    n_pop, k, n = triple
    params = HypergeomParams(n_pop, k, n)
    total = math.fsum(hypergeom_pmf(m, params) for m in params.support)
    assert total == pytest.approx(1.0, abs=1e-12)


@given(params_strategy)
@settings(max_examples=80, deadline=None)
def test_pmf_symmetric_in_k_and_n(triple):
    n_pop, k, n = triple
    a = HypergeomParams(n_pop, k, n)
    b = HypergeomParams(n_pop, n, k)
    for m in range(0, min(k, n) + 1):
        assert hypergeom_pmf(m, a) == pytest.approx(hypergeom_pmf(m, b), rel=1e-11, abs=1e-15)


@given(params_strategy, st.sampled_from([0.8, 0.9, 0.95, 0.99]))
@settings(max_examples=60, deadline=None)
def test_ci_coverage_at_least_level(triple, level):
    n_pop, k, n = triple
    m_lo, m_hi = hypergeom_ci(HypergeomParams(n_pop, k, n), level)
    assert exact_interval_coverage(n_pop, k, n, m_lo, m_hi) >= level - 1e-12


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=4, max_size=30),
       st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_variance_identity(raw_values, salt):
    rng = np.random.default_rng(salt)
    values = {f"j{i}": float(v) for i, v in enumerate(raw_values)}
    partition = {j: f"g{rng.integers(0, 3)}" for j in values}
    vd = decompose(values, partition)
    assert vd.ss_total == pytest.approx(vd.ss_between + vd.ss_within, rel=1e-9, abs=1e-9)
    assert vd.ss_between >= -1e-12
    assert vd.ss_within >= 0.0


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                min_size=3, max_size=25))
@settings(max_examples=60, deadline=None)
def test_spearman_invariant_under_increasing_transform(pairs):
    x = [float(a) for a, _ in pairs]
    y = [float(b) for _, b in pairs]
    fx = [math.expm1(0.3 * v) * 2 + 5 for v in x]  # strictly increasing
    r1 = spearman(x, y)
    r2 = spearman(fx, y)
    if r1 is None:
        assert r2 is None
    else:
        assert r2 == pytest.approx(r1, abs=1e-12)


@given(st.dictionaries(st.text(st.characters(categories=("Lu",)), min_size=1, max_size=4),
                       st.floats(0.001, 1000, allow_nan=False),
                       min_size=5, max_size=60),
       st.floats(5, 100, allow_nan=False),
       st.integers(-3, 5))
@settings(max_examples=60, deadline=None)
def test_top_fraction_scale_invariant(values, z, k):
    # a power of two scales every value exactly; another factor can round
    # two neighbouring values to one and swap them at the cut
    assume(math.floor(z * len(values) / 100.0) >= 1)
    _, (column, scaled) = columns_of(values, {j: 2.0 ** k * v for j, v in values.items()})
    assert top_rows(column, z).tolist() == top_rows(scaled, z).tolist()


@given(st.integers(2, 6), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_selected_counts_partition_to_n_z(n_groups, seed):
    rng = np.random.default_rng(seed)
    values = {}
    partition = {}
    for g in range(n_groups):
        for i in range(int(rng.integers(3, 12))):
            jid = f"g{g}-{i}"
            values[jid] = float(rng.random())
            partition[jid] = f"g{g}"
    report = fairness_test(table_of(values), partition, z=30)
    assert sum(r.m_g for r in report.per_cluster) == report.n_z


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_rescale_cluster_and_grand_means(seed):
    rng = np.random.default_rng(seed)
    values = {}
    partition = {}
    for g in range(3):
        for i in range(int(rng.integers(2, 10))):
            jid = f"g{g}-{i}"
            values[jid] = float(rng.random() * 10 ** rng.integers(0, 3) + 0.01)
            partition[jid] = f"g{g}"
    out = rescale(table_of(values), partition)
    by_cluster: dict[str, list] = {}
    for jid, v in values_of(out).items():
        by_cluster.setdefault(partition[jid], []).append(v)
    for vals in by_cluster.values():
        assert sum(vals) / len(vals) == pytest.approx(1.0, abs=1e-9)
    everything = out.column.tolist()
    assert sum(everything) / len(everything) == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_rescale_kills_between_group_variance(seed):
    rng = np.random.default_rng(seed)
    values = {}
    partition = {}
    for g in range(4):
        scale = 10.0 ** g
        for i in range(int(rng.integers(3, 9))):
            jid = f"g{g}-{i}"
            values[jid] = float(rng.random() * scale + 0.001)
            partition[jid] = f"g{g}"
    out = rescale(table_of(values), partition)
    clusters, codes = cluster_codes(out.journal_ids, partition)
    vd = variance_decomposition(out.column, codes, clusters)
    if vd.ss_total > 0:
        assert vd.ss_between / vd.ss_total < 1e-12


def test_fractional_never_exceeds_integer_numerator():
    for seed in (0, 1, 2):
        profile = SynthProfile(
            clusters=(ClusterProfile("1", "A", 15, 1.0, 5.0, 0.5),
                      ClusterProfile("2", "B", 20, 3.0, 12.0, 0.5)),
            items_per_journal=(2, 5), years=(2006, 2010), seed=seed)
        ds = generate(profile)
        for window in (2, 5):
            ti = compute_table(ds, IndicatorSpec("numerator_only", window, "integer"))
            tf = compute_table(ds, IndicatorSpec("numerator_only", window, "fractional"))
            assert ti.journal_ids == tf.journal_ids
            assert (tf.column <= ti.column + 1e-12).all()


def test_within_cluster_rank_preservation_exact():
    rng = np.random.default_rng(17)
    for _ in range(5):
        values = {f"j{i:03d}": float(v) for i, v in enumerate(rng.random(60) * 100)}
        partition = {j: f"g{i % 4}" for i, j in enumerate(values)}
        out = values_of(rescale(table_of(values), partition))
        for g in set(partition.values()):
            ids = [j for j in values if partition[j] == g]
            raw = [values[j] for j in ids]
            scaled = [out[j] for j in ids]
            assert spearman(raw, scaled) == 1.0
