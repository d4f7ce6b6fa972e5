import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citefair.errors import FairnessError
from citefair.fairness import (
    calibration,
    compare_reports,
    fairness_test,
    percentage_summary,
    write_comparison_tsv,
    write_report_json,
    write_report_tsv,
)
from conftest import table_of
from oracles import top_set_by_sort

# Published 11-group top-10% percentage columns with known summary rows,
# used as frozen regression fixtures for the aggregation arithmetic.
COL_IF2_RESCALED = [9.46, 11.35, 10.78, 9.68, 6.27, 6.53, 12.50, 17.92, 11.93, 19.05, 9.68]
COL_IF5_RESCALED = [9.25, 11.15, 11.11, 9.77, 5.54, 7.88, 12.50, 15.03, 12.76, 16.67, 9.68]
COL_IF2_FRACTIONAL = [5.57, 17.70, 11.75, 12.33, 7.01, 3.15, 9.38, 4.05, 10.61, 9.52, 0.00]
COL_IF5_FRACTIONAL = [5.78, 16.73, 12.70, 11.55, 7.01, 4.27, 9.38, 5.20, 11.43, 11.90, 0.00]
COL_ISI_IF2_RESCALED = [9.46, 12.33, 11.44, 9.33, 8.49, 9.23, 12.50, 10.98, 8.64, 11.90, 16.13]

TOL = 0.01 + 1e-9  # stated tolerance, with a float guard at the boundary


class TestPercentageSummary:
    def test_known_column_summaries(self):
        mean, sd, sum_abs = percentage_summary(COL_ISI_IF2_RESCALED, 10)
        assert mean == pytest.approx(10.95, abs=TOL)
        assert sd == pytest.approx(2.27, abs=TOL)
        assert sum_abs == pytest.approx(20.12, abs=TOL)

    def test_four_column_sums(self):
        for col, expected in [
            (COL_IF2_RESCALED, 31.91),
            (COL_IF5_RESCALED, 27.11),
            (COL_IF2_FRACTIONAL, 43.72),
            (COL_IF5_FRACTIONAL, 42.68),
        ]:
            _, _, sum_abs = percentage_summary(col, 10)
            assert sum_abs == pytest.approx(expected, abs=TOL)

    def test_means_and_sds(self):
        cases = [
            (COL_IF2_RESCALED, 11.38, 4.03),
            (COL_IF5_RESCALED, 11.03, 3.16),
            (COL_IF2_FRACTIONAL, 8.28, 4.97),
            (COL_IF5_FRACTIONAL, 8.72, 4.75),
        ]
        for col, mean_exp, sd_exp in cases:
            mean, sd, _ = percentage_summary(col, 10)
            assert mean == pytest.approx(mean_exp, abs=TOL)
            assert sd == pytest.approx(sd_exp, abs=TOL)

    def test_single_value_sd_none(self):
        mean, sd, sum_abs = percentage_summary([10.0], 10)
        assert mean == 10.0 and sd is None and sum_abs == 0.0


def two_cluster_table(rng, n_a=40, n_b=60, shift=0.0):
    values = {}
    partition = {}
    for i in range(n_a):
        values[f"a{i:03d}"] = float(rng.random() + shift)
        partition[f"a{i:03d}"] = "g1"
    for i in range(n_b):
        values[f"b{i:03d}"] = float(rng.random())
        partition[f"b{i:03d}"] = "g2"
    return values, partition


class TestFairnessTest:
    def test_single_cluster_trivially_within(self):
        values = {f"j{i:02d}": float(i) for i in range(30)}
        partition = {j: "only" for j in values}
        report = fairness_test(table_of(values), partition, z=10, ci_level=0.90)
        row = report.per_cluster[0]
        assert report.n_z == 3
        assert row.pct == pytest.approx(100 * 3 / 30)
        assert row.ci_counts == (3, 3)
        assert row.within_ci
        assert report.summary.all_within_ci

    def test_counts_sum_to_n_z(self):
        rng = np.random.default_rng(21)
        values, partition = two_cluster_table(rng)
        report = fairness_test(table_of(values), partition, z=25)
        assert sum(r.m_g for r in report.per_cluster) == report.n_z
        # accounting identity on the percentage scale
        total = sum(r.n_g * r.pct / 100 for r in report.per_cluster)
        assert total == pytest.approx(report.n_z, abs=1e-9)

    def test_zero_share_small_cluster_outside_ci(self):
        # one cluster of 31 journals entirely absent from the top set
        values = {}
        partition = {}
        for i in range(31):
            values[f"s{i:03d}"] = 0.001 * (i + 1)
            partition[f"s{i:03d}"] = "13"
        for i in range(969):
            values[f"o{i:03d}"] = 10.0 + i
            partition[f"o{i:03d}"] = "1"
        report = fairness_test(table_of(values), partition, z=10, ci_level=0.90)
        small = next(r for r in report.per_cluster if r.cluster_id == "13")
        assert small.m_g == 0
        assert small.pct == 0.0
        assert not small.within_ci
        assert not report.summary.all_within_ci

    def test_undefined_values_shrink_n(self):
        rng = np.random.default_rng(31)
        values, partition = two_cluster_table(rng)
        for j in list(values)[:10]:
            values[j] = None
        report = fairness_test(table_of(values), partition, z=10)
        assert report.n_z == 9  # floor(10% of 90 defined)
        assert sum(r.n_g for r in report.per_cluster) == 90

    def test_cluster_without_defined_values_is_error(self):
        values = {"a": 1.0, "b": None}
        partition = {"a": "g1", "b": "g2"}
        with pytest.raises(FairnessError, match="g2"):
            fairness_test(table_of(values), partition, z=50)

    def test_cluster_absent_from_table_is_error(self):
        values = {"a": 1.0, "c": 2.0}
        partition = {"a": "g1", "b": "g2", "c": "g1"}
        with pytest.raises(FairnessError, match="g2"):
            fairness_test(table_of(values), partition, z=50)

    def test_journal_missing_from_partition_is_error(self):
        with pytest.raises(FairnessError, match="b"):
            fairness_test(table_of({"a": 1.0, "b": 2.0}), {"a": "g"}, z=50)

    def test_global_scaling_leaves_report_unchanged(self):
        rng = np.random.default_rng(41)
        values, partition = two_cluster_table(rng)
        r1 = fairness_test(table_of(values), partition, z=10)
        r2 = fairness_test(table_of({k: 17.3 * v for k, v in values.items()}), partition, z=10)
        assert r1 == r2

    def test_identity_on_cluster_mean_one_table(self):
        # a table whose cluster means are already 1 is unchanged by rescaling
        from citefair.indicators import rescale
        rng = np.random.default_rng(51)
        values, partition = two_cluster_table(rng)
        rescaled_once = rescale(table_of(values), partition)
        rescaled_twice = rescale(rescaled_once, partition)
        r1 = fairness_test(rescaled_once, partition, z=10)
        r2 = fairness_test(rescaled_twice, partition, z=10)
        assert [r.m_g for r in r1.per_cluster] == [r.m_g for r in r2.per_cluster]
        assert r1 == r2


class TestCompareReports:
    def reports(self):
        rng = np.random.default_rng(61)
        values, partition = two_cluster_table(rng, shift=2.0)  # g1 privileged
        biased = fairness_test(table_of(values), partition, z=10)
        fair_values = {k: float(rng.random()) for k in values}
        level = fairness_test(table_of(fair_values), partition, z=10)
        return biased, level

    def test_identical_reports_tie(self):
        a, _ = self.reports()
        cmp = compare_reports(a, a)
        assert cmp.overall == "tie"
        assert set(cmp.criteria.values()) == {"tie"}

    def test_fair_beats_biased(self):
        biased, level = self.reports()
        cmp = compare_reports(level, biased)
        assert cmp.criteria["sum_abs_dev"] == "a"
        assert cmp.overall in ("a", "mixed")

    def test_one_cluster_reports_tie_on_sd(self):
        # one cluster has no sd of percentages, so neither report wins on it
        partition = {f"j{i:02d}": "only" for i in range(30)}
        a, b = (fairness_test(table_of({j: float(sign * i) for i, j in enumerate(partition)}),
                              partition, z=10) for sign in (1, -1))
        assert a.summary.sd_pct is b.summary.sd_pct is None
        assert compare_reports(a, b).criteria["sd_pct"] == "tie"

    def test_mixed_verdict(self):
        a, b = self.reports()
        # hand-build summaries that disagree across criteria
        from citefair.fairness import FairnessSummary
        import dataclasses
        a2 = dataclasses.replace(
            a, summary=FairnessSummary(10.0, 5.0, 4.0, True))
        b2 = dataclasses.replace(
            a, summary=FairnessSummary(10.0, 1.0, 9.0, True))
        cmp = compare_reports(a2, b2)
        assert cmp.criteria["sum_abs_dev"] == "a"
        assert cmp.criteria["sd_pct"] == "b"
        assert cmp.overall == "mixed"

    def test_mismatched_z(self):
        a, b = self.reports()
        with pytest.raises(FairnessError):
            compare_reports(a, fairness_test(
                table_of({r.cluster_id: 1.0 for r in a.per_cluster} | {"x": 2.0}),
                dict.fromkeys([r.cluster_id for r in a.per_cluster] + ["x"], "g"),
                z=50))

    def test_mismatched_partition(self):
        rng = np.random.default_rng(71)
        v1, p1 = two_cluster_table(rng, n_a=40, n_b=60)
        v2, p2 = two_cluster_table(rng, n_a=50, n_b=50)
        with pytest.raises(FairnessError, match="partition"):
            compare_reports(fairness_test(table_of(v1), p1, z=10),
                            fairness_test(table_of(v2), p2, z=10))

    def test_published_sums_order_rescaled_wins(self):
        _, _, rescaled = percentage_summary(COL_IF5_RESCALED, 10)
        _, _, fractional = percentage_summary(COL_IF5_FRACTIONAL, 10)
        assert rescaled < fractional


class TestCalibration:
    def test_whole_set_cluster_always_covered(self):
        coverage = calibration({"all": 50}, trials=200, z=10, seed=3)
        assert coverage == {"all": 1.0}

    def test_deterministic_for_fixed_seed(self):
        sizes = {"a": 30, "b": 50, "c": 20}
        c1 = calibration(sizes, trials=500, z=10, seed=42)
        c2 = calibration(sizes, trials=500, z=10, seed=42)
        assert c1 == c2

    def test_matches_full_fairness_test_per_trial(self):
        # the vectorized trial loop must agree with running fairness_test
        # on the same drawn scores
        sizes = {"g1": 25, "g2": 40, "g3": 15}
        ids = []
        partition = {}
        for g, n in sizes.items():
            for i in range(n):
                jid = f"{g}-{i:03d}"
                ids.append(jid)
                partition[jid] = g
        n_total = len(ids)
        rng = np.random.default_rng(7)
        trials = 60
        within_direct = {g: 0 for g in sizes}
        for _ in range(trials):
            scores = rng.random(n_total)
            values = dict(zip(ids, scores.tolist()))
            report = fairness_test(table_of(values), partition, z=20, ci_level=0.90)
            for row in report.per_cluster:
                within_direct[row.cluster_id] += row.within_ci
        direct = {g: within_direct[g] / trials for g in sizes}
        fast = calibration(sizes, trials=trials, z=20, ci_level=0.90, seed=7)
        assert fast == direct

    def test_coverage_near_level_mid_sized_groups(self):
        coverage = calibration({"a": 300, "b": 700}, trials=4000, z=10,
                               ci_level=0.90, seed=11)
        for c in coverage.values():
            assert c >= 0.90 - 0.02  # equal-tail intervals never undercover

    def test_bad_trials(self):
        with pytest.raises(FairnessError):
            calibration({"a": 10}, trials=0)

    @pytest.mark.parametrize("sizes, z, message", [
        ({"a": 0}, 10.0, "all group sizes must be >= 1"),
        ({"a": 5}, 1.0, r"top-1.0% of 5 journals selects nothing"),
    ])
    def test_bad_sizes_or_share(self, sizes, z, message):
        with pytest.raises(FairnessError, match=message):
            calibration(sizes, trials=10, z=z)


class TestReportIo:
    def make_report(self):
        rng = np.random.default_rng(81)
        values, partition = two_cluster_table(rng)
        names = {"g1": "Group One", "g2": "Group Two"}
        return fairness_test(table_of(values), partition, z=10), names

    def test_tsv_shape(self, tmp_path):
        report, names = self.make_report()
        path = tmp_path / "r.tsv"
        write_report_tsv(report, path, names)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("cluster\t")
        assert len(lines) == 1 + len(report.per_cluster) + 2
        assert lines[-2].startswith("Mean (± st.dev.)")
        assert lines[-1].startswith("Σ|x−10|")
        assert "g1. Group One" in lines[1]

    def test_tsv_without_names_writes_bare_ids(self, tmp_path):
        report, _ = self.make_report()
        path = tmp_path / "r.tsv"
        write_report_tsv(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines[1:3]] == ["g1", "g2"]

    def test_json_full_fields(self, tmp_path):
        report, names = self.make_report()
        path = tmp_path / "r.json"
        write_report_json(report, path, names)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["z"] == 10
        assert payload["n_z"] == report.n_z
        assert payload["per_cluster"][0]["cluster_name"] == "Group One"
        assert payload["summary"]["sum_abs_dev"] == report.summary.sum_abs_dev

    def test_comparison_tsv(self, tmp_path):
        report, _ = self.make_report()
        cmp = compare_reports(report, report)
        path = tmp_path / "cmp.tsv"
        write_comparison_tsv(cmp, path, "left", "right")
        text = path.read_text(encoding="utf-8")
        assert "criterion\tleft\tright\twinner" in text
        assert "overall\t\t\ttie" in text


# Ids with trailing NULs, values with ties, -0.0 beside 0.0 and UNDEFINED.
IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3)
TIED = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                 st.floats(0.0, 4.0, allow_nan=False))


class TestAgainstDictOracle:
    @given(st.lists(IDS, min_size=1, max_size=40, unique=True).flatmap(st.permutations),
           st.data(), st.sampled_from([10, 25, 50]))
    @settings(max_examples=200, deadline=None)
    def test_counts_match_the_oracle_top_set(self, ids, data, z):
        values = {jid: data.draw(TIED) for jid in ids}
        partition = {jid: data.draw(st.sampled_from(("g1", "g2", "10"))) for jid in ids}
        defined = {g: sum(values[j] is not None for j in ids if partition[j] == g)
                   for g in partition.values()}
        selected, n_z = top_set_by_sort(values, z)
        if 0 in defined.values() or n_z == 0:
            return
        report = fairness_test(table_of(values), partition, z=z)
        assert report.n_z == n_z
        assert {r.cluster_id: (r.n_g, r.m_g) for r in report.per_cluster} == \
            {g: (n, sum(partition[j] == g for j in selected)) for g, n in defined.items()}
