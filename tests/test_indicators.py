from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citefair.errors import ParseError, RescaleError
from citefair.indicators import (
    IndicatorSpec,
    compute_table,
    compute_tables,
    read_table,
    rescale,
    standard_specs,
    tables_from_counts,
    window_counts,
    write_table,
)
from citefair.ingest import load_counts
from citefair.model import Cluster, JournalRecord
from citefair.stats import ranking
from citefair.synth import generate

from conftest import ALL_KIND_SPECS, columns_of, make_dataset, small_profile, table_of, values_of
from oracles import (PublicationCount, if_denominator_by_scan, if_numerator_by_scan,
                     indicator_by_scan, items_last_record_wins, rank_by_sort,
                     read_table_by_lines, rescale_by_dicts, table_text_by_rows)
from reference_ingest import bundle


def flat_table(values, indicator_id="T", normalization="raw"):
    return table_of(values, indicator_id, "impact_factor", 2, normalization)


def ranked(values):
    """The (journal, value) pairs of ranking over a journal -> value dict's
    column in id order."""
    ids, (column,) = columns_of(values)
    rows = ranking(column)
    return [(ids[i], v) for i, v in zip(rows.tolist(), column[rows].tolist())]


class TestSpec:
    def test_ids(self):
        assert IndicatorSpec("impact_factor", 2, "integer").indicator_id == "IF2-IC"
        assert IndicatorSpec("impact_factor", 5, "fractional").indicator_id == "IF5-FC"
        assert IndicatorSpec("total_cites", counting="integer").indicator_id == "TC-IC"
        assert IndicatorSpec("cp_ratio", counting="fractional").indicator_id == "CP-FC"
        assert IndicatorSpec("numerator_only", 2, "integer").indicator_id == "TC-IC2"

    def test_window_validation(self):
        with pytest.raises(ValueError):
            IndicatorSpec("impact_factor", 3)
        with pytest.raises(ValueError):
            IndicatorSpec("impact_factor")
        with pytest.raises(ValueError):
            IndicatorSpec("total_cites", 2)
        with pytest.raises(ValueError):
            IndicatorSpec("nope", 2)

    def test_all_window_normalized(self):
        assert IndicatorSpec("total_cites").window == "all"
        assert IndicatorSpec("cp_ratio", "all").window == "all"


def if_numerator(ds, journal_id, spec):
    return if_numerator_by_scan(ds.citation_events.rows(), ds.census_year, journal_id,
                                spec.window, spec.counting)


def if_denominator(ds, journal_id, window):
    return if_denominator_by_scan(ds.publication_counts.rows(), ds.census_year, journal_id,
                                  window)


def with_zero_denominators(tiny_dataset):
    """tiny_dataset plus jD, which has no citable items at all, so its IF and
    c/p are UNDEFINED."""
    return make_dataset(
        tiny_dataset.journals + (JournalRecord("jD", "Delta Journal", "g2"),),
        tiny_dataset.clusters, list(tiny_dataset.publication_counts.rows()),
        [*tiny_dataset.citation_events.rows(), ("p4", "jA", 2010, "jD", 2009, 3)])


class TestNumeratorDenominator:
    """Hand-computed numerators and denominators, as checks of the oracles
    that compute_tables is compared against below."""

    def test_fractional_two_events_quarter_weight(self, tiny_dataset):
        spec = IndicatorSpec("impact_factor", 2, "fractional")
        # p1 (n_refs=4) cites jA twice in-window and p2 (n_refs=2) once
        assert if_numerator(tiny_dataset, "jA", spec) == pytest.approx(2 / 4 + 1 / 2)

    def test_single_paper_two_citations(self):
        journals = [JournalRecord("j1", "One", "g")]
        clusters = [Cluster("g", "G", 1)]
        events = [("p1", "jX", 2010, "j1", 2009, 4),
                  ("p1", "jX", 2010, "j1", 2008, 4)]
        ds = make_dataset(journals, clusters, [], events)
        assert if_numerator(ds, "j1", IndicatorSpec("impact_factor", 2, "fractional")) == 0.5
        assert if_numerator(ds, "j1", IndicatorSpec("impact_factor", 2, "integer")) == 2

    def test_integer_same_events(self, tiny_dataset):
        spec = IndicatorSpec("impact_factor", 2, "integer")
        assert if_numerator(tiny_dataset, "jA", spec) == 3

    def test_all_unit_refs_match_integer(self):
        journals = [JournalRecord("j1", "One", "g")]
        clusters = [Cluster("g", "G", 1)]
        events = [(f"p{i}", "jX", 2010, "j1", 2009, 1) for i in range(5)]
        ds = make_dataset(journals, clusters, [], events)
        frac = if_numerator(ds, "j1", IndicatorSpec("impact_factor", 2, "fractional"))
        whole = if_numerator(ds, "j1", IndicatorSpec("impact_factor", 2, "integer"))
        assert frac == 5.0 == whole

    def test_denominator_window_two(self, tiny_dataset):
        assert if_denominator(tiny_dataset, "jA", 2) == 250

    def test_denominator_missing_years_zero(self, tiny_dataset):
        assert if_denominator(tiny_dataset, "jC", 2) == 20  # only 2009 present
        ds = make_dataset([JournalRecord("j1", "One", "g")], [Cluster("g", "G", 1)], [], [])
        assert if_denominator(ds, "j1", 2) == 0

    def test_denominator_window_five(self):
        counts = [PublicationCount("j1", y, 10) for y in range(2005, 2010)]
        ds = make_dataset([JournalRecord("j1", "One", "g")], [Cluster("g", "G", 1)], counts, [])
        assert if_denominator(ds, "j1", 5) == 50


class TestComputeTable:
    def test_if2_integer(self, tiny_dataset):
        table = compute_table(tiny_dataset, IndicatorSpec("impact_factor", 2, "integer"))
        assert values_of(table)["jA"] == pytest.approx(3 / 250)
        assert table.indicator_id == "IF2-IC"
        assert table.normalization == "raw"

    def test_simple_ratio(self):
        journals = [JournalRecord("j1", "One", "g")]
        clusters = [Cluster("g", "G", 1)]
        counts = [PublicationCount("j1", 2008, 150), PublicationCount("j1", 2009, 100)]
        events = [(f"p{i}", "jX", 2010, "j1", 2009, 1) for i in range(50)]
        ds = make_dataset(journals, clusters, counts, events)
        table = compute_table(ds, IndicatorSpec("impact_factor", 2, "integer"))
        assert values_of(table)["j1"] == pytest.approx(0.2)

    def test_zero_denominator_undefined(self, tiny_dataset):
        table = compute_table(tiny_dataset, IndicatorSpec("impact_factor", 5, "integer"))
        # jB and jC have no 2005-2009 items beyond those listed; all have some
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")], [Cluster("g", "G", 1)], [],
            [("p1", "jX", 2010, "j1", 2009, 2)])
        t = compute_table(ds, IndicatorSpec("impact_factor", 2, "integer"))
        assert values_of(t)["j1"] is None

    def test_total_cites_counts_all_years(self, tiny_dataset):
        table = values_of(compute_table(tiny_dataset, IndicatorSpec("total_cites",
                                                                      counting="integer")))
        assert table["jA"] == 4.0  # includes the 2005 citation
        assert table["jB"] == 1.0  # the same-year citation
        assert table["jC"] == 1.0

    def test_cp_ratio(self, tiny_dataset):
        table = compute_table(tiny_dataset, IndicatorSpec("cp_ratio", counting="integer"))
        assert values_of(table)["jA"] == pytest.approx(4 / 80)
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")], [Cluster("g", "G", 1)], [],
            [("p1", "jX", 2010, "j1", 2009, 2)])
        assert values_of(compute_table(ds, IndicatorSpec("cp_ratio")))["j1"] is None

    def test_fractional_equals_integer_when_unit_refs(self):
        journals = [JournalRecord(f"j{i}", f"J{i}", "g") for i in range(3)]
        clusters = [Cluster("g", "G", 3)]
        counts = [PublicationCount(f"j{i}", y, 10) for i in range(3) for y in (2008, 2009, 2010)]
        events = [(f"p{k}", "jX", 2010, f"j{k % 3}", 2009 - (k % 2), 1)
                  for k in range(20)]
        ds = make_dataset(journals, clusters, counts, events)
        for spec_i in standard_specs():
            if spec_i.counting != "integer":
                continue
            spec_f = IndicatorSpec(spec_i.kind, None if spec_i.window == "all" else spec_i.window,
                                   "fractional")
            ti = compute_table(ds, spec_i)
            tf = compute_table(ds, spec_f)
            assert values_of(ti) == values_of(tf)

    def test_bulk_matches_single(self, tiny_dataset):
        specs = standard_specs()
        bulk = compute_tables(tiny_dataset, specs)
        for spec, table in zip(specs, bulk):
            assert values_of(table) == values_of(compute_table(tiny_dataset, spec))

    @staticmethod
    def assert_matches_oracle(ds):
        journal_ids = [j.journal_id for j in ds.journals]
        for spec, table in zip(ALL_KIND_SPECS, compute_tables(ds, ALL_KIND_SPECS)):
            expected = indicator_by_scan(journal_ids, list(ds.publication_counts.rows()),
                                         list(ds.citation_events.rows()), ds.census_year,
                                         spec.kind, spec.window, spec.counting)
            assert list(values_of(table)) == journal_ids, spec.indicator_id
            assert values_of(table) == expected, spec.indicator_id

    def test_matches_oracle_on_tiny_dataset(self, tiny_dataset):
        self.assert_matches_oracle(tiny_dataset)

    def test_matches_oracle_on_small_census(self):
        self.assert_matches_oracle(generate(small_profile(3)))

    def test_matches_oracle_with_zero_denominators(self, tiny_dataset):
        self.assert_matches_oracle(with_zero_denominators(tiny_dataset))

    def test_fractional_at_most_integer(self, tiny_dataset):
        ti = compute_table(tiny_dataset, IndicatorSpec("numerator_only", 2, "integer"))
        tf = compute_table(tiny_dataset, IndicatorSpec("numerator_only", 2, "fractional"))
        assert ti.journal_ids == tf.journal_ids
        assert (tf.column <= ti.column).all()

    def test_paper_fraction_sums_to_one_iff_all_refs_inside(self, tiny_dataset):
        # p1 has 4 refs but only 3 recorded events: its weights sum below 1
        sums = {}
        for pid, _, _, _, _, n_refs in tiny_dataset.citation_events.rows():
            sums[pid] = sums.get(pid, 0.0) + 1 / n_refs
        assert sums["p1"] == pytest.approx(3 / 4)
        assert sums["p2"] == pytest.approx(1.0)  # both refs landed inside
        assert all(s <= 1.0 + 1e-12 for s in sums.values())


class TestWindowCounts:
    """Tables from the counts.tsv of an ingested bundle equal those computed
    from the dataset's events."""

    @staticmethod
    def assert_bundle_round_trip(ds, directory):
        bundle(ds, directory)
        counts, partition = load_counts(directory)
        made = window_counts(ds)
        assert counts.journal_ids == made.journal_ids
        assert counts.census_year == made.census_year
        for name in ("cites", "fractional", "items"):
            read, expected = getattr(counts, name), getattr(made, name)
            assert read.dtype == expected.dtype and np.array_equal(read, expected), name
        assert partition == ds.partition
        assert tables_from_counts(counts, ALL_KIND_SPECS) == compute_tables(ds, ALL_KIND_SPECS)

    def test_tiny_dataset(self, tiny_dataset, tmp_path):
        self.assert_bundle_round_trip(tiny_dataset, tmp_path)

    def test_zero_denominators(self, tiny_dataset, tmp_path):
        ds = with_zero_denominators(tiny_dataset)
        self.assert_bundle_round_trip(ds, tmp_path)
        assert values_of(compute_table(ds, IndicatorSpec("cp_ratio")))["jD"] is None


    def test_last_record_of_a_repeated_journal_year_wins(self):
        # an unvalidated dataset: every journal-year of 2004-2011 repeats,
        # some records name journals outside the dataset
        rng = np.random.default_rng(5)
        journals = [JournalRecord(f"j{i}", f"J{i}", "g") for i in range(3)]
        rows = [(f"j{rng.integers(0, 4)}", int(rng.integers(2004, 2012)), int(rng.integers(0, 1000)))
                for _ in range(400)]
        ds = make_dataset(journals, [Cluster("g", "G", 3)], rows, [])
        items = window_counts(ds).items
        for i, journal in enumerate(journals):
            last = [items_last_record_wins(rows, journal.journal_id, 2010 - age)
                    for age in range(6)]
            assert items[i].tolist() == [sum(last[1:3]), sum(last[1:6]), last[0]]


class TestRescale:
    def test_simple_cluster(self):
        table = flat_table({"a": 2.0, "b": 4.0, "c": 6.0})
        out = rescale(table, {"a": "g", "b": "g", "c": "g"})
        assert values_of(out) == {"a": 0.5, "b": 1.0, "c": 1.5}
        assert out.normalization == "rescaled"
        assert out.source_id == "T"
        assert out.indicator_id == "T-RS"

    def test_all_equal_values(self):
        table = flat_table({"a": 3.0, "b": 3.0})
        out = rescale(table, {"a": "g", "b": "g"})
        assert values_of(out) == {"a": 1.0, "b": 1.0}

    def test_quotient_of_known_mean(self):
        # a 31-journal cluster with mean 0.576 holding one value of 3.843
        rest = (0.576 * 31 - 3.843) / 30
        values = {"j00": 3.843, **{f"j{i:02d}": rest for i in range(1, 31)}}
        table = flat_table(values)
        out = values_of(rescale(table, {j: "g" for j in values}))
        assert out["j00"] == pytest.approx(3.843 / 0.576, abs=1e-9)
        assert round(out["j00"], 3) == 6.672

    def test_cluster_means_become_one(self):
        values = {"a": 1.0, "b": 3.0, "c": 10.0, "d": 30.0}
        partition = {"a": "g1", "b": "g1", "c": "g2", "d": "g2"}
        out = values_of(rescale(flat_table(values), partition))
        assert (out["a"] + out["b"]) / 2 == pytest.approx(1.0, abs=1e-9)
        assert (out["c"] + out["d"]) / 2 == pytest.approx(1.0, abs=1e-9)

    def test_undefined_stays_undefined_and_excluded(self):
        values = {"a": 2.0, "b": None, "c": 4.0}
        out = rescale(flat_table(values), {"a": "g", "b": "g", "c": "g"})
        rescaled = values_of(out)
        assert rescaled["b"] is None
        assert rescaled["a"] == pytest.approx(2.0 / 3.0)
        assert out.cluster_baselines["g"] == (3.0, 2)

    def test_zero_mean_cluster_is_error(self):
        with pytest.raises(RescaleError, match="g2"):
            rescale(flat_table({"a": 1.0, "b": 0.0}), {"a": "g1", "b": "g2"})

    def test_all_undefined_cluster_is_error(self):
        with pytest.raises(RescaleError, match="g2"):
            rescale(flat_table({"a": 1.0, "b": None}), {"a": "g1", "b": "g2"})

    def test_missing_partition_entry(self):
        with pytest.raises(RescaleError, match="b"):
            rescale(flat_table({"a": 1.0, "b": 2.0}), {"a": "g"})

    def test_rank_order_preserved_within_cluster(self):
        values = {f"j{i}": float(v) for i, v in enumerate([5.0, 1.0, 3.3, 0.7, 9.2])}
        out = rescale(flat_table(values), {j: "g" for j in values})
        order_before = sorted(values, key=values.get)
        rescaled = values_of(out)
        order_after = sorted(rescaled, key=rescaled.get)
        assert order_before == order_after


class TestRankTable:
    """ranking over a table's column laid out in id order."""

    def test_descending_with_ranks(self):
        assert ranked({"a": 3.0, "b": 1.0, "c": 2.0}) == [("a", 3.0), ("c", 2.0), ("b", 1.0)]

    def test_tie_broken_by_id(self):
        assert ranked({"b": 2.0, "a": 2.0}) == [("a", 2.0), ("b", 2.0)]

    def test_undefined_left_out(self):
        assert ranked({"a": 1.0, "b": None, "c": 2.0}) == [("c", 2.0), ("a", 1.0)]

    def test_top_of_published_ranking(self):
        # 25-journal fixture with realistic rescaled impact values
        listed = [
            ("CA-CANCER J CLIN", 26.211), ("REV MOD PHYS", 19.514),
            ("ACTA CRYSTALLOGR A", 18.881), ("NAT MATER", 17.979),
            ("NEW ENGL J MED", 14.872), ("ANNU REV PLANT BIOL", 14.063),
            ("ANNU REV IMMUNOL", 13.700), ("CHEM REV", 11.479),
            ("ANNU REV ASTRON ASTR", 11.452), ("NAT NANOTECHNOL", 11.440),
            ("NAT REV CANCER", 10.338), ("NAT PHOTONICS", 9.982),
            ("PROG MATER SCI", 9.970), ("NAT REV IMMUNOL", 9.787),
            ("LANCET", 9.352), ("CHEM SOC REV", 9.238),
            ("NAT REV MOL CELL BIO", 8.787), ("JAMA-J AM MED ASSOC", 8.345),
            ("NAT GENET", 8.270), ("NATURE", 8.207),
            ("NAT REV NEUROSCI", 8.206), ("ADV PHYS", 8.008),
            ("NAT REV DRUG DISCOV", 7.984), ("PROG POLYM SCI", 7.947),
            ("ACCOUNTS CHEM RES", 7.590),
        ]
        order = ranked(dict(listed))
        assert order[0] == ("CA-CANCER J CLIN", 26.211)
        assert [v for _, v in order] == sorted((v for _, v in listed), reverse=True)


class TestTableEquality:
    """Tables are equal when their provenance and the value of each journal
    are; the cluster baselines are not compared."""

    def test_journal_order_does_not_matter(self):
        assert flat_table({"a": 1.0, "b": 2.0}) == flat_table({"b": 2.0, "a": 1.0})
        assert flat_table({"a": 1.0, "b": 2.0}) != flat_table({"b": 1.0, "a": 2.0})

    def test_same_journals_required(self):
        assert flat_table({"a": 1.0}) != flat_table({"a": 1.0, "b": 2.0})
        assert flat_table({"a": 1.0, "b": None}) != flat_table({"a": 1.0, "c": None})

    def test_negative_zero_equals_zero(self):
        assert flat_table({"a": -0.0, "b": 1.0}) == flat_table({"b": 1.0, "a": 0.0})

    def test_nan_equals_nan_only_at_the_same_journal(self):
        assert flat_table({"a": None, "b": 1.0}) == flat_table({"b": 1.0, "a": None})
        assert flat_table({"a": None, "b": 1.0}) != flat_table({"a": 1.0, "b": None})
        assert flat_table({"a": None, "b": 1.0}) != flat_table({"a": 0.0, "b": 1.0})

    def test_provenance_compared(self):
        assert flat_table({"a": 1.0}) != flat_table({"a": 1.0}, indicator_id="U")
        assert flat_table({"a": 1.0}) != flat_table({"a": 1.0}, normalization="rescaled")
        assert flat_table({"a": 1.0}) != values_of(flat_table({"a": 1.0}))

    def test_baselines_not_compared(self):
        table = flat_table({"a": 2.0, "b": 4.0})
        rescaled = rescale(table, {"a": "g", "b": "g"})
        assert rescaled.cluster_baselines == {"g": (3.0, 2)}
        assert rescaled == replace(rescaled, cluster_baselines=None)

    def test_equals_its_file_round_trip(self, tmp_path):
        # rows are written in sorted id order, so the read table's journal
        # order differs from this one's
        table = flat_table({"z": 0.5, "b": None, "é": -0.0, "a": 1 / 3, "c": None})
        write_table(table, tmp_path / "t.tsv")
        loaded = read_table(tmp_path / "t.tsv")
        assert loaded.journal_ids == ("a", "b", "c", "z", "é")
        assert loaded == table and table == loaded


class TestTableIo:
    def test_round_trip(self, tmp_path, tiny_dataset):
        table = compute_table(tiny_dataset, IndicatorSpec("impact_factor", 2, "fractional"))
        path = tmp_path / "IF2-FC.tsv"
        write_table(table, path)
        loaded = read_table(path)
        assert values_of(loaded) == values_of(table)
        assert loaded.indicator_id == table.indicator_id
        assert loaded.window == 2
        assert loaded.counting == "fractional"
        assert loaded.census_year == 2010

    def test_na_sentinel(self, tmp_path):
        table = flat_table({"a": 1.25, "b": None})
        path = tmp_path / "t.tsv"
        write_table(table, path)
        text = path.read_text()
        assert "b\tNA" in text
        assert values_of(read_table(path)) == {"a": 1.25, "b": None}

    def test_full_precision(self, tmp_path):
        v = 1 / 3 + 1e-15
        table = flat_table({"a": v, "b": 2.0})
        write_table(table, tmp_path / "t.tsv")
        assert values_of(read_table(tmp_path / "t.tsv"))["a"] == v

    def test_rescaled_provenance_round_trip(self, tmp_path):
        out = rescale(flat_table({"a": 2.0, "b": 4.0}), {"a": "g", "b": "g"})
        write_table(out, tmp_path / "t.tsv")
        loaded = read_table(tmp_path / "t.tsv")
        assert loaded.source_id == "T"
        assert loaded.normalization == "rescaled"

    def test_missing_header_is_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("journal_id\tvalue\na\t1.0\n")
        with pytest.raises(ParseError):
            read_table(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "# indicator_id=X kind=total_cites window=all counting=integer "
            "normalization=raw census_year=2010\n"
            "journal_id\tvalue\na\toops\n")
        with pytest.raises(ParseError, match="3"):
            read_table(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-1.5"])
    def test_non_finite_or_negative_value_names_line(self, tmp_path, raw):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "# indicator_id=X kind=total_cites window=all counting=integer "
            "normalization=raw census_year=2010\n"
            f"journal_id\tvalue\na\t1.0\nb\t{raw}\n")
        with pytest.raises(ParseError, match="finite and non-negative") as err:
            read_table(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("kind, window, counting, normalization, message", [
        ("impact_factors", "2", "integer", "raw", "unknown indicator kind 'impact_factors'"),
        ("impact_factor", "3", "integer", "raw", "impact_factor requires window 2 or 5, got 3"),
        ("impact_factor", "all", "integer", "raw", "requires window 2 or 5, got 'all'"),
        ("cp_ratio", "5", "integer", "raw", "cp_ratio uses all prior years; got window 5"),
        ("total_cites", "all", "whole", "raw", "unknown counting mode 'whole'"),
        ("total_cites", "all", "integer", "scaled", "unknown normalization 'scaled'"),
    ])
    def test_provenance_citefair_cannot_write_names_header(self, tmp_path, kind, window,
                                                           counting, normalization, message):
        path = tmp_path / "bad.tsv"
        path.write_text(
            f"# indicator_id=X kind={kind} window={window} counting={counting} "
            f"normalization={normalization} census_year=2010\n"
            "journal_id\tvalue\na\t1.0\n")
        with pytest.raises(ParseError, match=message) as err:
            read_table(path)
        assert err.value.line == 1

    # int() reads the last four as 2 or 2010; the file format asks for ASCII numerals
    @pytest.mark.parametrize("window, census_year", [
        ("two", "2010"), ("2", "20x0"), ("2", "2_010"), ("2", "\u0662\u0660\u0661\u0660"),
        ("0_2", "2010"), ("\u0662", "2010")])
    def test_bad_window_or_census_year_names_header(self, tmp_path, window, census_year):
        path = tmp_path / "bad.tsv"
        path.write_text(
            f"# indicator_id=X kind=impact_factor window={window} counting=integer "
            f"normalization=raw census_year={census_year}\n"
            "journal_id\tvalue\na\t1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="bad window") as err:
            read_table(path)
        assert err.value.line == 1

    # fairness and correlate name their output files after the indicator_id
    @pytest.mark.parametrize("indicator_id", ["../x", "a/b", "/abs/x", "", ".", "..", ".x",
                                              "a\\b", "IF2\u00e9"])
    def test_indicator_id_not_a_plain_name_names_header(self, tmp_path, indicator_id):
        path = tmp_path / "bad.tsv"
        path.write_text(
            f"# indicator_id={indicator_id} kind=total_cites window=all counting=integer "
            "normalization=raw census_year=2010\njournal_id\tvalue\na\t1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="is not a plain name") as err:
            read_table(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("indicator_id", ["IF2-IC-RS", "TC-FC2", "ISI-IF2", "T", "X",
                                              "FLIP", "a.b_c+d"])
    def test_plain_indicator_id_reads(self, tmp_path, indicator_id):
        write_table(flat_table({"a": 1.0}, indicator_id), tmp_path / "t.tsv")
        assert read_table(tmp_path / "t.tsv").indicator_id == indicator_id


# Ids that a table file can hold: any text without tab, line breaks or
# surrogates, including non-ASCII letters and trailing NULs.
JOURNAL_IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                      min_size=1, max_size=5)
EDGE_VALUES = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 0.1, 1.0, 1 / 3)
VALUES = st.one_of(st.none(), st.sampled_from(EDGE_VALUES),
                   st.floats(0.0, 1e308, allow_nan=False, allow_infinity=False))


@st.composite
def tables_with_partitions(draw):
    """(values, partition): a journal -> value dict in an order unlike
    sorted order, with UNDEFINED, repeated and extreme values, and a
    partition over up to four clusters that may miss up to three journals."""
    ids = draw(st.permutations(draw(st.lists(JOURNAL_IDS, min_size=1, max_size=30,
                                             unique=True))))
    values = {jid: draw(VALUES) for jid in ids}
    partition = {jid: draw(st.sampled_from(("g1", "g2", "10", "é"))) for jid in ids}
    if draw(st.integers(0, 9)) == 0:
        for jid in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True)):
            del partition[jid]
    return values, partition


def bits(values):
    """Journal -> value pairs in order, each value by its exact bits."""
    return [(jid, None if v is None else float(v).hex()) for jid, v in values.items()]


class TestAgainstDictOracles:
    """The table layer against the one-journal-at-a-time dict oracles:
    identical values, baselines, errors and file bytes."""

    @given(tables_with_partitions())
    @settings(max_examples=300, deadline=None)
    def test_rescale(self, case):
        values, partition = case
        try:
            expected, baselines = rescale_by_dicts(values, partition)
        except ValueError as err:
            with pytest.raises(RescaleError) as got:
                rescale(flat_table(values), partition)
            assert str(got.value) == str(err)
            return
        out = rescale(flat_table(values), partition)
        assert bits(values_of(out)) == bits(expected)
        assert [(g, float(mean).hex(), n) for g, (mean, n) in out.cluster_baselines.items()] \
            == [(g, mean.hex(), n) for g, (mean, n) in baselines.items()]

    @given(tables_with_partitions())
    @settings(max_examples=200, deadline=None)
    def test_write_table_bytes(self, tmp_path_factory, case):
        values, partition = case
        path = tmp_path_factory.mktemp("write") / "t.tsv"
        table = flat_table(values)
        write_table(table, path)
        assert path.read_bytes() == table_text_by_rows(table, values).encode("utf-8")
        try:
            expected, _ = rescale_by_dicts(values, partition)
        except ValueError:
            return
        rescaled = rescale(table, partition)
        write_table(rescaled, path)
        assert path.read_bytes() == table_text_by_rows(rescaled, expected).encode("utf-8")

    @given(tables_with_partitions())
    @settings(max_examples=200, deadline=None)
    def test_read_table_round_trip(self, tmp_path_factory, case):
        values, _ = case
        directory = tmp_path_factory.mktemp("read")
        text = table_text_by_rows(flat_table(values), values).encode("utf-8")
        (directory / "in.tsv").write_bytes(text)
        loaded = read_table(directory / "in.tsv")
        assert bits(values_of(loaded)) == bits(dict(sorted(values.items())))
        write_table(loaded, directory / "out.tsv")
        assert (directory / "out.tsv").read_bytes() == text

    def test_negative_zero_kept_beside_zero(self, tmp_path):
        values = {"b": 0.0, "a": -0.0, "c": None, "d": -0.0}
        write_table(flat_table(values), tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_text(encoding="utf-8").splitlines()[2:] == \
            ["a\t-0.0", "b\t0.0", "c\tNA", "d\t-0.0"]
        assert bits(values_of(read_table(tmp_path / "t.tsv"))) == bits(dict(sorted(values.items())))

    def test_ids_that_differ_by_trailing_nuls(self, tmp_path):
        values = {"a\x00": 1.0, "b": 0.5, "a": 2.0, "\x00": None, "a\x00\x00": 3.0}
        table = flat_table(values)
        write_table(table, tmp_path / "t.tsv")
        assert (tmp_path / "t.tsv").read_bytes() == table_text_by_rows(table, values).encode()

    @given(tables_with_partitions())
    @settings(max_examples=200, deadline=None)
    def test_rank_table(self, case):
        values, _ = case
        assert [(jid, v.hex()) for jid, v in ranked(values)] == \
            [(jid, v.hex()) for jid, v in rank_by_sort(values)]


# Lines of a table file: the rows a reader must accept and those it must
# reject (an extra or missing tab, an empty id, values float() refuses,
# non-finite or negative values, repeated ids), ended by LF, CRLF or a lone
# CR, with blank lines between them.
TABLE_IDS = st.sampled_from(["a", "b", "a\x00", "\x00", "é", "z", " a", "", "Z9"])
RAW_VALUES = st.one_of(
    st.sampled_from(["1.5", " 1.5", "1_0", "NA", "na", "nan", "inf", "-1", "-0.0", "0", "0.0",
                     "1e308", "1e309", "5e-324", "x", "", "2 ", "+3"]),
    st.floats(0.0, 1e9, allow_nan=False).map(repr))
TABLE_ROWS = st.one_of(
    st.tuples(TABLE_IDS, RAW_VALUES).map("\t".join),
    st.tuples(TABLE_IDS, RAW_VALUES, RAW_VALUES).map("\t".join),
    TABLE_IDS,
    st.just(""))
HEADERS = st.sampled_from([
    "# indicator_id=T kind=impact_factor window=2 counting=integer normalization=raw "
    "census_year=2010",
    "# indicator_id=T-RS kind=total_cites window=all counting=fractional "
    "normalization=rescaled census_year=2010 source_id=T",
    "# indicator_id=T kind=impact_factor window=x counting=integer normalization=raw "
    "census_year=2010",
    "# indicator_id=T kind=cp_ratio window=5 counting=integer normalization=raw "
    "census_year=2010",
    "# indicator_id=T kind=impact_factor window=2 counting=integer normalization=raw",
    # an indicator_id that is no plain name, or a window or census year
    # that int() reads but that is no ASCII numeral
    "# indicator_id=../T kind=impact_factor window=2 counting=integer normalization=raw "
    "census_year=2010",
    "# indicator_id=-T kind=total_cites window=all counting=integer normalization=raw "
    "census_year=2010",
    "# indicator_id=T kind=impact_factor window=\u0662 counting=integer normalization=raw "
    "census_year=2010",
    "# indicator_id=T kind=impact_factor window=+5 counting=integer normalization=raw "
    "census_year=2_010"])


@st.composite
def table_texts(draw):
    lines = [draw(HEADERS), draw(st.sampled_from(["journal_id\tvalue", "journal_id\tvalue\tx",
                                                  "id\tvalue"]))]
    lines += draw(st.lists(TABLE_ROWS, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestReadTableAgainstLineReader:
    """read_table against the one-line-at-a-time reader: the same table, or
    the same error line and message."""

    @given(table_texts())
    @settings(max_examples=500, deadline=None)
    def test_same_table_or_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("table") / "t.tsv"
        path.write_bytes(text.encode("utf-8"))
        try:
            meta, ids, values = read_table_by_lines(path)
        except ValueError as err:
            line, message = err.args[0]
            with pytest.raises(ParseError) as got:
                read_table(path)
            assert (got.value.line, str(got.value)) == (line, f"{path}:{line}: {message}")
            return
        table = read_table(path)
        assert table.journal_ids == tuple(ids)
        assert [v.hex() for v in table.column.tolist()] == \
            [float("nan").hex() if v is None else v.hex() for v in values]
        assert (table.indicator_id, table.kind, str(table.window), table.counting,
                table.normalization, str(table.census_year), table.source_id) == \
            (meta["indicator_id"], meta["kind"], meta["window"], meta["counting"],
             meta["normalization"], meta["census_year"], meta.get("source_id"))

    def test_earliest_row_error_wins_over_a_bad_window(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# indicator_id=T kind=impact_factor window=x counting=integer "
                        "normalization=raw census_year=2010\njournal_id\tvalue\n"
                        "a\t1\r\rb\t1\ta\nc\tnan\n", encoding="utf-8")
        with pytest.raises(ParseError, match="malformed row") as err:
            read_table(path)
        assert err.value.line == 5
