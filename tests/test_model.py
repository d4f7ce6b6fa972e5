import numpy as np
import pytest

from citefair.errors import ValidationError
from citefair.model import (
    Cluster,
    Events,
    Ids,
    JournalRecord,
    PublicationCounts,
    cluster_order_key,
    window_counts,
)

from conftest import make_dataset
from oracles import PublicationCount
from reference_ingest import validate


def rules(violations):
    return sorted(v.rule for v in violations)


class TestValidate:
    def test_well_formed_fixture_is_clean(self, tiny_dataset):
        assert validate(tiny_dataset) == []

    def test_idempotent_and_pure(self, tiny_dataset):
        assert validate(tiny_dataset) == validate(tiny_dataset)

    def test_duplicate_journal_id(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g"), JournalRecord("j1", "Two", "g")],
            [Cluster("g", "G", 2)], [], [])
        violations = [v for v in validate(ds) if v.rule == "journal.duplicate_id"]
        assert len(violations) == 1
        assert violations[0].record == "j1"

    def test_causality_rule(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")],
            [Cluster("g", "G", 1)], [],
            [("p1", "jX", 2008, "j1", 2009, 3)])
        violations = [v for v in validate(ds) if v.rule == "event.causality"]
        assert len(violations) == 1

    def test_unknown_cluster(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "nope")],
            [Cluster("g", "G", 0)], [], [])
        assert "journal.unknown_cluster" in rules(validate(ds))

    def test_cluster_size_mismatch(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")],
            [Cluster("g", "G", 5)], [], [])
        found = rules(validate(ds))
        assert "cluster.size_mismatch" in found
        assert "cluster.size_sum" in found

    def test_cluster_declared_twice(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")],
            [Cluster("g", "G", 1), Cluster("g", "G", 1)], [], [])
        violations = [v for v in validate(ds) if v.rule == "cluster.duplicate_id"]
        assert [v.record for v in violations] == ["g"]

    def test_duplicate_publication_year(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")],
            [Cluster("g", "G", 1)],
            [PublicationCount("j1", 2009, 5), PublicationCount("j1", 2009, 7)],
            [])
        assert "publication.duplicate" in rules(validate(ds))

    def test_negative_items(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")],
            [Cluster("g", "G", 1)],
            [PublicationCount("j1", 2009, -1)], [])
        assert "publication.negative_items" in rules(validate(ds))

    def test_publication_violations_listed_in_record_order(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g"), JournalRecord("j2", "Two", "g")],
            [Cluster("g", "G", 2)],
            [PublicationCount("j1", 2009, 5), PublicationCount("j1", 2009, -1),
             PublicationCount("j2", 2009, -2), PublicationCount("j2", 2010, 1),
             PublicationCount("j1", 2009, 7), PublicationCount("j1", 2 ** 63 - 1, 1)],
            [])
        assert [(v.rule, v.record) for v in validate(ds)] == [
            ("publication.duplicate", "j1/2009"),
            ("publication.negative_items", "j1/2009"),
            ("publication.negative_items", "j2/2009"),
            ("publication.duplicate", "j1/2009"),
        ]

    def test_inconsistent_paper(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")],
            [Cluster("g", "G", 1)], [],
            [("p1", "jX", 2010, "j1", 2009, 4),
             ("p1", "jX", 2010, "j1", 2008, 5)])
        assert "event.paper_inconsistent" in rules(validate(ds))

    def test_unknown_cited_journal(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")],
            [Cluster("g", "G", 1)], [],
            [("p1", "jX", 2010, "ghost", 2009, 4)])
        assert "event.unknown_cited_journal" in rules(validate(ds))

    def test_nonpositive_refs(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")],
            [Cluster("g", "G", 1)], [],
            [("p1", "jX", 2010, "j1", 2009, 0)])
        assert "event.nonpositive_refs" in rules(validate(ds))

    def test_excess_references(self):
        # two recorded references but the paper's full list has only one
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")],
            [Cluster("g", "G", 1)], [],
            [("p1", "jX", 2010, "j1", 2009, 1),
             ("p1", "jX", 2010, "j1", 2008, 1)])
        assert "event.excess_references" in rules(validate(ds))

    def test_event_violations_listed_per_rule_in_file_order(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")],
            [Cluster("g", "G", 1)], [],
            [("p1", "jX", 2010, "ghost", 2009, 0),
             ("p2", "jX", 2008, "j1", 2009, 3),
             ("p2", "jY", 2008, "j1", 2007, 3),
             ("p3", "jX", 2010, "j1", 2009, 1),
             ("p3", "jX", 2010, "j1", 2008, 1),
             ("p4", "jX", 2010, "gone", 2011, 2)])
        assert [(v.rule, v.record) for v in validate(ds)] == [
            ("event.nonpositive_refs", "p1"),
            ("event.causality", "p2"),
            ("event.causality", "p4"),
            ("event.paper_inconsistent", "p2"),
            ("event.unknown_cited_journal", "p1"),
            ("event.unknown_cited_journal", "p4"),
            ("event.excess_references", "p3"),
        ]

    def test_clean_dataset_invariants_hold(self, tiny_dataset):
        assert validate(tiny_dataset) == []
        ids = [j.journal_id for j in tiny_dataset.journals]
        assert len(ids) == len(set(ids))
        declared = {c.cluster_id for c in tiny_dataset.clusters}
        assert all(j.cluster_id in declared for j in tiny_dataset.journals)
        assert sum(c.size for c in tiny_dataset.clusters) == len(ids)
        for _, _, citing_year, cited_jid, cited_year, n_refs in tiny_dataset.citation_events.rows():
            assert n_refs >= 1
            assert cited_year <= citing_year
            assert cited_jid in tiny_dataset.partition


class TestEvents:
    ROWS = [("p1", "jB", 2010, "jA", 2009, 4), ("p2", "jC", 2010, "jA", 2005, 2)]

    def test_rows_round_trip(self):
        events = Events.from_rows(self.ROWS)
        assert len(events) == 2
        assert list(events.rows()) == self.ROWS
        assert events.citing_paper_id.codes.dtype == np.int32
        assert events.cited_year.dtype == np.int64

    def test_empty(self):
        events = Events.from_rows([])
        assert len(events) == 0
        assert list(events.rows()) == []
        assert events == Events.from_rows(iter(()))

    def test_equality(self):
        assert Events.from_rows(self.ROWS) == Events.from_rows(list(self.ROWS))
        assert Events.from_rows(self.ROWS) != Events.from_rows(self.ROWS[:1])
        changed = [self.ROWS[0], self.ROWS[1][:5] + (3,)]
        assert Events.from_rows(self.ROWS) != Events.from_rows(changed)
        assert Events.from_rows(self.ROWS) != self.ROWS

    def test_equal_in_any_vocabulary_order(self):
        events = Events.from_rows(self.ROWS)
        pids = events.citing_paper_id
        assert pids.values == ("p1", "p2")
        renumbered = Ids(1 - pids.codes, ("p2", "p1", "p9"))
        same = Events(renumbered, *events.columns()[1:])
        assert same == events and events == same
        assert list(same.rows()) == self.ROWS
        swapped = Events(Ids(pids.codes, ("p2", "p1")), *events.columns()[1:])
        assert swapped != events

    def test_columns_read_only(self):
        events = Events.from_rows(self.ROWS)
        with pytest.raises(ValueError):
            events.n_refs[0] = 1
        with pytest.raises(ValueError):
            events.cited_journal_id.codes[0] = 1
        with pytest.raises(AttributeError):
            events.n_refs = np.ones(2, dtype=np.int64)

    def test_unequal_column_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Events(["p1"], ["jB"], [2010], ["jA"], [2009], [4, 4])

    def test_iterates_rows(self):
        assert list(Events.from_rows(self.ROWS)) == self.ROWS
        assert list(Events.from_rows([])) == []


class TestPublicationCounts:
    ROWS = [("jA", 2009, 100), ("jB", 2010, 0), ("jA", 2010, 80)]

    def test_iterates_rows(self):
        counts = PublicationCounts.from_rows(self.ROWS)
        assert [row for row in counts] == self.ROWS
        assert list(counts[1:]) == self.ROWS[1:]
        assert list(PublicationCounts.from_rows([])) == []


class TestWindowCounts:
    def test_unknown_cited_journal_in_census_year_names_rule(self):
        # unvalidated: p2's census-year event cites a journal outside the dataset
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")], [Cluster("g", "G", 1)],
            [PublicationCount("j1", 2009, 10)],
            [("p1", "j1", 2009, "NOPE", 2008, 2), ("p1", "j1", 2009, "j1", 2008, 2),
             ("p2", "j1", 2010, "j1", 2009, 3), ("p2", "j1", 2010, "NOPE", 2009, 3)])
        with pytest.raises(ValidationError, match=r"^\[event\.unknown_cited_journal\] p2: "
                                                  r"cited journal 'NOPE' not in dataset$"):
            window_counts(ds)

    def test_unknown_cited_journal_outside_census_year_is_ignored(self):
        ds = make_dataset(
            [JournalRecord("j1", "One", "g")], [Cluster("g", "G", 1)],
            [PublicationCount("j1", 2009, 10)],
            [("p1", "j1", 2009, "NOPE", 2008, 2), ("p2", "j1", 2010, "j1", 2009, 3)])
        assert window_counts(ds).cites.tolist() == [[1, 1, 1]]


class TestDatasetHelpers:
    def test_partition(self, tiny_dataset):
        assert tiny_dataset.partition == {"jA": "g1", "jB": "g1", "jC": "g2"}

    def test_immutability(self, tiny_dataset):
        with pytest.raises(AttributeError):
            tiny_dataset.census_year = 2011
        with pytest.raises(AttributeError):
            tiny_dataset.journals[0].title = "renamed"


def test_cluster_order_key_sorts_numerically():
    ids = ["10", "2", "1", "13", "alpha", "9"]
    assert sorted(ids, key=cluster_order_key) == ["1", "2", "9", "10", "13", "alpha"]


def test_cluster_order_key_orders_every_id():
    # '²' is a digit to str.isdigit but not to int(); digits are compared as
    # text, so an id longer than int()'s digit limit still sorts
    long = "9" * 5_000
    ids = ["²", long, "A", "010", "9", "10"]
    assert sorted(ids, key=cluster_order_key) == ["9", "010", "10", long, "A", "²"]
