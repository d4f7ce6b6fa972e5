"""Immutable domain types: journals, clusters, publication counts, citation
events, and the Dataset bundle that ties them to one census year.

A Dataset is safe to share across threads; all record types are frozen and
the derived lookup tables are built lazily and never mutated afterwards.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "JournalRecord",
    "Cluster",
    "PublicationCount",
    "CitationEvent",
    "Dataset",
    "Violation",
    "validate",
    "cluster_order_key",
]


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One journal: the atomic unit of analysis."""

    journal_id: str
    title: str
    cluster_id: str


@dataclass(frozen=True, slots=True)
class Cluster:
    """A field category; ``size`` is the number of member journals."""

    cluster_id: str
    name: str
    size: int


@dataclass(frozen=True, slots=True)
class PublicationCount:
    """Citable items (articles, reviews, proceedings) of one journal-year."""

    journal_id: str
    year: int
    citable_items: int


@dataclass(frozen=True, slots=True)
class CitationEvent:
    """One reference from a citing paper to a cited journal.

    ``n_refs`` is the length of the citing paper's full reference list and
    is the source of the 1/n_refs fractional weight.
    """

    citing_paper_id: str
    citing_journal_id: str
    citing_year: int
    cited_journal_id: str
    cited_year: int
    n_refs: int


@dataclass(frozen=True)
class Violation:
    """One broken rule, naming the offending record."""

    rule: str
    record: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.record}: {self.message}"


def cluster_order_key(cluster_id: str):
    """Sort key that orders numeric cluster ids numerically ('2' < '10')."""
    return (0, int(cluster_id), "") if cluster_id.isdigit() else (1, 0, cluster_id)


@dataclass(frozen=True)
class Dataset:
    """A validated bundle of journals, clusters, counts and citation events.

    ``census_year`` is the evaluation year t: indicator windows are derived
    from it rather than passed per call.
    """

    journals: tuple[JournalRecord, ...]
    clusters: tuple[Cluster, ...]
    publication_counts: tuple[PublicationCount, ...]
    citation_events: tuple[CitationEvent, ...]
    census_year: int

    @cached_property
    def journal_ids(self) -> frozenset[str]:
        return frozenset(j.journal_id for j in self.journals)

    @cached_property
    def partition(self) -> dict[str, str]:
        """journal_id -> cluster_id for every journal."""
        return {j.journal_id: j.cluster_id for j in self.journals}

    @cached_property
    def cluster_names(self) -> dict[str, str]:
        return {c.cluster_id: c.name for c in self.clusters}

    @cached_property
    def items_by_journal_year(self) -> dict[tuple[str, int], int]:
        return {(p.journal_id, p.year): p.citable_items for p in self.publication_counts}


def validate(dataset: Dataset) -> list[Violation]:
    """Check every structural invariant; return one Violation per breach.

    Violations are data, not failures: a clean dataset yields an empty
    list, and identical input always yields the identical list.
    """
    violations: list[Violation] = []
    add = violations.append

    declared = {}
    for c in dataset.clusters:
        if c.cluster_id in declared:
            add(Violation("cluster.duplicate_id", c.cluster_id, "cluster declared twice"))
        declared[c.cluster_id] = c
        if c.size < 1:
            add(Violation("cluster.empty", c.cluster_id, f"declared size {c.size} < 1"))

    seen_journals: set[str] = set()
    membership: Counter[str] = Counter()
    for j in dataset.journals:
        if j.journal_id in seen_journals:
            add(Violation("journal.duplicate_id", j.journal_id, "journal_id occurs more than once"))
        seen_journals.add(j.journal_id)
        if j.cluster_id not in declared:
            add(Violation("journal.unknown_cluster", j.journal_id,
                          f"refers to undeclared cluster '{j.cluster_id}'"))
        membership[j.cluster_id] += 1

    for c in dataset.clusters:
        actual = membership.get(c.cluster_id, 0)
        if actual != c.size:
            add(Violation("cluster.size_mismatch", c.cluster_id,
                          f"declared size {c.size}, membership count {actual}"))
    if sum(c.size for c in dataset.clusters) != len(dataset.journals):
        add(Violation("cluster.size_sum", "<dataset>",
                      "declared cluster sizes do not sum to the journal count"))

    seen_counts: set[tuple[str, int]] = set()
    for p in dataset.publication_counts:
        key = (p.journal_id, p.year)
        if key in seen_counts:
            add(Violation("publication.duplicate", f"{p.journal_id}/{p.year}",
                          "more than one record for this journal-year"))
        seen_counts.add(key)
        if p.citable_items < 0:
            add(Violation("publication.negative_items", f"{p.journal_id}/{p.year}",
                          f"citable_items {p.citable_items} < 0"))

    journal_ids = seen_journals
    paper_info: dict[str, tuple[str, int, int]] = {}
    paper_events: Counter[str] = Counter()
    for ev in dataset.citation_events:
        pid = ev.citing_paper_id
        if ev.n_refs < 1:
            add(Violation("event.nonpositive_refs", pid, f"n_refs {ev.n_refs} < 1"))
        if ev.cited_year > ev.citing_year:
            add(Violation("event.causality", pid,
                          f"cited_year {ev.cited_year} > citing_year {ev.citing_year}"))
        info = (ev.citing_journal_id, ev.citing_year, ev.n_refs)
        prev = paper_info.setdefault(pid, info)
        if prev != info:
            add(Violation("event.paper_inconsistent", pid,
                          "events of one citing paper disagree on journal, year or n_refs"))
        if ev.cited_journal_id not in journal_ids:
            add(Violation("event.unknown_cited_journal", pid,
                          f"cited journal '{ev.cited_journal_id}' not in dataset"))
        paper_events[pid] += 1
    for pid, n_events in paper_events.items():
        n_refs = paper_info[pid][2]
        if n_events > n_refs >= 1:
            add(Violation("event.excess_references", pid,
                          f"{n_events} recorded references exceed n_refs={n_refs}"))

    return violations
