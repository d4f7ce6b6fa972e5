"""Immutable domain types: journals, clusters, publication counts, citation
events (as columns), the Dataset bundle that ties them to one census year,
and the per-journal window counts that every indicator is computed from.

A Dataset is safe to share across threads; all record types are frozen, event
columns are read-only, and the derived lookup tables are built lazily and
never mutated afterwards.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "JournalRecord",
    "Cluster",
    "PublicationCount",
    "Events",
    "Dataset",
    "WindowCounts",
    "window_counts",
    "WINDOWS",
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


WINDOW_ALL = "all"
# Citation windows, in the column order of WindowCounts: the 2 and 5 years
# before the census year, and all years up to it.
WINDOWS = (2, 5, WINDOW_ALL)

EVENT_COLUMNS = ("citing_paper_id", "citing_journal_id", "citing_year",
                 "cited_journal_id", "cited_year", "n_refs")


@dataclass(frozen=True, eq=False)
class Events:
    """Citation events, one reference from a citing paper to a cited journal
    each, as six equal-length read-only columns in file order: ``object``
    arrays of ``str`` ids and ``int64`` years and ``n_refs``.  ``n_refs`` is
    the length of the citing paper's full reference list and is the source
    of the 1/n_refs fractional weight.
    """

    citing_paper_id: np.ndarray
    citing_journal_id: np.ndarray
    citing_year: np.ndarray
    cited_journal_id: np.ndarray
    cited_year: np.ndarray
    n_refs: np.ndarray

    def __post_init__(self):
        for name in EVENT_COLUMNS:
            column = np.asarray(getattr(self, name),
                                dtype=object if name.endswith("_id") else np.int64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if len({len(getattr(self, name)) for name in EVENT_COLUMNS}) != 1:
            raise ValueError("event columns differ in length")

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> Events:
        """Events from tuples in ``EVENT_COLUMNS`` order."""
        return cls(*(list(zip(*rows)) or [()] * len(EVENT_COLUMNS)))

    def rows(self) -> Iterator[tuple]:
        """Iterate the events as tuples of plain str and int, in column order."""
        return zip(*(getattr(self, name).tolist() for name in EVENT_COLUMNS))

    def __len__(self) -> int:
        return len(self.n_refs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Events) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in EVENT_COLUMNS)


def _isin(column: np.ndarray, ids) -> np.ndarray:
    """Which entries of an id column are in ``ids`` (np.isin is quadratic here)."""
    return np.fromiter(map(ids.__contains__, column.tolist()), bool, len(column))


def vocabulary() -> defaultdict:
    """An empty value -> code mapping that gives each new value the next code."""
    return defaultdict(count().__next__)


def encode(values: Sequence, index: defaultdict | None = None) -> np.ndarray:
    """An int32 code per value, numbering the distinct values in order of
    first appearance; ``index`` (from vocabulary) carries the numbering on
    from one call to the next."""
    index = vocabulary() if index is None else index
    return np.fromiter(map(index.__getitem__, values), np.int32, len(values))


def _first_rows(codes: np.ndarray) -> np.ndarray:
    """The index of each code's first row (len(codes) for an unused code)."""
    first = np.full(int(codes.max(initial=-1)) + 1, len(codes), np.intp)
    np.minimum.at(first, codes, np.arange(len(codes)))
    return first


def paper_conflicts(paper: np.ndarray, *fields: np.ndarray) -> np.ndarray:
    """The ascending indices of the events that differ in any of ``fields``
    from the first event of their citing paper; ``paper`` holds one
    non-negative integer code per citing paper."""
    lead = _first_rows(paper)[paper]
    differs = np.zeros(len(paper), bool)
    for field in fields:
        differs |= field[lead] != field
    return np.flatnonzero(differs)


def repeats(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Which rows repeat the (first, second) pair of an earlier row; both
    columns hold non-negative integer codes."""
    key = first.astype(np.int64) * (int(second.max(initial=-1)) + 1) + second
    repeat = np.ones(len(key), bool)
    repeat[np.unique(key, return_index=True)[1]] = False
    return repeat


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
    citation_events: Events
    census_year: int

    @cached_property
    def partition(self) -> dict[str, str]:
        """journal_id -> cluster_id for every journal."""
        return {j.journal_id: j.cluster_id for j in self.journals}

    @cached_property
    def cluster_names(self) -> dict[str, str]:
        return {c.cluster_id: c.name for c in self.clusters}


@dataclass(frozen=True, eq=False)
class WindowCounts:
    """What the indicators of a census depend on: one row per journal, in
    journal order, and one column per citation window, in ``WINDOWS`` order.

    ``cites`` (int64) counts the census-year citations in the window and
    ``fractional`` (float64) sums their 1/n_refs weights; ``items`` (int64)
    holds the citable items the window's ratio divides by: those published
    1..2 and 1..5 years before the census year (IF2, IF5) and, for the c/p
    ratio of window "all", those published in the census year itself.
    """

    journal_ids: tuple[str, ...]
    census_year: int
    cites: np.ndarray
    fractional: np.ndarray
    items: np.ndarray


def window_counts(dataset: Dataset) -> WindowCounts:
    """Sum the census-year events and the citable items per journal and window.

    The events become columns in event order: the cited journal's index,
    the weight 1/n_refs and the citation age t - cited_year, kept only as
    one row mask per window.  Each sum is one bincount over the rows of
    its window, in event order: adding up per-age sums instead would
    reorder the float additions and change the fractional sums' last bits.
    The items come from one journal x age matrix.
    """
    t = dataset.census_year
    journal_ids = tuple(j.journal_id for j in dataset.journals)
    n = len(journal_ids)
    index = {jid: i for i, jid in enumerate(journal_ids)}
    events = dataset.citation_events
    now = events.citing_year == t
    age = events.citing_year[now] - events.cited_year[now]
    cited = np.fromiter(map(index.__getitem__, events.cited_journal_id[now].tolist()), np.intp)
    weight = 1.0 / events.n_refs[now]
    windows = ((age >= 1) & (age <= 2), (age >= 1) & (age <= 5), slice(None))

    # items[i, a]: citable items of journal i in year t - a, for a = 0..5;
    # the last record of a repeated journal-year wins.
    items = np.zeros((n, 6), dtype=np.int64)
    for p in dataset.publication_counts:
        if p.journal_id in index and 0 <= t - p.year <= 5:
            items[index[p.journal_id], t - p.year] = p.citable_items

    return WindowCounts(
        journal_ids=journal_ids,
        census_year=t,
        cites=np.column_stack([np.bincount(cited[w], minlength=n) for w in windows]),
        fractional=np.column_stack([np.bincount(cited[w], weight[w], n) for w in windows]),
        items=np.column_stack([items[:, 1:3].sum(axis=1), items[:, 1:6].sum(axis=1),
                               items[:, 0]]),
    )


def validate(dataset: Dataset) -> list[Violation]:
    """Check every structural invariant; return one Violation per breach.

    Violations are data, not failures: a clean dataset yields an empty
    list, and identical input always yields the identical list.  Event
    violations come rule by rule, each rule's in event (file) order.
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

    counts = dataset.publication_counts
    repeat = repeats(encode([p.journal_id for p in counts]), encode([p.year for p in counts]))
    negative = np.fromiter((p.citable_items < 0 for p in counts), bool, len(counts))
    for i in np.flatnonzero(repeat | negative).tolist():
        p = counts[i]
        if repeat[i]:
            add(Violation("publication.duplicate", f"{p.journal_id}/{p.year}",
                          "more than one record for this journal-year"))
        if negative[i]:
            add(Violation("publication.negative_items", f"{p.journal_id}/{p.year}",
                          f"citable_items {p.citable_items} < 0"))

    events = dataset.citation_events
    pids, n_refs = events.citing_paper_id, events.n_refs
    for i in np.flatnonzero(n_refs < 1).tolist():
        add(Violation("event.nonpositive_refs", pids[i], f"n_refs {n_refs[i]} < 1"))
    for i in np.flatnonzero(events.cited_year > events.citing_year).tolist():
        add(Violation("event.causality", pids[i], f"cited_year {events.cited_year[i]} "
                      f"> citing_year {events.citing_year[i]}"))
    paper = encode(pids.tolist())
    for i in paper_conflicts(paper, events.citing_journal_id, events.citing_year, n_refs).tolist():
        add(Violation("event.paper_inconsistent", pids[i],
                      "events of one citing paper disagree on journal, year or n_refs"))
    for i in np.flatnonzero(~_isin(events.cited_journal_id, seen_journals)).tolist():
        add(Violation("event.unknown_cited_journal", pids[i],
                      f"cited journal '{events.cited_journal_id[i]}' not in dataset"))
    # Papers are coded in order of first appearance, so ``first`` ascends.
    first, n_events = _first_rows(paper), np.bincount(paper)
    paper_refs = n_refs[first]
    for i in first[(n_events > paper_refs) & (paper_refs >= 1)].tolist():
        add(Violation("event.excess_references", pids[i],
                      f"{n_events[paper[i]]} recorded references exceed n_refs={n_refs[i]}"))

    return violations
