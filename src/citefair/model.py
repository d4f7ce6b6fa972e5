"""Immutable domain types: journals, clusters, publication counts and
citation events (both as columns), the Dataset bundle that ties them to
one census year, and the per-journal window counts that every indicator
is computed from.

A Dataset is safe to share across threads; all record types are frozen, the
columns are read-only, and the derived lookup tables are built lazily and
never mutated afterwards.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import ClassVar, Collection, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "JournalRecord",
    "Cluster",
    "Ids",
    "PublicationCounts",
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


WINDOW_ALL = "all"
# Citation windows, in the column order of WindowCounts: the 2 and 5 years
# before the census year, and all years up to it.
WINDOWS = (2, 5, WINDOW_ALL)

PUBLICATION_COLUMNS = ("journal_id", "year", "citable_items")
EVENT_COLUMNS = ("citing_paper_id", "citing_journal_id", "citing_year",
                 "cited_journal_id", "cited_year", "n_refs")


def vocabulary() -> defaultdict:
    """An empty value -> code mapping that gives each new value the next code."""
    return defaultdict(count().__next__)


def encode(values: Sequence, index: defaultdict) -> np.ndarray:
    """An int32 code per value, numbering the distinct values in order of
    first appearance; ``index`` (from vocabulary) carries the numbering on
    from one call to the next."""
    return np.fromiter(map(index.__getitem__, values), np.int32, len(values))


@dataclass(frozen=True, eq=False)
class Ids:
    """A column of string ids: a read-only int32 code per row into
    ``values``, the distinct ids.  Files and synth number the ids in order
    of first appearance; once rows are dropped, ``values`` may still list
    ids that no row uses.  Work per id is done once per distinct id and
    spread to the rows with ``[codes]`` (expand)."""

    codes: np.ndarray
    values: tuple[str, ...]

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int32)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows):
        """The id of one row, or the Ids of the rows a mask, slice or index array selects."""
        codes = self.codes[rows]
        return self.values[codes] if codes.ndim == 0 else Ids(codes, self.values)

    def expand(self, per_value: Iterable, dtype=bool) -> np.ndarray:
        """Per row, the entry of ``per_value`` (one per distinct id) for its id."""
        return np.fromiter(per_value, dtype, len(self.values))[self.codes]

    def isin(self, ids: Collection[str]) -> np.ndarray:
        """Per row, whether its id is in ``ids``."""
        return self.expand(map(ids.__contains__, self.values))

    def strings(self) -> np.ndarray:
        """The ids row by row, as an ``object`` array of ``str``."""
        return np.array(self.values, object)[self.codes]

    def __eq__(self, other) -> bool:
        """Equal rows of ids, however each side numbers them."""
        if not isinstance(other, Ids) or len(self) != len(other):
            return False
        index = {value: code for code, value in enumerate(other.values)}
        return bool(np.array_equal(self.expand((index.get(v, -1) for v in self.values), np.intp),
                                   other.codes))


class _Record:
    """Equal-length read-only columns in row order, one per name in
    ``COLUMNS``: Ids for the ``*_id`` columns, ``int64`` for the others.
    A plain sequence of ids is coded on construction."""

    COLUMNS: ClassVar[tuple[str, ...]]

    def __post_init__(self):
        for name in self.COLUMNS:
            column = getattr(self, name)
            if not name.endswith("_id"):
                column = np.asarray(column, dtype=np.int64)
                column.flags.writeable = False
            elif not isinstance(column, Ids):
                index = vocabulary()
                column = Ids(encode(column, index), index)
            object.__setattr__(self, name, column)
        if len({len(column) for column in self.columns()}) != 1:
            raise ValueError(f"{type(self).__name__} columns differ in length")

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]):
        """A record from tuples in ``COLUMNS`` order."""
        return cls(*(list(zip(*rows)) or [()] * len(cls.COLUMNS)))

    def columns(self) -> list:
        return [getattr(self, name) for name in self.COLUMNS]

    def rows(self) -> Iterator[tuple]:
        """Iterate the rows as tuples of plain str and int, in column order."""
        return zip(*(column.strings().tolist() if isinstance(column, Ids) else column.tolist()
                     for column in self.columns()))

    def __iter__(self) -> Iterator[tuple]:
        return self.rows()

    def __len__(self) -> int:
        return len(getattr(self, self.COLUMNS[-1]))

    def __getitem__(self, rows):
        """The rows a mask, slice or index array selects, as a record of the same type."""
        return type(self)(*(column[rows] for column in self.columns()))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            a == b if isinstance(a, Ids) else np.array_equal(a, b)
            for a, b in zip(self.columns(), other.columns()))


@dataclass(frozen=True, eq=False)
class PublicationCounts(_Record):
    """Citable items (articles, reviews, proceedings) per journal-year, in
    file order."""

    COLUMNS: ClassVar = PUBLICATION_COLUMNS
    journal_id: Ids
    year: np.ndarray
    citable_items: np.ndarray


@dataclass(frozen=True, eq=False)
class Events(_Record):
    """Citation events, one reference from a citing paper to a cited journal
    each, in file order: three Ids columns and ``int64`` years and
    ``n_refs``.  ``n_refs`` is the length of the citing paper's full
    reference list and is the source of the 1/n_refs fractional weight.
    """

    COLUMNS: ClassVar = EVENT_COLUMNS
    citing_paper_id: Ids
    citing_journal_id: Ids
    citing_year: np.ndarray
    cited_journal_id: Ids
    cited_year: np.ndarray
    n_refs: np.ndarray


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


def repeats(first: np.ndarray, second: np.ndarray | None = None) -> np.ndarray:
    """Which rows repeat the ``first`` code, or the (first, second) pair of
    codes, of an earlier row; codes are non-negative integers."""
    key = first.astype(np.int64)
    if second is not None:
        key = key * (int(second.max(initial=-1)) + 1) + second
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
    publication_counts: PublicationCounts
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
    The items come from one journal x age matrix.  A census-year event
    citing a journal outside the dataset raises ValidationError naming the
    event.unknown_cited_journal rule.
    """
    t = dataset.census_year
    journal_ids = tuple(j.journal_id for j in dataset.journals)
    n = len(journal_ids)
    index = {jid: i for i, jid in enumerate(journal_ids)}

    def journal_index(ids: Ids) -> np.ndarray:
        """Per row, the index of its journal, or -1 for a journal not in the dataset."""
        return ids.expand((index.get(v, -1) for v in ids.values), np.intp)

    events = dataset.citation_events
    now = events.citing_year == t
    age = events.citing_year[now] - events.cited_year[now]
    cited = journal_index(events.cited_journal_id)[now]
    if cited.min(initial=0) < 0:
        i = int(np.flatnonzero(now)[np.argmax(cited < 0)])
        raise ValidationError(str(Violation(
            "event.unknown_cited_journal", events.citing_paper_id[i],
            f"cited journal '{events.cited_journal_id[i]}' not in dataset")))
    weight = 1.0 / events.n_refs[now]
    windows = ((age >= 1) & (age <= 2), (age >= 1) & (age <= 5), slice(None))

    # items[i, a]: citable items of journal i in year t - a, for a = 0..5.
    # Fancy assignment leaves the winner among repeated cells unspecified,
    # so the last record of a repeated journal-year is picked explicitly.
    counts = dataset.publication_counts
    journal, year = journal_index(counts.journal_id), counts.year
    rows = np.flatnonzero((journal >= 0) & (year <= t) & (year >= t - 5))
    journal, ago = journal[rows], t - year[rows]
    last = ~repeats(journal[::-1], ago[::-1])[::-1]
    items = np.zeros((n, 6), dtype=np.int64)
    items[journal[last], ago[last]] = counts.citable_items[rows][last]

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
    jids, years, items = counts.journal_id, counts.year, counts.citable_items
    repeat = repeats(jids.codes, np.unique(years, return_inverse=True)[1])
    negative = items < 0
    for i in np.flatnonzero(repeat | negative).tolist():
        record = f"{jids[i]}/{years[i]}"
        if repeat[i]:
            add(Violation("publication.duplicate", record,
                          "more than one record for this journal-year"))
        if negative[i]:
            add(Violation("publication.negative_items", record,
                          f"citable_items {items[i]} < 0"))

    events = dataset.citation_events
    pids, cited, n_refs = events.citing_paper_id, events.cited_journal_id, events.n_refs
    for i in np.flatnonzero(n_refs < 1).tolist():
        add(Violation("event.nonpositive_refs", pids[i], f"n_refs {n_refs[i]} < 1"))
    for i in np.flatnonzero(events.cited_year > events.citing_year).tolist():
        add(Violation("event.causality", pids[i], f"cited_year {events.cited_year[i]} "
                      f"> citing_year {events.citing_year[i]}"))
    paper = pids.codes
    for i in paper_conflicts(paper, events.citing_journal_id.codes, events.citing_year,
                             n_refs).tolist():
        add(Violation("event.paper_inconsistent", pids[i],
                      "events of one citing paper disagree on journal, year or n_refs"))
    for i in np.flatnonzero(~cited.isin(seen_journals)).tolist():
        add(Violation("event.unknown_cited_journal", pids[i],
                      f"cited journal '{cited[i]}' not in dataset"))
    # One entry per citing paper that has events, listed by its first event.
    first = _first_rows(paper)
    n_events = np.bincount(paper, minlength=len(first))
    first, n_events = first[n_events > 0], n_events[n_events > 0]
    excess = (n_events > n_refs[first]) & (n_refs[first] >= 1)
    for i, n in sorted(zip(first[excess].tolist(), n_events[excess].tolist())):
        add(Violation("event.excess_references", pids[i],
                      f"{n} recorded references exceed n_refs={n_refs[i]}"))

    return violations
