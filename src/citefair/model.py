"""Immutable domain types: journals, clusters, publication counts and
citation events (both as columns), the Dataset bundle that ties them to
one census year, and the per-journal window counts that every indicator
is computed from.

A Dataset is safe to share across threads; all record types are frozen, the
columns are read-only, and the derived lookup tables are built lazily and
never mutated afterwards.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "JournalRecord",
    "Cluster",
    "Ids",
    "PerId",
    "PublicationCounts",
    "Events",
    "Dataset",
    "WindowCounts",
    "WindowCounter",
    "window_counts",
    "WINDOWS",
    "Violation",
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


class PerId:
    """Per row of an Ids column, ``f`` of its id, computed once per distinct
    id.  The results are kept for the next column: when its ids begin with
    those of the last, as a reader's vocabulary grows batch after batch,
    only the ids after them are computed."""

    def __init__(self, f: Callable[[str], object], dtype=bool):
        self.f, self.dtype = f, dtype
        self.values: tuple[str, ...] = ()
        self.results = np.zeros(0, dtype)

    def __call__(self, ids: Ids) -> np.ndarray:
        if ids.values is not self.values:
            known = len(self.values)
            if ids.values[:known] != self.values:
                known = 0
            new = ids.values[known:]
            self.results = np.concatenate([self.results[:known],
                                           np.fromiter(map(self.f, new), self.dtype, len(new))])
            self.values = ids.values
        return self.results[ids.codes]


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


def _grown(array: np.ndarray, size: int, fill) -> np.ndarray:
    return np.concatenate([array, np.full(size - len(array), fill, array.dtype)])


class Leads:
    """The first row of each code and that row's fields, carried from one
    batch of rows to the next; rows are numbered over all batches.  Codes
    are non-negative integers."""

    def __init__(self):
        self.rows = 0
        self.first = np.zeros(0, np.int64)  # -1 for a code not met yet
        self.fields: list[np.ndarray] = []

    def conflicts(self, codes: np.ndarray, *fields: np.ndarray) -> np.ndarray:
        """Which rows of this batch differ in any of ``fields`` from the
        first row of their code."""
        if not self.fields:
            self.fields = [np.zeros(0, field.dtype) for field in fields]
        size = int(codes.max(initial=-1)) + 1
        if size > len(self.first):
            size = max(size, 2 * len(self.first))
            self.first = _grown(self.first, size, -1)
            self.fields = [_grown(store, size, 0) for store in self.fields]
        new = np.flatnonzero(self.first[codes] < 0)
        if len(new):
            met, at = np.unique(codes[new], return_index=True)
            self.first[met] = self.rows + new[at]
            for store, field in zip(self.fields, fields):
                store[met] = field[new[at]]
        self.rows += len(codes)
        differs = np.zeros(len(codes), bool)
        for store, field in zip(self.fields, fields):
            differs |= store[codes] != field
        return differs


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
    """Sort key that puts ids of ASCII digits first, in numeric order
    ('2' < '10'), then the others as strings.  Digits are compared as text,
    so no id is too long to order."""
    if cluster_id.isascii() and cluster_id.isdigit():
        digits = cluster_id.lstrip("0")
        return (0, len(digits), digits)
    return (1, 0, cluster_id)


@dataclass(frozen=True)
class Dataset:
    """A bundle of journals, clusters, counts and citation events, taken as
    given: ingest_bundle enforces the rules on the files as it reads them,
    and no library code checks a Dataset built by hand.

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


class WindowCounter:
    """window_counts as an accumulator: the events are added a batch at a
    time, in event order, and the citable items last (counts).

    Each batch becomes columns: the cited journal's index, the weight
    1/n_refs and the citation age t - cited_year, kept only as one row mask
    per window.  The cites and the weights go into running sums with
    np.add.at, one addition per event in event order, so the float64 sums
    are those of one bincount over all events, bit for bit, however the
    events are batched, and a batch costs no work per journal; adding up
    per-batch or per-age sums instead would reorder the float additions and
    change their last bits.  A census-year event citing a journal outside
    the dataset raises ValidationError naming the event.unknown_cited_journal
    rule.
    """

    def __init__(self, journal_ids: tuple[str, ...], census_year: int):
        self.journal_ids, self.census_year = journal_ids, census_year
        index = {jid: i for i, jid in enumerate(journal_ids)}
        # per row, the index of its journal, or -1 for a journal not in the dataset
        self.journal_index = PerId(lambda jid: index.get(jid, -1), np.intp)
        self.cites = [np.zeros(len(journal_ids), np.int64) for _ in WINDOWS]
        self.fractional = [np.zeros(len(journal_ids), np.float64) for _ in WINDOWS]

    def add(self, events: Events) -> None:
        now = events.citing_year == self.census_year
        if not now.any():
            return
        age = self.census_year - events.cited_year[now]
        cited = self.journal_index(events.cited_journal_id)[now]
        if cited.min() < 0:
            i = int(np.flatnonzero(now)[np.argmax(cited < 0)])
            raise ValidationError(str(Violation(
                "event.unknown_cited_journal", events.citing_paper_id[i],
                f"cited journal '{events.cited_journal_id[i]}' not in dataset")))
        weight = 1.0 / events.n_refs[now]
        windows = ((age >= 1) & (age <= 2), (age >= 1) & (age <= 5), slice(None))
        for cites, fractional, w in zip(self.cites, self.fractional, windows):
            np.add.at(cites, cited[w], 1)
            np.add.at(fractional, cited[w], weight[w])

    def counts(self, publication_counts: PublicationCounts) -> WindowCounts:
        """The window counts of the events added so far and of the citable
        items of ``publication_counts``."""
        # items[i, a]: citable items of journal i in year t - a, for a = 0..5.
        # Fancy assignment leaves the winner among repeated cells unspecified,
        # so the last record of a repeated journal-year is picked explicitly.
        t = self.census_year
        journal, year = self.journal_index(publication_counts.journal_id), publication_counts.year
        rows = np.flatnonzero((journal >= 0) & (year <= t) & (year >= t - 5))
        journal, ago = journal[rows], t - year[rows]
        last = ~repeats(journal[::-1], ago[::-1])[::-1]
        items = np.zeros((len(self.journal_ids), 6), dtype=np.int64)
        items[journal[last], ago[last]] = publication_counts.citable_items[rows][last]
        return WindowCounts(
            journal_ids=self.journal_ids,
            census_year=t,
            cites=np.column_stack(self.cites),
            fractional=np.column_stack(self.fractional),
            items=np.column_stack([items[:, 1:3].sum(axis=1), items[:, 1:6].sum(axis=1),
                                   items[:, 0]]),
        )


def window_counts(dataset: Dataset) -> WindowCounts:
    """Sum the census-year events and the citable items per journal and
    window: a WindowCounter fed the dataset's events as one batch."""
    counter = WindowCounter(tuple(j.journal_id for j in dataset.journals), dataset.census_year)
    counter.add(dataset.citation_events)
    return counter.counts(dataset.publication_counts)


def _causality(events: Events, limit: int | None = None) -> tuple[list[Violation], int]:
    """The first ``limit`` (default all) violations of the causality rule
    among ``events``, in event order, and the number found."""
    rows = np.flatnonzero(events.cited_year > events.citing_year)
    return [Violation("event.causality", events.citing_paper_id[i],
                      f"cited_year {events.cited_year[i]} > citing_year {events.citing_year[i]}")
            for i in rows[:limit].tolist()], len(rows)


def _excess_references(n_events: np.ndarray, first: np.ndarray, n_refs: np.ndarray,
                       ids: Iterable[str], limit: int | None = None
                       ) -> tuple[list[Violation], int]:
    """The first ``limit`` (default all) violations of the excess_references
    rule, one per citing paper with more events than its n_refs >= 1, listed
    by its first event, and the number found.  The arrays are indexed by
    paper code; ``ids`` gives the paper ids in code order."""
    papers = np.flatnonzero(n_events)
    papers = papers[(n_events[papers] > n_refs[papers]) & (n_refs[papers] >= 1)]
    shown = papers[np.argsort(first[papers], kind="stable")][:limit].tolist()
    ids = tuple(ids) if shown else ()
    return [Violation("event.excess_references", ids[p],
                      f"{n_events[p]} recorded references exceed n_refs={n_refs[p]}")
            for p in shown], len(papers)
