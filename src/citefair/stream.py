"""The one-pass census: the bundle that ingest makes of the three input
files (ingest_bundle), with the exclusion policy applied and every rule
checked, reading the citations file once.  Only the ingest command runs
this module; the other commands read the bundle it writes through
ingest.load_counts and ingest.load_partition.

The journals and publications files are read whole.  The citations file
is read once, batch by batch (_CitationReader): each citing paper's first
event is carried from batch to batch, so the rules need no earlier batch.
_census parses the journals and publications files, passes each batch on
through the exclusion policy (_Assembly) and the WindowCounter of the
model, checks the two event rules that the parsers and the policy leave
open (event.causality and event.excess_references), and writes its kept
rows; what stays in memory is one batch and the per-paper and
per-journal state, however long the file.
"""

from __future__ import annotations

import operator
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CiteFairError, IngestWarning, ParseError, ValidationError
from .ingest import (CITATION_COLUMNS, CITATIONS_FILE, INT64, IngestConfig, IngestSummary,
                     _batches, _Column, _column, _first_error, _fits, _integer, _staged,
                     _write_bundle, _Writer, parse_journals, parse_publications)
from .model import (Cluster, Events, JournalRecord, PerId, PublicationCounts, Violation,
                    WindowCounter, encode, vocabulary)
from .schema import POLICY_ERROR

__all__ = ["ingest_bundle"]

# Violations named in a validation error; the rest are only counted.
_SHOWN = 5


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


class _CitationReader:
    """The events of a citations file, read and checked a batch at a time.

    Iterating yields one Events per chunk (_batches) whose rows pass the
    rules of the file, without the rows whose n_refs is 0, which are
    counted in ``zero_refs`` (or, under zero_refs_policy "error", are an
    error).  n_refs must be a positive integer and years and n_refs must
    fit in 64 bits; the events of one citing paper must agree on citing
    journal, citing year and n_refs.  The rules are checked per batch in
    file order, so the earliest row that breaks one is reported.  Each citing
    paper's first event is carried from batch to batch (Leads), the papers
    numbered by ``papers``.  Both journal columns are coded over one
    vocabulary, ``journals``, seeded with ``journal_ids``, and share one
    tuple of its ids, remade only when a batch adds ids, so work done per
    journal id (PerId) is done once.  After each batch, ``text`` holds its
    text when that is also how the bundle writes its rows: a plain chunk of
    tab-separated rows in the bundle's column order, none dropped, every
    integer written as str writes it; else None.
    """

    def __init__(self, path: str | Path, config: IngestConfig, journal_ids: Sequence[str] = ()):
        self.path, self.config = Path(path), config
        self.papers = vocabulary()
        self.paper_code = PerId(self.papers.__getitem__, np.int32)
        self.journals = vocabulary()
        encode(journal_ids, self.journals)
        self.journal_ids = tuple(self.journals)
        self.leads = Leads()
        self.zero_refs = 0
        self.text: str | None = None

    def __iter__(self) -> Iterator[Events]:
        for lines, (pids, citing, citing_years, cited, cited_years, n_refs), text in _batches(
                self.path, self.config.delimiter, CITATION_COLUMNS):
            numbers = list(map(_column, (citing_years, cited_years, n_refs)))
            citing, cited = encode(citing, self.journals), encode(cited, self.journals)
            if len(self.journals) > len(self.journal_ids):
                self.journal_ids = tuple(self.journals)
            batch = self._checked(lines, [_column(pids), _Column(citing, self.journal_ids),
                                          numbers[0], _Column(cited, self.journal_ids),
                                          *numbers[1:]])
            self.text = None
            if (text is not None and self.config.delimiter == "\t" and len(batch) == len(lines)
                    and all(str(v) == raw for c in numbers for v, raw in zip(c.numbers, c.values))):
                self.text = text if text.endswith("\n") else text + "\n"
            yield batch
        if self.zero_refs:
            warnings.warn(f"{self.path}: dropped {self.zero_refs} citation row(s) with n_refs=0",
                          IngestWarning, stacklevel=2)

    def _checked(self, lines: Sequence[int], columns: list[_Column]) -> Events:
        path = self.path
        pids, citing_jids, citing_years, cited_jids, cited_years, n_refs = columns
        numbers = (citing_years, cited_years, n_refs)
        citing_year, cited_year, n_refs_value = (c.int64() for c in numbers)
        zero = n_refs.expand(v == 0 for v in n_refs.numbers)
        keep = np.flatnonzero(~zero) if zero.any() else slice(None)
        conflict = np.zeros(len(zero), bool)
        conflict[keep] = self.leads.conflicts(self.paper_code(pids)[keep], citing_jids.codes[keep],
                                              citing_year[keep], n_refs_value[keep])

        def raws(i: int) -> str:
            return ", ".join(repr(c[i]) for c in numbers)

        error = _first_error(lines.__getitem__, [
            (pids.empty(), lambda line, i: ParseError(path, line, "empty citing_paper_id")),
            (cited_jids.codes == self.journals.get("", -1),
             lambda line, i: ParseError(path, line, "empty cited_journal_id")),
            (np.logical_or.reduce([c.expand(v is None for v in c.numbers) for c in numbers]),
             lambda line, i: ParseError(path, line,
                                        f"years and n_refs must be integers: {raws(i)}")),
            (zero & (self.config.zero_refs_policy == POLICY_ERROR),
             lambda line, i: ParseError(path, line, "n_refs is 0")),
            (n_refs.expand(v is not None and v < 0 for v in n_refs.numbers),
             lambda line, i: ParseError(
                 path, line, f"n_refs must be positive, got {_integer(n_refs[i])}")),
            (~zero & np.logical_or.reduce([c.expand(not _fits(v) for v in c.numbers)
                                           for c in numbers]),
             lambda line, i: ParseError(path, line,
                                        f"years and n_refs must fit in 64 bits: {raws(i)}")),
            (conflict, lambda line, i: ValidationError(
                f"{path}:{line}: citing paper '{pids[i]}' conflicts with an earlier "
                f"row on (citing_journal_id, citing_year, n_refs)")),
        ])
        if error:
            raise error
        self.zero_refs += int(zero.sum())
        return Events(pids[keep], citing_jids[keep], citing_year[keep],
                      cited_jids[keep], cited_year[keep], n_refs_value[keep])


class _Assembly:
    """The exclusion policy, applied to the events a batch at a time.

    Clusters whose size (Cluster.size, as parse_journals counts it) is below
    ``min_cluster_size`` are removed with their journals and their
    publication counts at once; ``keep`` drops the events citing or
    cited by their journals, and the events citing unknown journals, and
    counts both; ``finish`` raises the errors of the whole census.
    """

    def __init__(self, journals: Sequence[JournalRecord], clusters: Sequence[Cluster],
                 publication_counts: PublicationCounts, config: IngestConfig):
        self.config = config
        self.clusters = [c for c in clusters if c.size >= config.min_cluster_size]
        self.excluded = [(c.cluster_id, c.name, c.size) for c in clusters
                         if c.size < config.min_cluster_size]
        excluded_ids = {cid for cid, _, _ in self.excluded}
        self.journals = [j for j in journals if j.cluster_id not in excluded_ids]
        self.excluded_journals = len(journals) - len(self.journals)
        # per journal id: 1 kept, -1 dropped with its cluster, 0 outside the census
        status = {j.journal_id: -1 if j.cluster_id in excluded_ids else 1 for j in journals}
        self.status = PerId(lambda jid: status.get(jid, 0), np.int8)
        kept = self.status(publication_counts.journal_id) > 0
        self.counts = publication_counts if kept.all() else publication_counts[kept]
        self.counts_dropped = len(publication_counts) - len(self.counts)
        self.dropped = self.unknown = self.kept = 0
        self.first_unknown: Violation | None = None
        self.latest: int | None = None  # the latest citing year of a kept event

    def keep(self, events: Events) -> Events:
        """The events of a batch that the policy keeps."""
        cited = events.cited_journal_id
        cited_status = self.status(cited)
        dropped = (cited_status < 0) | (self.status(events.citing_journal_id) < 0)
        unknown = ~dropped & (cited_status == 0)
        if unknown.any() and self.first_unknown is None:
            i = int(unknown.argmax())
            self.first_unknown = Violation("event.unknown_cited_journal",
                                           events.citing_paper_id[i],
                                           f"cited journal '{cited[i]}' not in dataset")
        keep = ~(dropped | unknown)
        events = events if keep.all() else events[keep]
        self.dropped += int(dropped.sum())
        self.unknown += int(unknown.sum())
        self.kept += len(events)
        if len(events):
            latest = int(events.citing_year.max())
            self.latest = latest if self.latest is None else max(self.latest, latest)
        return events

    def finish(self, census_year: int | None) -> int:
        """The census year, ``census_year`` or else the latest citing year
        kept, once the kept journals and events are known to make a census;
        under unknown_cited_policy "error", the first event citing an
        unknown journal is a violation of the assembled dataset."""
        if not self.journals:
            raise ValidationError("assembly produced an empty dataset (no journals retained)")
        if self.first_unknown and self.config.unknown_cited_policy == POLICY_ERROR:
            _raise_invalid([self.first_unknown], 1)
        if census_year is None:
            if self.latest is None:
                raise ValidationError(
                    "census_year not given and no citation events to infer it from")
            census_year = self.latest
        return census_year

    def summary(self, census_year: int, inferred: bool, zero_refs: int = 0) -> IngestSummary:
        return IngestSummary(
            excluded_clusters=tuple(self.excluded),
            excluded_journals=self.excluded_journals,
            events_dropped_excluded_clusters=self.dropped,
            events_dropped_unknown_cited=self.unknown,
            events_dropped_zero_refs=zero_refs,
            counts_dropped=self.counts_dropped,
            census_year=census_year,
            census_year_inferred=inferred,
            retained_journals=len(self.journals),
            retained_clusters=len(self.clusters),
            retained_events=self.kept,
        )


def _raise_invalid(violations: Sequence[Violation], total: int) -> None:
    """Raise ValidationError naming the first _SHOWN of ``total`` violations
    of the assembled dataset, if any."""
    if total:
        shown = "; ".join(str(v) for v in violations[:_SHOWN])
        more = f" (+{total - _SHOWN} more)" if total > _SHOWN else ""
        raise ValidationError(f"assembled dataset fails validation: {shown}{more}")


def _census(journals: str | Path, publications: str | Path, citations: str | Path,
            census_year: int | None, config: IngestConfig, out: _Writer
            ) -> tuple[_Assembly, WindowCounter, IngestSummary]:
    """Parse the journals and publications files whole, and pass each
    checked batch of the citations file (_CitationReader) through the
    exclusion policy (_Assembly) and a WindowCounter and write its kept
    rows to ``out``, copying the batch's text where it is already in the
    bundle's format (_CitationReader.text); return the policy's outcome,
    the counter and the summary.  When the census year is inferred, the
    counter starts again whenever a later citing year is kept.

    The parsers and the policy already enforce every rule but two event
    rules: event.causality, checked per kept batch, and
    event.excess_references, decided at the end from each paper's kept
    events and the n_refs the reader holds for it.  Errors come in the
    order of the files: the journals, publications and citations files',
    then those of the census (_Assembly.finish), then the two event rules'
    as violations of the assembled dataset, the last two once the whole
    file is read.  The per-paper state is freed on return."""
    records, clusters = parse_journals(journals, config)
    assembly = _Assembly(records, clusters, parse_publications(publications, config), config)
    reader = _CitationReader(citations, config, [j.journal_id for j in records])
    total = 0
    late: list[Violation] = []
    first = Leads()  # each paper's first kept event
    n_kept = np.zeros(0, np.int64)  # kept events per paper
    journal_ids = tuple(j.journal_id for j in assembly.journals)
    counter = None if census_year is None else WindowCounter(journal_ids, census_year)
    for batch in reader:
        kept = assembly.keep(batch)
        found, n = _causality(kept, _SHOWN - len(late))
        late += found
        total += n
        paper = reader.paper_code(kept.citing_paper_id)
        first.conflicts(paper)
        if len(first.first) > len(n_kept):
            n_kept = np.pad(n_kept, (0, len(first.first) - len(n_kept)))
        np.add.at(n_kept, paper, 1)
        if census_year is None and assembly.latest is not None and (
                counter is None or assembly.latest > counter.census_year):
            counter = WindowCounter(journal_ids, assembly.latest)
        if counter is not None:
            counter.add(kept)
        if kept is batch and reader.text is not None:
            out.put_rows(reader.text, len(kept))  # the rows as they would be written
        else:
            out.write(kept.columns())
    excess, n = (_excess_references(n_kept, first.first, reader.leads.fields[2], reader.papers,
                                    _SHOWN) if len(n_kept) else ([], 0))
    year = assembly.finish(census_year)
    _raise_invalid([*late, *excess], total + n)
    return assembly, counter, assembly.summary(year, census_year is None, reader.zero_refs)


def ingest_bundle(journals: str | Path, publications: str | Path, citations: str | Path,
                  directory: str | Path, census_year: int | None = None,
                  config: IngestConfig = IngestConfig()) -> IngestSummary:
    """Read the journals and publications files whole and the citations
    file once, a batch at a time, and write the bundle of the census they
    hold (_census), with its summary.

    Each checked batch of citations goes through the exclusion policy and
    the WindowCounter, is checked for the rules that it can still break
    (event.causality and event.excess_references), and its kept rows are
    written to citations.tsv and hashed (_census).  Only one batch, the
    per-paper and the per-journal state stay in memory.  A census year
    that is not an integer fitting in 64 bits is an error before any file
    is read.

    The files go through _staged, the output step of every command, opened
    before citations.tsv is read, as its kept rows are written as they are
    read: a failed ingest leaves ``directory`` as it was, and not made if
    it did not exist; ``directory`` may hold the input files.
    """
    if census_year is not None:
        try:
            census_year = operator.index(census_year)
        except TypeError:
            raise CiteFairError(f"census year must be an integer, got {census_year!r}") from None
        if census_year not in INT64:
            raise CiteFairError(f"census year {census_year} does not fit in 64 bits")
    with _staged(Path(directory)) as staging:
        with _Writer(staging / CITATIONS_FILE, CITATION_COLUMNS, hashed=True) as out:
            assembly, counter, summary = _census(journals, publications, citations, census_year,
                                                 config, out)
        _write_bundle(staging, assembly.journals, assembly.clusters, assembly.counts,
                      counter.counts(assembly.counts), out.entry(), summary)
    return summary
