"""Reading and writing the three tabular input files (journals,
publication counts, citation events), and the bundle that ingest makes of
them with the exclusion policy applied.

File formats (delimiter-separated text, UTF-8, mandatory header row,
columns matched by name; the files of a bundle are always tab-separated):

journals      journal_id, title, cluster_id, cluster_name
publications  journal_id, year, citable_items
citations     citing_paper_id, citing_journal_id, citing_year,
              cited_journal_id, cited_year, n_refs

Citing journals may lie outside the indexed set; only cited journals must
resolve.  Clusters smaller than ``min_cluster_size`` are removed together
with their journals and any event touching them.

Files are read a chunk of whole lines at a time (_batches), the header
row by csv.reader and a plain chunk's rows in bulk, as columns of codes
over each column's distinct fields, and each rule is checked once per
distinct field or as one mask over the rows; the earliest row that breaks
a rule is reported, in the words of the first rule it breaks.  Integer
fields are ASCII numerals, ``[+-]?[0-9]+``.

The journals and publications files are read whole.  The citations file
is read once, batch by batch (_CitationReader): each citing paper's first
event is carried from batch to batch, so the rules need no earlier batch.
_census parses the journals and publications files, passes each batch on
through the exclusion policy (_Assembly) and the WindowCounter of the
model, checks the two event rules that the parsers and the policy leave
open (event.causality and event.excess_references), and writes its kept
rows; what stays in memory is one batch and the per-paper and
per-journal state, however long the file.

A bundle (ingest_bundle) holds the three files, tab-separated, plus
``counts.tsv`` (the census's WindowCounts) and ``dataset.json``, whose
manifest records each of the four files' sha256 and row count, hashed as
the files are written (_Writer).  A command that reads a bundle checks
against the manifest exactly the files it parses: load_partition
journals.tsv, load_counts journals.tsv and counts.tsv.  Every command
writes its files through one output step (_staged): all of them or none.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import operator
import os
import re
import shutil
import tempfile
import warnings
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass, asdict
from functools import cached_property
from itertools import chain, takewhile
from operator import not_
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

# CPython's own SHA-256.  hashlib would load OpenSSL, which adds about
# 3.5 MB of resident memory and 5 ms of start-up to every command.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import CiteFairError, IngestWarning, ParseError, ValidationError
from .model import (EVENT_COLUMNS, PUBLICATION_COLUMNS, Cluster, Dataset, Events, Ids,
                    JournalRecord, Leads, PerId, PublicationCounts, Violation, WindowCounter,
                    WindowCounts, _causality, _excess_references, encode, repeats, vocabulary)

__all__ = [
    "IngestConfig",
    "IngestSummary",
    "parse_journals",
    "parse_publications",
    "write_journals",
    "write_publications",
    "write_citations",
    "write_dataset",
    "ingest_bundle",
    "load_counts",
    "load_partition",
    "JOURNALS_FILE",
    "PUBLICATIONS_FILE",
    "CITATIONS_FILE",
]

POLICY_DROP = "drop"
POLICY_ERROR = "error"
POLICY_DROP_WARN = "drop-with-warning"

JOURNALS_FILE = "journals.tsv"
PUBLICATIONS_FILE = "publications.tsv"
CITATIONS_FILE = "citations.tsv"
COUNTS_FILE = "counts.tsv"
META_FILE = "dataset.json"
BUNDLE_FILES = (JOURNALS_FILE, PUBLICATIONS_FILE, CITATIONS_FILE, COUNTS_FILE)
BUNDLE_FORMAT = "citefair-dataset/2"

JOURNAL_COLUMNS = ("journal_id", "title", "cluster_id", "cluster_name")
CITATION_COLUMNS = EVENT_COLUMNS
# WindowCounts columns, each group in WINDOWS order.
COUNTS_COLUMNS = ("journal_id", "cites_2", "cites_5", "cites_all",
                  "fractional_2", "fractional_5", "fractional_all",
                  "items_1_2", "items_1_5", "items_0")
INT64 = range(-2 ** 63, 2 ** 63)
_NUMERAL = re.compile(r"[+-]?[0-9]+").fullmatch
# Fields that are written quoted: csv.writer's choice, plus the carriage
# return, which csv.writer leaves bare under lineterminator="\n".
_QUOTED = re.compile('[\t\n\r"]').search
# Characters that would end a field or a row of the tables and reports
# that journal ids, cluster ids and cluster names are written to.
_BREAK = re.compile("[\t\n\r]").search
# Characters of text read per chunk, and rows written per block: small, so
# that a chunk's or a block's field strings never take much memory.  A
# chunk is also a batch of the one-pass ingest (ingest_bundle): at 1 << 18
# its fields set the peak memory of the bench census, at 1 << 16 the work
# done once per batch shows in the time (BENCH_12.json).
_CHUNK_CHARS = 1 << 17
_BLOCK_ROWS = 1 << 14
# Bytes read per block when a bundle file is hashed.
_HASH_BYTES = 1 << 20
# Violations named in a validation error; the rest are only counted.
_SHOWN = 5


@dataclass(frozen=True)
class IngestConfig:
    """Exclusion policy and file format knobs."""

    min_cluster_size: int = 10
    unknown_cited_policy: str = POLICY_DROP
    zero_refs_policy: str = POLICY_DROP_WARN
    delimiter: str = "\t"

    def __post_init__(self):
        if self.min_cluster_size < 1:
            raise ValueError("min_cluster_size must be >= 1")
        if self.unknown_cited_policy not in (POLICY_DROP, POLICY_ERROR):
            raise ValueError(f"unknown_cited_policy must be '{POLICY_DROP}' or '{POLICY_ERROR}'")
        if self.zero_refs_policy not in (POLICY_DROP_WARN, POLICY_ERROR):
            raise ValueError(
                f"zero_refs_policy must be '{POLICY_DROP_WARN}' or '{POLICY_ERROR}'")


@dataclass(frozen=True)
class IngestSummary:
    """What the exclusion policy excluded, for auditability."""

    excluded_clusters: tuple[tuple[str, str, int], ...]  # (id, name, size)
    excluded_journals: int
    events_dropped_excluded_clusters: int
    events_dropped_unknown_cited: int
    events_dropped_zero_refs: int  # while reading citations.tsv, before the policy
    counts_dropped: int
    census_year: int
    census_year_inferred: bool
    retained_journals: int
    retained_clusters: int
    retained_events: int


def _not_utf8(path: Path) -> ParseError:
    """The error naming the first line of ``path`` that is not valid UTF-8."""
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(path, lineno, f"not valid UTF-8 (byte {raw[exc.start]:#04x} "
                                                f"at position {exc.start + 1}: {exc.reason})")
    return ParseError(path, 1, "not valid UTF-8 (undecodable input)")


def _chunks(fh) -> Iterator[str]:
    """The text of ``fh`` in pieces of whole lines, about _CHUNK_CHARS long;
    only the last piece may lack its final newline."""
    carry = ""
    for text in iter(lambda: fh.read(_CHUNK_CHARS), ""):
        cut = text.rfind("\n") + 1
        if cut:
            yield carry + text[:cut]
            carry = text[cut:]
        else:
            carry += text
    if carry:
        yield carry


def _split_plain(text: str, delimiter: str, width: int) -> list[str] | None:
    """The fields of ``text``, row after row, if csv.reader would read it as
    plain rows: no quote, carriage return or NUL, no blank line, no line
    longer than the csv field limit, and ``width`` fields on every line.
    None for any other text.  The lines are checked as one array of the
    UTF-8 bytes, in which the newline and an ASCII delimiter are single
    bytes; a line longer than the limit in bytes counts as too long."""
    if (delimiter in '"\r\n\0' or not delimiter.isascii()
            or '"' in text or "\r" in text or "\0" in text):
        return None
    data = np.frombuffer(text.encode("utf-8"), np.uint8)
    ends = np.flatnonzero(data == 10)  # the end of each line
    if not text.endswith("\n"):
        ends = np.append(ends, len(data))
    per_line = np.diff(np.searchsorted(np.flatnonzero(data == ord(delimiter)), ends), prepend=0)
    if ((per_line != width - 1).any()
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit() + 1):
        return None
    return text.removesuffix("\n").replace("\n", delimiter).split(delimiter)


def _feed(pending: deque, chunks: Iterator[str]) -> Iterator[str]:
    """Pop the lines of ``pending``, refilling it from the next chunk only
    when asked for a line after its last."""
    while pending:
        yield pending.popleft()
        if not pending:
            pending.extend(io.StringIO(next(chunks, ""), newline=""))


def _batches(path: Path, delimiter: str, columns: Sequence[str], required: Sequence[str] = ()
             ) -> Iterator[tuple[Sequence[int], list[list[str]], str | None]]:
    """Yield, a chunk of the file at a time, the physical line numbers of its
    non-blank data rows, one list of raw fields per name in ``columns`` and,
    for a plain chunk of a file whose columns are ``columns`` in order, the
    chunk's text, after checking that the header names every column of
    ``required`` (default ``columns``) and that each row has the header's
    width.

    The header row is read by csv.reader from the first chunk, which is
    decoded whole before any of its rows, the header too, is checked.  A
    plain chunk (_split_plain) is split in bulk.  Any other is read by
    csv.reader, which reads on into the next chunks only to finish a quoted
    field that spans lines.  Both give the rows csv.reader gives.  A
    malformed row ends the batches with a ParseError once the rows before
    it are yielded.
    """
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            chunks = _chunks(fh)
            pending = deque(io.StringIO(next(chunks, ""), newline=""))
            head = csv.reader(_feed(pending, chunks), delimiter=delimiter)
            try:
                header = next(head)
            except StopIteration:
                raise ParseError(path, 1, "empty file; header row required") from None
            except csv.Error as exc:
                raise ParseError(path, head.line_num, f"malformed row ({exc})") from None
            missing = [c for c in required or columns if c not in header]
            if missing:
                raise ParseError(path, 1, f"missing required column(s): {', '.join(missing)}")
            pick, width = [header.index(c) for c in columns], len(header)
            line = head.line_num
            for text in chain(["".join(pending)] if pending else [], chunks):
                fields = _split_plain(text, delimiter, width)
                if fields is not None:
                    n = len(fields) // width
                    yield (range(line + 1, line + n + 1), [fields[k::width] for k in pick],
                           text if pick == list(range(width)) else None)
                    line += n
                    continue

                pending = deque(io.StringIO(text, newline=""))
                reader = csv.reader(_feed(pending, chunks), delimiter=delimiter)
                rows, lines, error = [], [], None
                try:
                    for row in reader:
                        if len(row) >= width:
                            rows.append(row)
                            lines.append(line + reader.line_num)
                        elif row:
                            error = ParseError(path, line + reader.line_num,
                                               f"expected {width} columns, got {len(row)}")
                            break
                        if not pending:
                            break
                except csv.Error as exc:
                    error = ParseError(path, line + reader.line_num, f"malformed row ({exc})")
                if rows:
                    yield lines, [[row[k] for row in rows] for k in pick], None
                if error:
                    raise error
                line += reader.line_num
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _integer(raw: str) -> int | None:
    """The value of ``raw`` if it is a numeral ``[+-]?[0-9]+`` that int()
    converts, else None."""
    if _NUMERAL(raw):
        try:
            return int(raw)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    return None


def _fits(value: int | None) -> bool:
    return value is not None and value in INT64


def _int_error(path: Path, lineno: int, raw: str, what: str) -> ParseError:
    """The error for an integer field that is not a numeral fitting in 64 bits."""
    if _integer(raw) is None:
        return ParseError(path, lineno, f"{what} must be an integer, got {raw!r}")
    return ParseError(path, lineno, f"{what} {raw!r} does not fit in 64 bits")


class _Column(Ids):
    """One column of a file: an int32 code per row over the distinct raw
    fields, numbered in order of first appearance."""

    @cached_property
    def numbers(self) -> list[int | None]:
        """Each distinct field as an integer (_integer)."""
        return list(map(_integer, self.values))

    def empty(self) -> np.ndarray:
        return self.expand(map(not_, self.values))

    def int64(self) -> np.ndarray:
        """Per row, the field's value where it is an integer that fits in 64 bits, else 0."""
        return np.array([v if _fits(v) else 0 for v in self.numbers], np.int64)[self.codes]


def _column(fields: list[str]) -> _Column:
    """A batch's raw fields as a _Column over its own distinct fields."""
    index = vocabulary()
    return _Column(encode(fields, index), tuple(index))


def _read_columns(path: Path, config: IngestConfig, columns: Sequence[str],
                  required: Sequence[str] = ()
                  ) -> tuple[list[_Column], Callable[[int], int], ParseError | None]:
    """The named columns of the data rows, a function from row index to
    physical line number, and the ParseError that ended the reading early,
    if any: that error stands only when no row before it breaks a rule
    (_first_error).  Line numbers are kept per batch, as a range for a
    plain chunk, not per row."""
    indexes = [vocabulary() for _ in columns]
    codes = [[np.empty(0, np.int32)] for _ in columns]
    starts, lines, stop = [0], [], None
    try:
        for batch_lines, fields, _ in _batches(path, config.delimiter, columns, required):
            starts.append(starts[-1] + len(batch_lines))
            lines.append(batch_lines)
            for index, parts, column in zip(indexes, codes, fields):
                parts.append(encode(column, index))
    except ParseError as exc:
        stop = exc

    def line_of(row: int) -> int:
        batch = bisect_right(starts, row) - 1
        return lines[batch][row - starts[batch]]

    return ([_Column(np.concatenate(parts), tuple(index)) for parts, index in zip(codes, indexes)],
            line_of, stop)


def _first_error(line_of: Callable[[int], int], rules) -> CiteFairError | None:
    """The error of the earliest row that breaks a rule, or None.  ``rules``
    are (row mask, error builder) pairs in the order a row is checked in;
    a builder takes the row's line and index."""
    hits = [(int(mask.argmax()), k) for k, (mask, _) in enumerate(rules) if mask.any()]
    if not hits:
        return None
    row, k = min(hits)
    return rules[k][1](line_of(row), row)


def _journal_columns(path: Path, config: IngestConfig, columns: Sequence[str]
                     ) -> tuple[list[_Column], np.ndarray]:
    """The named columns of a journals file whose rows pass its rules,
    ``columns`` starting with journal_id, cluster_id and cluster_name, and
    the row of each cluster's first journal.  Every column of the format
    must be present, read or not."""
    (jids, cids, names, *rest), line_of, stop = _read_columns(path, config, columns,
                                                              JOURNAL_COLUMNS)
    first = np.unique(cids.codes, return_index=True)[1]
    renamed = names.codes != names.codes[first[cids.codes]]
    error = _first_error(line_of, [
        (jids.empty(), lambda line, i: ParseError(path, line, "empty journal_id")),
        (cids.empty(), lambda line, i: ParseError(path, line, "empty cluster_id")),
        *((column.expand(map(bool, map(_BREAK, column.values))),
           lambda line, i, name=name, column=column: ParseError(
               path, line, f"{name} {column[i]!r} holds a tab or a line break"))
          for name, column in (("journal_id", jids), ("cluster_id", cids),
                               ("cluster_name", names))),
        (repeats(jids.codes), lambda line, i: ValidationError(
            f"{path}:{line}: duplicate journal_id '{jids[i]}'")),
        (renamed, lambda line, i: ValidationError(
            f"{path}:{line}: cluster '{cids[i]}' renamed "
            f"('{names[first[cids.codes[i]]]}' vs '{names[i]}')")),
    ]) or stop
    if error:
        raise error
    return [jids, cids, names, *rest], first


def parse_journals(path: str | Path,
                   config: IngestConfig = IngestConfig()) -> tuple[list[JournalRecord], list[Cluster]]:
    """Read the journals file; clusters are declared by first appearance.

    Raises ParseError with a line number for malformed rows, and
    ValidationError for duplicate journal ids or conflicting cluster names.
    """
    (jids, cids, names, titles), first = _journal_columns(
        Path(path), config, ("journal_id", "cluster_id", "cluster_name", "title"))
    journals = list(map(JournalRecord, *(c.strings().tolist() for c in (jids, titles, cids))))
    sizes = np.bincount(cids.codes, minlength=len(cids.values)).tolist()
    return journals, list(map(Cluster, cids.values, [names[i] for i in first.tolist()], sizes))


def parse_publications(path: str | Path,
                       config: IngestConfig = IngestConfig()) -> PublicationCounts:
    """Read publication counts in file order.  Years and citable_items must
    be integers that fit in 64 bits, citable_items >= 0, and no journal-year
    may repeat."""
    path = Path(path)
    (jids, years, items), line_of, stop = _read_columns(path, config, PUBLICATION_COLUMNS)
    year_values, item_values = years.int64(), items.int64()
    repeat = repeats(jids.codes, np.unique(year_values, return_inverse=True)[1])
    error = _first_error(line_of, [
        (jids.empty(), lambda line, i: ParseError(path, line, "empty journal_id")),
        (years.expand(not _fits(v) for v in years.numbers),
         lambda line, i: _int_error(path, line, years[i], "year")),
        (items.expand(not _fits(v) for v in items.numbers),
         lambda line, i: _int_error(path, line, items[i], "citable_items")),
        (item_values < 0, lambda line, i: ParseError(
            path, line, f"citable_items must be >= 0, got {item_values[i]}")),
        (repeat, lambda line, i: ValidationError(
            f"{path}:{line}: duplicate publication record for ({jids[i]}, {year_values[i]})")),
    ]) or stop
    if error:
        raise error
    return PublicationCounts(Ids(jids.codes, jids.values), year_values, item_values)


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

    def finish(self, census_year: int | None, what: str) -> int:
        """The census year, ``census_year`` or else the latest citing year
        kept, once the kept journals and events are known to make a census;
        under unknown_cited_policy "error", the first event citing an
        unknown journal is a violation of ``what``."""
        if not self.journals:
            raise ValidationError("assembly produced an empty dataset (no journals retained)")
        if self.first_unknown and self.config.unknown_cited_policy == POLICY_ERROR:
            _raise_invalid([self.first_unknown], 1, what)
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


def _raise_invalid(violations: Sequence[Violation], total: int, what: str) -> None:
    """Raise ValidationError naming the first _SHOWN of ``total`` violations, if any."""
    if total:
        shown = "; ".join(str(v) for v in violations[:_SHOWN])
        more = f" (+{total - _SHOWN} more)" if total > _SHOWN else ""
        raise ValidationError(f"{what} fails validation: {shown}{more}")


def _coded(column) -> tuple[np.ndarray, np.ndarray]:
    """A column as its distinct fields (an ``object`` array of ``str``) and
    a code per row into them; integer columns format each distinct value
    once."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "i":
        low, high = (int(column.min()), int(column.max())) if len(column) else (0, 0)
        if high - low < len(column):  # a narrow range: code by offset, without a sort
            values, codes = range(low, high + 1), column - low
        else:
            values, codes = np.unique(column, return_inverse=True)
            values = values.tolist()
    else:
        values = column.tolist() if isinstance(column, np.ndarray) else column
        codes = np.arange(len(values))
    return np.array(list(map(str, values)), object), codes


def _quote(field: str) -> str:
    return '"' + field.replace('"', '""') + '"' if _QUOTED(field) else field


class _Writer:
    """A tab-separated file written from columns, batch after batch, that
    keeps its data row count and, when ``hashed``, the sha256 of the bytes
    written (a bundle file's manifest entry)."""

    def __init__(self, path: Path, header: Sequence[str], hashed: bool = False):
        self.width, self.rows, self.digest = len(header), 0, sha256() if hashed else None
        # per column, the last Ids vocabulary met and its ids as an object
        # array, made again only for another vocabulary
        self.ids = [((), np.zeros(0, object))] * self.width
        self.fh = path.open("wb")
        self._put("\t".join(header) + "\n")

    def __enter__(self) -> _Writer:
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def _put(self, text: str) -> None:
        data = text.encode("utf-8")
        self.fh.write(data)
        if self.digest is not None:
            self.digest.update(data)

    def write(self, columns: Sequence) -> None:
        """Write equal-length columns (Ids, numpy arrays or lists), one join
        per block of _BLOCK_ROWS rows.  A field holding a tab, newline,
        carriage return or quote is quoted as csv.writer quotes it
        (_QUOTED), so every field reads back."""
        coded = [self._coded(k, column) for k, column in enumerate(columns)]
        for start in range(0, len(coded[0][1]), _BLOCK_ROWS):
            block = [values[codes[start:start + _BLOCK_ROWS]].tolist() for values, codes in coded]
            n = len(block[0])
            text = "\n".join(map("\t".join, zip(*block))) + "\n"
            if ('"' in text or "\r" in text or text.count("\n") != n
                    or text.count("\t") != n * (self.width - 1)):
                text = "".join("\t".join(map(_quote, row)) + "\n" for row in zip(*block))
            self._put(text)
            self.rows += n

    def _coded(self, k: int, column) -> tuple[np.ndarray, np.ndarray]:
        """The k-th column as its distinct fields and a code per row (_coded)."""
        if not isinstance(column, Ids):
            return _coded(column)
        if self.ids[k][0] is not column.values:
            self.ids[k] = column.values, np.array(column.values, object)
        return self.ids[k][1], column.codes

    def put_rows(self, text: str, rows: int) -> None:
        """Write ``rows`` rows that ``text`` already holds in this file's format."""
        self._put(text)
        self.rows += rows

    def entry(self) -> dict:
        """The file's manifest entry: its data rows and sha256."""
        return {"rows": self.rows, "sha256": self.digest.hexdigest()}


def _write_columns(path: Path, header: Sequence[str], columns: Sequence,
                   hashed: bool = False) -> _Writer:
    """Write equal-length columns as a tab-separated file."""
    with _Writer(path, header, hashed) as out:
        out.write(columns)
    return out


def _journal_fields(journals: Sequence[JournalRecord], clusters: Sequence[Cluster]) -> tuple:
    names = {c.cluster_id: c.name for c in clusters}
    return ([j.journal_id for j in journals], [j.title for j in journals],
            [j.cluster_id for j in journals],
            [names.get(j.cluster_id, j.cluster_id) for j in journals])


def write_journals(journals: Sequence[JournalRecord], clusters: Sequence[Cluster],
                   path: str | Path) -> None:
    _write_columns(Path(path), JOURNAL_COLUMNS, _journal_fields(journals, clusters))


def write_publications(counts: PublicationCounts, path: str | Path) -> None:
    _write_columns(Path(path), PUBLICATION_COLUMNS, counts.columns())


def write_citations(events: Events, path: str | Path) -> None:
    _write_columns(Path(path), CITATION_COLUMNS, events.columns())


def write_dataset(dataset: Dataset, directory: str | Path) -> dict[str, Path]:
    """Write the three input files, tab-separated; record order is preserved,
    so writing and re-ingesting an assembled dataset round-trips exactly."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "journals": directory / JOURNALS_FILE,
        "publications": directory / PUBLICATIONS_FILE,
        "citations": directory / CITATIONS_FILE,
    }
    write_journals(dataset.journals, dataset.clusters, paths["journals"])
    write_publications(dataset.publication_counts, paths["publications"])
    write_citations(dataset.citation_events, paths["citations"])
    return paths


def _float(raw: str) -> float | None:
    try:
        return float(raw)
    except ValueError:
        return None


def _read_counts(path: Path, census_year: int) -> WindowCounts:
    """The WindowCounts of a counts.tsv whose integer counts fit in 64 bits
    and whose fractional counts are numbers, every count finite and >= 0."""
    (jids, *columns), line_of, stop = _read_columns(path, IngestConfig(), COUNTS_COLUMNS)
    cites, fractional, items = columns[0:3], columns[3:6], columns[6:9]
    floats = [list(map(_float, c.values)) for c in fractional]
    fraction = np.column_stack([np.array(f, np.float64)[c.codes]  # None reads as NaN
                                for c, f in zip(fractional, floats)])

    def raws(i: int) -> str:
        return ", ".join(repr(c[i]) for c in fractional)

    def integers(column: _Column, what: str):
        yield (column.expand(not _fits(v) for v in column.numbers),
               lambda line, i: _int_error(path, line, column[i], what))
        yield (column.expand(v is not None and v < 0 for v in column.numbers),
               lambda line, i: ParseError(path, line, f"{what} must be >= 0, got {column[i]}"))

    error = _first_error(line_of, [
        *chain.from_iterable(integers(c, "cites") for c in cites),
        (np.logical_or.reduce([c.expand(v is None for v in f) for c, f in zip(fractional, floats)]),
         lambda line, i: ParseError(path, line, f"fractional counts must be numbers: {raws(i)}")),
        (~(np.isfinite(fraction) & (fraction >= 0)).all(axis=1),
         lambda line, i: ParseError(path, line,
                                    f"fractional counts must be finite and >= 0: {raws(i)}")),
        *chain.from_iterable(integers(c, "items") for c in items),
    ]) or stop
    if error:
        raise error
    return WindowCounts(tuple(jids.strings().tolist()), census_year,
                        np.column_stack([c.int64() for c in cites]), fraction,
                        np.column_stack([c.int64() for c in items]))


def _file_sha256(path: Path) -> str:
    digest = sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(_HASH_BYTES), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_bundle(directory: Path, journals: Sequence[JournalRecord],
                  clusters: Sequence[Cluster], publication_counts: PublicationCounts,
                  counts: WindowCounts, citations: dict, summary: IngestSummary) -> None:
    """Write a bundle's files but citations.tsv, whose manifest entry is
    given, and then dataset.json with the manifest of all four."""
    tables = {JOURNALS_FILE: (JOURNAL_COLUMNS, _journal_fields(journals, clusters)),
              PUBLICATIONS_FILE: (PUBLICATION_COLUMNS, publication_counts.columns()),
              # floats are written with repr, so they read back bit for bit
              COUNTS_FILE: (COUNTS_COLUMNS, (counts.journal_ids, *counts.cites.T,
                                             *counts.fractional.T, *counts.items.T))}
    files = {name: _write_columns(directory / name, header, columns, hashed=True).entry()
             for name, (header, columns) in tables.items()}
    files[CITATIONS_FILE] = citations
    meta = {
        "format": BUNDLE_FORMAT,
        "census_year": counts.census_year,
        "clusters": [{"cluster_id": c.cluster_id, "name": c.name, "size": c.size}
                     for c in clusters],
        "files": files,
        "validated": True,
        "ingest_summary": asdict(summary),
    }
    meta["sha256"] = _meta_sha256(meta)
    (directory / META_FILE).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")


@contextmanager
def _staged(directory: Path) -> Iterator[Path]:
    """The one output step of every command: a new directory inside
    ``directory``, made with its missing parents, to write the command's
    files in.  They are moved into ``directory`` when the block ends, and
    removed with every directory made for them when it raises, so a
    command writes all of its files or none."""
    made = list(takewhile(lambda d: not d.exists(), (directory, *directory.parents)))
    staging = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".citefair-", dir=directory))
        yield staging
        staged = sorted(staging.iterdir())
        for path in staged:  # a directory in the way would stop the moves halfway
            if (directory / path.name).is_dir():
                raise IsADirectoryError(errno.EISDIR, "Is a directory", str(directory / path.name))
        for path in staged:
            os.replace(path, directory / path.name)
        staging.rmdir()
    except BaseException:
        if staging:
            shutil.rmtree(staging, ignore_errors=True)
        for path in made:
            with suppress(OSError):
                path.rmdir()
        raise


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
    year = assembly.finish(census_year, "assembled dataset")
    _raise_invalid([*late, *excess], total + n, "assembled dataset")
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


def _meta_sha256(meta: dict) -> str:
    """The sha256 of the canonical JSON of every metadata field but ``sha256``."""
    fields = {key: value for key, value in meta.items() if key != "sha256"}
    return sha256(json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _read_meta(directory: Path) -> dict:
    """A bundle's metadata, after checking its format, census year, cluster
    list and manifest, and then its own sha256."""
    path = directory / META_FILE
    if not path.exists():
        raise ValidationError(f"not a dataset bundle (missing {META_FILE}): {directory}")
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"not valid JSON ({exc.msg})") from None
    except RecursionError:
        raise ParseError(path, 1, "not valid JSON (nested too deeply)") from None
    found = meta.get("format") if isinstance(meta, dict) else None
    if found != BUNDLE_FORMAT:
        raise ValidationError(f"{path}: bundle format {found!r} is not {BUNDLE_FORMAT!r}; "
                              f"re-run 'citefair ingest' to write the bundle again")
    if type(meta.get("census_year")) is not int:
        raise ValidationError(f"{path}: census_year must be an integer")
    clusters = meta.get("clusters")
    if not isinstance(clusters, list) or not all(
            isinstance(c, dict) and isinstance(c.get("cluster_id"), str) for c in clusters):
        raise ValidationError(f"{path}: clusters must be a list of objects with a cluster_id")
    files = meta.get("files")
    for name in BUNDLE_FILES:
        entry = files.get(name) if isinstance(files, dict) else None
        if not (isinstance(entry, dict) and isinstance(entry.get("sha256"), str)):
            raise ValidationError(f"{path}: manifest entry files.{name} lacks its sha256")
    if meta.get("sha256") != _meta_sha256(meta):
        raise ValidationError(f"{path}: sha256 differs from that of its other fields; the file "
                              f"changed after ingest (re-run 'citefair ingest' to write the "
                              f"bundle again)")
    return meta


def _check_unchanged(directory: Path, meta: dict, names: Sequence[str]) -> None:
    """Raise ValidationError for the first file among ``names`` whose sha256
    differs from the manifest's."""
    for name in names:
        if _file_sha256(directory / name) != meta["files"][name]["sha256"]:
            raise ValidationError(f"{directory / name}: sha256 differs from the manifest in "
                                  f"{META_FILE}; the file changed after ingest (re-run "
                                  f"'citefair ingest' to write the bundle again)")


def _partition(directory: Path) -> tuple[dict, list[str], dict[str, str], dict[str, str]]:
    """A bundle's metadata, and from its journals.tsv, read without the
    titles, the journal ids in file order, the partition and the cluster
    names in order of first appearance."""
    meta = _read_meta(directory)
    (jids, cids, names), first = _journal_columns(
        directory / JOURNALS_FILE, IngestConfig(), ("journal_id", "cluster_id", "cluster_name"))
    ids = jids.strings().tolist()
    clusters = dict(zip(cids.values, [names[i] for i in first.tolist()]))
    return meta, ids, dict(zip(ids, cids.strings().tolist())), clusters


def load_partition(directory: str | Path) -> tuple[dict[str, str], dict[str, str], int]:
    """A bundle's partition (journal_id -> cluster_id), cluster names and
    census year, from journals.tsv, which must still match the manifest,
    and dataset.json."""
    directory = Path(directory)
    meta, _, partition, cluster_names = _partition(directory)
    _check_unchanged(directory, meta, (JOURNALS_FILE,))
    return partition, cluster_names, meta["census_year"]


def load_counts(directory: str | Path) -> tuple[WindowCounts, dict[str, str]]:
    """A bundle's window counts and partition, read from counts.tsv and
    journals.tsv, which must still match the manifest, and dataset.json.
    The bundle's copies of publications.tsv and citations.tsv are neither
    read nor checked."""
    directory = Path(directory)
    meta, journal_ids, partition, _ = _partition(directory)
    _check_unchanged(directory, meta, (JOURNALS_FILE, COUNTS_FILE))
    counts = _read_counts(directory / COUNTS_FILE, meta["census_year"])
    if counts.journal_ids != tuple(journal_ids):
        raise ValidationError(f"{directory / COUNTS_FILE}: journals differ from {JOURNALS_FILE}")
    return counts, partition
