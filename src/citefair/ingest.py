"""Reading and writing the three tabular input files (journals,
publication counts, citation events) and the files of the bundle that
ingest makes of them (stream.ingest_bundle).

File formats (delimiter-separated text, UTF-8, a leading byte-order mark
skipped, mandatory header row, columns matched by name; the files of a
bundle are always tab-separated):

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

A bundle holds the three files, tab-separated, plus ``counts.tsv`` (the
census's WindowCounts) and ``dataset.json``, whose manifest records each
of the four files' sha256 and row count, hashed as the files are written
(_Writer).  A command that reads a bundle checks against the manifest
exactly the files it parses: load_partition journals.tsv, load_counts
journals.tsv and counts.tsv.  The bundle's file names and format, and the
check of its dataset.json (_read_meta), are in schema, which needs no
numpy.  Every command writes its files through one output step (_staged):
all of them or none.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import os
import re
import shutil
import tempfile
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

from .errors import CiteFairError, ParseError, ValidationError
from .model import (EVENT_COLUMNS, PUBLICATION_COLUMNS, Cluster, Dataset, Events, Ids,
                    JournalRecord, PublicationCounts, WindowCounts, encode, repeats,
                    vocabulary)
from .schema import (BUNDLE_FORMAT, CITATIONS_FILE, COUNTS_FILE, JOURNALS_FILE, META_FILE,
                     POLICY_DROP, POLICY_DROP_WARN, POLICY_ERROR, PUBLICATIONS_FILE,
                     _meta_sha256, _not_utf8, _read_meta, sha256)

__all__ = [
    "IngestConfig",
    "IngestSummary",
    "parse_journals",
    "parse_publications",
    "write_journals",
    "write_publications",
    "write_citations",
    "write_dataset",
    "load_counts",
    "load_partition",
    "JOURNALS_FILE",
    "PUBLICATIONS_FILE",
    "CITATIONS_FILE",
]

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
# chunk is also a batch of the one-pass ingest (stream): at 1 << 18 its
# fields set the peak memory of the bench census, at 1 << 16 the work
# done once per batch shows in the time (BENCH_12.json).
_CHUNK_CHARS = 1 << 17
_BLOCK_ROWS = 1 << 14
# Bytes read per block when a bundle file is hashed.
_HASH_BYTES = 1 << 20


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
        with path.open(encoding="utf-8-sig", newline="") as fh:
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
