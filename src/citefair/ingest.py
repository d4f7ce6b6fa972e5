"""Reading and writing the three tabular input files (journals,
publication counts, citation events) and assembling them into a validated
Dataset with the exclusion policy applied.

File formats (delimiter-separated text, UTF-8, mandatory header row,
columns matched by name; the files of a bundle are always tab-separated):

journals      journal_id, title, cluster_id, cluster_name
publications  journal_id, year, citable_items
citations     citing_paper_id, citing_journal_id, citing_year,
              cited_journal_id, cited_year, n_refs

Citing journals may lie outside the indexed set; only cited journals must
resolve.  Clusters smaller than ``min_cluster_size`` are removed together
with their journals and any event touching them.

A bundle (save_bundle) holds the three files, tab-separated, plus
``counts.tsv`` (the census's WindowCounts) and ``dataset.json``, whose
manifest records each of the four files' sha256 and row count.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections import Counter
from dataclasses import dataclass, asdict
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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

from .errors import IngestWarning, ParseError, ValidationError
from .model import (EVENT_COLUMNS, Cluster, Dataset, Events, JournalRecord, PublicationCount,
                    WindowCounts, _isin, validate, window_counts)

__all__ = [
    "IngestConfig",
    "IngestSummary",
    "parse_journals",
    "parse_publications",
    "parse_citations",
    "assemble",
    "write_journals",
    "write_publications",
    "write_citations",
    "write_dataset",
    "save_bundle",
    "load_bundle",
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
PUBLICATION_COLUMNS = ("journal_id", "year", "citable_items")
CITATION_COLUMNS = EVENT_COLUMNS
# WindowCounts columns, each group in WINDOWS order.
COUNTS_COLUMNS = ("journal_id", "cites_2", "cites_5", "cites_all",
                  "fractional_2", "fractional_5", "fractional_all",
                  "items_1_2", "items_1_5", "items_0")
INT64 = range(-2 ** 63, 2 ** 63)


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
    """What assemble excluded, for auditability."""

    excluded_clusters: tuple[tuple[str, str, int], ...]  # (id, name, size)
    excluded_journals: int
    events_dropped_excluded_clusters: int
    events_dropped_unknown_cited: int
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


def _rows(path: Path, config: IngestConfig,
          columns: Sequence[str]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (physical line number, the named fields in ``columns`` order)
    for every non-blank data row, after checking the header and each row's
    width."""
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, delimiter=config.delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(path, 1, "empty file; header row required") from None
            missing = [c for c in columns if c not in header]
            if missing:
                raise ParseError(path, 1, f"missing required column(s): {', '.join(missing)}")
            pick = itemgetter(*(header.index(c) for c in columns))
            width = len(header)
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    raise ParseError(path, reader.line_num,
                                     f"expected {width} columns, got {len(row)}")
                yield reader.line_num, pick(row)
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, f"malformed row ({exc})") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _parse_int(path: Path, lineno: int, raw: str, what: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(path, lineno, f"{what} must be an integer, got {raw!r}") from None
    if value not in INT64:
        raise ParseError(path, lineno, f"{what} {raw!r} does not fit in 64 bits")
    return value


def parse_journals(path: str | Path,
                   config: IngestConfig = IngestConfig()) -> tuple[list[JournalRecord], list[Cluster]]:
    """Read the journals file; clusters are declared by first appearance.

    Raises ParseError with a line number for malformed rows, and
    ValidationError for duplicate journal ids or conflicting cluster names.
    """
    path = Path(path)
    journals: list[JournalRecord] = []
    cluster_names: dict[str, str] = {}
    cluster_sizes: Counter[str] = Counter()
    seen: set[str] = set()
    for lineno, (jid, title, cid, cname) in _rows(path, config, JOURNAL_COLUMNS):
        if not jid:
            raise ParseError(path, lineno, "empty journal_id")
        if not cid:
            raise ParseError(path, lineno, "empty cluster_id")
        if jid in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate journal_id '{jid}'")
        seen.add(jid)
        if cluster_names.setdefault(cid, cname) != cname:
            raise ValidationError(
                f"{path}:{lineno}: cluster '{cid}' renamed ('{cluster_names[cid]}' vs '{cname}')")
        cluster_sizes[cid] += 1
        journals.append(JournalRecord(jid, title, cid))
    clusters = [Cluster(cid, cluster_names[cid], cluster_sizes[cid]) for cid in cluster_names]
    return journals, clusters


def parse_publications(path: str | Path,
                       config: IngestConfig = IngestConfig()) -> list[PublicationCount]:
    path = Path(path)
    counts: list[PublicationCount] = []
    seen: set[tuple[str, int]] = set()
    for lineno, (jid, year_raw, items_raw) in _rows(path, config, PUBLICATION_COLUMNS):
        if not jid:
            raise ParseError(path, lineno, "empty journal_id")
        year = _parse_int(path, lineno, year_raw, "year")
        items = _parse_int(path, lineno, items_raw, "citable_items")
        if items < 0:
            raise ParseError(path, lineno, f"citable_items must be >= 0, got {items}")
        if (jid, year) in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate publication record for ({jid}, {year})")
        seen.add((jid, year))
        counts.append(PublicationCount(jid, year, items))
    return counts


def parse_citations(path: str | Path, config: IngestConfig = IngestConfig()) -> Events:
    """Read citation events in file order.

    n_refs must parse as a positive integer; zero is handled per
    ``config.zero_refs_policy``.  Years and n_refs must fit in 64 bits.
    Events of one citing paper must agree on citing journal, citing year
    and n_refs.
    """
    path = Path(path)
    columns: tuple[list, ...] = tuple([] for _ in CITATION_COLUMNS)
    pids, citing_jids, citing_years, cited_jids, cited_years, n_refs_col = columns
    # One str object per distinct id: the csv reader makes a fresh one per field.
    intern = {}.setdefault
    paper_info: dict[str, tuple[str, int, int]] = {}
    dropped_zero_refs = 0
    for lineno, (pid, citing_jid, citing_year_raw, cited_jid, cited_year_raw,
                 n_refs_raw) in _rows(path, config, CITATION_COLUMNS):
        if not pid:
            raise ParseError(path, lineno, "empty citing_paper_id")
        if not cited_jid:
            raise ParseError(path, lineno, "empty cited_journal_id")
        try:
            citing_year = int(citing_year_raw)
            cited_year = int(cited_year_raw)
            n_refs = int(n_refs_raw)
        except ValueError:
            raise ParseError(
                path, lineno,
                f"years and n_refs must be integers: "
                f"{citing_year_raw!r}, {cited_year_raw!r}, {n_refs_raw!r}",
            ) from None
        if n_refs == 0:
            if config.zero_refs_policy == POLICY_ERROR:
                raise ParseError(path, lineno, "n_refs is 0")
            dropped_zero_refs += 1
            continue
        if n_refs < 0:
            raise ParseError(path, lineno, f"n_refs must be positive, got {n_refs}")
        if citing_year not in INT64 or cited_year not in INT64 or n_refs not in INT64:
            raise ParseError(
                path, lineno, f"years and n_refs must fit in 64 bits: "
                f"{citing_year_raw!r}, {cited_year_raw!r}, {n_refs_raw!r}")
        pid, citing_jid = intern(pid, pid), intern(citing_jid, citing_jid)
        info = (citing_jid, citing_year, n_refs)
        prev = paper_info.setdefault(pid, info)
        if prev != info:
            raise ValidationError(
                f"{path}:{lineno}: citing paper '{pid}' conflicts with an earlier "
                f"row on (citing_journal_id, citing_year, n_refs)")
        pids.append(pid)
        citing_jids.append(citing_jid)
        citing_years.append(citing_year)
        cited_jids.append(intern(cited_jid, cited_jid))
        cited_years.append(cited_year)
        n_refs_col.append(n_refs)
    if dropped_zero_refs:
        warnings.warn(
            f"{path}: dropped {dropped_zero_refs} citation row(s) with n_refs=0",
            IngestWarning, stacklevel=2)
    return Events(*columns)


def assemble(journals: Sequence[JournalRecord],
             clusters: Sequence[Cluster],
             publication_counts: Sequence[PublicationCount],
             citation_events: Events,
             census_year: int | None = None,
             config: IngestConfig = IngestConfig()) -> tuple[Dataset, IngestSummary]:
    """Join the parsed inputs into a validated Dataset.

    Clusters below ``min_cluster_size`` are removed entirely, together
    with their journals and every event citing or cited by those journals.
    ``census_year`` defaults to the latest citing year seen.  The returned
    summary records everything that was excluded.
    """
    membership = Counter(j.cluster_id for j in journals)

    kept_clusters: list[Cluster] = []
    excluded: list[tuple[str, str, int]] = []
    for c in clusters:
        size = membership[c.cluster_id]
        if size < config.min_cluster_size:
            excluded.append((c.cluster_id, c.name, size))
        else:
            kept_clusters.append(Cluster(c.cluster_id, c.name, size))
    excluded_ids = {cid for cid, _, _ in excluded}

    kept_journals = [j for j in journals if j.cluster_id not in excluded_ids]
    if not kept_journals:
        raise ValidationError("assembly produced an empty dataset (no journals retained)")
    dropped_journal_ids = {j.journal_id for j in journals if j.cluster_id in excluded_ids}
    kept_journal_ids = {j.journal_id for j in kept_journals}

    cited = citation_events.cited_journal_id
    dropped = (_isin(cited, dropped_journal_ids)
               | _isin(citation_events.citing_journal_id, dropped_journal_ids))
    unknown = ~dropped & ~_isin(cited, kept_journal_ids)
    if unknown.any() and config.unknown_cited_policy == POLICY_ERROR:
        i = int(unknown.argmax())
        raise ValidationError(f"citation event of paper '{citation_events.citing_paper_id[i]}' "
                              f"cites unknown journal '{cited[i]}'")
    keep = ~(dropped | unknown)
    events = citation_events if keep.all() else Events(
        *(getattr(citation_events, name)[keep] for name in EVENT_COLUMNS))

    kept_counts = [p for p in publication_counts if p.journal_id in kept_journal_ids]
    counts_dropped = len(publication_counts) - len(kept_counts)

    inferred = census_year is None
    if inferred:
        if not len(events):
            raise ValidationError(
                "census_year not given and no citation events to infer it from")
        census_year = int(events.citing_year.max())

    dataset = Dataset(
        journals=tuple(kept_journals),
        clusters=tuple(kept_clusters),
        publication_counts=tuple(kept_counts),
        citation_events=events,
        census_year=census_year,
    )
    _require_valid(dataset, "assembled dataset")

    summary = IngestSummary(
        excluded_clusters=tuple(excluded),
        excluded_journals=len(dropped_journal_ids),
        events_dropped_excluded_clusters=int(dropped.sum()),
        events_dropped_unknown_cited=int(unknown.sum()),
        counts_dropped=counts_dropped,
        census_year=census_year,
        census_year_inferred=inferred,
        retained_journals=len(kept_journals),
        retained_clusters=len(kept_clusters),
        retained_events=len(events),
    )
    return dataset, summary


def _require_valid(dataset: Dataset, what: str) -> None:
    """Raise ValidationError naming the first five violations, if any."""
    violations = validate(dataset)
    if violations:
        shown = "; ".join(str(v) for v in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise ValidationError(f"{what} fails validation: {shown}{more}")


def _write_rows(path: Path, header: Iterable[str], rows: Iterable[tuple]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_journals(journals: Sequence[JournalRecord], clusters: Sequence[Cluster],
                   path: str | Path) -> None:
    names = {c.cluster_id: c.name for c in clusters}
    _write_rows(Path(path), JOURNAL_COLUMNS,
                ((j.journal_id, j.title, j.cluster_id, names.get(j.cluster_id, j.cluster_id))
                 for j in journals))


def write_publications(counts: Sequence[PublicationCount], path: str | Path) -> None:
    _write_rows(Path(path), PUBLICATION_COLUMNS,
                ((p.journal_id, p.year, p.citable_items) for p in counts))


def write_citations(events: Events, path: str | Path) -> None:
    _write_rows(Path(path), CITATION_COLUMNS, events.rows())


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


def _write_counts(counts: WindowCounts, path: Path) -> None:
    # Floats are written with repr, so they read back bit for bit.
    _write_rows(path, COUNTS_COLUMNS,
                zip(counts.journal_ids, *counts.cites.T.tolist(),
                    *counts.fractional.T.tolist(), *counts.items.T.tolist()))


def _read_counts(path: Path, census_year: int) -> WindowCounts:
    journal_ids, cites, fractional, items = [], [], [], []
    for lineno, (jid, *fields) in _rows(path, IngestConfig(), COUNTS_COLUMNS):
        journal_ids.append(jid)
        cites.append([_parse_int(path, lineno, raw, "cites") for raw in fields[0:3]])
        try:
            fractional.append([float(raw) for raw in fields[3:6]])
        except ValueError:
            raise ParseError(path, lineno, f"fractional counts must be numbers: "
                                           f"{', '.join(map(repr, fields[3:6]))}") from None
        items.append([_parse_int(path, lineno, raw, "items") for raw in fields[6:9]])
    return WindowCounts(tuple(journal_ids), census_year, np.array(cites, np.int64),
                        np.array(fractional, np.float64), np.array(items, np.int64))


def _file_sha256(path: Path) -> str:
    digest = sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def save_bundle(dataset: Dataset, directory: str | Path,
                summary: IngestSummary | None = None) -> Path:
    """Persist a validated dataset as the three files, its window counts and
    a metadata file whose manifest lists each file's sha256 and row count."""
    directory = Path(directory)
    write_dataset(dataset, directory)
    _write_counts(window_counts(dataset), directory / COUNTS_FILE)
    rows = {JOURNALS_FILE: len(dataset.journals), COUNTS_FILE: len(dataset.journals),
            PUBLICATIONS_FILE: len(dataset.publication_counts),
            CITATIONS_FILE: len(dataset.citation_events)}
    meta = {
        "format": BUNDLE_FORMAT,
        "census_year": dataset.census_year,
        "clusters": [{"cluster_id": c.cluster_id, "name": c.name, "size": c.size}
                     for c in dataset.clusters],
        "files": {name: {"rows": rows[name], "sha256": _file_sha256(directory / name)}
                  for name in BUNDLE_FILES},
        "validated": True,
    }
    if summary is not None:
        meta["ingest_summary"] = asdict(summary)
    meta_path = directory / META_FILE
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return meta_path


def _read_meta(directory: Path) -> dict:
    """A bundle's metadata, after checking its format, census year, cluster
    list and manifest."""
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
    return meta


def _changed(directory: Path, meta: dict, names: Sequence[str]) -> list[str]:
    """The files among ``names`` whose sha256 differs from the manifest's."""
    return [name for name in names
            if _file_sha256(directory / name) != meta["files"][name]["sha256"]]


def _changed_error(directory: Path, name: str) -> ValidationError:
    return ValidationError(f"{directory / name}: sha256 differs from the manifest in "
                           f"{META_FILE}; the file changed after ingest (re-run 'citefair "
                           f"ingest' to write the bundle again)")


def _load_journals(directory: Path) -> tuple[dict, list[JournalRecord], list[Cluster]]:
    """A bundle's metadata, journals and clusters, the clusters in the order
    the metadata lists them."""
    meta = _read_meta(directory)
    journals, clusters = parse_journals(directory / JOURNALS_FILE)
    order = {c["cluster_id"]: i for i, c in enumerate(meta["clusters"])}
    clusters.sort(key=lambda c: order.get(c.cluster_id, len(order)))
    return meta, journals, clusters


def load_partition(directory: str | Path) -> tuple[dict[str, str], dict[str, str]]:
    """A bundle's partition (journal_id -> cluster_id) and cluster names, from
    journals.tsv, which must still match the manifest."""
    directory = Path(directory)
    meta, journals, clusters = _load_journals(directory)
    if _changed(directory, meta, (JOURNALS_FILE,)):
        raise _changed_error(directory, JOURNALS_FILE)
    return ({j.journal_id: j.cluster_id for j in journals},
            {c.cluster_id: c.name for c in clusters})


def load_counts(directory: str | Path) -> tuple[WindowCounts, dict[str, str]]:
    """A bundle's window counts and partition, read from counts.tsv and
    journals.tsv once every bundle file matches the manifest.

    A file that changed after ingest is an error: the bundle is then
    loaded and validated in full (load_bundle), so an edit that breaks a
    rule is reported by that rule, and any other edit names the file.
    """
    directory = Path(directory)
    meta, journals, _ = _load_journals(directory)
    changed = _changed(directory, meta, BUNDLE_FILES)
    if changed:
        load_bundle(directory)
        raise _changed_error(directory, changed[0])
    counts = _read_counts(directory / COUNTS_FILE, meta["census_year"])
    if counts.journal_ids != tuple(j.journal_id for j in journals):
        raise ValidationError(f"{directory / COUNTS_FILE}: journals differ from {JOURNALS_FILE}")
    return counts, {j.journal_id: j.cluster_id for j in journals}


def load_bundle(directory: str | Path) -> Dataset:
    """Load a bundle written by save_bundle and validate it again, so that a
    bundle edited after it was saved fails like any other bad input."""
    directory = Path(directory)
    meta, journals, clusters = _load_journals(directory)
    dataset = Dataset(
        journals=tuple(journals),
        clusters=tuple(clusters),
        publication_counts=tuple(parse_publications(directory / PUBLICATIONS_FILE)),
        citation_events=parse_citations(directory / CITATIONS_FILE),
        census_year=meta["census_year"],
    )
    _require_valid(dataset, f"bundle {directory}")
    return dataset
