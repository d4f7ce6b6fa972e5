"""Citation indicators per journal: impact factors (2- and 5-year windows),
total cites, c/p ratios and bare numerators, each under integer or
fractional counting, plus per-cluster mean rescaling.

Counting modes
--------------
integer     every citation event adds 1 to the cited journal.
fractional  every event adds 1/n_refs, n_refs being the citing paper's
            full reference-list length; denominators are never
            fractionalized.

A value is UNDEFINED exactly when the indicator's denominator is zero for
that journal: NaN in a table's column and "NA" in a table file.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .errors import ParseError, RescaleError
from .ingest import _integer, _not_utf8
from .model import WINDOW_ALL, WINDOWS, Dataset, WindowCounts, encode, vocabulary, window_counts

__all__ = [
    "WINDOW_ALL",
    "IndicatorSpec",
    "IndicatorTable",
    "compute_table",
    "compute_tables",
    "tables_from_counts",
    "rescale",
    "write_table",
    "read_table",
    "standard_specs",
]

KINDS = ("impact_factor", "total_cites", "cp_ratio", "numerator_only")
COUNTINGS = ("integer", "fractional")
NORMALIZATIONS = ("raw", "rescaled")

NA = "NA"  # serialized UNDEFINED sentinel
# fairness and correlate name output files after an indicator_id: no path in it
_PLAIN_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._+-]*").fullmatch


@dataclass(frozen=True)
class IndicatorSpec:
    """What to compute: kind, citation window, and counting mode.

    ``window`` is 2 or 5 for impact factors and numerators; total cites
    and c/p ratios always use all prior years ("all").
    """

    kind: str
    window: int | str | None = None
    counting: str = "integer"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown indicator kind '{self.kind}'")
        if self.counting not in COUNTINGS:
            raise ValueError(f"unknown counting mode '{self.counting}'")
        if self.kind in ("impact_factor", "numerator_only"):
            if self.window not in (2, 5):
                raise ValueError(f"{self.kind} requires window 2 or 5, got {self.window!r}")
        else:
            if self.window not in (None, WINDOW_ALL):
                raise ValueError(f"{self.kind} uses all prior years; got window {self.window!r}")
            object.__setattr__(self, "window", WINDOW_ALL)

    @property
    def indicator_id(self) -> str:
        suffix = "IC" if self.counting == "integer" else "FC"
        if self.kind == "impact_factor":
            return f"IF{self.window}-{suffix}"
        if self.kind == "numerator_only":
            return f"TC-{suffix}{self.window}"
        if self.kind == "total_cites":
            return f"TC-{suffix}"
        return f"CP-{suffix}"


@dataclass(frozen=True, eq=False)
class IndicatorTable:
    """One indicator's value per journal, with provenance.

    ``column`` holds one read-only float64 value per journal of
    ``journal_ids`` (distinct ids), NaN where the value is UNDEFINED.
    Rescaled tables carry the raw table's id in ``source_id`` and the
    divisor used per cluster in ``cluster_baselines`` (mean, defined-count)
    pairs.
    """

    indicator_id: str
    kind: str
    window: int | str
    counting: str
    normalization: str
    census_year: int
    journal_ids: tuple[str, ...]
    column: np.ndarray
    source_id: Optional[str] = None
    cluster_baselines: Optional[Mapping[str, tuple[float, int]]] = None

    def __post_init__(self):
        column = np.array(self.column, dtype=np.float64)
        column.flags.writeable = False
        object.__setattr__(self, "journal_ids", tuple(self.journal_ids))
        object.__setattr__(self, "column", column)
        if column.shape != (len(self.journal_ids),):
            raise ValueError("an indicator table needs one value per journal")

    def __eq__(self, other) -> bool:
        """Equal provenance and the same value per journal, in any journal
        order: NaN equals NaN and -0.0 equals 0.0.  Baselines are not compared."""
        if not isinstance(other, IndicatorTable):
            return NotImplemented
        return self._compared() == other._compared() and np.array_equal(
            self.column[_id_order(self.journal_ids)],
            other.column[_id_order(other.journal_ids)], equal_nan=True)

    def _compared(self) -> tuple:
        return (self.indicator_id, self.kind, self.window, self.counting, self.normalization,
                self.census_year, self.source_id, sorted(self.journal_ids))


def tables_from_counts(counts: WindowCounts,
                       specs: list[IndicatorSpec]) -> list[IndicatorTable]:
    """The indicator tables of ``specs`` from a census's window counts:
    numerators are the counts of the spec's window, and IF and c/p values
    divide them by that window's citable items (NaN where there are none)."""
    tables = []
    for spec in specs:
        w = WINDOWS.index(spec.window)
        if spec.counting == "integer":
            column = counts.cites[:, w].astype(np.float64)
        else:
            column = counts.fractional[:, w]
        if spec.kind in ("impact_factor", "cp_ratio"):
            items = counts.items[:, w]
            column = np.divide(column, items, out=np.full(len(items), np.nan), where=items > 0)
        tables.append(IndicatorTable(
            indicator_id=spec.indicator_id,
            kind=spec.kind,
            window=spec.window,
            counting=spec.counting,
            normalization="raw",
            census_year=counts.census_year,
            journal_ids=counts.journal_ids,
            column=column,
        ))
    return tables


def compute_tables(dataset: Dataset, specs: list[IndicatorSpec]) -> list[IndicatorTable]:
    """Compute several indicator tables from a dataset's window counts."""
    return tables_from_counts(window_counts(dataset), specs)


def compute_table(dataset: Dataset, spec: IndicatorSpec) -> IndicatorTable:
    """Compute one indicator table (compute_tables computes several at once)."""
    return compute_tables(dataset, [spec])[0]


def standard_specs() -> list[IndicatorSpec]:
    """The default battery: IF2/IF5, total cites and c/p, both countings."""
    specs = []
    for window in (2, 5):
        for counting in COUNTINGS:
            specs.append(IndicatorSpec("impact_factor", window, counting))
    for kind in ("total_cites", "cp_ratio"):
        for counting in COUNTINGS:
            specs.append(IndicatorSpec(kind, counting=counting))
    return specs


def rescale(table: IndicatorTable, partition: Mapping[str, str]) -> IndicatorTable:
    """Divide each defined value by the arithmetic mean of its cluster.

    Means are taken over defined values only; UNDEFINED values stay
    UNDEFINED and the per-cluster divisor and defined-count used are
    recorded on the result, clusters in order of their first journal.
    After rescaling, each cluster's mean of defined values is 1.  Each
    cluster's sum is one bincount in journal order, so its float additions
    are those of a sequential sum.
    """
    index = vocabulary()
    cluster = encode(list(map(partition.get, table.journal_ids)), index)
    if None in index:
        jid = table.journal_ids[int(np.argmax(cluster == index[None]))]
        raise RescaleError(f"journal '{jid}' missing from the partition")
    defined = ~np.isnan(table.column)
    sums = np.bincount(cluster[defined], table.column[defined], len(index))
    counts = np.bincount(cluster[defined], minlength=len(index))

    baselines: dict[str, tuple[float, int]] = {}
    for g, total, n in zip(index, sums.tolist(), counts.tolist()):
        if n == 0:
            raise RescaleError(f"cluster '{g}' has no defined values to rescale")
        if total / n == 0.0:
            raise RescaleError(f"cluster '{g}' has zero mean; cannot rescale")
        baselines[g] = (total / n, n)
    means = np.array([mean for mean, _ in baselines.values()], dtype=np.float64)
    return replace(
        table,
        indicator_id=f"{table.indicator_id}-RS",
        normalization="rescaled",
        column=table.column / means[cluster],
        source_id=table.indicator_id,
        cluster_baselines=baselines,
    )


@lru_cache(maxsize=1)
def _id_order(journal_ids: tuple[str, ...]) -> np.ndarray:
    """The journal indices in ascending id order, read-only, once per
    census.  Python sorted orders the ids: a numpy U array would drop
    their trailing NULs."""
    order = np.array(sorted(range(len(journal_ids)), key=journal_ids.__getitem__),
                     dtype=np.intp)
    order.flags.writeable = False
    return order


@lru_cache(maxsize=1)
def _row_layout(journal_ids: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a table file, once per census: the journal indices in
    sorted id order, and an object array holding each row's "id\t" prefix
    at the even places, the odd places left for the values."""
    order = _id_order(journal_ids)
    rows = np.empty(2 * len(order), dtype=object)
    rows[0::2] = [journal_ids[i] + "\t" for i in order.tolist()]
    rows.flags.writeable = False
    return order, rows


def write_table(table: IndicatorTable, path: str | Path) -> None:
    """Serialize a table: one provenance header line, then tab-separated
    journal/value rows.

    Values keep full precision (repr); UNDEFINED is written as "NA".  Rows
    are sorted by journal id so identical tables produce identical bytes.
    Each distinct value, told apart by its bits so that -0.0 stays -0.0,
    is formatted once.
    """
    path = Path(path)
    meta = (f"# indicator_id={table.indicator_id} kind={table.kind} "
            f"window={table.window} counting={table.counting} "
            f"normalization={table.normalization} census_year={table.census_year}")
    if table.source_id:
        meta += f" source_id={table.source_id}"
    order, rows = _row_layout(table.journal_ids)
    distinct, row_value = np.unique(table.column[order].view(np.uint64), return_inverse=True)
    texts = [f"{NA}\n" if v != v else repr(v) + "\n"
             for v in distinct.view(np.float64).tolist()]
    rows = rows.copy()
    rows[1::2] = np.array(texts, dtype=object)[row_value]
    path.write_text(f"{meta}\njournal_id\tvalue\n" + "".join(rows.tolist()), encoding="utf-8")


def read_table(path: str | Path) -> IndicatorTable:
    """Read a table written by write_table (or an externally supplied one
    in the same format, e.g. vendor-provided impact factors).

    Values must be finite and non-negative, or "NA" for UNDEFINED; the
    header's indicator_id must be a plain name (_PLAIN_ID), its window and
    census_year ASCII numerals, and its kind, window, counting and
    normalization ones write_table writes.  Errors are reported in this
    order: the header line, the column line, the earliest row that breaks
    a rule, then the header's indicator_id, window, census year and the rest.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not lines[0].startswith("#"):
        raise ParseError(path, 1, "missing provenance header line")
    meta: dict[str, str] = {}
    for token in lines[0].lstrip("#").split():
        key, _, val = token.partition("=")
        if not _:
            raise ParseError(path, 1, f"malformed provenance token '{token}'")
        meta[key] = val
    for key in ("indicator_id", "kind", "window", "counting", "normalization", "census_year"):
        if key not in meta:
            raise ParseError(path, 1, f"provenance header missing '{key}'")
    if (lines[1] if len(lines) > 1 else "").split("\t")[:2] != ["journal_id", "value"]:
        raise ParseError(path, 2, "expected columns journal_id, value")

    values: dict[str, float] = {}  # journal_id -> value, in row order
    for line_no, row in enumerate(lines[2:], start=3):
        if not row:
            continue
        jid, tab, raw = row.partition("\t")
        if not jid or not tab or "\t" in raw:
            raise ParseError(path, line_no, f"malformed row: {row!r}")
        if jid in values:
            raise ParseError(path, line_no, f"duplicate journal_id '{jid}'")
        try:
            value = math.nan if raw == NA else float(raw)
        except ValueError:
            raise ParseError(path, line_no, f"bad value {raw!r}") from None
        if not 0.0 <= value < math.inf and raw != NA:
            raise ParseError(path, line_no, f"value must be finite and non-negative, got {raw!r}")
        values[jid] = value

    if not _PLAIN_ID(meta["indicator_id"]):
        raise ParseError(path, 1, f"indicator_id {meta['indicator_id']!r} is not a plain "
                                  f"name ([A-Za-z0-9][A-Za-z0-9._+-]*)")
    window = meta["window"] if meta["window"] == WINDOW_ALL else _integer(meta["window"])
    census_year = _integer(meta["census_year"])
    if window is None or census_year is None:
        raise ParseError(path, 1, f"bad window {meta['window']!r} or census_year "
                                  f"{meta['census_year']!r}")
    try:
        IndicatorSpec(meta["kind"], window, meta["counting"])
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None
    if meta["normalization"] not in NORMALIZATIONS:
        raise ParseError(path, 1, f"unknown normalization '{meta['normalization']}'")
    return IndicatorTable(
        indicator_id=meta["indicator_id"],
        kind=meta["kind"],
        window=window,
        counting=meta["counting"],
        normalization=meta["normalization"],
        census_year=census_year,
        journal_ids=tuple(values),
        column=np.fromiter(values.values(), np.float64, len(values)),
        source_id=meta.get("source_id"),
    )
