"""Citation indicators per journal: impact factors (2- and 5-year windows),
total cites, c/p ratios and bare numerators, each under integer or
fractional counting, plus per-cluster mean rescaling.

Counting modes
--------------
integer     every citation event adds 1 to the cited journal.
fractional  every event adds 1/n_refs, n_refs being the citing paper's
            full reference-list length; denominators are never
            fractionalized.

A value is UNDEFINED (None) exactly when the indicator's denominator is
zero for that journal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .errors import ParseError, RescaleError
from .ingest import _not_utf8
from .model import WINDOW_ALL, WINDOWS, Dataset, WindowCounts, window_counts
from .stats import rank_order

__all__ = [
    "WINDOW_ALL",
    "IndicatorSpec",
    "IndicatorTable",
    "compute_table",
    "compute_tables",
    "tables_from_counts",
    "rescale",
    "rank_table",
    "write_table",
    "read_table",
    "standard_specs",
]

KINDS = ("impact_factor", "total_cites", "cp_ratio", "numerator_only")
COUNTINGS = ("integer", "fractional")

NA = "NA"  # serialized UNDEFINED sentinel


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


@dataclass(frozen=True)
class IndicatorTable:
    """One indicator's value per journal, with provenance.

    ``values`` maps every journal to a non-negative float or None
    (UNDEFINED).  Rescaled tables carry the raw table's id in
    ``source_id`` and the divisor used per cluster in
    ``cluster_baselines`` (mean, defined-count) pairs.
    """

    indicator_id: str
    kind: str
    window: int | str
    counting: str
    normalization: str
    census_year: int
    values: Mapping[str, Optional[float]]
    source_id: Optional[str] = None
    cluster_baselines: Optional[Mapping[str, tuple[float, int]]] = field(
        default=None, compare=False)

    def defined(self) -> dict[str, float]:
        return {j: v for j, v in self.values.items() if v is not None}


def _ratio(num: np.ndarray, den: np.ndarray) -> list[Optional[float]]:
    """num / den per journal, None wherever the denominator is not positive."""
    defined = den > 0
    quotient = num / np.where(defined, den, 1)
    return [q if ok else None for q, ok in zip(quotient.tolist(), defined.tolist())]


def tables_from_counts(counts: WindowCounts,
                       specs: list[IndicatorSpec]) -> list[IndicatorTable]:
    """The indicator tables of ``specs`` from a census's window counts:
    numerators are the counts of the spec's window, and IF and c/p values
    divide them by that window's citable items."""
    tables = []
    for spec in specs:
        w = WINDOWS.index(spec.window)
        if spec.counting == "integer":
            num = counts.cites[:, w].astype(np.float64)
        else:
            num = counts.fractional[:, w]
        if spec.kind in ("impact_factor", "cp_ratio"):
            column = _ratio(num, counts.items[:, w])
        else:
            column = num.tolist()
        tables.append(IndicatorTable(
            indicator_id=spec.indicator_id,
            kind=spec.kind,
            window=spec.window,
            counting=spec.counting,
            normalization="raw",
            census_year=counts.census_year,
            values=dict(zip(counts.journal_ids, column)),
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
    recorded on the result.  After rescaling, each cluster's mean of
    defined values is 1.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for jid, v in table.values.items():
        try:
            g = partition[jid]
        except KeyError:
            raise RescaleError(f"journal '{jid}' missing from the partition") from None
        if v is None:
            sums.setdefault(g, 0.0)
            counts.setdefault(g, 0)
            continue
        sums[g] = sums.get(g, 0.0) + v
        counts[g] = counts.get(g, 0) + 1

    baselines: dict[str, tuple[float, int]] = {}
    for g in sums:
        if counts[g] == 0:
            raise RescaleError(f"cluster '{g}' has no defined values to rescale")
        mean = sums[g] / counts[g]
        if mean == 0.0:
            raise RescaleError(f"cluster '{g}' has zero mean; cannot rescale")
        baselines[g] = (mean, counts[g])

    values = {
        jid: (None if v is None else v / baselines[partition[jid]][0])
        for jid, v in table.values.items()
    }
    return IndicatorTable(
        indicator_id=f"{table.indicator_id}-RS",
        kind=table.kind,
        window=table.window,
        counting=table.counting,
        normalization="rescaled",
        census_year=table.census_year,
        values=values,
        source_id=table.indicator_id,
        cluster_baselines=baselines,
    )


def rank_table(table: IndicatorTable) -> list[tuple[str, Optional[float], int]]:
    """Rank journals by value descending, UNDEFINED last, ties broken by id
    ascending.

    Returns (journal_id, value, rank) with 1-based ranks; tied values get
    distinct consecutive ranks under the id tie-break.
    """
    defined = rank_order(table.values)
    undefined = [(j, None) for j in sorted(j for j, v in table.values.items() if v is None)]
    return [(jid, v, rank) for rank, (jid, v) in enumerate(defined + undefined, start=1)]


def write_table(table: IndicatorTable, path: str | Path) -> None:
    """Serialize a table: one provenance header line, then tab-separated
    journal/value rows.

    Values keep full precision; UNDEFINED is written as "NA".  Rows are
    sorted by journal id so identical tables produce identical bytes.
    """
    path = Path(path)
    meta = (f"# indicator_id={table.indicator_id} kind={table.kind} "
            f"window={table.window} counting={table.counting} "
            f"normalization={table.normalization} census_year={table.census_year}")
    if table.source_id:
        meta += f" source_id={table.source_id}"
    lines = [meta, "journal_id\tvalue"]
    for jid in sorted(table.values):
        v = table.values[jid]
        lines.append(f"{jid}\t{NA if v is None else repr(v)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_table(path: str | Path) -> IndicatorTable:
    """Read a table written by write_table (or an externally supplied one
    in the same format, e.g. vendor-provided impact factors).

    Values must be finite and non-negative, or "NA" for UNDEFINED.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith("#"):
                raise ParseError(path, 1, "missing provenance header line")
            meta: dict[str, str] = {}
            for token in header.lstrip("#").split():
                key, _, val = token.partition("=")
                if not _:
                    raise ParseError(path, 1, f"malformed provenance token '{token}'")
                meta[key] = val
            for key in ("indicator_id", "kind", "window", "counting",
                        "normalization", "census_year"):
                if key not in meta:
                    raise ParseError(path, 1, f"provenance header missing '{key}'")
            columns = fh.readline().rstrip("\n").split("\t")
            if columns[:2] != ["journal_id", "value"]:
                raise ParseError(path, 2, "expected columns journal_id, value")
            values: dict[str, Optional[float]] = {}
            for lineno, line in enumerate(fh, start=3):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0]:
                    raise ParseError(path, lineno, f"malformed row: {line!r}")
                jid, raw = parts
                if jid in values:
                    raise ParseError(path, lineno, f"duplicate journal_id '{jid}'")
                if raw == NA:
                    values[jid] = None
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    raise ParseError(path, lineno, f"bad value {raw!r}") from None
                if not 0.0 <= value < math.inf:
                    raise ParseError(path, lineno,
                                     f"value must be finite and non-negative, got {raw!r}")
                values[jid] = value
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    try:
        window = meta["window"] if meta["window"] == WINDOW_ALL else int(meta["window"])
        census_year = int(meta["census_year"])
    except ValueError:
        raise ParseError(path, 1, f"bad window {meta['window']!r} or census_year "
                                  f"{meta['census_year']!r}") from None
    return IndicatorTable(
        indicator_id=meta["indicator_id"],
        kind=meta["kind"],
        window=window,
        counting=meta["counting"],
        normalization=meta["normalization"],
        census_year=census_year,
        values=values,
        source_id=meta.get("source_id"),
    )
