"""Independent reference implementations used to check the fast paths.

Everything here is deliberately brute force: exhaustive subset
enumeration, exact rational CDFs, plain-sum formulas, one scan of every
record per journal.  None of it shares code with the package: count
records are PublicationCount tuples and events are plain tuples, each in
its file's column order.
"""

from __future__ import annotations

import math
import string
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple


class PublicationCount(NamedTuple):
    """Citable items of one journal-year: one row of the publications file."""

    journal_id: str
    year: int
    citable_items: int


def pmf_by_enumeration(m: int, n_population: int, k_successes: int, n_draws: int) -> float:
    """P(X = m) by enumerating every n-subset of the population."""
    population = list(range(n_population))
    successes = set(population[:k_successes])
    hits = 0
    total = 0
    for subset in combinations(population, n_draws):
        total += 1
        if sum(1 for x in subset if x in successes) == m:
            hits += 1
    return hits / total


def exact_cdf(n_population: int, k_successes: int, n_draws: int) -> dict[int, Fraction]:
    """Exact rational CDF over the support, via integer binomials."""
    lo = max(0, n_draws + k_successes - n_population)
    hi = min(n_draws, k_successes)
    total = math.comb(n_population, n_draws)
    cdf: dict[int, Fraction] = {}
    acc = Fraction(0)
    for m in range(lo, hi + 1):
        acc += Fraction(
            math.comb(k_successes, m) * math.comb(n_population - k_successes, n_draws - m),
            total,
        )
        cdf[m] = acc
    return cdf


def exact_equal_tail_ci(n_population: int, k_successes: int, n_draws: int,
                        level: str) -> tuple[int, int]:
    """Equal-tail interval from the exact CDF; ``level`` as a string keeps
    the tail allowance rational (e.g. '0.90')."""
    return exact_equal_tail_cis(n_population, k_successes, n_draws, [level])[0]


def exact_equal_tail_cis(n_population: int, k_successes: int, n_draws: int,
                         levels) -> list[tuple[int, int]]:
    """exact_equal_tail_ci at each of ``levels``, from one exact CDF: the
    smallest m whose CDF exceeds the tail allowance, and the smallest m
    whose CDF reaches one minus it, compared as rationals."""
    cdf = exact_cdf(n_population, k_successes, n_draws)
    ms = sorted(cdf)
    bands = []
    for level in levels:
        alpha = (1 - Fraction(level)) / 2
        bands.append((next(m for m in ms if cdf[m] > alpha),
                      next(m for m in ms if cdf[m] >= 1 - alpha)))
    return bands


def exact_interval_coverage(n_population: int, k_successes: int, n_draws: int,
                            m_lo: int, m_hi: int) -> float:
    cdf = exact_cdf(n_population, k_successes, n_draws)
    ms = sorted(cdf)
    upper = cdf[min(m_hi, ms[-1])] if m_hi >= ms[0] else Fraction(0)
    lower = cdf[m_lo - 1] if m_lo - 1 in cdf else Fraction(0)
    return float(upper - lower)


def pearson_by_sums(xs, ys) -> float | None:
    """Direct textbook formula with compensated sums."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


def ranks_by_sorting(xs) -> list[float]:
    """Average ranks: mean of the 1-based positions of each tied block."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = (i + 1 + j + 1) / 2
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_by_ranks(xs, ys) -> float | None:
    return pearson_by_sums(ranks_by_sorting(xs), ranks_by_sorting(ys))


def ks_by_enumeration(a, b) -> float:
    """Max ECDF difference checked at every pooled point."""
    best = 0.0
    for x in sorted(set(a) | set(b)):
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def variance_parts_by_definition(groups: dict[str, list[float]]):
    """SS_tot, SS_b, SS_w straight from their definitions."""
    everything = [v for vs in groups.values() for v in vs]
    grand = math.fsum(everything) / len(everything)
    ss_tot = math.fsum((v - grand) ** 2 for v in everything)
    ss_b = math.fsum(
        len(vs) * (math.fsum(vs) / len(vs) - grand) ** 2 for vs in groups.values())
    ss_w = math.fsum(
        (v - math.fsum(vs) / len(vs)) ** 2 for vs in groups.values() for v in vs)
    return ss_tot, ss_b, ss_w


def if_numerator_by_scan(event_rows, census_year: int, journal_id: str,
                         window, counting: str) -> float:
    """Citations in the census year t to ``journal_id``'s items of the
    years [t - window, t - 1], or of every year when ``window`` is "all".

    Integer counting adds 1 per event, fractional counting 1/n_refs; the
    sum runs left to right in event order.
    """
    total = 0.0
    for _, _, citing_year, cited_journal_id, cited_year, n_refs in event_rows:
        if cited_journal_id != journal_id or citing_year != census_year:
            continue
        if window != "all" and not 1 <= census_year - cited_year <= window:
            continue
        total += 1.0 if counting == "integer" else 1.0 / n_refs
    return total


def items_by_scan(count_rows, journal_id: str, years) -> int:
    """Citable items of ``journal_id`` summed over ``years``."""
    return sum(items for jid, year, items in count_rows if jid == journal_id and year in years)


def if_denominator_by_scan(count_rows, census_year: int, journal_id: str, window: int) -> int:
    """Citable items of the window years [t - window, t - 1]."""
    return items_by_scan(count_rows, journal_id, range(census_year - window, census_year))


def indicator_by_scan(journal_ids, count_rows, event_rows, census_year: int,
                      kind: str, window, counting: str) -> dict:
    """One indicator's {journal_id: value}, None where the denominator is 0."""
    values = {}
    for jid in journal_ids:
        num = if_numerator_by_scan(event_rows, census_year, jid, window, counting)
        if kind == "impact_factor":
            den = if_denominator_by_scan(count_rows, census_year, jid, window)
        elif kind == "cp_ratio":
            den = items_by_scan(count_rows, jid, (census_year,))
        else:  # total_cites, numerator_only
            values[jid] = num
            continue
        values[jid] = num / den if den > 0 else None
    return values


def assemble_by_rows(journals, count_rows, event_rows, min_cluster_size: int):
    """What assemble keeps and drops, one row at a time: (kept event rows,
    kept count rows, events dropped with excluded clusters, event rows
    citing a journal outside the dataset).  ``journals`` need only
    ``journal_id`` and ``cluster_id`` attributes."""
    sizes: dict[str, int] = {}
    for j in journals:
        sizes[j.cluster_id] = sizes.get(j.cluster_id, 0) + 1
    kept = {j.journal_id for j in journals if sizes[j.cluster_id] >= min_cluster_size}
    dropped = {j.journal_id for j in journals} - kept
    events, excluded, unknown = [], 0, []
    for row in event_rows:
        citing, cited = row[1], row[3]
        if citing in dropped or cited in dropped:
            excluded += 1
        elif cited not in kept:
            unknown.append(row)
        else:
            events.append(row)
    return events, [row for row in count_rows if row[0] in kept], excluded, unknown


def record_violations_by_rows(journal_ids, count_rows, event_rows) -> list[tuple[str, str, str]]:
    """The (rule, record, message) of every publication and event rule a
    dataset breaks, rule by rule, each in row order (excess references in
    order of each paper's first event)."""
    found = []
    seen = set()
    for jid, year, items in count_rows:
        if (jid, year) in seen:
            found.append(("publication.duplicate", f"{jid}/{year}",
                          "more than one record for this journal-year"))
        seen.add((jid, year))
        if items < 0:
            found.append(("publication.negative_items", f"{jid}/{year}",
                          f"citable_items {items} < 0"))
    events = list(event_rows)
    for pid, _, _, _, _, n_refs in events:
        if n_refs < 1:
            found.append(("event.nonpositive_refs", pid, f"n_refs {n_refs} < 1"))
    for pid, _, citing_year, _, cited_year, _ in events:
        if cited_year > citing_year:
            found.append(("event.causality", pid,
                          f"cited_year {cited_year} > citing_year {citing_year}"))
    first = {}
    for pid, citing_jid, citing_year, _, _, n_refs in events:
        if first.setdefault(pid, (citing_jid, citing_year, n_refs)) != (citing_jid, citing_year,
                                                                         n_refs):
            found.append(("event.paper_inconsistent", pid,
                          "events of one citing paper disagree on journal, year or n_refs"))
    for pid, _, _, cited_jid, _, _ in events:
        if cited_jid not in journal_ids:
            found.append(("event.unknown_cited_journal", pid,
                          f"cited journal '{cited_jid}' not in dataset"))
    for pid, (_, _, n_refs) in first.items():
        recorded = sum(1 for row in events if row[0] == pid)
        if n_refs >= 1 and recorded > n_refs:
            found.append(("event.excess_references", pid,
                          f"{recorded} recorded references exceed n_refs={n_refs}"))
    return found


def items_last_record_wins(count_rows, journal_id: str, year: int) -> int:
    """Citable items of one journal-year, taken from its last record (0 if none)."""
    items = 0
    for jid, y, n in count_rows:
        if jid == journal_id and y == year:
            items = n
    return items


def rescale_by_dicts(values, partition):
    """Each defined value divided by the mean of the defined values of its
    cluster, by one pass over a journal -> value dict (None for UNDEFINED).

    Returns (values, baselines), baselines mapping each cluster, in order
    of its first journal, to (mean, defined count).  A journal outside the
    partition, then the first cluster without defined values or with a
    zero mean, raises ValueError with the package's RescaleError message.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for jid, v in values.items():
        if jid not in partition:
            raise ValueError(f"journal '{jid}' missing from the partition")
        g = partition[jid]
        sums.setdefault(g, 0.0)
        counts.setdefault(g, 0)
        if v is not None:
            sums[g] += v
            counts[g] += 1
    baselines = {}
    for g in sums:
        if counts[g] == 0:
            raise ValueError(f"cluster '{g}' has no defined values to rescale")
        if sums[g] / counts[g] == 0.0:
            raise ValueError(f"cluster '{g}' has zero mean; cannot rescale")
        baselines[g] = (sums[g] / counts[g], counts[g])
    return ({jid: None if v is None else v / baselines[partition[jid]][0]
             for jid, v in values.items()}, baselines)


def table_text_by_rows(table, values) -> str:
    """The text of an indicator table file: the provenance header of
    ``table``, the column names, then one row per journal of ``values``
    (None for UNDEFINED) in sorted id order, each value as repr or NA."""
    header = (f"# indicator_id={table.indicator_id} kind={table.kind} "
              f"window={table.window} counting={table.counting} "
              f"normalization={table.normalization} census_year={table.census_year}")
    if table.source_id:
        header += f" source_id={table.source_id}"
    lines = [header, "journal_id\tvalue"]
    for jid in sorted(values):
        lines.append(jid + "\t" + ("NA" if values[jid] is None else repr(values[jid])))
    return "\n".join(lines) + "\n"


def rank_by_sort(values):
    """The defined (journal, value) pairs of a journal -> value dict (None
    for UNDEFINED), by value descending, ties by id ascending: one Python
    sort, under which -0.0 ties with 0.0."""
    defined = [(jid, v) for jid, v in values.items() if v is not None]
    defined.sort(key=lambda kv: (-kv[1], kv[0]))
    return defined


def top_set_by_sort(values, z):
    """The ids of the floor(z*N/100) first journals of rank_by_sort, N the
    number of defined values, with z read exactly from its decimal form."""
    ranked = rank_by_sort(values)
    n_z = int(Fraction(str(z)) * len(ranked) / 100)
    return frozenset(jid for jid, _ in ranked[:n_z]), n_z


def decile_bins_by_sort(baseline, other, k):
    """The journals defined in both dicts, ranked by ``baseline`` as
    rank_by_sort ranks them, cut into k contiguous bins (the remainder one
    each to the top bins): per bin, the (baseline, other) value pairs."""
    shared = {jid: v for jid, v in baseline.items()
              if v is not None and other.get(jid) is not None}
    ranked = [jid for jid, _ in rank_by_sort(shared)]
    base, rem = divmod(len(ranked), k)
    bins, pos = [], 0
    for b in range(k):
        size = base + (b < rem)
        bins.append([(baseline[j], other[j]) for j in ranked[pos:pos + size]])
        pos += size
    return bins


def ecdf_by_dicts(values, partition):
    """Per cluster, in order of the cluster's first journal in the
    partition, the ECDF steps of its defined values: (value, fraction of
    the cluster's values at or below it) at each distinct value ascending.
    Of equal values (-0.0 and 0.0), a step shows the smallest id's."""
    grouped = {g: [] for g in dict.fromkeys(partition.values())}
    for jid, v in values.items():
        if v is not None:
            grouped[partition[jid]].append((v, jid))
    steps = {}
    for g, pairs in grouped.items():
        pairs.sort()
        points = []
        for i, (v, _) in enumerate(pairs):
            if points and points[-1][0] == v:
                points[-1] = (points[-1][0], (i + 1) / len(pairs))
            else:
                points.append((v, (i + 1) / len(pairs)))
        steps[g] = points
    return steps


def ks_by_counts(a, b) -> float:
    """sup |ECDF_a - ECDF_b| over the pooled points, each ECDF value the
    count at or below the point over the sample size."""
    return max(abs(sum(v <= x for v in a) / len(a) - sum(v <= x for v in b) / len(b))
               for x in list(a) + list(b))


def read_table_by_lines(path):
    """An indicator table file read one line at a time: (provenance dict,
    journal ids, values with None for NA), or ValueError((line, message))
    for the first rule broken, the rules checked in this order: the header
    line, the column line, each data row in turn, then the header's
    indicator_id, window, census year, kind, counting and normalization."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#"):
            raise ValueError((1, "missing provenance header line"))
        meta = {}
        for token in header.lstrip("#").split():
            key, eq, val = token.partition("=")
            if not eq:
                raise ValueError((1, f"malformed provenance token '{token}'"))
            meta[key] = val
        for key in ("indicator_id", "kind", "window", "counting", "normalization",
                    "census_year"):
            if key not in meta:
                raise ValueError((1, f"provenance header missing '{key}'"))
        if fh.readline().rstrip("\n").split("\t")[:2] != ["journal_id", "value"]:
            raise ValueError((2, "expected columns journal_id, value"))
        ids, values = [], []
        for lineno, line in enumerate(fh, start=3):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0]:
                raise ValueError((lineno, f"malformed row: {line!r}"))
            jid, raw = parts
            if jid in ids:
                raise ValueError((lineno, f"duplicate journal_id '{jid}'"))
            ids.append(jid)
            if raw == "NA":
                values.append(None)
                continue
            try:
                value = float(raw)
            except ValueError:
                raise ValueError((lineno, f"bad value {raw!r}")) from None
            if not 0.0 <= value < math.inf:
                raise ValueError((lineno, f"value must be finite and non-negative, got {raw!r}"))
            values.append(value)
    indicator_id = meta["indicator_id"]
    ascii_alnum = string.ascii_letters + string.digits
    if not (indicator_id[:1] and indicator_id[0] in ascii_alnum
            and all(c in ascii_alnum + "._+-" for c in indicator_id)):
        raise ValueError((1, f"indicator_id {indicator_id!r} is not a plain name "
                             f"([A-Za-z0-9][A-Za-z0-9._+-]*)"))

    def numeral(raw):
        digits = raw[1:] if raw[:1] in ("+", "-") else raw
        return int(raw) if digits and all(c in string.digits for c in digits) else None

    window = meta["window"] if meta["window"] == "all" else numeral(meta["window"])
    if window is None or numeral(meta["census_year"]) is None:
        raise ValueError((1, f"bad window {meta['window']!r} or census_year "
                             f"{meta['census_year']!r}"))
    kind = meta["kind"]
    if kind not in ("impact_factor", "total_cites", "cp_ratio", "numerator_only"):
        raise ValueError((1, f"unknown indicator kind '{kind}'"))
    if meta["counting"] not in ("integer", "fractional"):
        raise ValueError((1, f"unknown counting mode '{meta['counting']}'"))
    if kind in ("impact_factor", "numerator_only") and window not in (2, 5):
        raise ValueError((1, f"{kind} requires window 2 or 5, got {window!r}"))
    if kind in ("total_cites", "cp_ratio") and window != "all":
        raise ValueError((1, f"{kind} uses all prior years; got window {window!r}"))
    if meta["normalization"] not in ("raw", "rescaled"):
        raise ValueError((1, f"unknown normalization '{meta['normalization']}'"))
    return meta, ids, values
