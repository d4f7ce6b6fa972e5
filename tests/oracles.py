"""Independent reference implementations used to check the fast paths.

Everything here is deliberately brute force: exhaustive subset
enumeration, exact rational CDFs, plain-sum formulas, one scan of every
record per journal.  None of it shares code with the package: count
records are PublicationCount tuples and events are plain tuples, each in
its file's column order.
"""

from __future__ import annotations

import math
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
    alpha = (1 - Fraction(level)) / 2
    cdf = exact_cdf(n_population, k_successes, n_draws)
    ms = sorted(cdf)
    m_lo = next(m for m in ms if cdf[m] > alpha)
    m_hi = next(m for m in ms if cdf[m] >= 1 - alpha)
    return m_lo, m_hi


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
