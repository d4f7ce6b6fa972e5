#!/usr/bin/env python3
"""Compute impact factors on a tiny hand-made dataset, rescale them per
cluster, and watch the between-group variance vanish.

Usage: python demos/01_indicators_and_rescaling.py
"""

from citefair import (
    Cluster,
    Dataset,
    Events,
    IndicatorSpec,
    JournalRecord,
    PublicationCounts,
    compute_table,
    rescale,
    variance_decomposition,
)
from citefair.stats import cluster_codes

journals = [
    JournalRecord("math-a", "Annals of Short Lists", "math"),
    JournalRecord("math-b", "Quarterly of Lemmas", "math"),
    JournalRecord("bio-a", "Cell Reports Weekly", "bio"),
    JournalRecord("bio-b", "Long Reference Letters", "bio"),
]
clusters = [Cluster("math", "Mathematics", 2), Cluster("bio", "Biosciences", 2)]
counts = PublicationCounts.from_rows(
    (j.journal_id, y, 50) for j in journals for y in (2008, 2009, 2010))

# biosciences papers carry long reference lists; mathematics short ones
events = []
pid = 0
for citing, n_refs, targets in [
    ("bio-a", 40, ["bio-b"] * 12 + ["math-a"]),
    ("bio-b", 45, ["bio-a"] * 10 + ["math-b"] * 2),
    ("math-a", 8, ["math-b", "bio-a"]),
    ("math-b", 6, ["math-a"]),
]:
    pid += 1
    for cited in targets:
        events.append((f"p{pid}", citing, 2010, cited, 2009, n_refs))

dataset = Dataset(tuple(journals), tuple(clusters), counts, Events.from_rows(events), 2010)

print("journal      IF2 (integer)   IF2 (fractional)")
integer = compute_table(dataset, IndicatorSpec("impact_factor", 2, "integer"))
fractional = compute_table(dataset, IndicatorSpec("impact_factor", 2, "fractional"))
for jid, whole, frac in sorted(zip(integer.journal_ids, integer.column.tolist(),
                                  fractional.column.tolist())):
    print(f"{jid:<12} {whole:<15.4f} {frac:.4f}")

print("\nThe biosciences dominate the raw table purely because their")
print("reference lists are long. Rescaling divides each journal by its")
print("cluster mean:")
rescaled = rescale(integer, dataset.partition)
for jid, value in sorted(zip(rescaled.journal_ids, rescaled.column.tolist())):
    print(f"{jid:<12} {value:.4f}")

clusters, codes = cluster_codes(integer.journal_ids, dataset.partition)
for label, table in [("raw", integer), ("rescaled", rescaled)]:
    vd = variance_decomposition(table.column, codes, clusters)
    share = vd.eta_squared if vd.eta_squared is not None else float("nan")
    print(f"\n{label}: SS_total={vd.ss_total:.6f}  SS_between={vd.ss_between:.2e}  "
          f"between-group share={share:.2e}")
print("\nAfter rescaling every cluster mean is 1, so the between-group")
print("sum of squares is zero by construction.")
