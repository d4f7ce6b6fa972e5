#!/usr/bin/env python3
"""How rescaling reorders the ranking: decile-wise rank correlations
between raw and rescaled impact factors, and the per-cluster ECDF
collapse measured with KS distances.

Usage: python demos/04_correlations_and_collapse.py
"""

import numpy as np

from citefair import IndicatorSpec, compute_table, pearson, rescale, spearman
from citefair.stats import cluster_codes, cluster_sort, decile_rhos, ecdf_steps, ks_matrix
from citefair.synth import ClusterProfile, SynthProfile, generate

profile = SynthProfile(
    clusters=(
        ClusterProfile("1", "Dense", 200, 3.5, 40.0, 0.5),
        ClusterProfile("2", "Middling", 220, 1.5, 20.0, 0.5),
        ClusterProfile("3", "Sparse", 180, 0.5, 9.0, 0.4),
    ),
    items_per_journal=(5, 12),
    years=(2005, 2010),
    seed=2,
)
dataset = generate(profile)
raw = compute_table(dataset, IndicatorSpec("impact_factor", 2, "integer"))
rescaled = rescale(raw, dataset.partition)

# both tables as columns over the journals in id order, NaN where UNDEFINED,
# as `citefair correlate` lays them out
order = sorted(range(len(raw.journal_ids)), key=raw.journal_ids.__getitem__)
journals = [raw.journal_ids[i] for i in order]
x, y = raw.column[order], rescaled.column[order]

shared = int((~(np.isnan(x) | np.isnan(y))).sum())
print(f"whole-set correlations raw vs rescaled over {shared} journals:")
print(f"  Pearson r = {pearson(x, y):.3f}   Spearman rho = {spearman(x, y):.3f}")

print("\nper-decile Spearman along the raw ranking (bin 1 = top decile):")
for i, rho in enumerate(decile_rhos(x, y, k=10), start=1):
    shown = "n/a" if rho is None else f"{rho:+.3f}"
    print(f"  decile {i:>2}: {shown}")
print("High agreement at the top and bottom, weaker in the middle, where")
print("small value differences make rankings sensitive to normalization.")

names = dataset.cluster_names
clusters, codes = cluster_codes(journals, dataset.partition)
groups = sorted(range(len(clusters)), key=clusters.__getitem__)
for label, column in [("raw", x), ("rescaled", y)]:
    values, bounds = cluster_sort(column, codes, clusters)
    steps = ecdf_steps(values, bounds)
    medians = {g: steps[g][0][np.argmax(steps[g][1] >= 0.5)] for g in groups}
    print(f"\n{label}: cluster medians "
          + ", ".join(f"{names[clusters[g]]} {medians[g]:.3f}" for g in groups))
    print(f"{label}: pairwise KS distance between cluster value distributions")
    ks = ks_matrix(values, bounds)
    for i, g in enumerate(groups):
        for h in groups[i + 1:]:
            print(f"  {names[clusters[g]]:<9} vs {names[clusters[h]]:<9} KS = {ks[g, h]:.3f}")
print("\nRescaling pulls the cluster distributions onto a near-common curve;")
print("the KS distances shrink accordingly.")
