"""citefair: journal citation indicators, field normalization, and the
top-share fairness test.

The pipeline: ingest (or synthesize) a journal/citation dataset, compute
indicator tables under integer or fractional counting, rescale them by
per-cluster means, and evaluate cross-field fairness statistically.

The names below are loaded from their modules on first use, so that
``import citefair`` imports no numpy (and no BLAS) by itself.
"""

import importlib

_MODULE_NAMES = {
    "errors": ("CiteFairError", "FairnessError", "IngestWarning", "ParseError",
               "ProfileError", "RescaleError", "StatsError", "ValidationError"),
    "fairness": ("FairnessReport", "ReportComparison", "calibration", "compare_reports",
                 "fairness_test", "percentage_summary"),
    "indicators": ("IndicatorSpec", "IndicatorTable", "compute_table", "compute_tables",
                   "read_table", "rescale", "tables_from_counts", "write_table"),
    "ingest": ("IngestConfig", "ingest_bundle", "load_counts", "load_partition",
               "parse_journals", "parse_publications", "write_dataset"),
    "model": ("Cluster", "Dataset", "Events", "Ids", "JournalRecord", "PublicationCounts",
              "Violation", "WindowCounts", "validate", "window_counts"),
    "stats": ("HypergeomParams", "VarianceDecomposition", "hypergeom_ci", "hypergeom_pmf",
              "pearson", "spearman", "variance_decomposition"),
    "synth": ("SynthProfile", "generate", "paper2010_profile"),
}
# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
