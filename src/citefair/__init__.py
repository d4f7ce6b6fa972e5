"""citefair: journal citation indicators, field normalization, and the
top-share fairness test.

The pipeline: ingest (or synthesize) a journal/citation dataset, compute
indicator tables under integer or fractional counting, rescale them by
per-cluster means, and evaluate cross-field fairness statistically.
"""

from .errors import (
    CiteFairError,
    FairnessError,
    IngestWarning,
    ParseError,
    ProfileError,
    RescaleError,
    StatsError,
    ValidationError,
)
from .fairness import (
    FairnessReport,
    ReportComparison,
    calibration,
    compare_reports,
    fairness_test,
    percentage_summary,
)
from .indicators import (
    IndicatorSpec,
    IndicatorTable,
    compute_table,
    compute_tables,
    read_table,
    rescale,
    tables_from_counts,
    write_table,
)
from .ingest import (
    IngestConfig,
    ingest_bundle,
    load_counts,
    load_partition,
    parse_journals,
    parse_publications,
    write_dataset,
)
from .model import (
    Cluster,
    Dataset,
    Events,
    Ids,
    JournalRecord,
    PublicationCounts,
    Violation,
    WindowCounts,
    validate,
    window_counts,
)
from .stats import (
    HypergeomParams,
    VarianceDecomposition,
    hypergeom_ci,
    hypergeom_pmf,
    pearson,
    spearman,
    variance_decomposition,
)
from .synth import SynthProfile, generate, paper2010_profile

__version__ = "0.1.0"
