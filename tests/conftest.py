import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from citefair.indicators import IndicatorSpec, IndicatorTable
from citefair.stats import cluster_codes, variance_decomposition
from citefair.model import (
    Cluster,
    Dataset,
    Events,
    JournalRecord,
    PublicationCounts,
)
from citefair.synth import ClusterProfile, SynthProfile

from oracles import PublicationCount

ALL_KIND_SPECS = [
    IndicatorSpec("impact_factor", 2, "integer"),
    IndicatorSpec("impact_factor", 2, "fractional"),
    IndicatorSpec("impact_factor", 5, "integer"),
    IndicatorSpec("impact_factor", 5, "fractional"),
    IndicatorSpec("total_cites", counting="integer"),
    IndicatorSpec("total_cites", counting="fractional"),
    IndicatorSpec("cp_ratio", counting="integer"),
    IndicatorSpec("cp_ratio", counting="fractional"),
    IndicatorSpec("numerator_only", 2, "integer"),
    IndicatorSpec("numerator_only", 5, "fractional"),
]


def table_of(values, indicator_id="X", kind="total_cites", window="all",
             normalization="raw") -> IndicatorTable:
    """An integer-counting 2010 table of a journal -> value dict (None for
    UNDEFINED), its journals in the dict's order."""
    return IndicatorTable(indicator_id, kind, window, "integer", normalization, 2010,
                          tuple(values), [math.nan if v is None else v for v in values.values()])


def values_of(table: IndicatorTable) -> dict:
    """A table's journal -> value dict in its journal order, None where
    UNDEFINED."""
    return dict(zip(table.journal_ids, [None if v != v else v for v in table.column.tolist()]))


def columns_of(*values) -> tuple[list, np.ndarray]:
    """The journals of the journal -> value dicts in ascending id order,
    and one float64 column per dict over them: NaN where its value is None
    or absent."""
    ids = sorted(set().union(*values))
    return ids, np.array([[v.get(jid) for jid in ids] for v in values],
                         dtype=np.float64).reshape(len(values), len(ids))


def decompose(values, partition):
    """variance_decomposition of a journal -> value dict's column."""
    ids, (column,) = columns_of(values)
    clusters, codes = cluster_codes(ids, partition)
    return variance_decomposition(column, codes, clusters)


def small_profile(seed: int) -> SynthProfile:
    """Three 25-journal clusters whose citation rates span about 6x."""
    return SynthProfile(
        clusters=(
            ClusterProfile("1", "Alpha", 25, 0.8, 4.0, 0.4),
            ClusterProfile("2", "Beta", 25, 2.0, 10.0, 0.5),
            ClusterProfile("3", "Gamma", 25, 5.0, 25.0, 0.5),
        ),
        items_per_journal=(2, 5),
        years=(2005, 2010),
        seed=seed,
    )


def make_dataset(journals, clusters, count_rows, event_rows, census_year=2010) -> Dataset:
    return Dataset(
        journals=tuple(journals),
        clusters=tuple(clusters),
        publication_counts=PublicationCounts.from_rows(count_rows),
        citation_events=Events.from_rows(event_rows),
        census_year=census_year,
    )


@pytest.fixture
def tiny_dataset() -> Dataset:
    """Three journals in two clusters, census year 2010, hand-checkable."""
    journals = [
        JournalRecord("jA", "Alpha Journal", "g1"),
        JournalRecord("jB", "Beta Journal", "g1"),
        JournalRecord("jC", "Gamma Journal", "g2"),
    ]
    clusters = [Cluster("g1", "Group One", 2), Cluster("g2", "Group Two", 1)]
    counts = [
        PublicationCount("jA", 2008, 150),
        PublicationCount("jA", 2009, 100),
        PublicationCount("jA", 2010, 80),
        PublicationCount("jB", 2008, 40),
        PublicationCount("jB", 2009, 60),
        PublicationCount("jB", 2010, 50),
        PublicationCount("jC", 2009, 20),
        PublicationCount("jC", 2010, 10),
    ]
    events = [
        # one citing paper with 4 refs citing jA twice in-window
        ("p1", "jB", 2010, "jA", 2009, 4),
        ("p1", "jB", 2010, "jA", 2008, 4),
        ("p1", "jB", 2010, "jC", 2009, 4),
        # a second paper citing jA once in-window, once out-of-window
        ("p2", "jC", 2010, "jA", 2009, 2),
        ("p2", "jC", 2010, "jA", 2005, 2),
        # same-year citation (counts for total cites, not for IF2)
        ("p3", "jA", 2010, "jB", 2010, 1),
    ]
    return make_dataset(journals, clusters, counts, events)
