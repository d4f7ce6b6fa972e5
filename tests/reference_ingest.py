"""The whole-file ingest, kept as the reference the one-pass ingest is
compared with: every event of citations.tsv read into one Events, the
exclusion policy applied to them as one batch, validate run over the
whole Dataset, and the bundle written from it.

It is built from the package's reader, policy and writers, so it checks
that the stream's batching and bookkeeping change nothing; the rules
themselves are checked against tests/oracles.py, which shares no code
with the package.  ``bundle`` makes the bundle of a Dataset with ingest
itself, for tests that need a bundle and no reference.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import citefair.ingest as ing
from citefair.ingest import IngestConfig, ingest_bundle, write_dataset
from citefair.model import Dataset, Events, Ids, PerId, validate, vocabulary, window_counts


def concat(parts) -> Events:
    """The rows of the Events ``parts``, one after the other, each id
    column numbered over one vocabulary in order of the parts'."""
    columns = []
    for name in Events.COLUMNS:
        pieces = [getattr(part, name) for part in parts]
        if name.endswith("_id"):
            index = vocabulary()
            code = PerId(index.__getitem__, np.int32)
            columns.append(Ids(np.concatenate([np.empty(0, np.int32), *map(code, pieces)]), index))
        else:
            columns.append(np.concatenate([np.empty(0, np.int64), *pieces]))
    return Events(*columns)


def parse_citations(path, config: IngestConfig = IngestConfig()) -> Events:
    """Citation events in file order: the checked batches of the reader
    ingest uses, one after the other."""
    return concat(list(ing._CitationReader(path, config)))


def assemble(journals, clusters, publication_counts, citation_events, census_year=None,
             config: IngestConfig = IngestConfig()):
    """The parsed inputs joined into a validated Dataset, and the summary of
    what the policy excluded.  The events go through the policy as one
    batch, and validate checks every rule over the whole Dataset."""
    assembly = ing._Assembly(journals, clusters, publication_counts, config)
    events = assembly.keep(citation_events)
    year = assembly.finish(census_year, "assembled dataset")
    dataset = Dataset(tuple(assembly.journals), tuple(assembly.clusters), assembly.counts,
                      events, year)
    violations = validate(dataset)
    ing._raise_invalid(violations, len(violations), "assembled dataset")
    return dataset, assembly.summary(year, census_year is None)


def save_bundle(dataset: Dataset, summary, directory) -> None:
    """The bundle of a validated dataset, its events written and counted whole."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    citations = ing._write_columns(directory / ing.CITATIONS_FILE, ing.CITATION_COLUMNS,
                                   dataset.citation_events.columns(), hashed=True).entry()
    ing._write_bundle(directory, dataset.journals, dataset.clusters, dataset.publication_counts,
                      window_counts(dataset), citations, summary)


def bundle(dataset: Dataset, directory) -> Path:
    """The bundle ingest writes of a dataset's three files, in ``directory``
    beside them: every cluster kept, whatever its size."""
    paths = write_dataset(dataset, directory)
    ingest_bundle(paths["journals"], paths["publications"], paths["citations"], directory,
                  dataset.census_year, IngestConfig(min_cluster_size=1))
    return Path(directory)
