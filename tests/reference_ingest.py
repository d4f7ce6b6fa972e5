"""The whole-file ingest, kept as the reference the one-pass ingest is
compared with: every event of citations.tsv read into one Events, the
exclusion policy applied to them as one batch, validate run over the
whole Dataset, and the bundle written from it.

validate is the second statement of the rules that ingest_bundle
enforces as it reads (the parsers, _Assembly and _census): it checks
them all over one Dataset, hand-built ones included, and lists every
breach.  The rest is built from the package's reader, policy and
writers, so it checks that the stream's batching and bookkeeping change
nothing; the rules themselves are checked against tests/oracles.py,
which shares no code with the package.  ``bundle`` makes the bundle of a
Dataset with ingest itself, for tests that need a bundle and no
reference.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np

import citefair.ingest as ing
from citefair.ingest import IngestConfig, ingest_bundle, write_dataset
from citefair.model import (Cluster, Dataset, Events, Ids, JournalRecord, Leads, PerId,
                            PublicationCounts, Violation, _causality, _excess_references,
                            repeats, vocabulary, window_counts)


def _record_violations(journals: Sequence[JournalRecord], clusters: Sequence[Cluster],
                       counts: PublicationCounts) -> list[Violation]:
    """The violations of the cluster, journal and publication rules."""
    violations: list[Violation] = []
    add = violations.append

    declared = {}
    for c in clusters:
        if c.cluster_id in declared:
            add(Violation("cluster.duplicate_id", c.cluster_id, "cluster declared twice"))
        declared[c.cluster_id] = c
        if c.size < 1:
            add(Violation("cluster.empty", c.cluster_id, f"declared size {c.size} < 1"))

    seen_journals: set[str] = set()
    membership: Counter[str] = Counter()
    for j in journals:
        if j.journal_id in seen_journals:
            add(Violation("journal.duplicate_id", j.journal_id, "journal_id occurs more than once"))
        seen_journals.add(j.journal_id)
        if j.cluster_id not in declared:
            add(Violation("journal.unknown_cluster", j.journal_id,
                          f"refers to undeclared cluster '{j.cluster_id}'"))
        membership[j.cluster_id] += 1

    for c in clusters:
        actual = membership.get(c.cluster_id, 0)
        if actual != c.size:
            add(Violation("cluster.size_mismatch", c.cluster_id,
                          f"declared size {c.size}, membership count {actual}"))
    if sum(c.size for c in clusters) != len(journals):
        add(Violation("cluster.size_sum", "<dataset>",
                      "declared cluster sizes do not sum to the journal count"))

    jids, years, items = counts.journal_id, counts.year, counts.citable_items
    repeat = repeats(jids.codes, np.unique(years, return_inverse=True)[1])
    negative = items < 0
    for i in np.flatnonzero(repeat | negative).tolist():
        record = f"{jids[i]}/{years[i]}"
        if repeat[i]:
            add(Violation("publication.duplicate", record,
                          "more than one record for this journal-year"))
        if negative[i]:
            add(Violation("publication.negative_items", record,
                          f"citable_items {items[i]} < 0"))
    return violations


def validate(dataset: Dataset) -> list[Violation]:
    """Check every structural invariant; return one Violation per breach.

    Violations are data, not failures: a clean dataset yields an empty
    list, and identical input always yields the identical list.  Event
    violations come rule by rule, each rule's in event (file) order; the
    excess_references rule gives one entry per citing paper, listed by its
    first event.
    """
    events = dataset.citation_events
    pids, cited, n_refs = events.citing_paper_id, events.cited_journal_id, events.n_refs
    leads = Leads()  # each citing paper's first event
    inconsistent = leads.conflicts(pids.codes, events.citing_journal_id.codes,
                                   events.citing_year, n_refs)
    known = {j.journal_id for j in dataset.journals}
    unknown = ~cited.expand(map(known.__contains__, cited.values))
    return [
        *_record_violations(dataset.journals, dataset.clusters, dataset.publication_counts),
        *(Violation("event.nonpositive_refs", pids[i], f"n_refs {n_refs[i]} < 1")
          for i in np.flatnonzero(n_refs < 1).tolist()),
        *_causality(events)[0],
        *(Violation("event.paper_inconsistent", pids[i],
                    "events of one citing paper disagree on journal, year or n_refs")
          for i in np.flatnonzero(inconsistent).tolist()),
        *(Violation("event.unknown_cited_journal", pids[i],
                    f"cited journal '{cited[i]}' not in dataset")
          for i in np.flatnonzero(unknown).tolist()),
        *_excess_references(np.bincount(pids.codes, minlength=len(leads.first)), leads.first,
                            leads.fields[2], pids.values)[0],
    ]


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
