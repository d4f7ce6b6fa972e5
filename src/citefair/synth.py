"""Seeded synthetic datasets with field-dependent citation behavior.

Fields differ in two ways that drive citation disproportion: how long
their papers' reference lists are (citation potential) and how many
citations their journals attract per published item.  Reference-list
lengths are discretized lognormals per cluster; each reference picks an
in-dataset journal with probability proportional to the journal's
attractiveness (cluster rate times a skewed per-journal multiplier, a
cheap stand-in for cumulative advantage) and a recency-weighted cited
year.  Generation is a pure function of the profile, seed included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ProfileError
from .model import Cluster, Dataset, Events, Ids, JournalRecord, PublicationCounts

__all__ = [
    "ClusterProfile",
    "SynthProfile",
    "paper2010_profile",
    "builtin_profile",
    "BUILTIN_PROFILES",
    "generate",
    "profile_from_json",
    "profile_to_json",
]

DEFAULT_RECENCY_WEIGHTS = (0.4, 1.0, 1.0, 0.8, 0.6, 0.4)


@dataclass(frozen=True)
class ClusterProfile:
    """Rates for one field: journals, citations per item, referencing."""

    cluster_id: str
    name: str
    size: int
    mean_cites_per_item: float
    mean_refs: float
    ref_dispersion: float

    def __post_init__(self):
        if self.size < 1:
            raise ProfileError(f"cluster '{self.name}': size must be >= 1")
        if not all(0 < rate < math.inf for rate in (self.mean_cites_per_item, self.mean_refs,
                                                    self.ref_dispersion)):
            raise ProfileError(f"cluster '{self.name}': all rates must be finite and positive")


@dataclass(frozen=True)
class SynthProfile:
    """Everything generate() needs; byte-identical output for equal profiles.

    ``journal_spread`` is the sigma of the lognormal per-journal
    attractiveness multipliers (0 disables within-cluster skew);
    ``recency_weights`` gives the relative citation rate at age 0, 1, 2,
    ... years, the last entry covering all older years.
    """

    clusters: tuple[ClusterProfile, ...]
    items_per_journal: tuple[int, int] = (10, 24)
    years: tuple[int, int] = (2005, 2010)
    seed: int = 0
    journal_spread: float = 1.0
    recency_weights: tuple[float, ...] = DEFAULT_RECENCY_WEIGHTS

    def __post_init__(self):
        if not self.clusters:
            raise ProfileError("profile has no clusters")
        lo, hi = self.items_per_journal
        if not (0 <= lo <= hi < 2 ** 63 - 1) or hi < 1:  # generate draws below hi + 1, an int64
            raise ProfileError(f"bad items_per_journal range ({lo}, {hi})")
        first, census = self.years
        if census < first:
            raise ProfileError(f"bad year span ({first}, {census})")
        if self.seed < 0:
            raise ProfileError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.journal_spread < math.inf:
            raise ProfileError("journal_spread must be finite and >= 0")
        weights = self.recency_weights
        if not weights or not all(0 <= w < math.inf for w in weights) or not any(weights):
            raise ProfileError("recency_weights must be finite, non-negative and not all zero")
        seen = set()
        for c in self.clusters:
            if c.cluster_id in seen:
                raise ProfileError(f"duplicate cluster_id '{c.cluster_id}'")
            seen.add(c.cluster_id)

    @property
    def total_journals(self) -> int:
        return sum(c.size for c in self.clusters)

    @property
    def census_year(self) -> int:
        return self.years[1]


# Eleven-field journal census of 2010: N = 3,695.  The four sizes 514, 173,
# 245 and 31 are fixed by that census; Health Sciences 32 and Psychology 42
# are the smallest sizes consistent with its reported top-share percentage
# grid (9.38 = 3/32, 16.67 = 7/42); the remaining five fields split the
# residual 2,658 evenly, remainder to the first.  Citation/reference rates
# are documented defaults spanning a math-like (short lists, few cites) to
# biomed-like (long lists, many cites) range.
_PAPER2010_CLUSTERS = (
    ("1", "Biology", 534, 2.0, 30.0, 0.5),
    ("2", "Biomedical Research", 514, 3.5, 45.0, 0.5),
    ("3", "Chemistry", 531, 2.5, 30.0, 0.5),
    ("4", "Clinical Medicine", 531, 2.8, 35.0, 0.5),
    ("5", "Earth & Space", 531, 1.8, 28.0, 0.5),
    ("6", "Engineering & Tech", 531, 1.2, 18.0, 0.5),
    ("7", "Health Sciences", 32, 1.5, 25.0, 0.5),
    ("9", "Mathematics", 173, 0.6, 8.0, 0.4),
    ("10", "Physics", 245, 2.2, 22.0, 0.5),
    ("12", "Psychology", 42, 1.3, 28.0, 0.5),
    ("13", "Social Sciences", 31, 0.6, 30.0, 0.5),
)

# The two categories too small to analyze (dropped by the default ingest
# policy): enabling them yields the full 13-cluster, 3,705-journal set.
_PAPER2010_DROPPED = (
    ("8", "Humanities", 2, 0.3, 35.0, 0.5),
    ("11", "Professional Fields", 8, 0.8, 25.0, 0.5),
)


def paper2010_profile(include_dropped_clusters: bool = False,
                      items_per_journal: tuple[int, int] = (10, 24),
                      seed: int = 20100) -> SynthProfile:
    """The built-in 'paper2010' profile: 3,695 journals in 11 fields
    (3,705 in 13 with ``include_dropped_clusters``), census year 2010."""
    rows = _PAPER2010_CLUSTERS
    if include_dropped_clusters:
        by_id = sorted(rows + _PAPER2010_DROPPED, key=lambda r: int(r[0]))
        rows = tuple(by_id)
    clusters = tuple(ClusterProfile(*row) for row in rows)
    return SynthProfile(clusters=clusters, items_per_journal=items_per_journal,
                        years=(2005, 2010), seed=seed)


BUILTIN_PROFILES = {
    "paper2010": paper2010_profile,
    "paper2010-full": lambda: paper2010_profile(include_dropped_clusters=True),
}


def builtin_profile(name: str) -> SynthProfile:
    try:
        factory = BUILTIN_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PROFILES))
        raise ProfileError(f"unknown profile '{name}' (known: {known})") from None
    return factory()


def generate(profile: SynthProfile) -> Dataset:
    """Build a Dataset from the profile; same profile, same bytes.

    Citing papers are the census-year items of every journal; each paper
    draws its reference-list length from its cluster's discretized
    lognormal (floored at 1) and every reference lands on an in-dataset
    journal, so a paper's fractional weights sum to exactly 1.  A profile
    whose arrays cannot be allocated is a ProfileError.
    """
    try:
        return _generate(profile)
    except MemoryError:
        first_year, census = profile.years
        raise ProfileError(f"profile of {profile.total_journals} journals (clusters' size) over "
                           f"{census - first_year + 1} years (years) does not fit in memory"
                           ) from None


def _generate(profile: SynthProfile) -> Dataset:
    rng = np.random.default_rng(profile.seed)
    total = profile.total_journals
    first_year, census = profile.years
    n_years = census - first_year + 1
    lo, hi = profile.items_per_journal

    width = max(4, len(str(total)))
    journal_ids: list[str] = []
    journals: list[JournalRecord] = []
    clusters: list[Cluster] = []
    cluster_of = np.empty(total, dtype=np.int64)
    j = 0
    for ci, c in enumerate(profile.clusters):
        clusters.append(Cluster(c.cluster_id, c.name, c.size))
        for k in range(c.size):
            jid = f"J{j + 1:0{width}d}"
            journal_ids.append(jid)
            journals.append(JournalRecord(jid, f"Journal of {c.name} {k + 1}", c.cluster_id))
            cluster_of[j] = ci
            j += 1

    items = rng.integers(lo, hi + 1, size=(total, n_years))
    publication_counts = PublicationCounts(Ids(np.repeat(np.arange(total), n_years), journal_ids),
                                           np.tile(np.arange(first_year, census + 1), total),
                                           items.ravel())

    base_rate = np.asarray([c.mean_cites_per_item for c in profile.clusters])[cluster_of]
    if profile.journal_spread > 0:
        s = profile.journal_spread
        # mean-1 lognormal multipliers: skewed journals, cluster rate preserved
        weights = base_rate * np.exp(rng.normal(-0.5 * s * s, s, size=total))
    else:
        weights = base_rate.astype(float)
    if not 0 < weights.sum() < np.inf:  # every multiplier under- or overflowed
        raise ProfileError("journal weights (cluster rates times the journal_spread "
                           "multipliers) do not sum to a finite positive number")
    weights = weights / weights.sum()

    papers_per_journal = items[:, n_years - 1]
    n_papers = sum(papers_per_journal.tolist())  # a Python int: the int64 sum may wrap
    if n_papers == 0:
        raise ProfileError("profile generates no citing papers (census-year items all zero)")
    if n_papers > 2 ** 31 - 1:  # the int32 range of Ids codes, which would wrap
        raise ProfileError(f"profile generates {n_papers} citing papers, more than 2**31 - 1")
    paper_journal = np.repeat(np.arange(total), papers_per_journal)

    sigma = np.asarray([c.ref_dispersion for c in profile.clusters])
    codes = cluster_of[paper_journal]
    with np.errstate(over="ignore"):
        mu = np.log(np.asarray([c.mean_refs for c in profile.clusters])) - 0.5 * sigma ** 2
        lengths = np.maximum(1, np.rint(np.exp(rng.normal(mu[codes], sigma[codes]))))
    if not lengths.sum() < 2.0 ** 63:  # also false for an infinite or NaN length
        raise ProfileError("mean_refs and ref_dispersion give reference-list lengths whose "
                           "sum does not fit in 64 bits")
    n_refs = lengths.astype(np.int64)

    w = list(profile.recency_weights[:n_years])
    w += [profile.recency_weights[-1]] * (n_years - len(w))
    recency = np.asarray(w, dtype=float)
    if not 0 < recency.sum() < np.inf:
        raise ProfileError(f"recency_weights give no finite weight to ages 0 to {n_years - 1}")
    recency /= recency.sum()

    total_refs = int(n_refs.sum())
    try:
        cited_journal = rng.choice(total, size=total_refs, p=weights)
        cited_year = census - rng.choice(n_years, size=total_refs, p=recency)

        pw = max(6, len(str(n_papers)))
        paper_ids = [f"P{i + 1:0{pw}d}" for i in range(n_papers)]
        paper = np.repeat(np.arange(n_papers), n_refs)
        events = Events(Ids(paper, paper_ids), Ids(paper_journal[paper], journal_ids),
                        np.full(total_refs, census), Ids(cited_journal, journal_ids), cited_year,
                        n_refs[paper])
    except MemoryError:
        raise ProfileError(f"profile generates {total_refs} citation events, too many to "
                           f"hold in memory") from None

    return Dataset(
        journals=tuple(journals),
        clusters=tuple(clusters),
        publication_counts=publication_counts,
        citation_events=events,
        census_year=census,
    )


def profile_to_json(profile: SynthProfile, path: str | Path) -> None:
    payload = {
        "clusters": [{
            "cluster_id": c.cluster_id,
            "name": c.name,
            "size": c.size,
            "mean_cites_per_item": c.mean_cites_per_item,
            "mean_refs": c.mean_refs,
            "ref_dispersion": c.ref_dispersion,
        } for c in profile.clusters],
        "items_per_journal": list(profile.items_per_journal),
        "years": list(profile.years),
        "seed": profile.seed,
        "journal_spread": profile.journal_spread,
        "recency_weights": list(profile.recency_weights),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _integer(value, field: str) -> int:
    """A JSON integer; a float (2005.0 included) or a bool is an error naming ``field``."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return value


def _pair(value, field: str) -> tuple[int, int]:
    """A JSON list of two integers (_integer)."""
    if not (isinstance(value, list) and len(value) == 2):
        raise TypeError(f"{field} must be a list of two integers, got {value!r}")
    return tuple(_integer(v, f"{field}[{k}]") for k, v in enumerate(value))


def _required(obj: dict, key: str, where: str):
    """``obj[key]``; a missing key is an error naming it and where it is missing."""
    if key not in obj:
        raise ValueError(f"{where} lacks {key!r}")
    return obj[key]


def profile_from_json(path: str | Path) -> SynthProfile:
    """The profile of a JSON file, as profile_to_json writes it.  Sizes,
    years, the seed and the item bounds must be JSON integers; any other
    value that is not valid raises a ProfileError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ProfileError(f"{path}: not valid UTF-8 (byte {exc.object[exc.start]:#04x} at "
                           f"position {exc.start + 1}: {exc.reason})") from None
    except (ValueError, RecursionError) as exc:  # digits past int's limit are a ValueError
        raise ProfileError(f"{path}: not valid JSON ({exc})") from None
    try:
        if not (isinstance(payload, dict)
                and isinstance(_required(payload, "clusters", "the profile"), list)
                and all(isinstance(c, dict) for c in payload["clusters"])):
            raise TypeError("a profile is an object whose clusters are a list of objects")
        weights = payload.get("recency_weights", list(DEFAULT_RECENCY_WEIGHTS))
        if not isinstance(weights, list):
            raise TypeError(f"recency_weights must be a list of numbers, got {weights!r}")
        clusters = tuple(
            ClusterProfile(
                cluster_id=str(c.get("cluster_id", i + 1)),
                name=_required(c, "name", f"clusters[{i}]"),
                size=_integer(_required(c, "size", f"clusters[{i}]"), f"clusters[{i}].size"),
                mean_cites_per_item=float(_required(c, "mean_cites_per_item", f"clusters[{i}]")),
                mean_refs=float(_required(c, "mean_refs", f"clusters[{i}]")),
                ref_dispersion=float(_required(c, "ref_dispersion", f"clusters[{i}]")),
            )
            for i, c in enumerate(payload["clusters"])
        )
        return SynthProfile(
            clusters=clusters,
            items_per_journal=_pair(payload.get("items_per_journal", [10, 24]),
                                    "items_per_journal"),
            years=_pair(payload.get("years", [2005, 2010]), "years"),
            seed=_integer(payload.get("seed", 0), "seed"),
            journal_spread=float(payload.get("journal_spread", 1.0)),
            recency_weights=tuple(map(float, weights)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProfileError(f"{path}: malformed profile ({exc})") from None
