from collections import Counter

import numpy as np
import pytest

from citefair.cli import main
from citefair.errors import ProfileError
from citefair.indicators import IndicatorSpec, compute_table
from citefair.ingest import write_dataset
from citefair.synth import (
    ClusterProfile,
    SynthProfile,
    builtin_profile,
    generate,
    paper2010_profile,
    profile_from_json,
    profile_to_json,
)

from conftest import values_of
from reference_ingest import validate


def small_profile(seed=0, **kwargs):
    defaults = dict(
        clusters=(
            ClusterProfile("1", "Alpha", 20, 1.0, 6.0, 0.4),
            ClusterProfile("2", "Beta", 30, 2.5, 15.0, 0.5),
        ),
        items_per_journal=(2, 6),
        years=(2007, 2010),
        seed=seed,
    )
    defaults.update(kwargs)
    return SynthProfile(**defaults)


class TestPaper2010Profile:
    def test_totals(self):
        profile = paper2010_profile()
        assert profile.total_journals == 3695
        assert len(profile.clusters) == 11
        assert profile.census_year == 2010

    def test_known_cluster_sizes(self):
        sizes = {c.name: c.size for c in paper2010_profile().clusters}
        assert sizes["Biomedical Research"] == 514
        assert sizes["Mathematics"] == 173
        assert sizes["Physics"] == 245
        assert sizes["Social Sciences"] == 31
        assert sizes["Health Sciences"] == 32
        assert sizes["Psychology"] == 42

    def test_residual_split(self):
        sizes = {c.name: c.size for c in paper2010_profile().clusters}
        residual = [sizes["Biology"], sizes["Chemistry"], sizes["Clinical Medicine"],
                    sizes["Earth & Space"], sizes["Engineering & Tech"]]
        assert sum(residual) == 2658
        assert sorted(residual) == [531, 531, 531, 531, 534]
        assert max(residual) == sizes["Biology"]

    def test_reference_rate_endpoints(self):
        refs = {c.name: c.mean_refs for c in paper2010_profile().clusters}
        assert refs["Mathematics"] < 10
        assert refs["Biomedical Research"] > 40

    def test_full_13_cluster_variant(self):
        profile = paper2010_profile(include_dropped_clusters=True)
        assert profile.total_journals == 3705
        assert len(profile.clusters) == 13
        sizes = {c.name: c.size for c in profile.clusters}
        assert sizes["Humanities"] == 2
        assert sizes["Professional Fields"] == 8

    def test_published_percentages_quantize_at_fixed_sizes(self):
        # each percentage must be 100*m/N_g for an integer m at the
        # profile's size (clusters with no missing values in the source)
        columns = {
            "Health Sciences": [12.50, 12.50, 9.38, 9.38, 9.38, 12.50, 12.50, 12.50],
            "Mathematics": [17.92, 15.03, 4.05, 5.20, 0.58, 0.58, 10.98, 12.72],
            "Psychology": [19.05, 16.67, 9.52, 11.90, 16.67, 19.05, 11.90, 11.90],
            "Social Sciences": [9.68, 9.68, 0.00, 0.00, 0.00, 0.00, 16.13, 16.13],
        }
        sizes = {c.name: c.size for c in paper2010_profile().clusters}
        for name, pcts in columns.items():
            n_g = sizes[name]
            for pct in pcts:
                best = min(abs(100 * m / n_g - pct) for m in range(n_g + 1))
                assert best <= 0.005 + 1e-9, (name, pct)

    def test_builtin_lookup(self):
        assert builtin_profile("paper2010").total_journals == 3695
        with pytest.raises(ProfileError, match="unknown profile"):
            builtin_profile("paper1999")


class TestGenerate:
    def test_deterministic_same_seed(self, tmp_path):
        ds1 = generate(small_profile(seed=7))
        ds2 = generate(small_profile(seed=7))
        assert ds1 == ds2
        write_dataset(ds1, tmp_path / "a")
        write_dataset(ds2, tmp_path / "b")
        for name in ("journals.tsv", "publications.tsv", "citations.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self):
        assert generate(small_profile(seed=1)) != generate(small_profile(seed=2))

    def test_validates_clean(self):
        for seed in (0, 3, 9):
            assert validate(generate(small_profile(seed=seed))) == []

    def test_unit_refs_degenerate_profile(self):
        profile = small_profile(
            clusters=(
                ClusterProfile("1", "Alpha", 20, 1.0, 1.0, 1e-9),
                ClusterProfile("2", "Beta", 30, 2.5, 1.0, 1e-9),
            ))
        ds = generate(profile)
        assert (ds.citation_events.n_refs == 1).all()

    def test_every_reference_lands_inside(self):
        ds = generate(small_profile(seed=4))
        by_paper: dict[str, float] = {}
        for pid, _, _, _, _, n_refs in ds.citation_events.rows():
            by_paper[pid] = by_paper.get(pid, 0.0) + 1 / n_refs
        for total in by_paper.values():
            assert total == pytest.approx(1.0)

    def test_citing_papers_are_census_year_items(self):
        ds = generate(small_profile(seed=4))
        assert (ds.citation_events.citing_year == 2010).all()
        papers_by_journal: dict[str, set] = {}
        for pid, citing_jid, _, _, _, _ in ds.citation_events.rows():
            papers_by_journal.setdefault(citing_jid, set()).add(pid)
        items = {(jid, year): n for jid, year, n in ds.publication_counts.rows()}
        for jid, papers in papers_by_journal.items():
            assert len(papers) <= items[(jid, 2010)]

    def test_realized_mean_refs_converges(self):
        profile = SynthProfile(
            clusters=(ClusterProfile("g", "Grande", 300, 1.5, 12.0, 0.5),),
            items_per_journal=(30, 40),
            years=(2008, 2010),
            seed=5,
        )
        ds = generate(profile)
        refs = {}
        for pid, _, _, _, _, n_refs in ds.citation_events.rows():
            refs[pid] = n_refs
        assert len(refs) >= 10_000
        realized = float(np.mean(list(refs.values())))
        assert abs(realized - 12.0) / 12.0 < 0.05

    def test_attractiveness_ratio_band(self):
        # frozen after a 20-seed pilot: realized cluster mean IF2 ratios
        # for 0.5 vs 5.0 cites-per-item stayed inside [5, 20]
        for seed in (0, 1, 2, 3, 4):
            profile = SynthProfile(
                clusters=(
                    ClusterProfile("lo", "Low", 50, 0.5, 12.0, 0.5),
                    ClusterProfile("hi", "High", 50, 5.0, 30.0, 0.5),
                ),
                items_per_journal=(6, 12),
                years=(2007, 2010),
                seed=seed,
            )
            ds = generate(profile)
            table = compute_table(ds, IndicatorSpec("impact_factor", 2, "integer"))
            means = {}
            for cid in ("lo", "hi"):
                vals = [v for j, v in values_of(table).items()
                        if ds.partition[j] == cid and v is not None]
                means[cid] = float(np.mean(vals))
            ratio = means["hi"] / means["lo"]
            assert 5.0 <= ratio <= 20.0, (seed, ratio)

    def test_no_journal_spread_gives_a_cluster_one_rate(self):
        # with equal items, a cluster's cites per journal are then multinomial
        # with equal shares: a variance-to-mean ratio near 1, not the skew of
        # the lognormal multipliers
        def dispersions(spread, seed):
            ds = generate(small_profile(seed=seed, journal_spread=spread,
                                        items_per_journal=(4, 4)))
            cites = Counter(row[3] for row in ds.citation_events.rows())
            for cid in ("1", "2"):
                c = np.array([cites[j] for j, g in ds.partition.items() if g == cid], float)
                yield c.var(ddof=1) / c.mean()

        for seed in (0, 1, 2):
            assert max(dispersions(0, seed)) < 2 < 4 < min(dispersions(1.0, seed))

    def test_no_citing_papers(self):
        profile = SynthProfile(clusters=(ClusterProfile("1", "A", 3, 1.0, 6.0, 0.4),),
                               items_per_journal=(0, 1), years=(2009, 2010), seed=20)
        with pytest.raises(ProfileError, match="profile generates no citing papers"):
            generate(profile)

    # Each asks for an array larger than the address space, so it fails at
    # once and allocates nothing.
    @pytest.mark.parametrize("kwargs", [
        dict(years=(-10 ** 15, 2010)),
        dict(clusters=(ClusterProfile("1", "Alpha", 10 ** 14, 1.0, 6.0, 0.4),)),
    ], ids=["years", "cluster-size"])
    def test_profile_past_memory_exits_two(self, tmp_path, capsys, kwargs):
        path = tmp_path / "profile.json"
        profile_to_json(small_profile(**kwargs), path)
        assert main(["synth", "--profile-file", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: profile of ") and "does not fit in memory" in err
        assert not (tmp_path / "o").exists()

    def test_infeasible_profiles(self):
        with pytest.raises(ProfileError):
            SynthProfile(clusters=())
        with pytest.raises(ProfileError):
            ClusterProfile("1", "A", 0, 1.0, 5.0, 0.5)
        with pytest.raises(ProfileError):
            ClusterProfile("1", "A", 5, -1.0, 5.0, 0.5)
        with pytest.raises(ProfileError):
            small_profile(items_per_journal=(0, 0))
        with pytest.raises(ProfileError):
            small_profile(years=(2011, 2010))


class TestProfileIo:
    def test_json_round_trip(self, tmp_path):
        profile = small_profile(seed=33)
        path = tmp_path / "profile.json"
        profile_to_json(profile, path)
        assert profile_from_json(path) == profile

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ProfileError):
            profile_from_json(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"clusters": [{"name": "A"}]}')
        with pytest.raises(ProfileError):
            profile_from_json(path)
