"""Golden bytes: the CLI pipeline synth -> ingest -> indicators -> fairness
-> correlate on small fixed profiles writes files whose sha256 digests
equal those recorded in golden.json and golden_na.json.

dataset.json is left out: it carries bookkeeping that may grow, while
every result file is compared byte for byte.  After a change meant to
alter output bytes, re-record with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
from pathlib import Path

from citefair.cli import main
from citefair.synth import ClusterProfile, SynthProfile, profile_to_json

UNDIGESTED = {"dataset.json"}

# Four clusters, one below the default min_cluster_size of 10, so ingest
# drops a cluster with its journals, counts and events.
PROFILE = SynthProfile(
    clusters=(
        ClusterProfile("1", "Alpha", 14, 1.0, 6.0, 0.4),
        ClusterProfile("2", "Beta", 18, 2.5, 14.0, 0.5),
        ClusterProfile("3", "Gamma", 12, 0.8, 20.0, 0.5),
        ClusterProfile("4", "Delta", 5, 1.5, 10.0, 0.5),
    ),
    items_per_journal=(2, 6),
    years=(2005, 2010),
    seed=424242,
)

# Zero or one citable item per journal-year, so many journals have no
# items in a window and the IF and c/p tables hold NA rows.
NA_PROFILE = SynthProfile(
    clusters=(
        ClusterProfile("1", "Alpha", 15, 1.0, 6.0, 0.4),
        ClusterProfile("2", "Beta", 20, 2.5, 14.0, 0.5),
        ClusterProfile("3", "Gamma", 12, 0.8, 20.0, 0.5),
    ),
    items_per_journal=(0, 1),
    years=(2005, 2010),
    seed=1860,
)

GOLDEN = {"golden.json": PROFILE, "golden_na.json": NA_PROFILE}


def run_pipeline(root: Path, profile: SynthProfile) -> dict[str, str]:
    """Run the five commands on ``profile`` under ``root``; return
    {relative path: sha256} of every file they wrote."""
    profile_to_json(profile, root / "profile.json")
    inputs, bundle, tables = root / "inputs", root / "bundle", root / "tables"
    steps = [
        ["synth", "--profile-file", str(root / "profile.json"), "--out-dir", str(inputs)],
        ["ingest", "--journals", str(inputs / "journals.tsv"),
         "--publications", str(inputs / "publications.tsv"),
         "--citations", str(inputs / "citations.tsv"), "--out-dir", str(bundle)],
        ["indicators", "--dataset", str(bundle), "--out-dir", str(tables)],
        ["fairness", "--dataset", str(bundle), "--table", str(tables / "IF2-IC-RS.tsv"),
         "--table", str(tables / "IF2-FC-RS.tsv"), "--out-dir", str(root / "fairness")],
        ["correlate", "--dataset", str(bundle), "--table", str(tables / "IF2-IC.tsv"),
         "--table", str(tables / "IF5-FC.tsv"), "--table", str(tables / "TC-FC-RS.tsv"),
         "--out-dir", str(root / "correlate")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name not in UNDIGESTED and path.name != "profile.json"}


def assert_pipeline_matches(root: Path, name: str) -> None:
    expected = json.loads(Path(__file__).with_name(name).read_text(encoding="utf-8"))
    found = run_pipeline(root, GOLDEN[name])
    assert sorted(found) == sorted(expected)
    assert [path for path in expected if found[path] != expected[path]] == []


def test_pipeline_bytes_match_golden(tmp_path):
    assert_pipeline_matches(tmp_path, "golden.json")


def test_pipeline_bytes_with_na_rows_match_golden(tmp_path):
    assert_pipeline_matches(tmp_path, "golden_na.json")


if __name__ == "__main__":
    import tempfile

    for name, profile in GOLDEN.items():
        with tempfile.TemporaryDirectory() as scratch:
            digests = run_pipeline(Path(scratch), profile)
        path = Path(__file__).with_name(name)
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(digests)} digests in {path}")
