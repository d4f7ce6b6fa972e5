"""Golden bytes: the CLI pipeline synth -> ingest -> indicators -> fairness
-> correlate on a small fixed profile writes files whose sha256 digests
equal those recorded in golden.json.

dataset.json is left out: it carries bookkeeping that may grow, while
every result file is compared byte for byte.  After a change meant to
alter output bytes, re-record with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
from pathlib import Path

from citefair.cli import main
from citefair.synth import ClusterProfile, SynthProfile, profile_to_json

GOLDEN = Path(__file__).with_name("golden.json")
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


def run_pipeline(root: Path) -> dict[str, str]:
    """Run the five commands under ``root``; return {relative path: sha256}
    of every file they wrote."""
    profile_to_json(PROFILE, root / "profile.json")
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


def test_pipeline_bytes_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = run_pipeline(tmp_path)
    assert sorted(found) == sorted(expected)
    assert [name for name in expected if found[name] != expected[name]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = run_pipeline(Path(scratch))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
