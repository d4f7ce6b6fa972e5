"""Output checks for the benchmark, written independently of citefair.

Each check returns a list of problems (empty when the output is right), so
the caller can charge them to the stage invocation that produced them.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

BUNDLE_FILES = ("journals.tsv", "publications.tsv", "citations.tsv", "dataset.json")
RAW_TABLES = tuple(f"{ind}-{c}" for ind in ("IF2", "IF5") for c in ("IC", "FC")) + tuple(
    f"{ind}-{c}" for ind in ("TC", "CP") for c in ("IC", "FC"))
TABLES = tuple(t for raw in RAW_TABLES for t in (raw, f"{raw}-RS"))

FAIRNESS_TABLES = ("IF2-IC-RS", "IF2-FC")
CORRELATE_TABLES = ("IF2-IC", "IF2-IC-RS", "IF2-FC")

# Files each stage must write, relative to its output directory.
EXPECTED = {
    "ingest": BUNDLE_FILES,
    "indicators": tuple(f"{t}.tsv" for t in TABLES),
    "fairness": tuple(f"{t}-fairness.{ext}" for t in FAIRNESS_TABLES for ext in ("tsv", "json"))
    + (f"comparison-{FAIRNESS_TABLES[0]}-vs-{FAIRNESS_TABLES[1]}.tsv",),
    "correlate": ("correlation-matrix.tsv",)
    + tuple(f"deciles-{CORRELATE_TABLES[0]}-vs-{t}.tsv" for t in CORRELATE_TABLES[1:])
    + tuple(f"{kind}-{t}.tsv" for kind in ("ecdf", "ks") for t in CORRELATE_TABLES),
}
# dataset.json carries bookkeeping that may grow; the results are compared byte for byte.
UNDIGESTED = {"dataset.json"}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(directory: Path, names, prefix: str) -> dict[str, str]:
    """SHA-256 of each existing file, keyed by ``prefix/name``."""
    return {f"{prefix}/{name}": sha256(directory / name) for name in names
            if name not in UNDIGESTED and (directory / name).is_file()}


def missing(directory: Path, names) -> list[str]:
    return [f"missing {directory.name}/{name}" for name in names
            if not (directory / name).is_file()]


def compare_digests(found: dict[str, str], expected: dict[str, str] | None,
                    what: str) -> list[str]:
    """Problems for every file whose digest differs from ``expected``."""
    if expected is None:
        return []
    return [f"{key}: digest differs from {what}" for key, value in found.items()
            if key in expected and expected[key] != value]


def read_partition(journals_tsv: Path) -> dict[str, str]:
    with journals_tsv.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        jcol, ccol = header.index("journal_id"), header.index("cluster_id")
        rows = (line.rstrip("\n").split("\t") for line in fh if line.strip())
        return {row[jcol]: row[ccol] for row in rows}


def read_values(table_tsv: Path) -> dict[str, float | None]:
    """journal_id -> value (None for NA) from a table file."""
    values = {}
    with table_tsv.open(encoding="utf-8") as fh:
        fh.readline()
        fh.readline()
        for line in fh:
            jid, raw = line.rstrip("\n").split("\t")
            values[jid] = None if raw == "NA" else float(raw)
    return values


def check_rescaled(tables_dir: Path, partition: dict[str, str]) -> list[str]:
    """Every -RS table's per-cluster mean of defined values is 1 within 1e-9."""
    problems = []
    for name in TABLES:
        if not name.endswith("-RS") or not (tables_dir / f"{name}.tsv").is_file():
            continue
        try:
            values = read_values(tables_dir / f"{name}.tsv")
        except ValueError as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        sums: Counter[str] = Counter()
        counts: Counter[str] = Counter()
        for jid, v in values.items():
            if v is not None:
                sums[partition.get(jid, "?")] += v
                counts[partition.get(jid, "?")] += 1
        for g in counts:
            if abs(sums[g] / counts[g] - 1.0) > 1e-9:
                problems.append(f"{name}: cluster {g} mean {sums[g] / counts[g]!r} != 1")
    return problems


def check_fairness(fair_dir: Path, tables_dir: Path, partition: dict[str, str]) -> list[str]:
    """Each report: sum of m_g = n_z = floor(z*N/100), within_ci agrees with
    the band, and N_g and m_g match a recount from the table file."""
    problems = []
    for name in FAIRNESS_TABLES:
        path = fair_dir / f"{name}-fairness.json"
        if not path.is_file() or not (tables_dir / f"{name}.tsv").is_file():
            continue
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
            values = read_values(tables_dir / f"{name}.tsv")
            rows = report["per_cluster"]
            n_total = sum(r["n_g"] for r in rows)
            n_z = int(Fraction(str(report["z"])) * n_total / 100)
            if report["n_z"] != n_z or sum(r["m_g"] for r in rows) != n_z:
                problems.append(f"{path.name}: sum m_g / n_z != floor(z*N/100) = {n_z}")
            for r in rows:
                lo, hi = r["ci_counts"]
                if r["within_ci"] != (lo <= r["m_g"] <= hi):
                    problems.append(f"{path.name}: cluster {r['cluster_id']} within_ci wrong")
            ranked = sorted(((-v, j) for j, v in values.items() if v is not None))
            n_g = Counter(partition[j] for _, j in ranked)
            m_g = Counter(partition[j] for _, j in ranked[:n_z])
            for r in rows:
                g = r["cluster_id"]
                if (r["n_g"], r["m_g"]) != (n_g[g], m_g[g]):
                    problems.append(f"{path.name}: cluster {g} N_g/m_g disagree with {name}.tsv")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{path.name}: malformed ({exc!r})")
    return problems


def check_rejected(rc: int, stderr: str, out_dir: Path, expect_in_stderr: str | None) -> list[str]:
    """A rejected command exits 2, says why on stderr and writes nothing."""
    problems = []
    if rc != 2:
        problems.append(f"exit code {rc}, expected 2")
    if not stderr.startswith("error: "):
        problems.append(f"stderr does not report an error: {stderr[:200]!r}")
    if expect_in_stderr and expect_in_stderr not in stderr:
        problems.append(f"stderr does not name {expect_in_stderr}: {stderr[:200]!r}")
    written = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if written:
        problems.append(f"rejected command wrote {written}")
    return problems
