"""citefair benchmark: the CLI pipeline synth -> ingest -> indicators ->
fairness -> correlate, one command per fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; citefair is imported from ./src.  Every
workload is generated from the seed (default 20100, the paper2010
profile's seed).  With ``--trace 0`` the four stages run as child
processes, one at a time, for at least three pipelines and until S
seconds have passed; each stage's wall time and its peak RSS, from the
child's own rusage, are recorded.  Timings are reported in reference
seconds, which take out the host's speed drift (see REF_CAL_S).  The input
files are generated once before the first pipeline and once after each
(``setup_s`` is the median).  With ``--trace 1`` one untraced and one
traced pipeline run, and per-layer self times, counts and the tracing
overhead are derived from the spans.  Every output is checked; the last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 20100
MIN_PIPELINES = 3
CHILD_TIMEOUT_S = 150.0
STAGES = ("ingest", "indicators", "fairness", "correlate")
OUT_DIR = {"ingest": "bundle", "indicators": "tables", "fairness": "fairness",
           "correlate": "correlate"}
WORKLOADS = ("paper2010", "wide-census", "reject-late")
FAULTS = ("flip-table-byte", "reject-exit-0", "drop-ecdf", "skip-layer")

# Census size per scale.  "bench" fits the per-run time budget with six or
# seven pipelines of about 4 s in a 40 s run; "full" is the reference census
# of 1.83M citation rows (about a minute per pipeline, for manual runs);
# "tiny" is for the self-test.  paper2010 items per journal-year;
# wide-census multiplies cluster sizes.
SCALES = {
    "bench": {"items": (1, 1), "wide_factor": 2, "shrink": 1},
    "full": {"items": (10, 24), "wide_factor": 20, "shrink": 1},
    "tiny": {"items": (1, 2), "wide_factor": 4, "shrink": 20},
}

# Layers each traced stage must show at least one span of.
TRACE_LAYERS = {
    "synth": {"cli", "synth", "ingest"},
    "ingest": {"cli", "ingest", "model"},
    "indicators": {"cli", "ingest", "indicators"},
    "fairness": {"cli", "indicators", "stats", "fairness"},
    "correlate": {"cli", "indicators", "stats"},
}
REJECT_TRACE_LAYERS = {"synth": TRACE_LAYERS["synth"], "ingest": {"cli", "ingest"},
                       "indicators": {"cli"}, "fairness": {"cli"}, "correlate": {"cli"}}

# Self times summed over the traced setup and the four traced stages.
SELF_METRICS = (
    "ingest.parse_citations", "ingest.parse_publications", "ingest.parse_journals",
    "ingest.assemble", "ingest.write_citations", "ingest.write_publications",
    "ingest.load_bundle", "model.validate",
    "indicators.compute_tables", "indicators.rescale", "indicators.write_table",
    "indicators.read_table",
    "stats.rank_order", "stats.hypergeom_ci", "stats.spearman", "stats.pearson",
    "stats.decile_correlations", "stats.ecdf_by_group", "stats.ks_two_sample",
    "fairness.fairness_test", "fairness.write_report_json",
    "synth.generate", "ingest.write_dataset",
)


# The host's speed drifts by up to ±25% within seconds, and CPU time
# tracks wall time, so neither is steady across runs.  Every timed child is
# therefore bracketed by a fixed reference workload run in this process
# (parse-like: split, int/float, tuple keys, no citefair code), and timings
# are reported in reference seconds: wall time x REF_CAL_S / the mean of the
# reference times just before and just after the child.  REF_CAL_S is the
# reference workload's typical time on the 2-vCPU host the baseline was
# measured on, so reference seconds read close to its wall seconds.
REF_CAL_S = 0.125
_CAL_ROWS = [f"J{i % 997}\t{2000 + i % 11}\t{i % 5}\t{i % 37}\t{(i % 13) / 7:.6f}"
             for i in range(20000)]


def calibrate() -> float:
    """Seconds the reference workload takes now."""
    start = time.perf_counter()
    for _ in range(5):
        table = {}
        for row in _CAL_ROWS:
            journal, year, cited, n_refs, weight = row.split("\t")
            table[journal, int(year), int(cited)] = (int(n_refs), float(weight))
    return time.perf_counter() - start


def reference_s(seconds: float, cal_s: float) -> float:
    return seconds * REF_CAL_S / cal_s


@dataclass
class Invocation:
    rc: int
    wall_s: float
    peak_rss_mb: float
    stderr: str
    cal_s: float  # the reference workload's time around the child

    @property
    def ref_s(self) -> float:
        return reference_s(self.wall_s, self.cal_s)


class Run:
    """One benchmark run: its directory, fault, counters and digests."""

    def __init__(self, workload: str, seed: int, scale: str, fault: str | None):
        self.workload, self.seed, self.scale, self.fault = workload, seed, scale, fault
        self.dir = WORK / f"{workload}-{scale}-s{seed}-p{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.recorded = None
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            self.recorded = json.loads(DIGESTS.read_text()).get(f"{scale}/{workload}")
        self.digests: dict[str, str] = {}  # first digest of each file in this run
        self.bad_line = 0
        # The reference time measured right after the last child; the next
        # child reuses it as its "before" if nothing else ran in between.
        self.last_cal: float | None = None

    def charge(self, what: str, problems: list[str]) -> None:
        """Count one invocation; it fails if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def compare(self, found: dict[str, str]) -> list[str]:
        problems = checks.compare_digests(found, self.recorded, "the recorded digest")
        problems += checks.compare_digests(found, self.digests, "this run's first pipeline")
        self.digests.update({k: v for k, v in found.items() if k not in self.digests})
        return problems

    def child(self, argv: list[str], spans: str | None = None) -> Invocation:
        """Run one citefair command in a fresh interpreter; wait for it."""
        before = self.last_cal if self.last_cal is not None else calibrate()
        cmd = [sys.executable, str(HERE / "stage.py"), str(SRC)]
        if spans:
            cmd += ["--spans", spans]
            if self.fault == "skip-layer":
                cmd += ["--skip-layer", "stats"]
        if self.fault == "reject-exit-0":
            cmd += ["--exit-zero"]
        cmd += ["--", *argv]
        with open(self.dir / "child.err", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.dir, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        self.last_cal = after = calibrate()
        return Invocation(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr,
                          (before + after) / 2)


def profile_for(workload: str, seed: int, scale: str):
    """The workload's SynthProfile, built from the paper2010 profile."""
    from citefair import synth

    knobs = SCALES[scale]
    profile = synth.paper2010_profile(seed=seed, items_per_journal=knobs["items"])
    if knobs["shrink"] > 1:
        profile = replace(profile, clusters=tuple(
            replace(c, size=max(12, c.size // knobs["shrink"])) for c in profile.clusters))
    if workload == "wide-census":
        k = knobs["wide_factor"]
        profile = replace(profile, items_per_journal=(1, 3), clusters=tuple(
            replace(c, size=c.size * k, mean_refs=c.mean_refs / 10) for c in profile.clusters))
    return profile


def corrupt_last_row(path: Path) -> int:
    """Replace the last citation row's n_refs by 'x'; return its line number."""
    data = path.read_bytes()
    header = data[:data.index(b"\n")].split(b"\t")
    head, _, last = data.rstrip(b"\n").rpartition(b"\n")
    fields = last.split(b"\t")
    fields[header.index(b"n_refs")] = b"x"
    path.write_bytes(head + b"\n" + b"\t".join(fields) + b"\n")
    return head.count(b"\n") + 2


def setup(run: Run, k: int, traced: bool = False) -> tuple[float, float]:
    """Generate the workload's input files into setup-k/inputs; return the
    time taken in reference seconds and in wall seconds."""
    from citefair import synth

    where = run.dir / f"setup-{k}"
    where.mkdir()
    spans = str(run.dir / "spans" / "synth.json") if traced else None
    run.last_cal = None
    start = time.perf_counter()
    synth.profile_to_json(profile_for(run.workload, run.seed, run.scale), where / "profile.json")
    own_s = time.perf_counter() - start
    inv = run.child(["synth", "--profile-file", f"setup-{k}/profile.json",
                     "--out-dir", f"setup-{k}/inputs"], spans=spans)
    start = time.perf_counter()
    if inv.rc == 0 and run.workload == "reject-late":
        run.bad_line = corrupt_last_row(where / "inputs" / "citations.tsv")
    elapsed = own_s + inv.wall_s + time.perf_counter() - start
    problems = [f"exit code {inv.rc}: {inv.stderr[-300:]!r}"] if inv.rc != 0 else []
    problems += checks.missing(where / "inputs", checks.BUNDLE_FILES[:3])
    if spans:
        problems += trace_problems(Path(spans), TRACE_LAYERS["synth"])
    found = checks.digests(where / "inputs", checks.BUNDLE_FILES[:3], "inputs")
    problems += run.compare(found)
    run.charge(f"setup {k}", problems)
    return reference_s(elapsed, inv.cal_s), elapsed


def table_args(it: str, names) -> list[str]:
    return [arg for name in names for arg in ("--table", f"{it}/tables/{name}.tsv")]


def stage_argv(stage: str, it: str) -> list[str]:
    bundle = f"{it}/bundle"
    if stage == "ingest":
        return ["ingest", "--journals", "inputs/journals.tsv",
                "--publications", "inputs/publications.tsv",
                "--citations", "inputs/citations.tsv", "--out-dir", bundle]
    if stage == "indicators":
        return ["indicators", "--dataset", bundle, "--out-dir", f"{it}/tables"]
    if stage == "fairness":
        return ["fairness", "--dataset", bundle, *table_args(it, checks.FAIRNESS_TABLES),
                "--out-dir", f"{it}/fairness"]
    return ["correlate", "--dataset", bundle, *table_args(it, checks.CORRELATE_TABLES),
            "--out-dir", f"{it}/correlate"]


def stage_problems(run: Run, stage: str, inv: Invocation, it_dir: Path,
                   partition: dict[str, str]) -> list[str]:
    out = it_dir / OUT_DIR[stage]
    if run.workload == "reject-late":
        expect = f"citations.tsv:{run.bad_line}:" if stage == "ingest" else None
        return checks.check_rejected(inv.rc, inv.stderr, out, expect)
    if inv.rc != 0:
        return [f"exit code {inv.rc}: {inv.stderr[-300:]!r}"]
    problems = checks.missing(out, checks.EXPECTED[stage])
    if stage == "indicators":
        problems += checks.check_rescaled(out, partition)
    if stage == "fairness":
        problems += checks.check_fairness(out, it_dir / "tables", partition)
    return problems + run.compare(checks.digests(out, checks.EXPECTED[stage], OUT_DIR[stage]))


def plant_fault(run: Run, stage: str, it_dir: Path) -> None:
    # The flip hits the second pipeline only, so it also shows at seeds
    # without a recorded digest.
    if run.fault == "flip-table-byte" and stage == "indicators" and it_dir.name == "p1":
        path = it_dir / "tables" / "IF2-IC-RS.tsv"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
    if run.fault == "drop-ecdf" and stage == "correlate":
        (it_dir / "correlate" / "ecdf-IF2-FC.tsv").unlink(missing_ok=True)


def pipeline(run: Run, name: str, partition: dict[str, str],
             traced: bool = False) -> dict[str, Invocation]:
    """Run the four stages, back to back, into directory ``name``."""
    it_dir = run.dir / name
    it_dir.mkdir()
    invocations = {}
    run.last_cal = None
    for stage in STAGES:
        spans = str(run.dir / "spans" / f"{stage}.json") if traced else None
        invocations[stage] = run.child(stage_argv(stage, name), spans=spans)
    layers = REJECT_TRACE_LAYERS if run.workload == "reject-late" else TRACE_LAYERS
    for stage, inv in invocations.items():
        plant_fault(run, stage, it_dir)
        problems = stage_problems(run, stage, inv, it_dir, partition)
        if traced:
            problems += trace_problems(run.dir / "spans" / f"{stage}.json", layers[stage])
        run.charge(f"{name} {stage}", problems)
    if not traced:  # the traced outputs are read for the layer counts
        shutil.rmtree(it_dir)
    return invocations


def load_spans(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def trace_problems(path: Path, layers: set[str]) -> list[str]:
    if not path.is_file():
        return [f"no trace written to {path.name}"]
    seen = {span[0].split(".")[0] for span in load_spans(path)["spans"]}
    return [f"trace {path.name} lacks layer '{layer}'" for layer in sorted(layers - seen)]


def self_times(spans: list[list]) -> Counter:
    """Per span name: duration minus the duration of its child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, *_) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return out


def data_rows(path: Path) -> int:
    """Lines after the header row; 0 for a file that does not exist."""
    return max(0, path.read_bytes().count(b"\n") - 1) if path.is_file() else 0


def layer_metrics(run: Run, untraced: dict[str, Invocation], traced: dict[str, Invocation],
                  traces: dict[str, dict]) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics, and the self times of each traced child."""
    totals: Counter = Counter()
    per_stage = {}
    for stage, trace in traces.items():
        per_stage[stage] = self_times(trace["spans"])
        totals.update(per_stage[stage])
    metrics = {f"{name}.self_s": (totals[name], "s") for name in SELF_METRICS}

    rows = sum(data_rows(run.dir / span[4]) for stage in STAGES
               for span in traces[stage]["spans"] if span[0] == "ingest.parse_citations")
    ingest_rows = data_rows(run.dir / "inputs" / "citations.tsv")
    kept = data_rows(run.dir / "traced" / "bundle" / "citations.tsv")
    metrics["ingest.rows_parsed"] = (rows, "count")
    metrics["ingest.events_kept_ratio"] = (kept / ingest_rows if ingest_rows else 0.0, "ratio")
    metrics["stats.hypergeom_pmf.calls"] = (sum(
        1 for trace in traces.values() for span in trace["spans"]
        if span[0] == "stats.hypergeom_pmf"), "count")
    metrics["cli.import_s"] = (statistics.median(t["import_s"] for t in traces.values()), "s")
    for stage in STAGES:
        spans = traces[stage]["spans"]
        metrics[f"cli.{stage}.self_s"] = (per_stage[stage][f"cli.cmd_{stage}"], "s")
        metrics[f"cli.{stage}.bytes_read"] = (
            sum(span[5] for span in spans if span[5] is not None), "bytes")
        metrics[f"cli.{stage}.peak_rss_mb"] = (untraced[stage].peak_rss_mb, "MB")
        metrics[f"cli.{stage}.trace_overhead_s"] = (
            traced[stage].ref_s - untraced[stage].ref_s, "s")
    return metrics, per_stage


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, the highest percentile at or above p50 with ten samples
    beyond it, and n."""
    n = len(values)
    text = f"{name}: median {statistics.median(values):.4f} {unit}"
    if n >= 20:
        pct = 100 * (n - 10) // n
        text += f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f} {unit}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text + f", max {max(values):.4f} {unit} (n={n})"


def input_sizes(inputs: Path) -> str:
    rows = {name: data_rows(inputs / f"{name}.tsv")
            for name in ("journals", "publications", "citations")}
    size = sum((inputs / f"{name}.tsv").stat().st_size for name in rows)
    return (f"journals {rows['journals']}, publication rows {rows['publications']}, "
            f"citation rows {rows['citations']}, input bytes {size}")


def use_setup(run: Run) -> dict[str, str]:
    """Make setup-0's inputs the run's inputs."""
    if not (run.dir / "setup-0" / "inputs").is_dir():
        raise SystemExit(f"error: set-up wrote no inputs: {run.problems[:3]}")
    (run.dir / "setup-0" / "inputs").rename(run.dir / "inputs")
    shutil.rmtree(run.dir / "setup-0")
    print(f"inputs: {input_sizes(run.dir / 'inputs')}")
    return checks.read_partition(run.dir / "inputs" / "journals.tsv")


def measure(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """Untraced end-to-end run: pipelines for ``seconds``, each followed by
    one more set-up, so set-up samples spread over the run like the rest.
    Metrics are medians in reference seconds; wall seconds are printed too."""
    names = ("setup_s", "pipeline_s", *(f"{stage}_s" for stage in STAGES))
    ref: dict[str, list[float]] = {name: [] for name in names}
    wall: dict[str, list[float]] = {name: [] for name in names}
    cal: list[float] = []

    def add_setup(k: int) -> None:
        ref_s, wall_s = setup(run, k)
        ref["setup_s"].append(ref_s)
        wall["setup_s"].append(wall_s)

    add_setup(0)
    partition = use_setup(run)
    peak = 0.0
    started = time.perf_counter()
    while True:
        invocations = pipeline(run, f"p{len(ref['pipeline_s'])}", partition)
        for stage, inv in invocations.items():
            ref[f"{stage}_s"].append(inv.ref_s)
            wall[f"{stage}_s"].append(inv.wall_s)
            cal.append(inv.cal_s)
            peak = max(peak, inv.peak_rss_mb)
        ref["pipeline_s"].append(sum(inv.ref_s for inv in invocations.values()))
        wall["pipeline_s"].append(sum(inv.wall_s for inv in invocations.values()))
        k = len(ref["setup_s"])
        add_setup(k)
        shutil.rmtree(run.dir / f"setup-{k}")
        done = len(ref["pipeline_s"])
        now = time.perf_counter()
        if done >= MIN_PIPELINES and now + (now - started) / done > started + seconds:
            break
    print(describe(f"reference workload (nominal {REF_CAL_S} s)", cal, "s"))
    for name in names:
        print(describe(f"{name} wall", wall[name], "s"))
        print(describe(name, ref[name], "s"))
    metrics = {name: (statistics.median(values), "s") for name, values in ref.items()}
    metrics["peak_rss_mb"] = (peak, "MB")
    return metrics


def trace(run: Run) -> dict[str, tuple[float, str]]:
    """One traced set-up, one untraced and one traced pipeline."""
    (run.dir / "spans").mkdir()
    setup(run, 0, traced=True)
    partition = use_setup(run)
    untraced = pipeline(run, "untraced", partition)
    traced = pipeline(run, "traced", partition, traced=True)
    traces = {}
    for name in ("synth", *STAGES):
        path = run.dir / "spans" / f"{name}.json"
        traces[name] = load_spans(path) if path.is_file() else {"import_s": 0.0, "spans": []}
    metrics, per_stage = layer_metrics(run, untraced, traced, traces)
    out = WORK / f"trace-{run.workload}-{run.scale}-s{run.seed}.json"
    out.write_text(json.dumps({"workload": run.workload, "seed": run.seed, "scale": run.scale,
                               "self_s": per_stage, "traces": traces}), encoding="utf-8")
    print(f"spans written to {out.relative_to(ROOT)}")
    for stage in STAGES:
        plain, spanned = untraced[stage], traced[stage]
        print(f"{stage}: untraced {plain.ref_s:.3f} s, traced {spanned.ref_s:.3f} s "
              f"(reference seconds; wall {plain.wall_s:.3f} s, {spanned.wall_s:.3f} s), "
              f"peak RSS {plain.peak_rss_mb:.1f} MB")
    for name, selfs in per_stage.items():
        top = ", ".join(f"{span} {sec:.3f} s" for span, sec in selfs.most_common(4))
        print(f"largest self times in {name}: {top}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="citefair CLI pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="bench")
    parser.add_argument("--fault", choices=FAULTS, default=None,
                        help="plant one fault (for the self-test)")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's digests in {DIGESTS.name} (default seed only)")
    args = parser.parse_args(argv)
    # Turn termination into an exception, so the running child is killed
    # and waited for, and the run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "citefair" / "cli.py").is_file():
        print(f"error: no citefair sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.scale, args.fault)
    if args.record_digests:
        run.recorded = None
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, trace {args.trace}")
    try:
        metrics = trace(run) if args.trace else measure(run, args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"failed_frac: {run.failed}/{run.attempted} invocations")
    if args.record_digests:
        if run.failed or args.seed != DEFAULT_SEED:
            print("error: digests are recorded only from a clean run at the default seed",
                  file=sys.stderr)
            return 2
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        recorded[f"{args.scale}/{args.workload}"] = dict(sorted(run.digests.items()))
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
