"""The one-pass ingest: citations.tsv is read, checked, assembled, counted
and written a batch at a time.  The bundle does not depend on where the
batches fall, a failed ingest leaves its output directory as it was, the
memory does not grow with the citation rows, and the bundle readers that
read journals.tsv without its titles report its errors as before."""

import hashlib
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import citefair.ingest
from citefair.cli import main
from citefair.errors import CiteFairError, IngestWarning, ValidationError
from citefair.ingest import parse_journals, parse_publications, write_dataset
from citefair.stream import ingest_bundle
from citefair.synth import ClusterProfile, SynthProfile, generate, profile_to_json

from reference_ingest import assemble, parse_citations, save_bundle
from test_golden import PROFILE

TSV_FILES = ("journals.tsv", "publications.tsv", "citations.tsv", "counts.tsv")

JOURNALS = ["journal_id\ttitle\tcluster_id\tcluster_name"] + [
    f"j{k}\tJournal {k}\t{cluster}\t{name}" for k, (cluster, name) in enumerate(
        [("a", "Alpha")] * 12 + [("b", "Beta")] * 10 + [("c", "Tiny")] * 2)]


def citation_rows():
    """Rows of 2009 and 2010 papers: a 2010 paper after 2009 ones and a
    2009 paper after it, rows with n_refs 0, rows citing a journal of the
    excluded cluster "c" or no indexed journal, a quoted paper id that
    holds a newline, and integers written with a sign or a leading zero."""
    rows = []
    for paper in range(60):
        year = 2010 if 20 <= paper < 45 else 2009
        pid = f'"p\n{paper}"' if paper == 7 else f"p{paper}"
        n_refs = 0 if paper % 9 == 4 else 3 + paper % 4
        for ref in range(3):
            cited = "ghost" if (paper + ref) % 17 == 0 else f"j{(paper * 5 + ref) % 24}"
            fields = [pid, f"j{paper % 24}", year, cited, year - 1 - ref, n_refs]
            if paper == 35:
                fields[2], fields[5] = f"0{year}", f"+{n_refs}"
            rows.append("\t".join(map(str, fields)))
    return rows


def write_inputs(directory, last_row=None):
    """The input files; ``last_row`` edits the fields of the last citation row."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = citation_rows()
    if last_row:
        fields = rows[-1].split("\t")
        last_row(fields)
        rows[-1] = "\t".join(fields)
    publications = [f"j{k}\t{year}\t{1 + k % 3}" for k in range(24) for year in range(2004, 2011)]
    for name, lines in (("journals", JOURNALS),
                        ("publications", ["journal_id\tyear\tcitable_items"] + publications),
                        ("citations", ["citing_paper_id\tciting_journal_id\tciting_year\t"
                                       "cited_journal_id\tcited_year\tn_refs"] + rows)):
        (directory / f"{name}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return directory


def bad_n_refs(fields):
    fields[5] = "x"


def ingest(inputs, out, *options):
    return main(["ingest", "--journals", str(inputs / "journals.tsv"),
                 "--publications", str(inputs / "publications.tsv"),
                 "--citations", str(inputs / "citations.tsv"), "--out-dir", str(out), *options])


def bundle_files(directory):
    return {name: (directory / name).read_bytes() for name in TSV_FILES}


def manifest_rows(directory):
    meta = json.loads((directory / "dataset.json").read_text(encoding="utf-8"))
    return {name: entry["rows"] for name, entry in meta["files"].items()}


def tree(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.fixture(autouse=True)
def quiet_zero_refs():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IngestWarning)
        yield


class TestBatchBoundaries:
    CHUNKS = [1, 5, 64, 300, 1 << 18]

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """save_bundle(assemble(...)) of the inputs, read whole."""
        inputs = write_inputs(tmp_path_factory.mktemp("inputs"))
        journals, clusters = parse_journals(inputs / "journals.tsv")
        with pytest.warns(IngestWarning, match="dropped 21 citation row"):
            events = parse_citations(inputs / "citations.tsv")
        dataset, summary = assemble(journals, clusters,
                                    parse_publications(inputs / "publications.tsv"), events)
        out = tmp_path_factory.mktemp("reference")
        save_bundle(dataset, summary, out)
        return inputs, out

    def test_inputs_hold_every_case(self, reference):
        inputs, out = reference
        meta = json.loads((out / "dataset.json").read_text(encoding="utf-8"))
        assert meta["census_year"] == 2010 and [c["cluster_id"] for c in meta["clusters"]] == [
            "a", "b"]
        text = (inputs / "citations.tsv").read_text(encoding="utf-8")
        assert '"p\n7"' in text and "\tghost\t" in text and "\tj22\t" in text
        assert 0 < manifest_rows(out)["citations.tsv"] < text.count("\n") - 1

    @pytest.mark.parametrize("chunk_chars", CHUNKS)
    def test_bundle_bytes(self, reference, tmp_path, monkeypatch, capsys, chunk_chars):
        inputs, expected = reference
        monkeypatch.setattr(citefair.ingest, "_CHUNK_CHARS", chunk_chars)
        assert ingest(inputs, tmp_path / "bundle") == 0
        assert bundle_files(tmp_path / "bundle") == bundle_files(expected)
        assert manifest_rows(tmp_path / "bundle") == manifest_rows(expected)
        summary = json.loads((tmp_path / "bundle" / "dataset.json").read_text())["ingest_summary"]
        assert summary["census_year"] == 2010 and summary["census_year_inferred"]
        assert summary["events_dropped_zero_refs"] == 7 * 3
        assert summary["events_dropped_unknown_cited"] > 0
        assert summary["events_dropped_excluded_clusters"] > 0

    @pytest.mark.parametrize("chunk_chars", CHUNKS)
    def test_bad_last_row(self, tmp_path, monkeypatch, capsys, chunk_chars):
        inputs = write_inputs(tmp_path / "inputs", bad_n_refs)
        monkeypatch.setattr(citefair.ingest, "_CHUNK_CHARS", chunk_chars)
        assert ingest(inputs, tmp_path / "bundle") == 2
        line = len(citation_rows()) + 4  # the header, and three rows on two lines
        assert capsys.readouterr().err == (
            f"error: {inputs / 'citations.tsv'}:{line}: years and n_refs must be integers: "
            f"'2009', '2006', 'x'\n")

    @pytest.mark.parametrize("chunk_chars", CHUNKS)
    def test_violations_as_assemble_gives_them(self, tmp_path, monkeypatch, capsys, chunk_chars):
        # every 2009 paper cites years after its own: more than five violations
        inputs = write_inputs(tmp_path / "inputs")
        path = inputs / "citations.tsv"
        path.write_text(path.read_text(encoding="utf-8").replace("\t2009\t", "\t2000\t"),
                        encoding="utf-8")
        journals, clusters = parse_journals(inputs / "journals.tsv")
        with pytest.raises(ValidationError, match=r"\[event\.causality\].*\(\+\d+ more\)$") as err:
            assemble(journals, clusters, parse_publications(inputs / "publications.tsv"),
                     parse_citations(path))
        monkeypatch.setattr(citefair.ingest, "_CHUNK_CHARS", chunk_chars)
        assert ingest(inputs, tmp_path / "bundle") == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    @pytest.mark.parametrize("chunk_chars", CHUNKS)
    def test_excess_references_as_assemble_gives_them(self, tmp_path, monkeypatch, capsys,
                                                       chunk_chars):
        # pA's first row cites no indexed journal and is dropped, so pB's
        # first kept event comes before pA's, though pA is read first
        inputs = write_inputs(tmp_path / "inputs")
        path = inputs / "citations.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        extra = [f"{pid}\t{citing}\t2010\t{cited}\t2009\t1\n" for pid, citing, cited in (
            ("pA", "j0", "ghost"), ("pB", "j1", "j2"), ("pA", "j0", "j3"), ("pA", "j0", "j4"),
            ("pB", "j1", "j5"))]
        path.write_text("".join(lines[:13] + extra + lines[13:]), encoding="utf-8")
        journals, clusters = parse_journals(inputs / "journals.tsv")
        with pytest.raises(ValidationError, match=r"\[event\.excess_references\] pB: 2 .*"
                                                  r"\[event\.excess_references\] pA: 2 ") as err:
            assemble(journals, clusters, parse_publications(inputs / "publications.tsv"),
                     parse_citations(path))
        monkeypatch.setattr(citefair.ingest, "_CHUNK_CHARS", chunk_chars)
        assert ingest(inputs, tmp_path / "bundle") == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"


def test_census_year_without_events_writes_float_zeros(tmp_path, capsys):
    assert ingest(write_inputs(tmp_path / "inputs"), tmp_path / "bundle",
                  "--census-year", "2011") == 0
    header, *rows = (tmp_path / "bundle" / "counts.tsv").read_text(encoding="utf-8").splitlines()
    assert header.split("\t")[4:7] == ["fractional_2", "fractional_5", "fractional_all"]
    assert rows and {tuple(row.split("\t")[1:7]) for row in rows} == {("0",) * 3 + ("0.0",) * 3}


class TestZeroRefsCount:
    def test_summary_and_report(self, tmp_path, capsys):
        inputs = write_inputs(tmp_path / "inputs")
        with pytest.warns(IngestWarning, match="dropped 21 citation row"):
            assert ingest(inputs, tmp_path / "bundle") == 0
        assert "events dropped (n_refs = 0): 21\n" in capsys.readouterr().out
        meta = json.loads((tmp_path / "bundle" / "dataset.json").read_text(encoding="utf-8"))
        assert meta["ingest_summary"]["events_dropped_zero_refs"] == 21

    def test_no_line_without_zero_refs(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile_to_json(PROFILE, profile)
        assert main(["synth", "--profile-file", str(profile), "--out-dir", str(tmp_path)]) == 0
        assert ingest(tmp_path, tmp_path / "bundle") == 0
        assert "n_refs = 0" not in capsys.readouterr().out
        meta = json.loads((tmp_path / "bundle" / "dataset.json").read_text(encoding="utf-8"))
        assert meta["ingest_summary"]["events_dropped_zero_refs"] == 0


class TestOutputDirectory:
    def test_failure_leaves_no_new_directory(self, tmp_path, capsys):
        inputs = write_inputs(tmp_path / "inputs", bad_n_refs)
        assert ingest(inputs, tmp_path / "new" / "bundle") == 2
        assert not (tmp_path / "new").exists()

    def test_failure_keeps_the_earlier_bundle(self, tmp_path, capsys):
        assert ingest(write_inputs(tmp_path / "good"), tmp_path / "bundle") == 0
        before = tree(tmp_path / "bundle")
        assert ingest(write_inputs(tmp_path / "bad", bad_n_refs), tmp_path / "bundle") == 2
        assert tree(tmp_path / "bundle") == before

    # the errors raised once the whole file is read
    LATE_ERRORS = {
        "unknown-cited": (None, ("--unknown-cited", "error"),
                          "assembled dataset fails validation: [event.unknown_cited_journal] "
                          "p0: cited journal 'ghost' not in dataset"),
        "empty-dataset": (None, ("--min-cluster-size", "100"),
                          "assembly produced an empty dataset (no journals retained)"),
        "causality": ((lambda fields: fields.__setitem__(4, "2011")), (),
                      "assembled dataset fails validation: [event.causality] p59: "
                      "cited_year 2011 > citing_year 2009"),
    }

    @pytest.mark.parametrize("case", sorted(LATE_ERRORS))
    def test_late_errors_leave_nothing(self, tmp_path, capsys, case):
        last_row, options, message = self.LATE_ERRORS[case]
        inputs = write_inputs(tmp_path / "inputs", last_row)
        assert ingest(inputs, tmp_path / "bundle", *options) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "bundle").exists()

    def test_errors_keep_their_order_across_files(self, tmp_path, capsys):
        """With several input files broken, the journals file's error is
        reported, else the publications file's, and a census year that does
        not fit in 64 bits before either."""
        inputs = write_inputs(tmp_path / "inputs", bad_n_refs)
        journals, publications = inputs / "journals.tsv", inputs / "publications.tsv"
        publications.write_text(publications.read_text(encoding="utf-8").replace(
            "\t2004\t", "\t20x4\t", 1), encoding="utf-8")
        good = journals.read_text(encoding="utf-8")
        bad = good.replace("\nj1\t", "\n\t")
        for text, options, message in [
                (good, (), f"{publications}:2: year must be an integer, got '20x4'"),
                (bad, (), f"{journals}:3: empty journal_id"),
                (bad, ("--census-year", str(2 ** 63)),
                 f"census year {2 ** 63} does not fit in 64 bits")]:
            journals.write_text(text, encoding="utf-8")
            assert ingest(inputs, tmp_path / "new" / "bundle", *options) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "new").exists()

    def test_library_call_checks_the_census_year(self, tmp_path):
        inputs = write_inputs(tmp_path / "inputs")
        paths = [inputs / name for name in ("journals.tsv", "publications.tsv", "citations.tsv")]
        before = tree(tmp_path)
        for year, message in [(2 ** 70, f"census year {2 ** 70} does not fit in 64 bits"),
                              (2010.0, "census year must be an integer, got 2010.0"),
                              ("2010", "census year must be an integer, got '2010'")]:
            with pytest.raises(CiteFairError, match=f"^{re.escape(message)}"):
                ingest_bundle(*paths, tmp_path / "bundle", census_year=year)
            assert tree(tmp_path) == before and not (tmp_path / "bundle").exists()
        ingest_bundle(*paths, tmp_path / "bundle", census_year=np.int64(2010))
        meta = json.loads((tmp_path / "bundle" / "dataset.json").read_text(encoding="utf-8"))
        assert meta["census_year"] == 2010 and meta["ingest_summary"]["census_year"] == 2010

    def test_inputs_directory_as_output(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile_to_json(PROFILE, profile)
        inputs = tmp_path / "data"
        assert main(["synth", "--profile-file", str(profile), "--out-dir", str(inputs)]) == 0
        assert ingest(inputs, inputs) == 0
        golden = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))
        for name in TSV_FILES:
            digest = hashlib.sha256((inputs / name).read_bytes()).hexdigest()
            assert digest == golden[f"bundle/{name}"], name
        assert sorted(p.name for p in inputs.iterdir()) == sorted(
            [*TSV_FILES, "dataset.json"])


class TestBoundedMemory:
    """The traced peak of an ingest does not grow with the citation rows:
    the same papers with four times the rows each peak within 1.25x."""

    PROFILE = SynthProfile(
        clusters=(ClusterProfile("1", "Alpha", 30, 1.0, 30.0, 0.4),
                  ClusterProfile("2", "Beta", 30, 2.5, 40.0, 0.5)),
        items_per_journal=(3, 6), years=(2007, 2010), seed=5)

    @staticmethod
    def times_four(source, target):
        """Each row four times, with n_refs four times as large."""
        lines = source.read_text(encoding="utf-8").splitlines()
        target.write_text("\n".join([lines[0]] + [
            "\t".join([*fields[:-1], str(4 * int(fields[-1]))])
            for fields in (line.split("\t") for line in lines[1:]) for _ in range(4)]) + "\n",
            encoding="utf-8")

    @staticmethod
    def peak(run, *args):
        """The traced peak of run(*args)."""
        tracemalloc.start()
        try:
            run(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        """The input files of PROFILE, and the same with times_four's citations."""
        monkeypatch.setattr(citefair.ingest, "_CHUNK_CHARS", 1 << 13)
        one = tmp_path / "one"
        write_dataset(generate(self.PROFILE), one)
        four = tmp_path / "four"
        four.mkdir()
        for name in ("journals.tsv", "publications.tsv"):
            (four / name).write_bytes((one / name).read_bytes())
        self.times_four(one / "citations.tsv", four / "citations.tsv")
        rows = (one / "citations.tsv").read_bytes().count(b"\n") - 1
        assert rows > 20 * 250  # many batches of 8K characters
        return one, four

    def test_peak_does_not_grow_with_rows(self, tmp_path, inputs, capsys):
        def run(source, out):
            assert ingest(source, out) == 0

        peaks = [self.peak(run, source, tmp_path / f"b{k}") for k, source in enumerate(inputs)]
        assert max(peaks) < 1.25 * min(peaks), peaks


class TestPartitionErrors:
    """fairness and correlate read journals.tsv without its titles and
    report each of its errors as they did when they read the titles too."""

    @staticmethod
    def edits(journals):
        """Per case, the changed lines of journals.tsv and the error they give."""
        lines = journals.read_text(encoding="utf-8").splitlines(keepends=True)
        rows = [line.rstrip("\n").split("\t") for line in lines]
        first, second = rows[1], rows[2]
        assert first[2] == second[2] and first[3] == "Alpha"

        def without(column):
            return {k: "\t".join(row[:column] + row[column + 1:]) + "\n"
                    for k, row in enumerate(rows)}

        path = str(journals)
        return lines, {
            "empty-id": ({1: "\t".join(["", *first[1:]]) + "\n"},
                         f"{path}:2: empty journal_id"),
            "duplicate-id": ({2: "\t".join([first[0], *second[1:]]) + "\n"},
                             f"{path}:3: duplicate journal_id '{first[0]}'"),
            "renamed": ({2: "\t".join([*second[:3], "Other"]) + "\n"},
                        f"{path}:3: cluster '{first[2]}' renamed ('Alpha' vs 'Other')"),
            "no-title": (without(1), f"{path}:1: missing required column(s): title"),
            "no-cluster-name": (without(3),
                                f"{path}:1: missing required column(s): cluster_name"),
            "retitled": ({1: "\t".join([first[0], "Renamed", *first[2:]]) + "\n"},
                         f"{path}: sha256 differs from the manifest in dataset.json; the file "
                         f"changed after ingest (re-run 'citefair ingest' to write the bundle "
                         f"again)"),
        }

    @pytest.mark.parametrize("command", ["fairness", "correlate"])
    @pytest.mark.parametrize("case", ["empty-id", "duplicate-id", "renamed", "no-title",
                                      "no-cluster-name", "retitled"])
    def test_error_text(self, tmp_path, capsys, command, case):
        profile = tmp_path / "profile.json"
        profile_to_json(PROFILE, profile)
        assert main(["synth", "--profile-file", str(profile), "--out-dir", str(tmp_path)]) == 0
        bundle, tables = tmp_path / "bundle", tmp_path / "tables"
        assert ingest(tmp_path, bundle) == 0
        assert main(["indicators", "--dataset", str(bundle), "--out-dir", str(tables)]) == 0
        journals = bundle / "journals.tsv"
        lines, cases = self.edits(journals)
        changes, message = cases[case]
        journals.write_text("".join(changes.get(k, line) for k, line in enumerate(lines)),
                            encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--dataset", str(bundle), "--table", str(tables / "IF2-IC.tsv"),
                     "--table", str(tables / "IF2-FC.tsv"), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
