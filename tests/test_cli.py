import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import citefair
from citefair.cli import main
from citefair.errors import IngestWarning
from citefair.ingest import _meta_sha256
from citefair.synth import ClusterProfile, SynthProfile, profile_to_json

from conftest import values_of
from reference_ingest import parse_citations


@pytest.fixture
def profile_file(tmp_path):
    profile = SynthProfile(
        clusters=(
            ClusterProfile("1", "Alpha", 14, 1.0, 6.0, 0.4),
            ClusterProfile("2", "Beta", 18, 2.5, 14.0, 0.5),
            ClusterProfile("3", "Gamma", 12, 0.8, 20.0, 0.5),
        ),
        items_per_journal=(3, 7),
        years=(2006, 2010),
        seed=1234,
    )
    path = tmp_path / "profile.json"
    profile_to_json(profile, path)
    return path


def run_pipeline(tmp_path, profile_file, z="10"):
    raw = tmp_path / "raw"
    bundle = tmp_path / "bundle"
    tables = tmp_path / "tables"
    assert main(["synth", "--profile-file", str(profile_file),
                 "--out-dir", str(raw)]) == 0
    assert main(["ingest",
                 "--journals", str(raw / "journals.tsv"),
                 "--publications", str(raw / "publications.tsv"),
                 "--citations", str(raw / "citations.tsv"),
                 "--out-dir", str(bundle)]) == 0
    assert main(["indicators", "--dataset", str(bundle),
                 "--out-dir", str(tables)]) == 0
    return raw, bundle, tables


class TestSynthCommand:
    def test_builtin_unknown_profile(self, tmp_path, capsys):
        assert main(["synth", "--profile", "nope", "--out-dir", str(tmp_path)]) == 2
        assert "unknown profile" in capsys.readouterr().err

    def test_profile_file(self, tmp_path, profile_file, capsys):
        assert main(["synth", "--profile-file", str(profile_file),
                     "--out-dir", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "journals: 44" in out
        assert (tmp_path / "o" / "journals.tsv").exists()

    def test_same_seed_identical_files(self, tmp_path, profile_file):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--profile-file", str(profile_file),
                         "--out-dir", str(out)]) == 0
        for name in ("journals.tsv", "publications.tsv", "citations.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_custom_two_cluster_profile(self, tmp_path):
        prof = SynthProfile(
            clusters=(ClusterProfile("x", "X", 11, 1.0, 5.0, 0.4),
                      ClusterProfile("y", "Y", 13, 2.0, 9.0, 0.4)),
            items_per_journal=(2, 4), years=(2008, 2010), seed=9)
        p = tmp_path / "p.json"
        profile_to_json(prof, p)
        out = tmp_path / "out"
        assert main(["synth", "--profile-file", str(p), "--out-dir", str(out)]) == 0
        text = (out / "journals.tsv").read_text()
        assert text.count("\nJ") == 24 or len(text.splitlines()) == 25

    def test_profile_years_not_integers_exit_two(self, tmp_path, profile_file, capsys):
        profile = json.loads(profile_file.read_text(encoding="utf-8"))
        profile["years"] = ["a", "b"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        assert main(["synth", "--profile-file", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: malformed profile (")

    @pytest.mark.parametrize("key", ["clusters", "name", "size", "mean_cites_per_item",
                                     "mean_refs", "ref_dispersion"])
    def test_profile_missing_key_named(self, tmp_path, profile_file, capsys, key):
        profile = json.loads(profile_file.read_text(encoding="utf-8"))
        if key == "clusters":
            del profile[key]
            where = "the profile"
        else:
            del profile["clusters"][1][key]
            where = "clusters[1]"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        assert main(["synth", "--profile-file", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"error: {path}: malformed profile "
                                           f"({where} lacks {key!r})\n")
        assert not (tmp_path / "o").exists()

    # Per case: the profile field, the JSON text given for it, and the part
    # of the error that names the field.
    BAD_VALUES = {
        "negative-seed": ("seed", "-3", "seed must be >= 0, got -3"),
        "float-seed": ("seed", "1.9", "seed must be an integer, got 1.9"),
        "bool-seed": ("seed", "true", "seed must be an integer, got True"),
        "size-past-float": ("size", "1e400", "clusters[0].size must be an integer, got inf"),
        "inf-cites": ("mean_cites_per_item", '"inf"', "all rates must be finite and positive"),
        "nan-refs": ("mean_refs", '"nan"', "all rates must be finite and positive"),
        "inf-refs": ("mean_refs", '"inf"', "all rates must be finite and positive"),
        "nan-dispersion": ("ref_dispersion", '"nan"', "all rates must be finite and positive"),
        "float-year": ("years", "[2005.7, 2010]", "years[0] must be an integer, got 2005.7"),
        "whole-float-year": ("years", "[2005.0, 2010]", "years[0] must be an integer, got 2005.0"),
        "float-items": ("items_per_journal", "[1, 2.5]",
                        "items_per_journal[1] must be an integer, got 2.5"),
        "nan-spread": ("journal_spread", '"nan"', "journal_spread must be finite and >= 0"),
        "inf-weight": ("recency_weights", '[1, "inf"]',
                       "recency_weights must be finite, non-negative and not all zero"),
        "string-weights": ("recency_weights", '"123"', "recency_weights must be a list of numbers"),
        # the profile file's years span ages 0 to 4
        "no-weight-in-span": ("recency_weights", "[0, 0, 0, 0, 0, 1]",
                              "recency_weights give no finite weight to ages 0 to 4"),
        # every journal multiplier underflows to 0
        "huge-spread": ("journal_spread", "2005.7", "journal weights (cluster rates times the "
                        "journal_spread multipliers) do not sum to a finite positive number"),
        "rate-past-float": ("mean_refs", "1" + "0" * 400, "int too large to convert to float"),
        # every reference-list length drawn is about 1e300
        "huge-refs": ("mean_refs", "1e300", "mean_refs and ref_dispersion give reference-list "
                      "lengths whose sum does not fit in 64 bits"),
        "clusters-not-a-list": ("clusters", '"a"',
                                "a profile is an object whose clusters are a list of objects"),
        # the first cluster takes the second's id
        "duplicate-cluster-id": ("cluster_id", '"2"', "duplicate cluster_id '2'"),
        # SMALL_CENSUS cases: refused before any allocation, or asking for
        # more than the address space holds, so each fails at once
        "events-past-memory": ("mean_refs", "1e15",
                               "citation events, too many to hold in memory"),
        "papers-past-int64": ("items_per_journal", "[4611686018427387904, 4611686018427387904]",
                              "profile generates 9223372036854775808 citing papers"),
        "papers-past-int32": ("items_per_journal", "[1000000000000000, 1000000000000000]",
                              "profile generates 2000000000000000 citing papers"),
    }
    # Cases run on the first cluster alone, cut to 2 journals, in one year.
    SMALL_CENSUS = {"events-past-memory", "papers-past-int64", "papers-past-int32"}

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_profile_value_exit_two(self, tmp_path, profile_file, capsys, case):
        field, text, message = self.BAD_VALUES[case]
        profile = json.loads(profile_file.read_text(encoding="utf-8"))
        if case in self.SMALL_CENSUS:
            profile.update(clusters=[{**profile["clusters"][0], "size": 2}], years=[2010, 2010])
        (profile["clusters"][0] if field in profile["clusters"][0] else profile)[field] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(profile).replace('"@"', text), encoding="utf-8")
        assert main(["synth", "--profile-file", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_huge_dispersion_exits_zero_without_warning(self, tmp_path, profile_file):
        # sigma ** 2 overflows; every reference list of the cluster has length 1
        profile = json.loads(profile_file.read_text(encoding="utf-8"))
        profile["clusters"][0]["ref_dispersion"] = 1e200
        path = tmp_path / "p.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        assert main(["synth", "--profile-file", str(path), "--out-dir", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("options, message", [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--items", "5", "9" * 20], f"bad items_per_journal range (5, {'9' * 20})"),
    ], ids=["negative-seed", "items-past-int64"])
    def test_bad_option_exit_two(self, tmp_path, profile_file, capsys, options, message):
        assert main(["synth", "--profile-file", str(profile_file), *options,
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("data, message", [
        (b'{"seed": "\xe9"}', "not valid UTF-8 (byte 0xe9 at position 11: invalid continuation "
                               "byte)"),
        (b"[" * 100_000, "not valid JSON ("),
    ], ids=["not-utf8", "nested-too-deeply"])
    def test_profile_file_not_json_exit_two(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["synth", "--profile-file", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


class TestIngestCommand:
    def test_valid_fixture_exit_zero(self, tmp_path, profile_file, capsys):
        run_pipeline(tmp_path, profile_file)
        out = capsys.readouterr().out
        assert "excluded clusters: none" in out

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["ingest",
                     "--journals", str(tmp_path / "absent.tsv"),
                     "--publications", str(tmp_path / "absent2.tsv"),
                     "--citations", str(tmp_path / "absent3.tsv"),
                     "--out-dir", str(tmp_path)]) == 2
        assert "absent.tsv" in capsys.readouterr().err

    def test_staging_name_taken(self, tmp_path, profile_file, monkeypatch):
        # a staging directory left behind by a killed run is passed over
        raw, bundle, _ = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "again"
        left = out / ".citefair-left"
        left.mkdir(parents=True)
        names = iter(["left", "new"])
        monkeypatch.setattr(tempfile, "_get_candidate_names", lambda: names)
        assert main(["ingest", "--journals", str(raw / "journals.tsv"),
                     "--publications", str(raw / "publications.tsv"),
                     "--citations", str(raw / "citations.tsv"), "--out-dir", str(out)]) == 0
        assert next(names, None) is None  # both names were tried
        assert left.is_dir() and not any(left.iterdir())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [left.name, *(p.name for p in bundle.iterdir())])
        for p in bundle.iterdir():
            assert (out / p.name).read_bytes() == p.read_bytes(), p.name

    def test_cluster_exclusion_reported(self, tmp_path, capsys):
        prof = SynthProfile(
            clusters=(
                ClusterProfile("1", "Big", 15, 1.0, 6.0, 0.4),
                ClusterProfile("2", "Bigger", 20, 2.0, 8.0, 0.4),
                ClusterProfile("8", "Tiny", 2, 0.5, 5.0, 0.4),
                ClusterProfile("11", "Small", 8, 0.5, 5.0, 0.4),
            ),
            items_per_journal=(2, 4), years=(2008, 2010), seed=77)
        p = tmp_path / "p.json"
        profile_to_json(prof, p)
        raw = tmp_path / "raw"
        assert main(["synth", "--profile-file", str(p), "--out-dir", str(raw)]) == 0
        assert main(["ingest",
                     "--journals", str(raw / "journals.tsv"),
                     "--publications", str(raw / "publications.tsv"),
                     "--citations", str(raw / "citations.tsv"),
                     "--out-dir", str(tmp_path / "bundle")]) == 0
        out = capsys.readouterr().out
        assert "excluded clusters (size < 10): 8 'Tiny' (2), 11 'Small' (8)" in out

    @pytest.fixture
    def zero_refs_argv(self, tmp_path, profile_file):
        """ingest's argv for inputs with one n_refs 0 row, and their citations.tsv."""
        raw, _, _ = run_pipeline(tmp_path, profile_file)
        citations = raw / "citations.tsv"
        with citations.open("a", encoding="utf-8") as fh:
            fh.write("P-ZERO\tJ0001\t2010\tJ0002\t2009\t0\n")
        return ["ingest", *(f"--{name}={raw / name}.tsv"
                            for name in ("journals", "publications", "citations")),
                "--out-dir", str(tmp_path / "b")], citations

    def test_warning_is_one_stderr_line(self, zero_refs_argv):
        argv, citations = zero_refs_argv
        done = subprocess.run([sys.executable, "-m", "citefair.cli", *argv],
                              capture_output=True, text=True, env=fresh_env(), timeout=60)
        assert (done.returncode, done.stderr) == (
            0, f"warning: {citations}: dropped 1 citation row(s) with n_refs=0\n")

    def test_warning_reaches_the_callers_handlers(self, zero_refs_argv):
        argv, _ = zero_refs_argv
        formatwarning = warnings.formatwarning
        with pytest.warns(IngestWarning, match="dropped 1 citation row"):
            assert main(argv) == 0
        assert warnings.formatwarning is formatwarning

    def test_parse_error_exit_two(self, tmp_path, capsys):
        (tmp_path / "j.tsv").write_text("journal_id\ttitle\tcluster_id\tcluster_name\n\tx\tg\tG\n")
        (tmp_path / "p.tsv").write_text("journal_id\tyear\tcitable_items\n")
        (tmp_path / "c.tsv").write_text(
            "citing_paper_id\tciting_journal_id\tciting_year\tcited_journal_id\tcited_year\tn_refs\n")
        assert main(["ingest", "--journals", str(tmp_path / "j.tsv"),
                     "--publications", str(tmp_path / "p.tsv"),
                     "--citations", str(tmp_path / "c.tsv"),
                     "--out-dir", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert "j.tsv:2" in err

    @pytest.mark.parametrize("option, value, message", [
        ("--min-cluster-size", "0", "min_cluster_size must be >= 1"),
        ("--census-year", "9" * 20, f"census year {'9' * 20} does not fit in 64 bits"),
    ])
    def test_option_out_of_range_exit_two(self, tmp_path, profile_file, capsys, option, value,
                                          message):
        raw, _, _ = run_pipeline(tmp_path, profile_file)
        capsys.readouterr()
        assert main(["ingest", "--journals", str(raw / "journals.tsv"),
                     "--publications", str(raw / "publications.tsv"),
                     "--citations", str(raw / "citations.tsv"),
                     option, value, "--out-dir", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "b").exists()

    def test_no_events_and_no_census_year_exit_two(self, tmp_path, profile_file, capsys):
        raw, _, _ = run_pipeline(tmp_path, profile_file)
        citations = raw / "citations.tsv"
        citations.write_text(citations.read_text(encoding="utf-8").splitlines(keepends=True)[0],
                             encoding="utf-8")
        capsys.readouterr()
        assert main(["ingest", "--journals", str(raw / "journals.tsv"),
                     "--publications", str(raw / "publications.tsv"),
                     "--citations", str(citations), "--out-dir", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == (
            "error: census_year not given and no citation events to infer it from\n")
        assert not (tmp_path / "b").exists()

    def test_delimiter_must_be_one_character(self, tmp_path, capsys):
        assert main(["ingest", "--delimiter", ",,", "--journals", "j.tsv",
                     "--publications", "p.tsv", "--citations", "c.tsv",
                     "--out-dir", str(tmp_path)]) == 2
        assert "the delimiter must be one character" in capsys.readouterr().err


class TestCarriageReturns:
    """A field holding a carriage return, read from a quoted input field,
    must read back from the bundle: ingest exiting 0 and indicators then
    exiting 2 would mean ingest wrote a bundle it cannot read."""

    # the field that holds the carriage return: (journal id, title, cluster name, paper id)
    FIELDS = {"title": ("j2", "T\r0", "g", "G", "p1"), "title-crlf": ("j2", "a\r\nb", "g", "G", "p1"),
              "paper-id": ("j2", "Two", "g", "G", "p\r1")}

    def write_inputs(self, tmp_path, jid, title, cluster_id, cluster_name, pid):
        files = {
            "journals": [("journal_id", "title", "cluster_id", "cluster_name"),
                         ("j1", "One", cluster_id, cluster_name),
                         (jid, title, cluster_id, cluster_name)],
            "publications": [("journal_id", "year", "citable_items"), ("j1", 2009, 5),
                             (jid, 2009, 4), ("j1", 2010, 3), (jid, 2010, 2)],
            "citations": [("citing_paper_id", "citing_journal_id", "citing_year",
                           "cited_journal_id", "cited_year", "n_refs"), (pid, "j1", 2010, jid, 2009, 1)],
        }
        for name, rows in files.items():
            with (tmp_path / f"{name}.tsv").open("w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, delimiter="\t", quoting=csv.QUOTE_ALL).writerows(rows)
        return [f"--{name}={tmp_path / name}.tsv" for name in files]

    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_ingest_then_indicators(self, tmp_path, field):
        jid, title, _, _, pid = self.FIELDS[field]
        inputs = self.write_inputs(tmp_path, *self.FIELDS[field])
        bundle = tmp_path / "bundle"
        assert main(["ingest", *inputs, "--min-cluster-size", "1", "--out-dir", str(bundle)]) == 0
        assert main(["indicators", "--dataset", str(bundle),
                     "--out-dir", str(tmp_path / "tables")]) == 0
        assert list(parse_citations(bundle / "citations.tsv").rows()) == [
            (pid, "j1", 2010, jid, 2009, 1)]

    # An id or a cluster name is written to tables and reports as one
    # tab-separated field of one line, so none may hold a tab, CR or LF.
    # field -> the inputs, and the error's line (where the row ends), column and value
    BREAKS = {"journal-id-cr": (("j\r2", "Two", "g", "G", "p1"), 4, "journal_id", "j\r2"),
              "journal-id-tab": (("j\t2", "Two", "g", "G", "p1"), 3, "journal_id", "j\t2"),
              "journal-id-lf": (("j\n2", "Two", "g", "G", "p1"), 4, "journal_id", "j\n2"),
              "cluster-id-tab": (("j2", "Two", "g\t1", "G", "p1"), 2, "cluster_id", "g\t1"),
              "cluster-name-cr": (("j2", "Two", "g", "G\rX", "p1"), 3, "cluster_name", "G\rX")}

    @pytest.mark.parametrize("field", sorted(BREAKS))
    def test_id_holding_a_line_break_exits_two(self, tmp_path, capsys, field):
        fields, line, column, value = self.BREAKS[field]
        inputs = self.write_inputs(tmp_path, *fields)
        assert main(["ingest", *inputs, "--min-cluster-size", "1",
                     "--out-dir", str(tmp_path / "bundle")]) == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'journals.tsv'}:{line}: "
                                           f"{column} {value!r} holds a tab or a line break\n")
        assert not (tmp_path / "bundle").exists()


class TestTamperedBundle:
    """No --dataset command reads a bundle's citations.tsv.  An edited copy
    is checked rule by rule by ingest, given the bundle's own three files,
    its census year, and a policy that keeps every cluster and makes an
    error of every event it would drop; it exits 2 and writes nothing."""

    # rows appended to citations.tsv, and the error that names the rule they
    # break: {path} is the file, {line} and {next} the lines of the first
    # and second appended rows
    EDITS = {
        "causality": (["P-LATE\tJ0001\t2009\tJ0002\t2010\t3"],
                      "assembled dataset fails validation: [event.causality] P-LATE: "
                      "cited_year 2010 > citing_year 2009"),
        "zero-refs": (["P-ZERO\tJ0001\t2010\tJ0002\t2009\t0"], "{path}:{line}: n_refs is 0"),
        "paper-conflict": (["P-TWICE\tJ0001\t2010\tJ0002\t2009\t3",
                            "P-TWICE\tJ0001\t2010\tJ0003\t2009\t4"],
                           "{path}:{next}: citing paper 'P-TWICE' conflicts with an earlier row "
                           "on (citing_journal_id, citing_year, n_refs)"),
        "excess-references": (["P-MANY\tJ0001\t2010\tJ0002\t2009\t1"] * 2,
                              "assembled dataset fails validation: [event.excess_references] "
                              "P-MANY: 2 recorded references exceed n_refs=1"),
        "unknown-cited": (["P-TAMPERED\tJ0001\t2010\tNOPE\t2009\t3"],
                          "assembled dataset fails validation: [event.unknown_cited_journal] "
                          "P-TAMPERED: cited journal 'NOPE' not in dataset"),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_edited_citations_exit_two(self, tmp_path, profile_file, capsys, edit):
        rows, message = self.EDITS[edit]
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        path = bundle / "citations.tsv"
        line = path.read_bytes().count(b"\n") + 1
        with path.open("a", encoding="utf-8") as fh:
            fh.write("".join(row + "\n" for row in rows))
        before = {p.name: p.read_bytes() for p in bundle.iterdir()}
        meta = json.loads((bundle / "dataset.json").read_text(encoding="utf-8"))
        capsys.readouterr()
        assert main(["ingest", *(f"--{name}={bundle / name}.tsv"
                                 for name in ("journals", "publications", "citations")),
                     "--census-year", str(meta["census_year"]),
                     "--min-cluster-size", "1", "--unknown-cited", "error",
                     "--zero-refs", "error", "--out-dir", str(bundle)]) == 2
        assert capsys.readouterr().err == "error: " + message.format(
            path=path, line=line, next=line + 1) + "\n"
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before


def rewrite_json(edit):
    def apply(text):
        meta = json.loads(text)
        edit(meta)
        return json.dumps(meta)
    return apply


class TestBundleReads:
    """Every --dataset command checks against the manifest exactly the
    bundle files it parses: indicators reads dataset.json, journals.tsv and
    counts.tsv; fairness and correlate read dataset.json and journals.tsv."""

    COMMANDS = {
        "indicators": [],
        "fairness": ["--table", "IF5-IC-RS.tsv", "--table", "IF5-FC.tsv", "--z", "25"],
        "correlate": ["--table", "IF2-IC.tsv", "--table", "IF2-FC.tsv",
                      "--table", "IF2-IC-RS.tsv", "--deciles", "4"],
    }

    def run(self, command, bundle, tables, out):
        args = [str(tables / a) if a.endswith(".tsv") else a for a in self.COMMANDS[command]]
        return main([command, "--dataset", str(bundle), *args, "--out-dir", str(out)])

    def test_dataset_commands_ignore_event_files(self, tmp_path, profile_file):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)

        def outputs(out):
            for command in sorted(self.COMMANDS):
                assert self.run(command, bundle, tables, out / command) == 0
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        before = outputs(tmp_path / "before")
        (bundle / "citations.tsv").unlink()
        (bundle / "publications.tsv").unlink()
        assert outputs(tmp_path / "after") == before
        # indicators: the tables run_pipeline wrote;
        # fairness: 2 reports (.tsv, .json) and a comparison;
        # correlate: the matrix, 2 decile files, and ecdf + ks per table
        assert len(before) == len(list(tables.iterdir())) + 2 * 2 + 1 + 1 + 2 + 3 * 2

    def test_duplicate_journal_names_line(self, tmp_path, profile_file, capsys):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        journals = bundle / "journals.tsv"
        lines = journals.read_text(encoding="utf-8").splitlines(keepends=True)
        journals.write_text("".join(lines + [lines[1]]), encoding="utf-8")
        capsys.readouterr()
        assert self.run("fairness", bundle, tables, tmp_path / "out") == 2
        assert f"journals.tsv:{len(lines) + 1}: duplicate journal_id" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_metadata_is_not_a_bundle(self, tmp_path, profile_file, capsys, command):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        (bundle / "dataset.json").unlink()
        capsys.readouterr()
        assert self.run(command, bundle, tables, tmp_path / "out") == 2
        assert "not a dataset bundle" in capsys.readouterr().err

    # edit of dataset.json -> a fragment the error must hold besides "dataset.json"
    METADATA_EDITS = {
        "not-json": (lambda text: text[:len(text) // 2], "not valid JSON"),
        "too-deep": (lambda text: "[" * 100_000, "nested too deeply"),
        "no-census-year": (rewrite_json(lambda m: m.pop("census_year")), "census_year"),
        "no-manifest": (rewrite_json(lambda m: m.pop("files")), "manifest"),
        "bad-manifest": (rewrite_json(lambda m: m["files"]["counts.tsv"].pop("sha256")),
                         "manifest entry files.counts.tsv"),
        "format-1": (rewrite_json(lambda m: m.update(format="citefair-dataset/1")),
                     "re-run 'citefair ingest'"),
        "clusters-not-a-list": (rewrite_json(lambda m: m.update(clusters={"1": "Alpha"})),
                                "clusters must be a list of objects with a cluster_id"),
    }

    @pytest.mark.parametrize("edit", sorted(METADATA_EDITS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_metadata_exits_two(self, tmp_path, profile_file, capsys, command, edit):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        meta = bundle / "dataset.json"
        change, fragment = self.METADATA_EDITS[edit]
        meta.write_text(change(meta.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        assert self.run(command, bundle, tables, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "dataset.json" in err and fragment in err

    # edits that leave dataset.json well-formed but no longer the one ingest wrote
    METADATA_CHANGES = {
        "census-year": lambda m: m.update(census_year=m["census_year"] - 1),
        "cluster-order": lambda m: m["clusters"].reverse(),
    }

    @pytest.mark.parametrize("edit", sorted(METADATA_CHANGES))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_metadata_edited_after_ingest_exits_two(self, tmp_path, profile_file, capsys,
                                                    command, edit):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        meta = bundle / "dataset.json"
        meta.write_text(rewrite_json(self.METADATA_CHANGES[edit])(meta.read_text(encoding="utf-8")),
                        encoding="utf-8")
        capsys.readouterr()
        assert self.run(command, bundle, tables, tmp_path / "out") == 2
        assert (f"{meta}: sha256 differs from that of its other fields"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_metadata_not_utf8_exits_two(self, tmp_path, profile_file, capsys, command):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        meta = bundle / "dataset.json"
        meta.write_bytes(b"\xff" + meta.read_bytes())
        capsys.readouterr()
        assert self.run(command, bundle, tables, tmp_path / "out") == 2
        assert capsys.readouterr().err == (f"error: {meta}:1: not valid UTF-8 "
                                           f"(byte 0xff at position 1: invalid start byte)\n")

    def test_metadata_layout_is_not_hashed(self, tmp_path, profile_file):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        meta = bundle / "dataset.json"
        meta.write_text(json.dumps(json.loads(meta.read_text(encoding="utf-8"))), encoding="utf-8")
        assert self.run("indicators", bundle, tables, tmp_path / "out") == 0

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_partition_edited_after_ingest_exits_two(self, tmp_path, profile_file, capsys,
                                                     command):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        journals = bundle / "journals.tsv"
        lines = journals.read_text(encoding="utf-8").splitlines(keepends=True)
        jid, title, cluster, _ = lines[1].rstrip("\n").split("\t")
        assert cluster == "1"
        lines[1] = f"{jid}\t{title}\t2\tBeta\n"
        journals.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert self.run(command, bundle, tables, tmp_path / "out") == 2
        assert "journals.tsv: sha256 differs from the manifest" in capsys.readouterr().err

    def test_bundle_is_tab_separated_whatever_the_input_delimiter(self, tmp_path, profile_file):
        raw, bundle, _ = run_pipeline(tmp_path, profile_file)
        commas = tmp_path / "commas"
        commas.mkdir()
        for name in ("journals.tsv", "publications.tsv", "citations.tsv"):
            with (raw / name).open(encoding="utf-8", newline="") as src, \
                    (commas / name).open("w", encoding="utf-8", newline="") as dst:
                csv.writer(dst).writerows(csv.reader(src, delimiter="\t"))
        again = tmp_path / "again"
        assert main(["ingest", "--delimiter", ",",
                     "--journals", str(commas / "journals.tsv"),
                     "--publications", str(commas / "publications.tsv"),
                     "--citations", str(commas / "citations.tsv"),
                     "--out-dir", str(again)]) == 0
        for name in ("journals.tsv", "publications.tsv", "citations.tsv", "dataset.json"):
            assert (again / name).read_bytes() == (bundle / name).read_bytes(), name


def rehash_counts(bundle):
    """Bring the manifest entry of counts.tsv and the metadata's own sha256
    up to date, so that an edit of counts.tsv reaches its reader."""
    meta_path = bundle / "dataset.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["files"]["counts.tsv"]["sha256"] = hashlib.sha256(
        (bundle / "counts.tsv").read_bytes()).hexdigest()
    meta["sha256"] = _meta_sha256(meta)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")


class TestErrorPrecedence:
    """Which error a command with several faults reports: correlate's table
    count first, then the dataset.json of --dataset, then everything else."""

    # each command's arguments besides --dataset, every one of them at fault:
    # --window without --kind, --table files that do not exist
    FAULTY = {
        "indicators": ["--window", "2"],
        "fairness": ["--table", "missing-a.tsv", "--table", "missing-b.tsv"],
        "correlate": ["--table", "missing-a.tsv", "--table", "missing-b.tsv"],
    }

    def test_table_count_before_the_bundle(self, tmp_path, capsys):
        assert main(["correlate", "--dataset", str(tmp_path / "none"), "--table", "a.tsv",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: correlate needs at least two --table files\n"

    @pytest.mark.parametrize("command", sorted(FAULTY))
    def test_not_a_bundle_before_the_other_arguments(self, tmp_path, capsys, command):
        assert main([command, "--dataset", str(tmp_path), *self.FAULTY[command],
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"error: not a dataset bundle (missing dataset.json): "
                                           f"{tmp_path}\n")

    # edit of dataset.json -> the error it gives, after "error: <path>: "
    METADATA_EDITS = {
        "format": (lambda m: m.update(format="citefair-dataset/1"),
                   "bundle format 'citefair-dataset/1' is not 'citefair-dataset/2'; re-run "
                   "'citefair ingest' to write the bundle again"),
        "stale-sha256": (lambda m: m.update(census_year=m["census_year"] + 1),
                         "sha256 differs from that of its other fields; the file changed after "
                         "ingest (re-run 'citefair ingest' to write the bundle again)"),
    }

    @pytest.mark.parametrize("edit", sorted(METADATA_EDITS))
    @pytest.mark.parametrize("command", sorted(FAULTY))
    def test_metadata_before_the_other_arguments(self, tmp_path, profile_file, capsys, command,
                                                 edit):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        meta = bundle / "dataset.json"
        change, message = self.METADATA_EDITS[edit]
        meta.write_text(rewrite_json(change)(meta.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--dataset", str(bundle), *self.FAULTY[command],
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {meta}: {message}\n"
        assert not (tmp_path / "out").exists()


class TestVerifiedBundle:
    """indicators computes its tables from counts.tsv once journals.tsv and
    counts.tsv match the manifest, and rejects them edited after ingest."""

    def indicators(self, bundle, out):
        return main(["indicators", "--dataset", str(bundle), "--out-dir", str(out)])

    def test_reads_no_events(self, tmp_path, profile_file, monkeypatch):
        import citefair.ingest
        import citefair.stream
        _, bundle, tables = run_pipeline(tmp_path, profile_file)

        def boom(*_):
            raise RuntimeError("events read")

        monkeypatch.setattr(citefair.stream, "_CitationReader", boom)
        monkeypatch.setattr(citefair.ingest, "parse_publications", boom)
        out = tmp_path / "again"
        assert self.indicators(bundle, out) == 0
        assert ({p.name: p.read_bytes() for p in out.iterdir()}
                == {p.name: p.read_bytes() for p in tables.iterdir()})

    def test_flipped_count_digit_exits_two(self, tmp_path, profile_file, capsys):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        counts = bundle / "counts.tsv"
        lines = counts.read_text(encoding="utf-8").splitlines(keepends=True)
        row = lines[1].rstrip("\n")
        lines[1] = f"{row[:-1]}{(int(row[-1]) + 1) % 10}\n"
        counts.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert self.indicators(bundle, tmp_path / "again") == 2
        assert "counts.tsv: sha256 differs from the manifest" in capsys.readouterr().err

    def test_counts_rows_swapped_with_the_manifest_updated(self, tmp_path, profile_file,
                                                          capsys):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        counts = bundle / "counts.tsv"
        lines = counts.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        counts.write_text("".join(lines), encoding="utf-8")
        rehash_counts(bundle)
        capsys.readouterr()
        assert self.indicators(bundle, tmp_path / "again") == 2
        assert capsys.readouterr().err == (
            f"error: {counts}: journals differ from journals.tsv\n")

    def test_counts_fraction_not_a_number_with_the_manifest_updated(
            self, tmp_path, profile_file, capsys):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        counts = bundle / "counts.tsv"
        lines = counts.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[1].split("\t")
        fields[4] = "x"  # fractional_2
        lines[1] = "\t".join(fields)
        counts.write_text("".join(lines), encoding="utf-8")
        rehash_counts(bundle)
        capsys.readouterr()
        assert self.indicators(bundle, tmp_path / "again") == 2
        assert capsys.readouterr().err.startswith(
            f"error: {counts}:2: fractional counts must be numbers: 'x', ")

    # counts.tsv column edited on the first data row -> its value and the error
    BAD_COUNTS = {
        "fraction-nan": (4, "nan", "fractional counts must be finite and >= 0: 'nan', "),
        "fraction-infinite": (5, "inf", "fractional counts must be finite and >= 0: "),
        "fraction-negative": (6, "-0.5", "fractional counts must be finite and >= 0: "),
        "negative-cites": (1, "-5", "cites must be >= 0, got -5\n"),
        "negative-items": (9, "-1", "items must be >= 0, got -1\n"),
    }

    @pytest.mark.parametrize("edit", sorted(BAD_COUNTS))
    def test_negative_or_non_finite_count_with_the_manifest_updated(
            self, tmp_path, profile_file, capsys, edit):
        column, value, message = self.BAD_COUNTS[edit]
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        counts = bundle / "counts.tsv"
        lines = counts.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split("\t")
        fields[column] = value
        lines[1] = "\t".join(fields) + "\n"
        counts.write_text("".join(lines), encoding="utf-8")
        rehash_counts(bundle)
        capsys.readouterr()
        assert self.indicators(bundle, tmp_path / "again") == 2
        assert capsys.readouterr().err.startswith(f"error: {counts}:2: {message}")
        assert not (tmp_path / "again").exists()

    def test_counts_edit_alone_reads_no_input_again(self, tmp_path, profile_file, capsys,
                                                     monkeypatch):
        import citefair.ingest
        import citefair.stream
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        counts = bundle / "counts.tsv"
        counts.write_text(counts.read_text(encoding="utf-8") + "\n", encoding="utf-8")

        def boom(*_):
            raise RuntimeError("events read")

        monkeypatch.setattr(citefair.stream, "_CitationReader", boom)
        monkeypatch.setattr(citefair.ingest, "parse_publications", boom)
        capsys.readouterr()
        assert self.indicators(bundle, tmp_path / "again") == 2
        assert capsys.readouterr().err == (
            f"error: {counts}: sha256 differs from the manifest in dataset.json; the file "
            f"changed after ingest (re-run 'citefair ingest' to write the bundle again)\n")


class TestIndicatorsCommand:
    def test_standard_battery_files(self, tmp_path, profile_file):
        _, _, tables = run_pipeline(tmp_path, profile_file)
        names = sorted(p.name for p in tables.iterdir())
        for expected in ("IF2-IC.tsv", "IF2-FC.tsv", "IF5-IC.tsv", "IF5-FC.tsv",
                         "TC-IC.tsv", "TC-FC.tsv", "CP-IC.tsv", "CP-FC.tsv",
                         "IF2-IC-RS.tsv", "CP-FC-RS.tsv"):
            assert expected in names

    def test_single_kind_flags(self, tmp_path, profile_file):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "single"
        assert main(["indicators", "--dataset", str(bundle),
                     "--kind", "impact_factor", "--window", "2",
                     "--counting", "fractional", "--out-dir", str(out)]) == 0
        assert (out / "IF2-FC.tsv").exists()
        assert (out / "IF2-FC-RS.tsv").exists()

    def test_cp_ratio_flag(self, tmp_path, profile_file):
        from citefair.indicators import read_table
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "cp"
        assert main(["indicators", "--dataset", str(bundle),
                     "--kind", "cp_ratio", "--counting", "fractional",
                     "--no-rescale", "--out-dir", str(out)]) == 0
        table = read_table(out / "CP-FC.tsv")
        assert table.kind == "cp_ratio"
        assert table.window == "all"

    def test_rescaled_cluster_means_are_one(self, tmp_path, profile_file):
        from citefair.indicators import read_table
        from citefair.ingest import load_partition
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        partition = load_partition(bundle)[0]
        table = read_table(tables / "IF5-IC-RS.tsv")
        sums: dict[str, list] = {}
        for jid, v in values_of(table).items():
            if v is not None:
                sums.setdefault(partition[jid], []).append(v)
        for vals in sums.values():
            assert sum(vals) / len(vals) == pytest.approx(1.0, abs=1e-9)

    def test_stdout_prints_each_table(self, tmp_path, profile_file, capsys):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        tables = tmp_path / "again"
        capsys.readouterr()
        assert main(["indicators", "--dataset", str(bundle), "--out-dir", str(tables),
                     "--stdout"]) == 0
        out = capsys.readouterr().out
        written = [Path(line[len("wrote "):]) for line in out.splitlines()
                   if line.startswith("wrote ")]
        assert sorted(written) == sorted(tables.iterdir())
        assert out == "".join(f"wrote {p}\n" + p.read_text(encoding="utf-8") for p in written)

    def test_unknown_flag_combination_exit_two(self, tmp_path, profile_file, capsys):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        assert main(["indicators", "--dataset", str(bundle),
                     "--kind", "impact_factor", "--window", "7",
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--window", "7"], ["--counting", "fractional"],
                                       ["--window", "2", "--counting", "integer"]],
                             ids=["window", "counting", "both"])
    def test_window_or_counting_without_kind_exit_two(self, tmp_path, profile_file, capsys,
                                                      flags):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        capsys.readouterr()
        assert main(["indicators", "--dataset", str(bundle), *flags,
                     "--out-dir", str(tmp_path / "x")]) == 2
        named = " and ".join(flags[::2])
        assert capsys.readouterr().err == (f"error: {named} given without --kind; the standard "
                                           f"battery takes no window or counting\n")
        assert not (tmp_path / "x").exists()

    def test_kind_counts_integer_by_default(self, tmp_path, profile_file):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "single"
        assert main(["indicators", "--dataset", str(bundle), "--kind", "impact_factor",
                     "--window", "2", "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["IF2-IC-RS.tsv", "IF2-IC.tsv"]
        for p in out.iterdir():
            assert p.read_bytes() == (tables / p.name).read_bytes()

    @pytest.mark.parametrize("window", ["abc", "2.5"])
    def test_window_not_an_integer_exit_two(self, tmp_path, profile_file, capsys, window):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        capsys.readouterr()
        assert main(["indicators", "--dataset", str(bundle),
                     "--kind", "impact_factor", "--window", window,
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"error: impact_factor requires window 2 or 5, got {window!r}\n")


class TestFairnessCommand:
    def test_single_table_report(self, tmp_path, profile_file):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "fair"
        assert main(["fairness", "--dataset", str(bundle),
                     "--table", str(tables / "IF2-IC-RS.tsv"),
                     "--z", "25", "--out-dir", str(out)]) == 0
        tsv = (out / "IF2-IC-RS-fairness.tsv").read_text(encoding="utf-8")
        assert "1. Alpha" in tsv
        payload = json.loads((out / "IF2-IC-RS-fairness.json").read_text())
        assert payload["z"] == 25
        assert payload["n_z"] == 11  # floor(25% of 44)

    def test_two_tables_comparison(self, tmp_path, profile_file):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "fair"
        assert main(["fairness", "--dataset", str(bundle),
                     "--table", str(tables / "IF5-IC-RS.tsv"),
                     "--table", str(tables / "IF5-FC.tsv"),
                     "--z", "25", "--out-dir", str(out)]) == 0
        cmp_path = out / "comparison-IF5-IC-RS-vs-IF5-FC.tsv"
        assert cmp_path.exists()
        assert "sum_abs_dev" in cmp_path.read_text()

    def test_stdout_mirror(self, tmp_path, profile_file, capsys):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        assert main(["fairness", "--dataset", str(bundle),
                     "--table", str(tables / "IF2-IC.tsv"),
                     "--z", "25", "--out-dir", str(tmp_path / "f"),
                     "--stdout"]) == 0
        out = capsys.readouterr().out
        assert "Mean (± st.dev.)" in out

    def test_stdout_structured_prints_the_json(self, tmp_path, profile_file, capsys):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "f"
        capsys.readouterr()
        assert main(["fairness", "--dataset", str(bundle), "--table", str(tables / "IF2-IC.tsv"),
                     "--z", "25", "--out-dir", str(out), "--stdout",
                     "--format", "structured"]) == 0
        assert capsys.readouterr().out == (f"wrote {out / 'IF2-IC-fairness.tsv'} (and .json)\n"
                                           + (out / "IF2-IC-fairness.json").read_text())


class TestCorrelateCommand:
    def test_outputs(self, tmp_path, profile_file):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "corr"
        assert main(["correlate", "--dataset", str(bundle),
                     "--table", str(tables / "IF2-IC.tsv"),
                     "--table", str(tables / "IF2-FC.tsv"),
                     "--table", str(tables / "IF2-IC-RS.tsv"),
                     "--deciles", "4", "--out-dir", str(out)]) == 0
        matrix = (out / "correlation-matrix.tsv").read_text().splitlines()
        assert matrix[0].split("\t") == ["indicator", "IF2-IC", "IF2-FC", "IF2-IC-RS"]
        # diagonal blank, both triangles populated
        row1 = matrix[1].split("\t")
        assert row1[1] == ""
        assert row1[2] != ""
        assert (out / "deciles-IF2-IC-vs-IF2-FC.tsv").exists()
        assert (out / "ecdf-IF2-IC.tsv").exists()
        assert (out / "ks-IF2-IC.tsv").exists()

    def test_stdout_prints_the_matrix(self, tmp_path, profile_file, capsys):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "corr"
        capsys.readouterr()
        assert main(["correlate", "--dataset", str(bundle),
                     "--table", str(tables / "IF2-IC.tsv"), "--table", str(tables / "IF2-FC.tsv"),
                     "--deciles", "4", "--out-dir", str(out), "--stdout"]) == 0
        matrix = out / "correlation-matrix.tsv"
        assert capsys.readouterr().out.startswith(f"wrote {matrix}\n" + matrix.read_text())

    def test_clusters_in_the_order_fairness_lists_them(self, tmp_path):
        # ASCII-digit ids first, in numeric order, then the rest as strings
        clusters = [ClusterProfile(cid, f"Field {cid}", 12, 1.0, 6.0, 0.4)
                    for cid in ("A", "²", "10", "9")]
        profile = tmp_path / "p.json"
        profile_to_json(SynthProfile(clusters=tuple(clusters), items_per_journal=(2, 4),
                                     years=(2006, 2010), seed=5), profile)
        _, bundle, tables = run_pipeline(tmp_path, profile)
        assert main(["fairness", "--dataset", str(bundle), "--table", str(tables / "IF2-IC.tsv"),
                     "--out-dir", str(tmp_path / "fair")]) == 0
        payload = json.loads((tmp_path / "fair" / "IF2-IC-fairness.json").read_text())
        order = [row["cluster_id"] for row in payload["per_cluster"]]
        assert order == ["9", "10", "A", "²"]
        out = tmp_path / "corr"
        assert main(["correlate", "--dataset", str(bundle),
                     "--table", str(tables / "IF2-IC.tsv"), "--table", str(tables / "IF2-FC.tsv"),
                     "--deciles", "4", "--out-dir", str(out)]) == 0
        ecdf = (out / "ecdf-IF2-IC.tsv").read_text(encoding="utf-8").splitlines()[1:]
        assert list(dict.fromkeys(line.split("\t")[0] for line in ecdf)) == order
        ks = (out / "ks-IF2-IC.tsv").read_text(encoding="utf-8").splitlines()
        assert ks[0].split("\t")[1:] == [line.split("\t")[0] for line in ks[1:]] == order

    def test_table_against_itself(self, tmp_path, profile_file, capsys):
        # its ECDF and KS files would be written twice under one name
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        table = tables / "IF2-IC.tsv"
        out = tmp_path / "corr"
        assert main(["correlate", "--dataset", str(bundle), "--table", str(table),
                     "--table", str(table), "--deciles", "4", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {table} and {table} have the same "
                                           "indicator_id 'IF2-IC'; output files are named "
                                           "after it\n")
        assert not out.exists()

    def test_fewer_than_two_tables_exit_two(self, tmp_path, profile_file, capsys):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        assert main(["correlate", "--dataset", str(bundle),
                     "--table", str(tables / "IF2-IC.tsv"),
                     "--out-dir", str(tmp_path / "x")]) == 2
        assert "two" in capsys.readouterr().err

    def test_disjoint_support_exit_two(self, tmp_path, profile_file, capsys):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        # craft a second table defined only where the first is undefined
        from citefair.indicators import read_table, write_table
        import dataclasses
        base = read_table(tables / "IF2-IC.tsv")
        flipped = dataclasses.replace(
            base, indicator_id="FLIP",
            column=np.where(np.isnan(base.column), 1.0, np.nan))
        write_table(flipped, tmp_path / "flip.tsv")
        code = main(["correlate", "--dataset", str(bundle),
                     "--table", str(tables / "IF2-IC.tsv"),
                     "--table", str(tmp_path / "flip.tsv"),
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2


class TestExternalTables:
    def test_externally_supplied_values_file(self, tmp_path, profile_file, capsys):
        # vendor-style table: own indicator id, extra journals outside the set
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        from citefair.ingest import load_partition
        rows = ["# indicator_id=ISI-IF2 kind=impact_factor window=2 "
                "counting=integer normalization=raw census_year=2010",
                "journal_id\tvalue"]
        for i, jid in enumerate(sorted(load_partition(bundle)[0])):
            rows.append(f"{jid}\t{(i % 7) + 0.25}")
        rows.append("OUTSIDER\t3.5")
        external = tmp_path / "isi-if2.tsv"
        external.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "ext"
        assert main(["fairness", "--dataset", str(bundle),
                     "--table", str(external),
                     "--z", "25", "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "ignoring 1 journal(s)" in stdout
        assert (out / "ISI-IF2-fairness.tsv").exists()


class TestTableProvenance:
    @pytest.mark.parametrize("command", ["fairness", "correlate"])
    def test_other_census_year_exits_two(self, tmp_path, profile_file, capsys, command):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        text = (tables / "IF2-FC.tsv").read_text(encoding="utf-8")
        assert "census_year=2010" in text
        other = tmp_path / "IF2-FC-2009.tsv"
        other.write_text(text.replace("census_year=2010", "census_year=2009", 1),
                         encoding="utf-8")
        assert main([command, "--dataset", str(bundle), "--table", str(tables / "IF2-IC.tsv"),
                     "--table", str(other), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "census_year 2009" in err and "census_year 2010" in err
        assert str(other) in err


class TestExitCodes:
    def test_usage_error_is_two(self):
        assert main(["frobnicate"]) == 2

    def test_internal_error_is_one(self, tmp_path, profile_file, monkeypatch, capsys):
        import citefair.cli as cli_mod

        def boom(_):
            raise RuntimeError("wires crossed")

        # a bundle, so that the command gets past the check of its dataset.json
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        monkeypatch.setattr(cli_mod.ing, "load_counts", boom)
        capsys.readouterr()
        assert main(["indicators", "--dataset", str(bundle),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "internal error: RuntimeError('wires crossed')" in capsys.readouterr().err

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "citefair" in capsys.readouterr().out

    def test_env_var_out_dir(self, tmp_path, profile_file, monkeypatch):
        monkeypatch.setenv("CITEFAIR_OUT", str(tmp_path / "envout"))
        assert main(["synth", "--profile-file", str(profile_file)]) == 0
        assert (tmp_path / "envout" / "journals.tsv").exists()

    def test_module_entry_point(self, tmp_path):
        # A sitecustomize on the child's path reports, at exit, what
        # `-m citefair.cli` left of the BLAS setting and its threads.
        (tmp_path / "sitecustomize.py").write_text(
            "import atexit, os, sys\n"
            "atexit.register(lambda: print('blas', os.environ.get('OPENBLAS_NUM_THREADS'),"
            " len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1,"
            " file=sys.stderr))\n", encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "citefair.cli", "ingest"], capture_output=True,
                              text=True, env=fresh_env(str(tmp_path)), timeout=60)
        assert done.returncode == 2
        assert "--journals" in done.stderr
        assert done.stderr.splitlines()[-1] == "blas 1 1"


def tree(directory: Path) -> dict | None:
    """Each path under ``directory``, with the bytes of each file (None for a
    directory); None when ``directory`` does not exist."""
    if not directory.exists():
        return None
    return {str(p.relative_to(directory)): p.read_bytes() if p.is_file() else None
            for p in directory.rglob("*")}


@pytest.fixture
def unrescalable(tmp_path, profile_file):
    """A bundle whose cluster '1' journals have no citable items in 2008
    and 2009, so that none of them has an IF2, and its --no-rescale tables."""
    raw, bundle, tables = tmp_path / "raw", tmp_path / "bundle", tmp_path / "tables"
    assert main(["synth", "--profile-file", str(profile_file), "--out-dir", str(raw)]) == 0
    alpha = {row["journal_id"] for row in csv.DictReader(
        (raw / "journals.tsv").open(encoding="utf-8"), delimiter="\t") if row["cluster_id"] == "1"}
    lines = (raw / "publications.tsv").read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines):
        jid, year, _ = line.split("\t")
        if jid in alpha and year in ("2008", "2009"):
            lines[k] = f"{jid}\t{year}\t0"
    (raw / "publications.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["ingest", *(f"--{name}={raw / name}.tsv"
                             for name in ("journals", "publications", "citations")),
                 "--out-dir", str(bundle)]) == 0
    assert main(["indicators", "--dataset", str(bundle), "--no-rescale",
                 "--out-dir", str(tables)]) == 0
    return bundle, tables


class TestFailedCommandWritesNothing:
    """A command that fails after it has made part of its files exits 2,
    prints no 'wrote' line and leaves --out-dir as it was: not made if it
    did not exist, and with its files untouched if it did."""

    @pytest.fixture(params=["absent", "stale"])
    def out(self, request, tmp_path):
        """The --out-dir: absent with its parent, or holding an older file,
        one named like a file of the command's, and an empty directory."""
        out = tmp_path / "out" / "deep"
        if request.param == "stale":
            (out / "empty").mkdir(parents=True)
            for name in ("keep.txt", "journals.tsv", "IF2-IC.tsv", "TC-IC-fairness.tsv",
                         "correlation-matrix.tsv"):
                (out / name).write_text(f"old {name}\n", encoding="utf-8")
        return out

    def fails(self, argv, out, capsys, message):
        before = tree(out.parent)
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "wrote" not in captured.out
        assert tree(out.parent) == before

    def test_synth_write_fails(self, profile_file, out, capsys, monkeypatch):
        import citefair.ingest

        def full(*_):
            raise OSError("no space left")

        monkeypatch.setattr(citefair.ingest, "write_citations", full)
        self.fails(["synth", "--profile-file", str(profile_file)], out, capsys, "no space left")

    def test_synth_directory_in_the_way(self, profile_file, out, capsys):
        # the last file's name is taken by a directory: the first two must not be moved in
        (out / "citations.tsv").mkdir(parents=True)
        self.fails(["synth", "--profile-file", str(profile_file)], out, capsys,
                   f"error: [Errno 21] Is a directory: '{out / 'citations.tsv'}'")

    def test_indicators_cluster_without_values(self, unrescalable, out, capsys):
        bundle, _ = unrescalable
        self.fails(["indicators", "--dataset", str(bundle)], out, capsys,
                   "cluster '1' has no defined values to rescale")

    def test_fairness_second_table_fails(self, unrescalable, out, capsys):
        bundle, tables = unrescalable
        self.fails(["fairness", "--dataset", str(bundle), "--table", str(tables / "TC-IC.tsv"),
                    "--table", str(tables / "IF2-IC.tsv")], out, capsys,
                   "cluster(s) without any defined value: 1")

    @pytest.mark.parametrize("deciles, message", [
        ("0", "need at least 2 bins, got k=0"), ("100000", "is smaller than k=100000")],
        ids=["zero", "above-support"])
    def test_correlate_deciles_out_of_range(self, tmp_path, profile_file, out, capsys,
                                            deciles, message):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        self.fails(["correlate", "--dataset", str(bundle), "--table", str(tables / "IF2-IC.tsv"),
                    "--table", str(tables / "IF2-FC.tsv"), "--deciles", deciles], out, capsys,
                   message)

    @pytest.mark.parametrize("command", ["fairness", "correlate"])
    def test_repeated_indicator_id(self, tmp_path, profile_file, out, capsys, command):
        # the copy's values are tripled: its report would replace the first one's
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        first = tables / "IF2-FC.tsv"
        lines = first.read_text(encoding="utf-8").splitlines()
        for k, line in enumerate(lines[2:], start=2):
            jid, value = line.split("\t")
            if value != "NA":
                lines[k] = f"{jid}\t{3 * float(value)!r}"
        copy = tmp_path / "tripled.tsv"
        copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.fails([command, "--dataset", str(bundle), "--table", str(first),
                    "--table", str(copy)], out, capsys,
                   f"error: {first} and {copy} have the same indicator_id 'IF2-FC'; "
                   "output files are named after it\n")

    @pytest.mark.parametrize("command", ["fairness", "correlate"])
    @pytest.mark.parametrize("indicator_id", ["../x", "a/b", "/abs/x", "<tmp>/abs/x", ""])
    def test_indicator_id_naming_a_path(self, tmp_path, profile_file, capsys, command,
                                        indicator_id):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        indicator_id = indicator_id.replace("<tmp>", str(tmp_path))
        text = (tables / "IF2-IC.tsv").read_text(encoding="utf-8")
        table = tmp_path / "evil.tsv"
        table.write_text(text.replace("indicator_id=IF2-IC", f"indicator_id={indicator_id}", 1),
                         encoding="utf-8")
        before = tree(tmp_path)
        assert main([command, "--dataset", str(bundle), "--table", str(table),
                     "--table", str(tables / "IF2-FC.tsv"),
                     "--out-dir", str(tmp_path / "out" / "deep")]) == 2
        assert capsys.readouterr().err == (
            f"error: {table}:1: indicator_id {indicator_id!r} is not a plain name "
            "([A-Za-z0-9][A-Za-z0-9._+-]*)\n")
        assert tree(tmp_path) == before


def fresh_env(*path: str, **env: str) -> dict:
    """os.environ without OPENBLAS_NUM_THREADS (the test process has already
    imported citefair.cli), with ``path`` and src ahead of PYTHONPATH."""
    fresh = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(citefair.__file__).resolve().parents[1])
    fresh["PYTHONPATH"] = os.pathsep.join(filter(None, (*path, src, fresh.get("PYTHONPATH"))))
    return {**fresh, **env}


def run_fresh(code: str, **env: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=fresh_env(**env), timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestStartup:
    """The CLI loads OpenBLAS with one thread and, once a command has passed
    the checks that need no numpy, freezes the heap its imports built; the
    library leaves both alone.  Every layer is registered on import, but a
    command executes only the layers it uses."""

    # the layers that importing citefair.cli registers
    LAYERS = ("model", "ingest", "stream", "indicators", "stats", "fairness", "synth", "cli")
    # argv (with {raw}, {bundle}, {tables} and {out} to fill in), exit code, and
    # the layers besides cli that the command executes
    COMMANDS = {
        "synth": ("synth --profile-file {raw}/profile.json --out-dir {out}", 0,
                  "ingest model synth"),
        "ingest": ("ingest --journals {raw}/journals.tsv --publications {raw}/publications.tsv"
                   " --citations {raw}/citations.tsv --out-dir {out}", 0,
                   "ingest model stream"),
        "indicators": ("indicators --dataset {bundle} --out-dir {out}", 0,
                       "indicators ingest model"),
        "fairness": ("fairness --dataset {bundle} --table {tables}/IF2-IC.tsv --out-dir {out}", 0,
                     "fairness indicators ingest model stats"),
        "correlate": ("correlate --dataset {bundle} --table {tables}/IF2-IC.tsv"
                      " --table {tables}/IF2-FC.tsv --out-dir {out}", 0,
                      "indicators ingest model stats"),
        "no-bundle": ("fairness --dataset {raw} --table {tables}/IF2-IC.tsv --out-dir {out}", 2,
                      ""),
        "help": ("--help", 0, ""),
    }

    def test_cli_import_registers_every_layer(self):
        code = ("import sys, citefair.cli;"
                f" print([name for name in {self.LAYERS!r}"
                " if f'citefair.{name}' not in sys.modules])")
        assert run_fresh(code) == "[]"

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_executes_only_its_layers(self, tmp_path, profile_file, command):
        template, code, layers = self.COMMANDS[command]
        raw, bundle, tables = run_pipeline(tmp_path, profile_file)
        (raw / "profile.json").write_bytes(profile_file.read_bytes())
        argv = template.format(raw=raw, bundle=bundle, tables=tables,
                               out=tmp_path / "out").split()
        script = ("import contextlib, io, sys, types\n"
                  "from citefair.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()),"
                  " contextlib.redirect_stderr(io.StringIO()):\n"
                  f"    code = main({argv!r})\n"
                  f"print(code, *sorted(name for name in {self.LAYERS!r} if name != 'cli'"
                  " and type(sys.modules[f'citefair.{name}']) is types.ModuleType))")
        assert run_fresh(script) == f"{code} {layers}".rstrip()

    # argv (with {raw} to fill in), exit code, and what the command prints:
    # stdout's first line for --help, stderr otherwise
    REJECTIONS = {
        "help": (["--help"], 0,
                 "usage: citefair [-h] {synth,ingest,indicators,fairness,correlate} ..."),
        "usage": (["indicators"], 2, "citefair indicators: error: the following arguments are "
                                     "required: --dataset"),
        "indicators": (["indicators", "--dataset", "{raw}"], 2,
                       "error: not a dataset bundle (missing dataset.json): {raw}"),
        "fairness": (["fairness", "--dataset", "{raw}", "--table", "{raw}/a.tsv"], 2,
                     "error: not a dataset bundle (missing dataset.json): {raw}"),
        "correlate": (["correlate", "--dataset", "{raw}", "--table", "{raw}/a.tsv",
                       "--table", "{raw}/b.tsv"], 2,
                      "error: not a dataset bundle (missing dataset.json): {raw}"),
        "correlate-one-table": (["correlate", "--dataset", "{raw}", "--table", "{raw}/a.tsv"], 2,
                                "error: correlate needs at least two --table files"),
    }

    @pytest.mark.parametrize("case", sorted(REJECTIONS))
    def test_rejection_loads_no_numpy(self, tmp_path, case):
        template, code, message = self.REJECTIONS[case]
        argv = [arg.replace("{raw}", str(tmp_path)) for arg in template]
        script = ("import contextlib, io, json, sys\n"
                  "from citefair.cli import main\n"
                  "out, err = io.StringIO(), io.StringIO()\n"
                  "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
                  f"    code = main({argv!r})\n"
                  "print(json.dumps([code, out.getvalue(), err.getvalue(),"
                  " 'numpy' in sys.modules]))")
        got, out, err, numpy = json.loads(run_fresh(script))
        assert (got, numpy) == (code, False)
        message = message.replace("{raw}", str(tmp_path))
        if case == "help":
            assert (out.splitlines()[0], err) == (message, "")
        else:
            assert (out, err.splitlines()[-1]) == ("", message)

    @pytest.mark.parametrize("imports", ["citefair.stats, citefair.cli",
                                         "citefair.cli, citefair.stats"],
                             ids=["stats-first", "cli-first"])
    def test_cli_and_library_share_a_layer(self, imports):
        code = (f"import sys, {imports};"
                " print(sys.modules['citefair.stats'] is citefair.stats is citefair.cli.stats,"
                " type(citefair.cli.stats).__name__)")
        assert run_fresh(code) == "True module"

    def test_package_import_loads_no_numpy(self):
        assert run_fresh("import sys, citefair; print('numpy' in sys.modules)") == "False"

    @pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
    def test_cli_pins_one_blas_thread(self):
        code = ("import os, citefair.cli; print(os.environ['OPENBLAS_NUM_THREADS'],"
                " len(os.listdir('/proc/self/task')))")
        assert run_fresh(code) == "1 1"

    def test_preset_blas_threads_are_kept(self):
        code = "import os, citefair.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_fresh(code, OPENBLAS_NUM_THREADS="2") == "2"

    def test_pearson_bits_do_not_depend_on_blas_threads(self):
        # Above 10,000 elements OpenBLAS splits a dot product across its
        # threads, which changes the rounding.
        code = ("import citefair.cli, numpy as np; from citefair import stats;"
                " x, y = np.random.default_rng(0).standard_normal((2, 18485));"
                " print(stats.pearson(x, y).hex())")
        assert run_fresh(code) == run_fresh(code, OPENBLAS_NUM_THREADS="1")

    def test_first_command_freezes_the_heap(self, tmp_path, profile_file):
        argv = ["synth", "--profile-file", str(profile_file), "--out-dir", str(tmp_path)]
        code = ("import contextlib, gc, io\n"
                "from citefair.cli import main\n"
                "imported = gc.get_freeze_count()\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rc = main({argv!r})\n"
                "print(rc, imported, gc.isenabled(), gc.get_freeze_count() > 0)")
        assert run_fresh(code) == "0 0 True True"

    def test_disabled_collector_stays_disabled(self, tmp_path, profile_file):
        argv = ["synth", "--profile-file", str(profile_file), "--out-dir", str(tmp_path)]
        code = ("import contextlib, gc, io; gc.disable()\n"
                "from citefair.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rc = main({argv!r})\n"
                "print(rc, gc.isenabled(), gc.get_freeze_count() > 0)")
        assert run_fresh(code) == "0 False True"

    def test_failed_import_turns_the_collector_back_on(self, tmp_path, profile_file):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        argv = ["indicators", "--dataset", str(bundle), "--out-dir", str(tmp_path / "out")]
        code = ("import contextlib, gc, io, sys; sys.modules['numpy'] = None\n"
                "from citefair.cli import main\n"
                "err = io.StringIO()\n"
                "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
                f"    codes = main(['--help']), main({argv!r})\n"
                "print(codes, gc.isenabled(), gc.get_freeze_count(),"
                " err.getvalue().startswith('internal error: ModuleNotFoundError'))")
        assert run_fresh(code) == "(0, 1) True 0 True"

    def test_package_import_freezes_nothing(self):
        code = ("import gc, citefair; from citefair import stats, fairness, ingest;"
                " print(gc.get_freeze_count())")
        assert run_fresh(code) == "0"

    def test_heap_frozen_once_per_process(self, tmp_path, profile_file):
        argv = ["synth", "--profile-file", str(profile_file), "--out-dir", str(tmp_path)]
        code = ("import contextlib, gc, io\n"
                "from citefair.cli import main\n"
                "counts = [gc.get_freeze_count()]\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    for _ in range(2):\n"
                f"        counts.append((main({argv!r}), gc.get_freeze_count()))\n"
                "(imported, (first, frozen), (second, again)) = counts\n"
                "print(imported, first, second, frozen > 0, again == frozen)")
        assert run_fresh(code) == "0 0 0 True True"

    def test_module_run_prints_the_json_it_wrote(self, tmp_path, profile_file):
        # stdout is a pipe, so its buffer is written only at exit
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "f"
        done = subprocess.run([sys.executable, "-m", "citefair.cli", "fairness",
                               "--dataset", str(bundle), "--table", str(tables / "IF2-IC.tsv"),
                               "--out-dir", str(out), "--stdout", "--format", "structured"],
                              capture_output=True, env=fresh_env(), timeout=60)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (f"wrote {out / 'IF2-IC-fairness.tsv'} (and .json)\n".encode()
                               + (out / "IF2-IC-fairness.json").read_bytes())

    def test_module_run_rejects_a_missing_bundle(self, tmp_path):
        done = subprocess.run([sys.executable, "-m", "citefair.cli", "correlate",
                               "--dataset", str(tmp_path / "none"), "--table", "a.tsv",
                               "--table", "b.tsv", "--out-dir", str(tmp_path / "out")],
                              capture_output=True, text=True, env=fresh_env(), timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("error: not a dataset bundle (missing dataset.json): "
                               f"{tmp_path / 'none'}\n")
