import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import citefair
from citefair.cli import main
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

    def test_staging_name_taken(self, tmp_path, profile_file):
        # a staging directory left behind under this process id is passed over
        raw, bundle, _ = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "again"
        left = out / f".ingest-{os.getpid()}-0"
        left.mkdir(parents=True)
        assert main(["ingest", "--journals", str(raw / "journals.tsv"),
                     "--publications", str(raw / "publications.tsv"),
                     "--citations", str(raw / "citations.tsv"), "--out-dir", str(out)]) == 0
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
    def test_unknown_cited_journal_exits_two(self, tmp_path, profile_file, capsys):
        # a census-year row citing a journal that journals.tsv lacks
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        with (bundle / "citations.tsv").open("a", encoding="utf-8") as fh:
            fh.write("P-TAMPERED\tJ0001\t2010\tNOPE\t2009\t3\n")
        capsys.readouterr()
        assert main(["indicators", "--dataset", str(bundle),
                     "--out-dir", str(tmp_path / "again")]) == 2
        err = capsys.readouterr().err
        assert "event.unknown_cited_journal" in err
        assert "NOPE" in err

    # rows appended to citations.tsv, and the error that names the rule they
    # break: {path} is the file, {line} and {next} the lines of the first
    # and second appended rows
    EDITS = {
        "causality": (["P-LATE\tJ0001\t2009\tJ0002\t2010\t3"],
                      "bundle {bundle} fails validation: [event.causality] P-LATE: "
                      "cited_year 2010 > citing_year 2009"),
        "zero-refs": (["P-ZERO\tJ0001\t2010\tJ0002\t2009\t0"], "{path}:{line}: n_refs is 0"),
        "paper-conflict": (["P-TWICE\tJ0001\t2010\tJ0002\t2009\t3",
                            "P-TWICE\tJ0001\t2010\tJ0003\t2009\t4"],
                           "{path}:{next}: citing paper 'P-TWICE' conflicts with an earlier row "
                           "on (citing_journal_id, citing_year, n_refs)"),
        "excess-references": (["P-MANY\tJ0001\t2010\tJ0002\t2009\t1"] * 2,
                              "bundle {bundle} fails validation: [event.excess_references] "
                              "P-MANY: 2 recorded references exceed n_refs=1"),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_edited_citations_exit_two(self, tmp_path, profile_file, capsys, edit):
        rows, message = self.EDITS[edit]
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        path = bundle / "citations.tsv"
        line = path.read_bytes().count(b"\n") + 1
        with path.open("a", encoding="utf-8") as fh:
            fh.write("".join(row + "\n" for row in rows))
        capsys.readouterr()
        assert main(["indicators", "--dataset", str(bundle),
                     "--out-dir", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err == "error: " + message.format(
            bundle=bundle, path=path, line=line, next=line + 1) + "\n"


def rewrite_json(edit):
    def apply(text):
        meta = json.loads(text)
        edit(meta)
        return json.dumps(meta)
    return apply


class TestBundleReads:
    """indicators reads dataset.json, journals.tsv and counts.tsv, after
    checking every bundle file against the manifest; fairness and correlate
    read only dataset.json and journals.tsv, and check journals.tsv."""

    COMMANDS = {
        "indicators": [],
        "fairness": ["--table", "IF5-IC-RS.tsv", "--table", "IF5-FC.tsv", "--z", "25"],
        "correlate": ["--table", "IF2-IC.tsv", "--table", "IF2-FC.tsv",
                      "--table", "IF2-IC-RS.tsv", "--deciles", "4"],
    }

    def run(self, command, bundle, tables, out):
        args = [str(tables / a) if a.endswith(".tsv") else a for a in self.COMMANDS[command]]
        return main([command, "--dataset", str(bundle), *args, "--out-dir", str(out)])

    def test_partition_commands_ignore_event_files(self, tmp_path, profile_file):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)

        def outputs(out):
            for command in ("fairness", "correlate"):
                assert self.run(command, bundle, tables, out / command) == 0
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        before = outputs(tmp_path / "before")
        (bundle / "citations.tsv").unlink()
        (bundle / "publications.tsv").unlink()
        assert outputs(tmp_path / "after") == before
        # fairness: 2 reports (.tsv, .json) and a comparison;
        # correlate: the matrix, 2 decile files, and ecdf + ks per table
        assert len(before) == 2 * 2 + 1 + 1 + 2 + 3 * 2

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

    @pytest.mark.parametrize("command", ["fairness", "correlate"])
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


class TestVerifiedBundle:
    """indicators computes its tables from counts.tsv once every bundle file
    matches the manifest, and rejects a bundle edited after ingest."""

    def indicators(self, bundle, out):
        return main(["indicators", "--dataset", str(bundle), "--out-dir", str(out)])

    def test_reads_no_events(self, tmp_path, profile_file, monkeypatch):
        import citefair.ingest
        import citefair.model
        _, bundle, tables = run_pipeline(tmp_path, profile_file)

        def boom(*_):
            raise RuntimeError("events read")

        for module, name in ((citefair.ingest, "_CitationReader"),
                             (citefair.ingest, "parse_publications"),
                             (citefair.model, "validate")):
            monkeypatch.setattr(module, name, boom)
        out = tmp_path / "again"
        assert self.indicators(bundle, out) == 0
        assert ({p.name: p.read_bytes() for p in out.iterdir()}
                == {p.name: p.read_bytes() for p in tables.iterdir()})

    def test_truncated_citations_exit_two(self, tmp_path, profile_file, capsys):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        citations = bundle / "citations.tsv"
        lines = citations.read_text(encoding="utf-8").splitlines(keepends=True)
        citations.write_text("".join(lines[:-1]), encoding="utf-8")
        assert len(parse_citations(citations)) == len(lines) - 2
        capsys.readouterr()
        assert self.indicators(bundle, tmp_path / "again") == 2
        assert "citations.tsv: sha256 differs from the manifest" in capsys.readouterr().err

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
        counts, meta_path = bundle / "counts.tsv", bundle / "dataset.json"
        lines = counts.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        counts.write_text("".join(lines), encoding="utf-8")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["files"]["counts.tsv"]["sha256"] = hashlib.sha256(counts.read_bytes()).hexdigest()
        meta["sha256"] = _meta_sha256(meta)
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        capsys.readouterr()
        assert self.indicators(bundle, tmp_path / "again") == 2
        assert capsys.readouterr().err == (
            f"error: {counts}: journals differ from journals.tsv\n")

    def test_counts_fraction_not_a_number_with_the_manifest_updated(
            self, tmp_path, profile_file, capsys):
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        counts, meta_path = bundle / "counts.tsv", bundle / "dataset.json"
        lines = counts.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[1].split("\t")
        fields[4] = "x"  # fractional_2
        lines[1] = "\t".join(fields)
        counts.write_text("".join(lines), encoding="utf-8")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["files"]["counts.tsv"]["sha256"] = hashlib.sha256(counts.read_bytes()).hexdigest()
        meta["sha256"] = _meta_sha256(meta)
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        capsys.readouterr()
        assert self.indicators(bundle, tmp_path / "again") == 2
        assert capsys.readouterr().err.startswith(
            f"error: {counts}:2: fractional counts must be numbers: 'x', ")

    def test_counts_edit_alone_reads_no_input_again(self, tmp_path, profile_file, capsys,
                                                     monkeypatch):
        import citefair.ingest
        _, bundle, _ = run_pipeline(tmp_path, profile_file)
        counts = bundle / "counts.tsv"
        counts.write_text(counts.read_text(encoding="utf-8") + "\n", encoding="utf-8")

        def boom(*_):
            raise RuntimeError("census read again")

        monkeypatch.setattr(citefair.ingest, "_census", boom)
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

    def test_table_against_itself(self, tmp_path, profile_file):
        _, bundle, tables = run_pipeline(tmp_path, profile_file)
        out = tmp_path / "corr"
        assert main(["correlate", "--dataset", str(bundle),
                     "--table", str(tables / "IF2-IC.tsv"),
                     "--table", str(tables / "IF2-IC.tsv"),
                     "--deciles", "4", "--out-dir", str(out)]) == 0
        matrix = (out / "correlation-matrix.tsv").read_text().splitlines()
        assert len(matrix) == 2  # deduplicated: 1x1 matrix, no off-diagonal
        deciles = (out / "deciles-IF2-IC-vs-IF2-IC.tsv").read_text().splitlines()[1:]
        assert all(line.split("\t")[2] == "1.000" for line in deciles)

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

    def test_internal_error_is_one(self, tmp_path, monkeypatch, capsys):
        import citefair.cli as cli_mod

        def boom(_):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_mod.ing, "load_counts", boom)
        assert main(["indicators", "--dataset", str(tmp_path),
                     "--out-dir", str(tmp_path)]) == 1
        assert "internal error" in capsys.readouterr().err

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
    """The CLI loads OpenBLAS with one thread; the library leaves it alone."""

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
