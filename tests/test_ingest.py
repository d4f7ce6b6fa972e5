import csv
import hashlib
import io
import json

import numpy as np
import pytest

import citefair.ingest
from citefair.cli import main
from citefair.errors import IngestWarning, ParseError, ValidationError
from citefair.indicators import read_table
from citefair.ingest import (
    IngestConfig,
    load_counts,
    parse_journals,
    parse_publications,
    write_citations,
    write_dataset,
)
from citefair.model import (Cluster, Dataset, Events, Ids, JournalRecord, PublicationCounts,
                            validate)
from citefair.synth import ClusterProfile, SynthProfile, generate

from oracles import PublicationCount, assemble_by_rows, record_violations_by_rows
from reference_ingest import assemble, bundle, parse_citations


def write(path, rows):
    path.write_text("\n".join("\t".join(str(c) for c in row) for row in rows) + "\n",
                    encoding="utf-8")


JHEADER = ("journal_id", "title", "cluster_id", "cluster_name")
PHEADER = ("journal_id", "year", "citable_items")
CHEADER = ("citing_paper_id", "citing_journal_id", "citing_year",
           "cited_journal_id", "cited_year", "n_refs")


class TestParseJournals:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "j.tsv"
        write(path, [JHEADER,
                     ("j1", "One", "g1", "Group 1"),
                     ("j2", "Two", "g1", "Group 1"),
                     ("j3", "Three", "g2", "Group 2")])
        journals, clusters = parse_journals(path)
        assert len(journals) == 3
        assert clusters == [Cluster("g1", "Group 1", 2), Cluster("g2", "Group 2", 1)]

    def test_empty_id_names_line(self, tmp_path):
        path = tmp_path / "j.tsv"
        write(path, [JHEADER, ("", "One", "g1", "Group 1")])
        with pytest.raises(ParseError) as err:
            parse_journals(path)
        assert err.value.line == 2

    def test_duplicate_id_is_validation_error(self, tmp_path):
        path = tmp_path / "j.tsv"
        write(path, [JHEADER, ("j1", "One", "g1", "G"), ("j1", "Uno", "g1", "G")])
        with pytest.raises(ValidationError, match="j1"):
            parse_journals(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("journal_id\ttitle\tcluster_id\tcluster_name\nj1\tOne\n")
        with pytest.raises(ParseError) as err:
            parse_journals(path)
        assert err.value.line == 2

    def test_missing_column(self, tmp_path):
        path = tmp_path / "j.tsv"
        write(path, [("journal_id", "title"), ("j1", "One")])
        with pytest.raises(ParseError) as err:
            parse_journals(path)
        assert err.value.line == 1

    def test_cluster_rename_rejected(self, tmp_path):
        path = tmp_path / "j.tsv"
        write(path, [JHEADER, ("j1", "One", "g1", "Alpha"), ("j2", "Two", "g1", "Beta")])
        with pytest.raises(ValidationError, match="renamed"):
            parse_journals(path)

    def test_large_set_13_clusters(self, tmp_path):
        # 3,705 journals across 13 clusters, as a full-size smoke case
        rows = [JHEADER]
        sizes = {"1": 534, "2": 514, "3": 531, "4": 531, "5": 531, "6": 531,
                 "7": 32, "8": 2, "9": 173, "10": 245, "11": 8, "12": 42, "13": 31}
        i = 0
        for cid, size in sizes.items():
            for _ in range(size):
                i += 1
                rows.append((f"j{i:04d}", f"Journal {i}", cid, f"Cluster {cid}"))
        path = tmp_path / "j.tsv"
        write(path, rows)
        journals, clusters = parse_journals(path)
        assert len(journals) == 3705
        assert len(clusters) == 13


class TestParsePublications:
    def test_ok(self, tmp_path):
        path = tmp_path / "p.tsv"
        write(path, [PHEADER, ("j1", 2009, 100)])
        assert parse_publications(path) == PublicationCounts.from_rows(
            [PublicationCount("j1", 2009, 100)])

    def test_non_integer_year(self, tmp_path):
        path = tmp_path / "p.tsv"
        write(path, [PHEADER, ("j1", "someday", 100)])
        with pytest.raises(ParseError, match="year"):
            parse_publications(path)

    def test_negative_items(self, tmp_path):
        path = tmp_path / "p.tsv"
        write(path, [PHEADER, ("j1", 2009, -2)])
        with pytest.raises(ParseError):
            parse_publications(path)

    def test_duplicate_journal_year(self, tmp_path):
        path = tmp_path / "p.tsv"
        write(path, [PHEADER, ("j1", 2009, 1), ("j1", 2009, 2)])
        with pytest.raises(ValidationError):
            parse_publications(path)

    def test_year_past_int_digit_limit(self, tmp_path):
        # more digits than int() converts by default
        path = tmp_path / "p.tsv"
        write(path, [PHEADER, ("j1", "9" * 5000, 1)])
        with pytest.raises(ParseError, match="year must be an integer") as err:
            parse_publications(path)
        assert err.value.line == 2


class TestParseCitations:
    def test_event_row(self, tmp_path):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER, ("p1", "jA", 2010, "jB", 2009, 4)])
        events = parse_citations(path)
        assert list(events.rows()) == [("p1", "jA", 2010, "jB", 2009, 4)]
        assert events == Events.from_rows([("p1", "jA", 2010, "jB", 2009, 4)])

    def test_zero_refs_dropped_with_warning(self, tmp_path):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER,
                     ("p1", "jA", 2010, "jB", 2009, 0),
                     ("p2", "jA", 2010, "jB", 2009, 3)])
        with pytest.warns(IngestWarning, match="n_refs=0"):
            events = parse_citations(path)
        assert len(events) == 1

    def test_zero_refs_error_policy(self, tmp_path):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER, ("p1", "jA", 2010, "jB", 2009, 0)])
        with pytest.raises(ParseError):
            parse_citations(path, IngestConfig(zero_refs_policy="error"))

    def test_conflicting_n_refs(self, tmp_path):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER,
                     ("p1", "jA", 2010, "jB", 2009, 4),
                     ("p1", "jA", 2010, "jC", 2008, 5)])
        with pytest.raises(ValidationError, match="p1"):
            parse_citations(path)

    def test_non_integer_year(self, tmp_path):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER, ("p1", "jA", "x", "jB", 2009, 4)])
        with pytest.raises(ParseError):
            parse_citations(path)

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER,
                     ("p1", "jA", 2010, "jB", 2009, 2),
                     ("p1", "jA", 2010, "jC", 2008, 2),
                     ("p2", "jB", 2010, "jA", 2009, 1)])
        events = parse_citations(path)
        assert events.cited_journal_id.strings().tolist() == ["jB", "jC", "jA"]


class TestUndecodableBytes:
    """A byte that is not UTF-8 is a ParseError naming its file and line."""

    # per file: its parser, valid rows, and a row holding a Latin-1 byte
    FILES = {
        "journals": (parse_journals, [JHEADER, ("j1", "One", "g1", "G")],
                     ("j2", "Caf\xe9", "g1", "G")),
        "publications": (parse_publications, [PHEADER, ("j1", 2009, 1)],
                         ("j1", 2010, "\xe9")),
        "citations": (parse_citations, [CHEADER, ("p1", "jB", 2010, "j1", 2009, 4)],
                      ("p2", "jB", 2010, "j\xe9", 2009, 4)),
        "table": (read_table, [("# indicator_id=T kind=impact_factor window=2 counting=integer "
                                "normalization=raw census_year=2010",), ("journal_id", "value")],
                  ("j\xe9", 1.5)),
    }
    INPUTS = ("citations", "journals", "publications")

    def write_bad(self, path, kind):
        _, rows, bad = self.FILES[kind]
        path.write_bytes("".join("\t".join(str(c) for c in row) + "\n"
                                 for row in rows + [bad]).encode("latin-1"))

    @pytest.mark.parametrize("kind", sorted(FILES))
    def test_names_path_and_line(self, tmp_path, kind):
        path = tmp_path / f"{kind}.tsv"
        self.write_bad(path, kind)
        with pytest.raises(ParseError, match="not valid UTF-8") as err:
            self.FILES[kind][0](path)
        assert err.value.path == str(path)
        assert err.value.line == 3

    def ingest(self, tmp_path, bad=None, *options):
        """Run ingest on the valid input files, ``bad`` holding its bad row."""
        paths = {name: tmp_path / f"{name}.tsv" for name in self.INPUTS}
        for name in self.INPUTS:
            write(paths[name], self.FILES[name][1])
        if bad:
            self.write_bad(paths[bad], bad)
        return main(["ingest", "--journals", str(paths["journals"]),
                     "--publications", str(paths["publications"]),
                     "--citations", str(paths["citations"]),
                     "--out-dir", str(tmp_path / "bundle"), *options])

    @pytest.mark.parametrize("kind", INPUTS)
    def test_ingest_exits_two(self, tmp_path, capsys, kind):
        assert self.ingest(tmp_path, kind) == 2
        assert f"{tmp_path / kind}.tsv:3: not valid UTF-8" in capsys.readouterr().err

    def test_fairness_table_exits_two(self, tmp_path, capsys):
        assert self.ingest(tmp_path, None, "--min-cluster-size", "1") == 0
        table = tmp_path / "table.tsv"
        self.write_bad(table, "table")
        assert main(["fairness", "--dataset", str(tmp_path / "bundle"), "--table", str(table),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{table}:3: not valid UTF-8 (byte 0xe9" in capsys.readouterr().err


class TestCsvErrorsAndLineNumbers:
    def test_oversized_title_is_parse_error(self, tmp_path):
        path = tmp_path / "j.tsv"
        write(path, [JHEADER, ("j1", "One", "g1", "G"), ("j2", "x" * 200_000, "g1", "G")])
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            parse_journals(path)
        assert (err.value.path, err.value.line) == (str(path), 3)

    def test_oversized_n_refs_is_parse_error(self, tmp_path):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER, ("p1", "jA", 2010, "jB", 2009, 4),
                     ("p2", "jA", 2010, "jB", 2009, "9" * 200_000)])
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            parse_citations(path)
        assert err.value.line == 3

    def test_oversized_field_exits_two(self, tmp_path, capsys):
        write(tmp_path / "j.tsv", [JHEADER, ("j1", "x" * 200_000, "g1", "G")])
        write(tmp_path / "p.tsv", [PHEADER])
        write(tmp_path / "c.tsv", [CHEADER])
        assert main(["ingest", "--journals", str(tmp_path / "j.tsv"),
                     "--publications", str(tmp_path / "p.tsv"),
                     "--citations", str(tmp_path / "c.tsv"),
                     "--out-dir", str(tmp_path / "bundle")]) == 2
        assert f"{tmp_path / 'j.tsv'}:2: malformed row" in capsys.readouterr().err

    def test_line_numbers_are_physical_after_multiline_field(self, tmp_path):
        # the quoted title of line 2 runs onto line 3; the bad row is on line 4
        path = tmp_path / "j.tsv"
        path.write_text("\t".join(JHEADER) + "\n"
                        + 'j1\t"Two\nLines"\tg1\tG\n'
                        + "\tFour\tg1\tG\n", encoding="utf-8")
        with pytest.raises(ParseError, match="empty journal_id") as err:
            parse_journals(path)
        assert err.value.line == 4


class TestIntegerRange:
    """Integers must fit in 64 bits: the event and count columns are int64."""

    def test_huge_citable_items(self, tmp_path):
        path = tmp_path / "p.tsv"
        write(path, [PHEADER, ("j1", 2009, 1), ("j1", 2010, 10 ** 20)])
        with pytest.raises(ParseError, match="citable_items") as err:
            parse_publications(path)
        assert (err.value.path, err.value.line) == (str(path), 3)

    def test_huge_negative_year(self, tmp_path):
        path = tmp_path / "p.tsv"
        write(path, [PHEADER, ("j1", -10 ** 20, 1)])
        with pytest.raises(ParseError, match="year") as err:
            parse_publications(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("row", [
        ("p2", "jA", 2010, "jB", -10 ** 20, 4),
        ("p2", "jA", 10 ** 20, "jB", 2009, 4),
        ("p2", "jA", 2010, "jB", 2009, 2 ** 63),
    ])
    def test_huge_citation_integers(self, tmp_path, row):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER, ("p1", "jA", 2010, "jB", 2009, 4), row])
        with pytest.raises(ParseError, match="64 bits") as err:
            parse_citations(path)
        assert (err.value.path, err.value.line) == (str(path), 3)

    def test_int64_limits_accepted(self, tmp_path):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER, ("p1", "jA", 2 ** 63 - 1, "jB", -2 ** 63, 2 ** 63 - 1)])
        assert list(parse_citations(path).rows()) == [
            ("p1", "jA", 2 ** 63 - 1, "jB", -2 ** 63, 2 ** 63 - 1)]


class TestIntegerSyntax:
    """Integer fields are ASCII numerals, [+-]?[0-9]+: int() alone would also
    take underscores, surrounding spaces and other scripts' digits."""

    FORMS = {"underscore": "2_010", "arabic-indic": " \u0662\u0660\u0660\u0669 ",
             "spaced-underscore": " 1_0"}

    @pytest.mark.parametrize("raw", FORMS.values(), ids=FORMS.keys())
    def test_citations(self, tmp_path, raw):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER, ("p1", "jA", 2010, "jB", 2009, 4), ("p2", "jA", 2010, "jB", raw, 4)])
        with pytest.raises(ParseError, match="years and n_refs must be integers") as err:
            parse_citations(path)
        assert (err.value.path, err.value.line) == (str(path), 3)

    @pytest.mark.parametrize("raw", FORMS.values(), ids=FORMS.keys())
    def test_publications(self, tmp_path, raw):
        path = tmp_path / "p.tsv"
        write(path, [PHEADER, ("j1", 2009, 1), ("j1", 2010, raw)])
        with pytest.raises(ParseError, match=f"citable_items must be an integer, got {raw!r}") as err:
            parse_publications(path)
        assert (err.value.path, err.value.line) == (str(path), 3)

    @pytest.mark.parametrize("raw", FORMS.values(), ids=FORMS.keys())
    def test_counts(self, tmp_path, raw):
        bundle(TestRoundTrip().small_synth(), tmp_path)
        path = tmp_path / "counts.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].split("\t")
        lines[2] = "\t".join([fields[0], raw] + fields[2:])
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match=f"cites must be an integer, got {raw!r}") as err:
            citefair.ingest._read_counts(path, 2010)
        assert (err.value.path, err.value.line) == (str(path), 3)

    def test_signs_and_leading_zeros_accepted(self, tmp_path):
        path = tmp_path / "c.tsv"
        write(path, [CHEADER, ("p1", "jA", "+2010", "jB", "02009", "+4")])
        assert list(parse_citations(path).rows()) == [("p1", "jA", 2010, "jB", 2009, 4)]


def read_both_ways(reader, path, monkeypatch, chunk_chars):
    """The reader's result at ``chunk_chars`` per chunk, and its result when
    every chunk goes through csv.reader."""
    with monkeypatch.context() as patch:
        patch.setattr(citefair.ingest, "_CHUNK_CHARS", chunk_chars)
        bulk = reader(path)
    with monkeypatch.context() as patch:
        patch.setattr(citefair.ingest, "_split_plain", lambda *_: None)
        return bulk, reader(path)


class TestChunkedReader:
    """Chunks of a few characters split rows, quoted fields and CRLF pairs
    across chunk boundaries; the rows, line numbers and errors stay those
    of csv.reader."""

    CITATIONS = ("\t".join(CHEADER) + "\n"
                 + "p1\tjA\t2010\tjB\t2009\t2\n"
                 + "\n"
                 + 'p1\tjA\t2010\t"j\nC"\t2008\t2\r\n'
                 + "p2\tjB\t2010\tjA\t2009\t1\textra\n"
                 + "p3\tjB\t2009\tjA\t2008\t1")

    @pytest.mark.parametrize("chunk_chars", [1, 2, 3, 5, 8, 13, 1 << 18])
    def test_rows_across_chunk_boundaries(self, tmp_path, monkeypatch, chunk_chars):
        path = tmp_path / "c.tsv"
        path.write_text(self.CITATIONS, encoding="utf-8")
        bulk, by_csv = read_both_ways(parse_citations, path, monkeypatch, chunk_chars)
        assert bulk == by_csv == Events.from_rows([
            ("p1", "jA", 2010, "jB", 2009, 2), ("p1", "jA", 2010, "j\nC", 2008, 2),
            ("p2", "jB", 2010, "jA", 2009, 1), ("p3", "jB", 2009, "jA", 2008, 1)])

    @pytest.mark.parametrize("chunk_chars", [1, 3, 7, 1 << 18])
    def test_error_line_across_chunk_boundaries(self, tmp_path, monkeypatch, chunk_chars):
        path = tmp_path / "c.tsv"
        path.write_text(self.CITATIONS + "\np4\tjB\t2010\tjA\n", encoding="utf-8")
        for patch in ({"_CHUNK_CHARS": chunk_chars}, {"_split_plain": lambda *_: None}):
            with monkeypatch.context() as m, pytest.raises(ParseError) as err:
                for name, value in patch.items():
                    m.setattr(citefair.ingest, name, value)
                parse_citations(path)
            assert (err.value.line, str(err.value)) == (8, f"{path}:8: expected 6 columns, got 4")

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes(b"\r\n".join(["\t".join(CHEADER).encode(), b"p1\tjA\t2010\tjB\t2009\t2",
                                        b"p2\tjA\t2010\tjC\t2008\t1", b""]))
        assert list(parse_citations(path).rows()) == [("p1", "jA", 2010, "jB", 2009, 2),
                                                      ("p2", "jA", 2010, "jC", 2008, 1)]

    def test_ragged_rows_that_balance_out(self, tmp_path):
        # a 7-field and a 5-field row hold as many fields as two 6-field rows
        path = tmp_path / "c.tsv"
        write(path, [CHEADER, ("p1", "jA", 2010, "jB", 2009, 2, "x"), ("p2", "jA", 2010, "jB", 2009)])
        with pytest.raises(ParseError, match="expected 6 columns, got 5") as err:
            parse_citations(path)
        assert err.value.line == 3

    def test_earlier_row_error_wins_over_later_malformed_row(self, tmp_path):
        path = tmp_path / "p.tsv"
        write(path, [PHEADER, ("j1", 2009, 1), ("j1", 2009, 2), ("j2", 2009)])
        with pytest.raises(ValidationError, match=":3: duplicate publication record"):
            parse_publications(path)


class TestHeaderRow:
    """The header row is read by csv.reader, whole files and chunks of a
    few characters alike."""

    HEADER = "\t".join(JHEADER)
    CASES = {
        "empty-file": ("", "1: empty file; header row required"),
        "blank-first-line": ("\n" + HEADER + "\n",
                             "1: missing required column(s): " + ", ".join(JHEADER)),
        # the header's last field runs onto line 2; the bad row is on line 4
        "multiline-header": (HEADER + '\t"note\nmore"\nj1\tOne\tg1\tG\tx\n\tTwo\tg1\tG\tx\n',
                             "4: empty journal_id"),
        "oversized-header": (HEADER + "\t" + "x" * 200_000 + "\n",
                             "1: malformed row (field larger than field limit (131072))"),
        "crlf": (HEADER + "\r\nj1\tOne\tg1\tG\r\n\tTwo\tg1\tG\r\n", "3: empty journal_id"),
    }

    @pytest.mark.parametrize("chunk_chars", [3, 1 << 17])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error(self, tmp_path, monkeypatch, case, chunk_chars):
        text, message = self.CASES[case]
        path = tmp_path / "journals.tsv"
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(citefair.ingest, "_CHUNK_CHARS", chunk_chars)
        with pytest.raises(ParseError) as err:
            parse_journals(path)
        assert str(err.value) == f"{path}:{message}"

    @pytest.mark.parametrize("end", ["\n", ""])
    def test_header_only(self, tmp_path, end):
        path = tmp_path / "journals.tsv"
        path.write_text(self.HEADER + end, encoding="utf-8")
        assert parse_journals(path) == ([], [])


class TestColumnWriter:
    """write_citations writes blocks with one join each; a block holding a
    tab, quote or newline in an id goes through csv.writer."""

    ROWS = [("p1", "jA", 2010, "jB", 2009, 2), ("p\t2", 'j"B', 2010, "jA", 2009, 1),
            ("p3", "jA", 2010, "j\nC", 2008, 1), ("p4", "jC", 2009, "jA", 2008, 3)]

    @staticmethod
    def csv_bytes(rows):
        out = io.StringIO()
        writer = csv.writer(out, delimiter="\t", lineterminator="\n")
        writer.writerow(CHEADER)
        writer.writerows(rows)
        return out.getvalue().encode("utf-8")

    @pytest.mark.parametrize("block_rows", [1, 2, 1 << 14])
    def test_bytes_are_csv_writers_and_round_trip(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(citefair.ingest, "_BLOCK_ROWS", block_rows)
        events = Events.from_rows(self.ROWS)
        path = tmp_path / "c.tsv"
        write_citations(events, path)
        assert path.read_bytes() == self.csv_bytes(self.ROWS)
        assert parse_citations(path) == events

    def test_ids_from_comma_separated_input(self, tmp_path):
        source = tmp_path / "in.csv"
        source.write_text(",".join(CHEADER) + "\n" + 'p\t1,"j,A",2010,"j""B",2009,1\n',
                          encoding="utf-8")
        events = parse_citations(source, IngestConfig(delimiter=","))
        assert list(events.rows()) == [("p\t1", "j,A", 2010, 'j"B', 2009, 1)]
        path = tmp_path / "c.tsv"
        write_citations(events, path)
        assert path.read_bytes() == self.csv_bytes(events.rows())
        assert parse_citations(path) == events

    def test_empty_events_write_the_header_only(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_citations(Events.from_rows([]), path)
        assert path.read_bytes() == self.csv_bytes([])
        assert len(parse_citations(path)) == 0


NO_COUNTS = PublicationCounts.from_rows([])


def journals_fixture(sizes):
    journals = []
    clusters = []
    i = 0
    for cid, size in sizes.items():
        clusters.append(Cluster(cid, f"Cluster {cid}", size))
        for _ in range(size):
            i += 1
            journals.append(JournalRecord(f"j{i:03d}", f"J{i}", cid))
    return journals, clusters


class TestAssemble:
    @pytest.mark.parametrize("policy", ["unknown_cited_policy", "zero_refs_policy"])
    def test_unknown_policy(self, policy):
        with pytest.raises(ValueError, match=policy):
            IngestConfig(**{policy: "ignore"})

    def test_small_clusters_excluded(self):
        journals, clusters = journals_fixture(
            {str(c): 12 for c in range(1, 12)} | {"hum": 2, "prof": 8})
        counts = PublicationCounts.from_rows(
            PublicationCount(j.journal_id, 2009, 10) for j in journals)
        events = Events.from_rows([("p1", journals[0].journal_id, 2010,
                                    journals[5].journal_id, 2009, 3)])
        ds, summary = assemble(journals, clusters, counts, events, census_year=2010)
        assert len(ds.clusters) == 11
        assert {c for c, _, _ in summary.excluded_clusters} == {"hum", "prof"}
        assert summary.excluded_journals == 10
        assert len(ds.journals) == len(journals) - 10

    def test_nothing_excluded_when_all_big(self):
        journals, clusters = journals_fixture({"a": 10, "b": 11})
        ds, summary = assemble(journals, clusters, NO_COUNTS,
                               Events.from_rows([("p1", "x", 2010, "j001", 2009, 2)]),
                               census_year=2010)
        assert summary.excluded_clusters == ()
        assert len(ds.journals) == 21

    def test_unknown_cited_dropped_and_counted(self):
        journals, clusters = journals_fixture({"a": 10})
        events = Events.from_rows([
            ("p1", "outside", 2010, "j001", 2009, 2),
            ("p2", "outside", 2010, "ghost", 2009, 2),
        ])
        ds, summary = assemble(journals, clusters, NO_COUNTS, events, census_year=2010)
        assert len(ds.citation_events) == 1
        assert summary.events_dropped_unknown_cited == 1

    def test_unknown_cited_error_policy(self):
        journals, clusters = journals_fixture({"a": 10})
        events = Events.from_rows([("p1", "x", 2010, "ghost", 2009, 2)])
        with pytest.raises(ValidationError, match="ghost"):
            assemble(journals, clusters, NO_COUNTS, events, census_year=2010,
                     config=IngestConfig(unknown_cited_policy="error"))

    def test_events_touching_dropped_clusters_removed(self):
        journals, clusters = journals_fixture({"big": 10, "tiny": 2})
        tiny_j = journals[-1].journal_id
        big_j = journals[0].journal_id
        events = Events.from_rows([
            ("p1", tiny_j, 2010, big_j, 2009, 2),   # citing side dropped
            ("p2", big_j, 2010, tiny_j, 2009, 2),   # cited side dropped
            ("p3", "x", 2010, big_j, 2009, 2),
        ])
        ds, summary = assemble(journals, clusters, NO_COUNTS, events, census_year=2010)
        assert len(ds.citation_events) == 1
        assert summary.events_dropped_excluded_clusters == 2

    def test_declared_size_kept_for_validate(self):
        # the policy decides by the declared size; validate finds it wrong
        journals, clusters = journals_fixture({"a": 10})
        clusters[0] = Cluster("a", "Cluster a", 12)
        with pytest.raises(ValidationError, match="cluster.size_mismatch"):
            assemble(journals, clusters, NO_COUNTS,
                     Events.from_rows([("p1", "x", 2010, "j001", 2009, 2)]), census_year=2010)

    def test_empty_dataset_is_error(self):
        journals, clusters = journals_fixture({"a": 3})
        with pytest.raises(ValidationError, match="empty"):
            assemble(journals, clusters, NO_COUNTS, Events.from_rows([]), census_year=2010)

    def test_census_year_inferred(self):
        journals, clusters = journals_fixture({"a": 10})
        events = Events.from_rows([("p1", "x", 2009, "j001", 2008, 2),
                                   ("p2", "x", 2012, "j002", 2010, 3)])
        ds, summary = assemble(journals, clusters, NO_COUNTS, events)
        assert ds.census_year == 2012
        assert summary.census_year_inferred

    def test_counts_for_dropped_and_unknown_journals_removed(self):
        journals, clusters = journals_fixture({"big": 10, "tiny": 2})
        tiny_j = journals[-1].journal_id
        counts = PublicationCounts.from_rows([PublicationCount("j001", 2009, 5),
                                              PublicationCount(tiny_j, 2009, 5),
                                              PublicationCount("ghost", 2009, 5)])
        ds, summary = assemble(journals, clusters, counts,
                               Events.from_rows([("p1", "x", 2010, "j001", 2009, 1)]),
                               census_year=2010)
        assert summary.counts_dropped == 2
        assert len(ds.publication_counts) == 1

    def test_exclusion_monotone_in_min_cluster_size(self):
        journals, clusters = journals_fixture({"a": 3, "b": 7, "c": 12, "d": 20})
        events = Events.from_rows([("p1", "x", 2010, journals[-1].journal_id, 2009, 1)])
        retained = []
        for mcs in (1, 4, 8, 13, 20):
            ds, _ = assemble(journals, clusters, NO_COUNTS, events, census_year=2010,
                             config=IngestConfig(min_cluster_size=mcs))
            retained.append(len(ds.journals))
        assert retained == sorted(retained, reverse=True)

    def test_assembled_dataset_validates(self, tmp_path):
        journals, clusters = journals_fixture({"a": 10, "b": 12})
        counts = PublicationCounts.from_rows(PublicationCount(j.journal_id, y, 4)
                                             for j in journals for y in (2008, 2009, 2010))
        events = Events.from_rows((f"p{k}", "x", 2010, journals[k % 22].journal_id, 2009, 2)
                                  for k in range(40))
        # 2 events per paper id would break n_refs accounting; use unique ids
        ds, _ = assemble(journals, clusters, counts, events, census_year=2010)
        assert validate(ds) == []


class TestRoundTrip:
    def small_synth(self):
        profile = SynthProfile(
            clusters=(
                ClusterProfile("1", "Alpha", 12, 1.0, 6.0, 0.4),
                ClusterProfile("2", "Beta", 15, 2.5, 14.0, 0.5),
            ),
            items_per_journal=(2, 5),
            years=(2007, 2010),
            seed=99,
        )
        return generate(profile)

    def test_three_file_round_trip(self, tmp_path):
        ds = self.small_synth()
        write_dataset(ds, tmp_path)
        config = IngestConfig(min_cluster_size=1)
        journals, clusters = parse_journals(tmp_path / "journals.tsv", config)
        counts = parse_publications(tmp_path / "publications.tsv", config)
        events = parse_citations(tmp_path / "citations.tsv", config)
        rebuilt, _ = assemble(journals, clusters, counts, events,
                              census_year=ds.census_year, config=config)
        assert rebuilt == ds

    def test_bundle_round_trip(self, tmp_path):
        ds = self.small_synth()
        bundle(ds, tmp_path)
        journals, clusters = parse_journals(tmp_path / "journals.tsv")
        meta = json.loads((tmp_path / "dataset.json").read_text(encoding="utf-8"))
        loaded = Dataset(tuple(journals), tuple(clusters),
                         parse_publications(tmp_path / "publications.tsv"),
                         parse_citations(tmp_path / "citations.tsv"), meta["census_year"])
        assert loaded == ds
        assert loaded.census_year == 2010

    def test_bundle_manifest(self, tmp_path):
        bundle(self.small_synth(), tmp_path)
        files = json.loads((tmp_path / "dataset.json").read_text(encoding="utf-8"))["files"]
        assert sorted(files) == ["citations.tsv", "counts.tsv", "journals.tsv",
                                 "publications.tsv"]
        for name, entry in files.items():
            data = (tmp_path / name).read_bytes()
            assert entry == {"rows": data.count(b"\n") - 1,
                             "sha256": hashlib.sha256(data).hexdigest()}, name

    def test_reingest_idempotent_with_same_config(self, tmp_path):
        # an assembled dataset re-ingested under the same policy is unchanged
        journals, clusters = journals_fixture({"a": 10, "b": 12, "c": 4})
        counts = PublicationCounts.from_rows(
            PublicationCount(j.journal_id, 2009, 3) for j in journals)
        events = Events.from_rows((f"p{k}", "x", 2010, f"j{(k % 22) + 1:03d}", 2009, 2)
                                  for k in range(30))
        config = IngestConfig(min_cluster_size=10)
        ds, _ = assemble(journals, clusters, counts, events, census_year=2010, config=config)
        write_dataset(ds, tmp_path)
        j2, c2 = parse_journals(tmp_path / "journals.tsv", config)
        p2 = parse_publications(tmp_path / "publications.tsv", config)
        e2 = parse_citations(tmp_path / "citations.tsv", config)
        ds2, _ = assemble(j2, c2, p2, e2, census_year=2010, config=config)
        assert ds2 == ds


def recoded(record, rng):
    """The same rows, each id column numbered in a shuffled vocabulary that
    also lists two ids no row uses."""
    def shuffle(ids):
        values = list(ids.values) + ["unused-1", "unused-2"]
        order = rng.permutation(len(values))
        position = np.empty(len(order), np.intp)
        position[order] = np.arange(len(order))
        return Ids(position[ids.codes], [values[k] for k in order])
    return type(record)(*(shuffle(c) if isinstance(c, Ids) else c for c in record.columns()))


def record_violations(ds):
    return [(v.rule, v.record, v.message) for v in validate(ds)
            if v.rule.startswith(("publication.", "event."))]


class TestCodedColumns:
    """The exclusion policy and validate work on id codes; a brute-force
    scan of the rows (tests/oracles.py) must keep, drop and report the same."""

    JOURNALS, CLUSTERS = journals_fixture({"big": 10, "mid": 5, "tiny": 2})
    IDS = [j.journal_id for j in JOURNALS] + ["ghost", "outside"]

    def valid_rows(self, rng):
        """Rows that validate once the events of excluded or unknown
        journals are dropped: one citing journal, year and n_refs per paper."""
        events = []
        for paper in range(int(rng.integers(0, 12))):
            citing, n_refs = str(rng.choice(self.IDS)), int(rng.integers(1, 5))
            for _ in range(int(rng.integers(1, n_refs + 1))):
                events.append((f"p{paper}", citing, 2010, str(rng.choice(self.IDS)),
                               int(rng.integers(2005, 2011)), n_refs))
        order = rng.permutation(len(events))
        counts = [(jid, year, int(rng.integers(0, 9))) for jid in self.IDS
                  for year in (2008, 2009) if rng.random() < 0.5]
        return [events[k] for k in order], counts

    def any_rows(self, rng):
        """Rows that may break any publication or event rule."""
        def pick(low, high):
            return int(rng.integers(low, high))
        events = [(f"p{pick(0, 6)}", str(rng.choice(self.IDS)), pick(2008, 2011),
                   str(rng.choice(self.IDS)), pick(2007, 2012), pick(-1, 4))
                  for _ in range(pick(0, 30))]
        counts = [(str(rng.choice(self.IDS)), pick(2008, 2011), pick(-2, 5))
                  for _ in range(pick(0, 20))]
        return events, counts

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("min_cluster_size", [3, 6])
    def test_assemble_keeps_and_drops_as_the_rows_do(self, seed, min_cluster_size):
        rng = np.random.default_rng(seed)
        event_rows, count_rows = self.valid_rows(rng)
        events = recoded(Events.from_rows(event_rows), rng)
        counts = recoded(PublicationCounts.from_rows(count_rows), rng)
        kept, kept_counts, excluded, unknown = assemble_by_rows(
            self.JOURNALS, count_rows, event_rows, min_cluster_size)
        config = IngestConfig(min_cluster_size=min_cluster_size)
        ds, summary = assemble(self.JOURNALS, self.CLUSTERS, counts, events, 2010, config)
        assert list(ds.citation_events.rows()) == kept
        assert list(ds.publication_counts.rows()) == kept_counts
        assert (summary.events_dropped_excluded_clusters, summary.events_dropped_unknown_cited,
                summary.counts_dropped) == (excluded, len(unknown),
                                            len(count_rows) - len(kept_counts))
        assert record_violations(ds) == []

        strict = IngestConfig(min_cluster_size=min_cluster_size, unknown_cited_policy="error")
        if unknown:
            pid, _, _, cited, _, _ = unknown[0]
            with pytest.raises(ValidationError) as err:
                assemble(self.JOURNALS, self.CLUSTERS, counts, events, 2010, strict)
            assert str(err.value) == (f"assembled dataset fails validation: "
                                      f"[event.unknown_cited_journal] {pid}: "
                                      f"cited journal '{cited}' not in dataset")
        else:
            assert assemble(self.JOURNALS, self.CLUSTERS, counts, events, 2010, strict)[0] == ds

    @pytest.mark.parametrize("seed", range(40))
    def test_validate_reports_as_the_rows_do(self, seed):
        rng = np.random.default_rng(seed)
        event_rows, count_rows = self.any_rows(rng)
        # every other row dropped from columns whose vocabulary keeps their ids
        keep = rng.random(len(event_rows)) < 0.5
        events = recoded(Events.from_rows(event_rows), rng)[keep]
        counts = recoded(PublicationCounts.from_rows(count_rows), rng)
        ds = Dataset(tuple(self.JOURNALS), tuple(self.CLUSTERS), counts, events, 2010)
        kept_rows = [row for row, k in zip(event_rows, keep) if k]
        assert list(events.rows()) == kept_rows
        assert record_violations(ds) == record_violations_by_rows(
            {j.journal_id for j in self.JOURNALS}, count_rows, kept_rows)

    def test_tampered_bundle(self, tmp_path):
        ds = TestRoundTrip().small_synth()
        bundle(ds, tmp_path)
        journal = ds.journals[0].journal_id
        with (tmp_path / "citations.tsv").open("a", encoding="utf-8") as fh:
            fh.write(f"Pz1\t{journal}\t2010\tNOPE\t2009\t3\n"   # unknown cited journal
                     f"Pz2\t{journal}\t2009\t{journal}\t2010\t1\n"  # cites the future
                     f"Pz3\tx\t2010\t{journal}\t2009\t1\n"       # two references of one
                     f"Pz3\tx\t2010\t{journal}\t2008\t1\n")
        events = parse_citations(tmp_path / "citations.tsv")
        counts = parse_publications(tmp_path / "publications.tsv")
        tampered = Dataset(ds.journals, ds.clusters, counts, events, ds.census_year)
        expected = record_violations_by_rows(set(ds.partition), counts.rows(), events.rows())
        assert [rule for rule, _, _ in expected] == [
            "event.causality", "event.unknown_cited_journal", "event.excess_references"]
        assert record_violations(tampered) == expected
        # the unknown journal is an error of the census, raised before validate's rules
        with pytest.raises(ValidationError, match=r"^bundle .* fails validation: "
                                                  r"\[event\.unknown_cited_journal\] Pz1: "):
            load_counts(tmp_path)
