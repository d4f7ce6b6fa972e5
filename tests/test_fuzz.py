"""Arbitrary rows fed to the file readers: each either parses or raises a
CiteFairError (which the CLI reports with exit 2), never anything else; the
bulk split of plain chunks reads every file as csv.reader does; and mutated
table files given to the commands that read them, bundles with one field
edited after ingest given to indicators, bundles with one field of
journals.tsv or one value of dataset.json edited given to every command
that reads a bundle, arbitrary values of the commands' numeric options,
and profile files with any value in any field given to synth, exit 0 or
2, never 1.  Every journal id the journals reader accepts reads back from
a table written with it."""

import csv
import hashlib
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import citefair.ingest
from citefair.cli import main
from citefair.errors import CiteFairError
from citefair.indicators import read_table, write_table
from citefair.ingest import (CITATION_COLUMNS, JOURNAL_COLUMNS, PUBLICATION_COLUMNS,
                             parse_journals, parse_publications)
from citefair.synth import generate

from conftest import small_profile, table_of
from reference_ingest import bundle, parse_citations

# Text fields may hold tabs, quotes, newlines and NULs; integer-like fields
# reach the numeric checks, up to and past the 64-bit range.
FIELDS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["", "0", "1", "-1", "2009", "2010", "NA", "nan", "inf", "1e999",
                     '"', 'a"b', "\r", "\x00", "x" * 140_000]),
)
ROWS = st.lists(st.lists(FIELDS, max_size=8), max_size=6)
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def header_rows(columns):
    """The file's real header, a shuffled one, or arbitrary fields."""
    return st.one_of(st.just(list(columns)), st.permutations(list(columns)),
                     st.lists(FIELDS, max_size=8))


def write_rows(path, rows):
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")


def counts_fit_in_64_bits(counts):
    int64 = range(-2 ** 63, 2 ** 63)
    assert all(year in int64 and items in int64 for _, year, items in counts.rows())


# A parse that succeeds is checked by ``check``: the publication integers must
# fit the int64 columns indicators build from them (event columns are int64).
@pytest.mark.parametrize("reader, columns, check", [
    (parse_journals, JOURNAL_COLUMNS, None),
    (parse_publications, PUBLICATION_COLUMNS, counts_fit_in_64_bits),
    (parse_citations, CITATION_COLUMNS, None),
], ids=["journals", "publications", "citations"])
@SETTINGS
@given(data=st.data())
def test_parsers_raise_only_citefair_errors(tmp_path, reader, columns, check, data):
    path = tmp_path / "input.tsv"
    write_rows(path, [data.draw(header_rows(columns))] + data.draw(ROWS))
    try:
        parsed = reader(path)
    except CiteFairError:
        return
    if check:
        check(parsed)


@SETTINGS
@given(ids=st.lists(st.one_of(FIELDS, st.text('j2\t\r\n" #', min_size=1, max_size=4)),
                    min_size=1, max_size=6))
def test_accepted_journal_ids_round_trip_through_a_table(tmp_path, ids):
    path = tmp_path / "journals.tsv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter="\t").writerows(
            [JOURNAL_COLUMNS, *((jid, "T", "g", "G") for jid in ids)])
    try:
        journals, _ = parse_journals(path)
    except CiteFairError:
        return
    accepted = [journal.journal_id for journal in journals]
    write_table(table_of(dict.fromkeys(accepted, 1.0)), tmp_path / "t.tsv")
    assert sorted(read_table(tmp_path / "t.tsv").journal_ids) == sorted(accepted)


# Rows that mostly pass the checks, so that differential runs also compare
# parsed results: a few ids, years and n_refs values, zero included.
IDS = st.sampled_from(["p1", "p2", "j1", "j2", ""])
NUMBERS = st.sampled_from(["0", "1", "2", "2009", "2010", "+3", "-1", "2_010"])
LIKELY = {
    "journals": st.tuples(IDS, FIELDS, st.sampled_from(["g1", "g2"]), st.sampled_from(["G", "H"])),
    "publications": st.tuples(IDS, NUMBERS, NUMBERS),
    "citations": st.tuples(IDS, IDS, NUMBERS, IDS, NUMBERS, NUMBERS),
}
READERS = {"journals": (parse_journals, JOURNAL_COLUMNS),
           "publications": (parse_publications, PUBLICATION_COLUMNS),
           "citations": (parse_citations, CITATION_COLUMNS)}


@st.composite
def file_texts(draw, kind):
    """A file of header and rows, with blank lines, LF or CRLF line ends,
    ragged rows and oversized fields, and with or without a final newline."""
    columns, likely = READERS[kind][1], LIKELY[kind].map(list)
    rows = [draw(header_rows(columns))] + draw(st.lists(st.one_of(
        likely, likely.map(lambda row: row[:-1]), likely.map(lambda row: row + ["x"]),
        st.lists(FIELDS, max_size=8), st.just([])), max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]),
                         min_size=len(rows), max_size=len(rows)))
    text = "".join("\t".join(row) + end for row, end in zip(rows, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def outcome(reader, path):
    """What ``reader`` makes of ``path``: its result and warnings, or its
    error's type, path, line and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = reader(path)
        except CiteFairError as exc:
            return type(exc), getattr(exc, "path", None), getattr(exc, "line", None), str(exc)
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize("kind", sorted(READERS))
@SETTINGS
@given(data=st.data())
def test_bulk_split_reads_like_csv_reader(tmp_path, monkeypatch, kind, data):
    reader = READERS[kind][0]
    path = tmp_path / "input.tsv"
    path.write_bytes(data.draw(file_texts(kind)).encode("utf-8"))
    with monkeypatch.context() as patch:
        patch.setattr(citefair.ingest, "_CHUNK_CHARS", data.draw(st.sampled_from([1, 7, 64, 1 << 18])))
        bulk = outcome(reader, path)
    with monkeypatch.context() as patch:
        patch.setattr(citefair.ingest, "_split_plain", lambda *_: None)
        assert bulk == outcome(reader, path)


PROVENANCE = {"indicator_id": "T", "kind": "impact_factor", "window": "2",
              "counting": "integer", "normalization": "raw", "census_year": "2010"}


@SETTINGS
@given(meta=st.fixed_dictionaries({key: st.one_of(st.just(value), FIELDS)
                                   for key, value in PROVENANCE.items()}),
       dropped=st.sets(st.sampled_from(sorted(PROVENANCE)), max_size=2),
       columns=st.one_of(st.just(["journal_id", "value"]), st.lists(FIELDS, max_size=3)),
       rows=ROWS)
def test_read_table_raises_only_citefair_errors(tmp_path, meta, dropped, columns, rows):
    header = " ".join(f"{key}={value}" for key, value in meta.items() if key not in dropped)
    path = tmp_path / "table.tsv"
    write_rows(path, [["# " + header], columns] + rows)
    try:
        read_table(path)
    except CiteFairError:
        pass


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A bundle and its indicator tables."""
    directory = tmp_path_factory.mktemp("pipeline")
    bundle(generate(small_profile(5)), directory / "bundle")
    assert main(["indicators", "--dataset", str(directory / "bundle"),
                 "--out-dir", str(directory / "tables")]) == 0
    return directory / "bundle", directory / "tables"


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` truncated, with bytes flipped, a column dropped, the two
    columns swapped, or rows repeated."""
    lines = data.split(b"\n")
    how = draw(st.sampled_from(["truncate", "flip", "drop", "swap", "repeat"]))
    if how == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    if how == "flip":
        out = bytearray(data)
        for at in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=4)):
            out[at] ^= draw(st.integers(1, 255))
        return bytes(out)
    if how in ("drop", "swap"):
        start = draw(st.integers(0, 2))
        edit = (lambda f: f[1:] if how == "drop" else f[1::-1] + f[2:])
        return b"\n".join(lines[:start] + [b"\t".join(edit(line.split(b"\t")))
                                            for line in lines[start:]])
    rows = draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=5))
    return b"\n".join(lines + [lines[i] for i in rows])


@pytest.mark.parametrize("command", ["fairness", "correlate"])
@SETTINGS
@given(data=st.data())
def test_commands_exit_zero_or_two_on_mutated_tables(pipeline, tmp_path_factory, command, data):
    bundle, tables = pipeline
    name = data.draw(st.sampled_from(["IF2-IC", "IF2-FC-RS", "CP-FC"]))
    directory = tmp_path_factory.mktemp("mutated")
    table = directory / f"{name}.tsv"
    table.write_bytes(data.draw(mutated((tables / f"{name}.tsv").read_bytes())))
    options = ["--z", "25"] if command == "fairness" else ["--deciles", "4"]
    assert main([command, "--dataset", str(bundle), "--table", str(table),
                 "--table", str(tables / "IF5-IC.tsv"), *options,
                 "--out-dir", str(directory / "out")]) in (0, 2)


# The command each fuzzed option is given to, as --option=value so that a
# value starting with '-' stays a value.
OPTIONS = {"--min-cluster-size": "ingest", "--census-year": "ingest", "--window": "indicators",
           "--z": "fairness", "--ci-level": "fairness", "--deciles": "correlate"}
NUMERIC = st.sampled_from(["0", "1", "2", "5", "-1", "2009", "2010", "2011", "all", "2.5", "0.5",
                           "100", "1e308", "1e-320", "nan", "inf", "-inf", " 2", "+5", "2_0",
                           "9" * 20, "-" + "9" * 20])


@pytest.mark.parametrize("option", sorted(OPTIONS))
@SETTINGS
@given(value=st.one_of(FIELDS, NUMERIC))
def test_options_exit_zero_or_two(pipeline, tmp_path_factory, option, value):
    bundle, tables = pipeline
    command = OPTIONS[option]
    inputs = {
        "ingest": [f"--{name}={bundle / name}.tsv" for name in
                   ("journals", "publications", "citations")],
        "indicators": ["--dataset", str(bundle), "--kind", "impact_factor"],
        "fairness": ["--dataset", str(bundle), "--table", str(tables / "IF2-IC.tsv")],
        "correlate": ["--dataset", str(bundle), "--table", str(tables / "IF2-IC.tsv"),
                      "--table", str(tables / "IF5-IC.tsv")],
    }[command]
    out = tmp_path_factory.mktemp("options")
    assert main([command, *inputs, f"{option}={value}", "--out-dir", str(out)]) in (0, 2)


# Values that may replace a bundle field: any field, numbers, and ids the
# bundle does or does not hold.
BUNDLE_VALUES = st.one_of(FIELDS, NUMERIC, st.sampled_from(["J0001", "J0075", "NOPE", "P000001"]))


@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_indicators_exits_zero_or_two_on_an_edited_bundle(pipeline, tmp_path_factory, data):
    """One field of citations.tsv, publications.tsv or counts.tsv replaced
    after ingest: indicators reads the edited bundle again and names the
    rule or the file."""
    source, _ = pipeline
    edited = tmp_path_factory.mktemp("edited")
    for path in source.iterdir():
        (edited / path.name).write_bytes(path.read_bytes())
    name = data.draw(st.sampled_from(["citations.tsv", "publications.tsv", "counts.tsv"]))
    lines = (source / name).read_text(encoding="utf-8").split("\n")
    row = data.draw(st.integers(0, len(lines) - 2))
    fields = lines[row].split("\t")
    fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(BUNDLE_VALUES)
    lines[row] = "\t".join(fields)
    (edited / name).write_text("\n".join(lines), encoding="utf-8")
    assert main(["indicators", "--dataset", str(edited),
                 "--out-dir", str(edited / "out")]) in (0, 2)


# The tables each --dataset command reads, and values that may replace one
# value of dataset.json: bundle values and JSON values of every type.
DATASET_COMMANDS = {
    "indicators": ((), []),
    "fairness": (("IF2-IC", "IF5-FC"), ["--z", "25"]),
    "correlate": (("IF2-IC", "IF2-FC"), ["--deciles", "4"]),
}
JSON_VALUES = st.one_of(
    BUNDLE_VALUES, st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([2009, 2010, 2011, 2 ** 63, None, True, False, 2010.0, math.nan, math.inf]),
    st.lists(FIELDS, max_size=2), st.dictionaries(FIELDS, FIELDS, max_size=2))


@pytest.mark.parametrize("command", sorted(DATASET_COMMANDS))
@SETTINGS
@given(data=st.data())
def test_dataset_commands_exit_zero_or_two_on_edited_journals_or_metadata(
        pipeline, tmp_path_factory, command, data):
    """One field of journals.tsv, or one value of dataset.json (at the top
    level, in a files entry or in a clusters entry), replaced after ingest.
    For about half the examples the manifest and the metadata's own sha256
    are brought up to date, so that the edit reaches the readers."""
    source, tables = pipeline
    edited = tmp_path_factory.mktemp("edited")
    for path in source.iterdir():
        (edited / path.name).write_bytes(path.read_bytes())
    meta = json.loads((source / "dataset.json").read_text(encoding="utf-8"))
    rehash = data.draw(st.booleans())
    if data.draw(st.booleans()):
        lines = (source / "journals.tsv").read_text(encoding="utf-8").split("\n")
        row = data.draw(st.integers(0, len(lines) - 2))
        fields = lines[row].split("\t")
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(BUNDLE_VALUES)
        lines[row] = "\t".join(fields)
        text = "\n".join(lines).encode("utf-8")
        (edited / "journals.tsv").write_bytes(text)
        if rehash:
            meta["files"]["journals.tsv"]["sha256"] = hashlib.sha256(text).hexdigest()
    else:
        where = data.draw(st.sampled_from([meta, *meta["files"].values(), *meta["clusters"]]))
        where[data.draw(st.sampled_from(sorted(where)))] = data.draw(JSON_VALUES)
    if rehash:
        meta["sha256"] = citefair.ingest._meta_sha256(meta)
    (edited / "dataset.json").write_text(json.dumps(meta), encoding="utf-8")
    names, options = DATASET_COMMANDS[command]
    args = [arg for name in names for arg in ("--table", str(tables / f"{name}.tsv"))]
    assert main([command, "--dataset", str(edited), *args, *options,
                 "--out-dir", str(edited / "out")]) in (0, 2)


# A two-cluster profile as synth reads it, and per field the integers that
# may replace a value: ranges small enough that no example asks for a large
# census.
FUZZ_PROFILE = {
    "clusters": [{"cluster_id": "1", "name": "A", "size": 6, "mean_cites_per_item": 1.0,
                  "mean_refs": 4.0, "ref_dispersion": 0.4},
                 {"cluster_id": "2", "name": "B", "size": 6, "mean_cites_per_item": 2.0,
                  "mean_refs": 8.0, "ref_dispersion": 0.5}],
    "items_per_journal": [1, 3], "years": [2008, 2010], "seed": 3, "journal_spread": 1.0,
    "recency_weights": [0.4, 1.0, 1.0, 0.8, 0.6, 0.4],
}
SMALL_INTEGERS = {"size": st.integers(-1, 40), "items_per_journal": st.integers(-1, 3),
                  "years": st.integers(2000, 2012), "seed": st.integers(-2, 5)}
NOT_UTF8 = "<not UTF-8>"  # written as a string holding the byte 0xe9
OTHER_VALUES = st.sampled_from([2005.7, 1e300, math.inf, -math.inf, math.nan, True, False,
                                "nan", "inf", "a", None, NOT_UTF8])


def field_values(field):
    """Values for ``field``: small integers, floats, bools, strings, null or lists."""
    scalars = st.one_of(SMALL_INTEGERS.get(field, st.integers(-1, 40)), OTHER_VALUES)
    return st.one_of(scalars, st.lists(scalars, max_size=3))


@st.composite
def profile_files(draw) -> bytes:
    """The bytes of FUZZ_PROFILE with one to three fields replaced."""
    profile = json.loads(json.dumps(FUZZ_PROFILE))
    places = [profile, *profile["clusters"]]
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(places))
        field = draw(st.sampled_from(sorted(where)))
        where[field] = draw(field_values(field))
    return json.dumps(profile).encode("utf-8").replace(f'"{NOT_UTF8}"'.encode(), b'"\xe9"')


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a leaked numpy warning is a fault
@settings(SETTINGS, max_examples=100)
@given(data=profile_files())
def test_synth_profile_file_exits_zero_or_two(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("profile")
    (directory / "profile.json").write_bytes(data)
    assert main(["synth", "--profile-file", str(directory / "profile.json"),
                 "--out-dir", str(directory / "out")]) in (0, 2)
