"""Arbitrary rows fed to the file readers: each either parses or raises a
CiteFairError (which the CLI reports with exit 2), never anything else."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from citefair.errors import CiteFairError
from citefair.indicators import read_table
from citefair.ingest import (
    CITATION_COLUMNS,
    JOURNAL_COLUMNS,
    PUBLICATION_COLUMNS,
    parse_citations,
    parse_journals,
    parse_publications,
)

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
    assert all(p.year in int64 and p.citable_items in int64 for p in counts)


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
