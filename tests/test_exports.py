"""Every exported name resolves, and the deleted mapping forms of the
tables and statistics, the batched validator and the whole-file ingest
stay deleted."""

import importlib
import pkgutil

import pytest

import citefair
from citefair.indicators import IndicatorTable
from citefair.model import Events, PublicationCounts

MODULES = sorted(f"citefair.{m.name}" for m in pkgutil.iter_modules(citefair.__path__))

# Dict-shaped forms of the columnar kernels, removed in favour of the
# kernels themselves: ranking, top_rows, decile_rhos, cluster_sort with
# ecdf_steps, ks_matrix, and fairness_test of a table; and the batched
# validator, whose rules the one-pass ingest checks only where they can
# still break; and the whole-file ingest, whose reference form the tests
# keep (tests/reference_ingest.py), since the one-pass stream is the only
# reader of citations.tsv.
REMOVED = {
    "citefair.indicators": ("rank_table",),
    "citefair.ingest": ("parse_citations", "assemble", "save_bundle", "load_bundle",
                        "_require_valid"),
    "citefair.model": ("Validator",),
    "citefair.stats": ("Values", "_columns", "top_fraction", "decile_correlations",
                       "ecdf_by_group", "ks_two_sample"),
}


def package_imports():
    """(module, name) of every name that citefair exports from its modules."""
    return [(f"citefair.{module}", name) for name, module in citefair._EXPORTS.items()]


def test_every_module_is_listed():
    assert "citefair.stats" in MODULES and "citefair.indicators" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    loaded = importlib.import_module(module)
    exported = getattr(loaded, "__all__", ())  # errors has no __all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(loaded, name)] == []


def test_package_imports_resolve():
    imports = package_imports()
    assert len(imports) > 40
    for module, name in imports:
        assert getattr(citefair, name) is getattr(importlib.import_module(module), name), name


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    names, loaded = REMOVED[module], importlib.import_module(module)
    assert [n for n in names if hasattr(loaded, n) or n in loaded.__all__] == []
    assert [n for n in names if hasattr(citefair, n)] == []
    assert [n for _, n in package_imports() if n in names] == []


def test_tables_have_no_mapping_form():
    assert not hasattr(IndicatorTable, "values")
    assert not hasattr(IndicatorTable, "from_values")


def test_records_have_no_concat():
    assert not hasattr(Events, "concat") and not hasattr(PublicationCounts, "concat")
