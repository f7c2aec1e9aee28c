"""ScrubJayDataset: access, selection, validation."""

import pytest

from repro.core.dataset import ScrubJayDataset
from repro.core.semantics import Schema, domain, value
from repro.errors import SemanticError

SCHEMA = Schema({
    "node": domain("compute nodes", "identifier"),
    "temp": value("temperature", "degrees Celsius"),
})

ROWS = [
    {"node": 1, "temp": 20.0},
    {"node": 2, "temp": 25.0},
    {"node": 3},  # sparse: temp missing
]


@pytest.fixture()
def ds(ctx):
    return ScrubJayDataset.from_rows(ctx, ROWS, SCHEMA, "t")


def test_collect_take_count(ds):
    assert ds.collect() == ROWS
    assert ds.take(2) == ROWS[:2]
    assert ds.count() == 3


def test_take_nonpositive_returns_no_rows(ds):
    # regression: RDD.take appended before checking the count, so
    # take(0) answered with one row
    assert ds.take(0) == []
    assert ds.take(-1) == []


def test_column_skips_sparse_rows(ds):
    assert ds.column("temp") == [20.0, 25.0]
    assert ds.column("node") == [1, 2, 3]


def test_column_unknown_field(ds):
    with pytest.raises(SemanticError):
        ds.column("humidity")


def test_select_projects_rows_and_schema(ds):
    sel = ds.select("node")
    assert sel.schema.fields() == ["node"]
    assert sel.collect() == [{"node": 1}, {"node": 2}, {"node": 3}]
    # original untouched
    assert ds.schema.fields() == ["node", "temp"]


def test_select_unknown_field(ds):
    with pytest.raises(SemanticError):
        ds.select("nope")


def test_where_filters(ds):
    hot = ds.where(lambda r: r.get("temp", 0) > 21)
    assert hot.collect() == [{"node": 2, "temp": 25.0}]
    assert hot.schema == ds.schema


def test_validate_against_dictionary(ds, dictionary):
    assert ds.validate(dictionary) is ds


def test_validate_rejects_bad_schema(ctx, dictionary):
    bad = ScrubJayDataset.from_rows(
        ctx, [], Schema({"x": domain("no such dim", "identifier")}), "bad"
    )
    with pytest.raises(SemanticError):
        bad.validate(dictionary)


def test_provenance_tracks_operations(ds):
    sel = ds.select("node")
    assert sel.provenance["op"] == "select"
    assert sel.provenance["input"]["op"] == "source"


def test_persist_chains(ds):
    assert ds.persist() is ds
