"""Vectorized kernels vs their row-path counterparts, edge cases
included: every mask is asserted against the row-level truth it
mirrors, on the same inputs."""

import math

import pytest

from repro.columnar import ColumnBatch, kernels
from repro.sources.predicate import ColumnPredicate
from repro.units.temporal import Timestamp

NAN = float("nan")

ROWS = [
    {"node": 1, "app": "AMG", "v": 1.0},
    {"node": 2, "app": "LULESH", "v": NAN},
    {"node": 1, "v": 3.0},
    {"app": "AMG", "v": -2.0},
    {"node": 3, "app": "HACC"},
]


def _mask_from_rows(rows, fn):
    return [1 if fn(r) else 0 for r in rows]


@pytest.mark.parametrize("column,value", [
    ("node", 1),
    ("node", 99),
    ("app", "AMG"),
    ("app", None),
    ("ghost", None),
    ("ghost", 5),
])
def test_eq_predicate_mask_matches_rows(column, value):
    batch = ColumnBatch.from_rows(ROWS)
    predicate = ColumnPredicate.equals(column, value)
    expected = _mask_from_rows(ROWS, predicate.matches)
    assert kernels.predicate_mask(batch, predicate) == expected


@pytest.mark.parametrize("column,low,high", [
    ("v", 0.0, None),
    ("v", None, 2.0),
    ("v", -10.0, 10.0),
    ("v", 100.0, None),   # NaN still passes
    ("node", 2, None),
    ("app", "B", None),   # string range on a dict column
    ("ghost", 0.0, None),
])
def test_range_predicate_mask_matches_rows(column, low, high):
    batch = ColumnBatch.from_rows(ROWS)
    predicate = ColumnPredicate.range(column, low, high)
    expected = _mask_from_rows(ROWS, predicate.matches)
    assert kernels.predicate_mask(batch, predicate) == expected


def test_conjunction_mask():
    batch = ColumnBatch.from_rows(ROWS)
    predicate = ColumnPredicate.equals("node", 1).also(
        ColumnPredicate.range("v", 0.0, None)
    )
    expected = _mask_from_rows(ROWS, predicate.matches)
    assert kernels.predicate_mask(batch, predicate) == expected
    assert [
        repr(r) for r in kernels.apply_predicate(batch, predicate).to_rows()
    ] == [repr(r) for r in ROWS if predicate.matches(r)]


def test_filter_equals_mask_matches_row_semantics():
    batch = ColumnBatch.from_rows(ROWS)
    for field, value in [("node", 1), ("app", "AMG"), ("ghost", None),
                         ("ghost", 1), ("v", 3.0)]:
        expected = _mask_from_rows(
            ROWS, lambda r: r.get(field) == value
        )
        assert kernels.filter_equals_mask(batch, field, value) == expected


def test_filter_range_mask_matches_keep_semantics():
    rows = [
        {"t": Timestamp(10.0)},
        {"t": Timestamp(20.0)},
        {"x": 1},
        {"t": Timestamp(30.0)},
    ]
    batch = ColumnBatch.from_rows(rows)

    def keep(row, low, high):
        if "t" not in row:
            return False
        epoch = getattr(row["t"], "epoch", row["t"])
        if low is not None and epoch < low:
            return False
        if high is not None and epoch >= high:
            return False
        return True

    for low, high in [(10.0, 30.0), (None, 20.0), (15.0, None)]:
        expected = _mask_from_rows(rows, lambda r: keep(r, low, high))
        assert kernels.filter_range_mask(batch, "t", low, high) == expected

    # missing column fails everything, NaN passes both bounds
    assert kernels.filter_range_mask(batch, "ghost", 0.0, 1.0) == [0] * 4
    nan_batch = ColumnBatch.from_rows([{"v": NAN}, {"v": 1.0}])
    assert kernels.filter_range_mask(nan_batch, "v", 100.0, None) == [1, 0]


def test_select_fields_drops_empty_rows():
    batch = ColumnBatch.from_rows([{"a": 1.0, "b": 2.0}, {"b": 3.0}])
    out = kernels.select_fields(batch, ["a"])
    assert out.to_rows() == [{"a": 1.0}]


def test_rename_field_merges_existing_target():
    batch = ColumnBatch.from_rows([
        {"a": 1.0, "z": 9.0},
        {"z": 8.0},
        {"a": 3.0},
    ])
    out = kernels.rename_field(batch, "a", "z")
    # row semantics: rows holding "a" overwrite z; others keep theirs
    assert out.to_rows() == [{"z": 1.0}, {"z": 8.0}, {"z": 3.0}]


def test_hash_join_matches_nested_loop():
    left_rows = [{"n": i % 3, "v": float(i)} for i in range(9)]
    right_rows = [{"n": n, "rack": f"r{n}"} for n in range(2)]
    left = ColumnBatch.from_rows(left_rows)
    build = ColumnBatch.from_rows(right_rows)
    index = kernels.build_hash_index(build, ["n"])
    joined = kernels.hash_join_probe(
        left, ["n"], build, index, {"rack": "rack"}
    )
    expected = [
        {**l, "rack": r["rack"]}
        for l in left_rows
        for r in right_rows
        if l["n"] == r["n"]
    ]
    assert sorted(joined.to_rows(), key=repr) == sorted(
        expected, key=repr
    )


def test_hash_join_probe_no_match_returns_none():
    left = ColumnBatch.from_rows([{"n": 7}])
    build = ColumnBatch.from_rows([{"n": 1, "rack": "r"}])
    index = kernels.build_hash_index(build, ["n"])
    assert kernels.hash_join_probe(
        left, ["n"], build, index, {"rack": "rack"}
    ) is None


def test_group_aggregate_partial_matches_row_filter():
    rows = [
        {"g": "a", "v": 1.0},
        {"g": "a", "v": 2.0},
        {"g": "b", "v": 5.0},
        {"g": "b"},           # missing value: skipped
        {"v": 9.0},           # missing group: skipped
        {"g": "a", "v": None},  # None value: skipped
        {"g": None, "v": 4.0},  # None group: skipped
    ]
    batch = ColumnBatch.from_rows(rows)
    acc = kernels.group_aggregate_partial(
        [batch], ["g"], "v", 0.0, lambda a, x: a + x
    )
    assert acc == {("a",): 3.0, ("b",): 5.0}
    # stray row dicts aggregate identically
    acc2 = kernels.group_aggregate_partial(
        rows, ["g"], "v", 0.0, lambda a, x: a + x
    )
    assert acc2 == acc


def test_group_aggregate_partial_all_null_and_empty():
    empty = ColumnBatch.from_rows([])
    assert kernels.group_aggregate_partial(
        [empty], ["g"], "v", 0.0, lambda a, x: a + x
    ) == {}
    nullish = ColumnBatch.from_rows([{"g": "a"}, {"x": 1}])
    assert kernels.group_aggregate_partial(
        [nullish], ["g"], "v", 0.0, lambda a, x: a + x
    ) == {}
