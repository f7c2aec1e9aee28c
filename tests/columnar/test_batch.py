"""ColumnBatch representation: encoding, round trips, surgery ops."""

import math
import pickle

from repro.columnar import ColumnBatch, count_rows


def test_row_round_trip_sparse():
    rows = [
        {"a": 1.0, "b": "x"},
        {"a": 2.0},
        {"b": "y", "c": 7},
        {},
    ]
    batch = ColumnBatch.from_rows(rows)
    assert batch.num_rows == 4
    assert batch.to_rows() == rows


def test_kind_selection():
    batch = ColumnBatch.from_rows([
        {"f": 1.5, "q": 3, "s": "node-1", "o": [1, 2], "b": True,
         "m": 1},
        {"f": 2.5, "q": 4, "s": "node-2", "o": [3], "b": False,
         "m": 2.0},
    ])
    assert batch.cols["f"].kind == "f"
    assert batch.cols["q"].kind == "q"
    assert batch.cols["s"].kind == "dict"
    assert batch.cols["o"].kind == "obj"
    # bools and mixed int/float columns must not be coerced
    assert batch.cols["b"].kind == "obj"
    assert batch.cols["m"].kind == "obj"
    assert batch.to_rows()[0]["b"] is True
    assert batch.to_rows()[1]["m"] == 2.0


def test_huge_ints_fall_back_to_obj():
    big = 2 ** 70
    batch = ColumnBatch.from_rows([{"x": big}, {"x": 1}])
    assert batch.cols["x"].kind == "obj"
    assert batch.to_rows()[0]["x"] == big


def test_dictionary_encoding_dedupes():
    rows = [{"app": "AMG" if i % 2 else "LULESH"} for i in range(100)]
    batch = ColumnBatch.from_rows(rows)
    col = batch.cols["app"]
    assert col.kind == "dict"
    assert sorted(col.dictionary) == ["AMG", "LULESH"]
    assert batch.to_rows() == rows


def test_none_values_are_nulls():
    batch = ColumnBatch.from_rows([{"a": None, "b": 1.0}, {"a": 2.0}])
    assert batch.to_rows() == [{"b": 1.0}, {"a": 2.0}]
    assert batch.column_values("a") == [None, 2.0]
    assert batch.column_values("missing") == [None, None]


def test_nan_is_a_value_not_a_null():
    batch = ColumnBatch.from_rows([{"v": float("nan")}])
    out = batch.to_rows()
    assert "v" in out[0] and math.isnan(out[0]["v"])


def test_take_filter_project_rename():
    rows = [{"a": float(i), "s": f"s{i % 2}"} for i in range(6)]
    batch = ColumnBatch.from_rows(rows)
    assert batch.take([5, 0]).to_rows() == [rows[5], rows[0]]
    assert batch.filter([1, 0, 1, 0, 1, 0]).to_rows() == rows[::2]
    assert batch.project(["a"]).columns() == ["a"]
    assert batch.project(["a", "ghost"]).columns() == ["a"]
    renamed = batch.rename("a", "z")
    assert renamed.columns() == ["z", "s"]
    assert renamed.to_rows()[0] == {"z": 0.0, "s": "s0"}


def test_concat_pads_sparse_columns():
    left = ColumnBatch.from_rows([{"a": 1.0}])
    right = ColumnBatch.from_rows([{"b": "x"}])
    merged = ColumnBatch.concat([left, right])
    assert merged.num_rows == 2
    assert merged.to_rows() == [{"a": 1.0}, {"b": "x"}]


def test_concat_edges():
    one = ColumnBatch.from_rows([{"a": 1.0}])
    assert ColumnBatch.concat([one]) is one
    empty = ColumnBatch.concat([])
    assert empty.num_rows == 0 and empty.to_rows() == []


def test_drop_all_null_rows():
    batch = ColumnBatch.from_rows([{"a": 1.0}, {"b": 2.0}])
    kept = batch.project(["a"]).drop_all_null_rows()
    assert kept.to_rows() == [{"a": 1.0}]


def test_key_tuples():
    rows = [{"n": 1, "r": "a"}, {"n": 2}, {"r": "b"}]
    batch = ColumnBatch.from_rows(rows)
    assert batch.key_tuples(["n", "r"]) == [
        (1, "a"), (2, None), (None, "b")
    ]
    assert batch.key_tuples([]) == [(), (), ()]


def test_count_rows_mixed_elements():
    batch = ColumnBatch.from_rows([{"a": 1.0}, {"a": 2.0}])
    assert count_rows([batch, batch]) == 4
    assert count_rows([{"a": 1.0}, {"a": 2.0}]) == 2
    assert count_rows([]) == 0


def test_batches_pickle_round_trip():
    rows = [{"a": float(i), "s": f"s{i}", "q": i} for i in range(5)]
    rows.append({"s": "only"})
    batch = ColumnBatch.from_rows(rows)
    clone = pickle.loads(pickle.dumps(batch))
    assert clone.to_rows() == rows
    assert clone.cols["s"].kind == "dict"


def test_approx_bytes_positive_and_monotonic():
    small = ColumnBatch.from_rows([{"a": 1.0}])
    big = ColumnBatch.from_rows([{"a": float(i)} for i in range(1000)])
    assert 0 < small.approx_bytes() < big.approx_bytes()


def test_take_keeps_typed_buffers_typed():
    # dictionary codes are an array like the numeric kinds; a gathered
    # column must still answer approx_bytes (the scan's free statistics
    # call it on every filtered batch)
    rows = [{"f": float(i), "q": i, "s": f"node-{i % 3}", "o": [i]}
            for i in range(9)]
    rows.append({"s": "node-0"})
    batch = ColumnBatch.from_rows(rows)
    taken = batch.take([0, 4, 9])
    assert taken.to_rows() == [rows[0], rows[4], rows[9]]
    for name, col in batch.cols.items():
        assert type(taken.cols[name].data) is type(col.data)
    assert taken.cols["s"].data.typecode == batch.cols["s"].data.typecode
    assert 0 < taken.approx_bytes() < batch.approx_bytes()
