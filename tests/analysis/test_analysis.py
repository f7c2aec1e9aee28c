"""Aggregation, correlation, and outlier helpers."""

import math

import pytest

from repro.analysis import (
    correlate,
    correlation_matrix,
    group_aggregate,
    rank_groups,
    time_series,
    zscore_outliers,
)
from repro.core.dataset import ScrubJayDataset
from repro.core.semantics import Schema, domain, value
from repro.errors import SemanticError
from repro.units.temporal import Timestamp

SCHEMA = Schema({
    "rack": domain("racks", "identifier"),
    "app": value("applications", "label"),
    "time": domain("time", "datetime"),
    "heat": value("heat", "delta degrees Celsius"),
    "power": value("power", "watts"),
})


def _rows():
    out = []
    for t in range(5):
        out.append({"rack": 1, "app": "AMG", "time": Timestamp(float(t)),
                    "heat": 10.0 + t, "power": 100.0 + 10 * t})
        out.append({"rack": 2, "app": "mg.C", "time": Timestamp(float(t)),
                    "heat": 3.0, "power": 50.0})
    return out


@pytest.fixture()
def ds(ctx):
    return ScrubJayDataset.from_rows(ctx, _rows(), SCHEMA, "t")


# ----------------------------------------------------------------------
# group_aggregate
# ----------------------------------------------------------------------

def test_group_mean(ds):
    agg = group_aggregate(ds, ["rack"], "heat", "mean")
    assert agg[(1,)] == pytest.approx(12.0)
    assert agg[(2,)] == pytest.approx(3.0)


@pytest.mark.parametrize("how,want", [
    ("sum", 60.0), ("min", 10.0), ("max", 14.0), ("count", 5),
])
def test_group_aggregators(ds, how, want):
    assert group_aggregate(ds, ["rack"], "heat", how)[(1,)] == want


def test_group_by_multiple_fields(ds):
    agg = group_aggregate(ds, ["app", "rack"], "heat", "max")
    assert agg[("AMG", 1)] == 14.0


def test_group_aggregate_skips_sparse(ctx):
    rows = [{"rack": 1, "heat": 1.0}, {"rack": 1}]
    ds = ScrubJayDataset.from_rows(ctx, rows, SCHEMA, "t")
    assert group_aggregate(ds, ["rack"], "heat", "count")[(1,)] == 1


def test_group_aggregate_unknown_field(ds):
    with pytest.raises(SemanticError):
        group_aggregate(ds, ["rack"], "missing")
    with pytest.raises(ValueError):
        group_aggregate(ds, ["rack"], "heat", "median")


# ----------------------------------------------------------------------
# time_series
# ----------------------------------------------------------------------

def test_time_series_sorted_per_group(ds):
    series = time_series(ds, ["rack"], "time", "heat")
    assert series[(1,)] == [(float(t), 10.0 + t) for t in range(5)]
    assert series[(2,)] == [(float(t), 3.0) for t in range(5)]


@pytest.mark.parametrize("field", ["time", "heat", "rack"])
def test_time_series_skips_none_cells(ctx, field):
    # None is absent, as for group_aggregate; the heat=None row ties
    # another row's time, so it would otherwise be compared with it
    rows = _rows()
    rows.append({"rack": 1, "app": "AMG", "time": Timestamp(2.0),
                 "heat": 99.0, "power": 1.0, field: None})
    ds = ScrubJayDataset.from_rows(ctx, rows, SCHEMA, "t")
    series = time_series(ds, ["rack"], "time", "heat")
    assert series == {
        (1,): [(float(t), 10.0 + t) for t in range(5)],
        (2,): [(float(t), 3.0) for t in range(5)],
    }


# ----------------------------------------------------------------------
# correlate
# ----------------------------------------------------------------------

def test_pearson_perfect_linear(ds):
    assert correlate(ds.where(lambda r: r["rack"] == 1),
                     "heat", "power") == pytest.approx(1.0)


def test_pearson_anticorrelated(ctx):
    rows = [{"rack": 1, "heat": float(i), "power": float(-i)}
            for i in range(10)]
    ds = ScrubJayDataset.from_rows(ctx, rows, SCHEMA, "t")
    assert correlate(ds, "heat", "power") == pytest.approx(-1.0)


def test_pearson_constant_field_rejected(ds):
    with pytest.raises(ValueError, match="constant"):
        correlate(ds.where(lambda r: r["rack"] == 2), "heat", "power")


def test_spearman_monotone_nonlinear(ctx):
    rows = [{"rack": 1, "heat": float(i), "power": float(i ** 3)}
            for i in range(10)]
    ds = ScrubJayDataset.from_rows(ctx, rows, SCHEMA, "t")
    assert correlate(ds, "heat", "power", "spearman") == pytest.approx(1.0)


def test_spearman_handles_ties(ctx):
    rows = [{"rack": 1, "heat": float(i // 2), "power": float(i)}
            for i in range(10)]
    ds = ScrubJayDataset.from_rows(ctx, rows, SCHEMA, "t")
    r = correlate(ds, "heat", "power", "spearman")
    assert 0.9 < r <= 1.0


def test_correlate_too_few_rows(ctx):
    ds = ScrubJayDataset.from_rows(
        ctx, [{"heat": 1.0, "power": 2.0}], SCHEMA, "t"
    )
    with pytest.raises(ValueError):
        correlate(ds, "heat", "power")


@pytest.mark.parametrize("method", ["pearson", "spearman"])
@pytest.mark.parametrize("field", ["heat", "power"])
def test_correlate_skips_none_cells(ctx, method, field):
    rows = [{"rack": 1, "heat": float(i), "power": float(2 * i)}
            for i in range(5)]
    rows.append({"rack": 1, "heat": 50.0, "power": -50.0, field: None})
    ds = ScrubJayDataset.from_rows(ctx, rows, SCHEMA, "t")
    assert correlate(ds, "heat", "power", method) == pytest.approx(1.0)


def test_correlate_unknown_method(ds):
    with pytest.raises(ValueError):
        correlate(ds, "heat", "power", "kendall")


def test_correlation_matrix(ds):
    m = correlation_matrix(ds.where(lambda r: r["rack"] == 1),
                           ["heat", "power"])
    assert set(m) == {("heat", "power")}
    assert m[("heat", "power")] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# outliers
# ----------------------------------------------------------------------

def test_rank_groups_descending(ds):
    ranked = rank_groups(ds, ["app", "rack"], "heat", "max")
    assert ranked[0][0] == ("AMG", 1)
    assert ranked[0][1] == 14.0


def test_zscore_outliers_flags_extreme(ctx):
    rows = []
    for rack in range(10):
        heat = 100.0 if rack == 7 else 5.0
        rows.append({"rack": rack, "heat": heat})
    ds = ScrubJayDataset.from_rows(ctx, rows, SCHEMA, "t")
    out = zscore_outliers(ds, ["rack"], "heat", "max", threshold=2.0)
    assert out
    assert out[0][0] == (7,)
    assert out[0][2] > 2.0


def test_zscore_outliers_none_when_uniform(ctx):
    rows = [{"rack": r, "heat": 5.0} for r in range(5)]
    ds = ScrubJayDataset.from_rows(ctx, rows, SCHEMA, "t")
    assert zscore_outliers(ds, ["rack"], "heat") == []
