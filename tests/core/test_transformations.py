"""Each built-in transformation: schema derivation, data semantics,
applicability, and failure modes."""

import pytest

from repro.core.dataset import ScrubJayDataset
from repro.core.semantics import Schema, domain, value
from repro.core.transformations import (
    ConvertUnits,
    DeriveRate,
    DeriveRatio,
    ExplodeContinuous,
    ExplodeDiscrete,
    RenameField,
)
from repro.errors import DerivationError
from repro.units.temporal import Timestamp, TimeSpan


# ----------------------------------------------------------------------
# explode_discrete
# ----------------------------------------------------------------------

def test_explode_discrete(ctx, dictionary):
    schema = Schema({
        "job": domain("jobs", "identifier"),
        "nodelist": domain("compute nodes", "list<identifier>"),
    })
    ds = ScrubJayDataset.from_rows(ctx, [
        {"job": 1, "nodelist": [10, 11]},
        {"job": 2, "nodelist": [12]},
        {"job": 3, "nodelist": []},
    ], schema, "jobs")
    out = ExplodeDiscrete("nodelist").apply(ds, dictionary)
    assert out.schema["nodelist_exploded"].units == "identifier"
    assert "nodelist" not in out.schema
    assert out.collect() == [
        {"job": 1, "nodelist_exploded": 10},
        {"job": 1, "nodelist_exploded": 11},
        {"job": 2, "nodelist_exploded": 12},
    ]


def test_explode_discrete_not_applicable_on_scalar(dictionary):
    schema = Schema({"node": domain("compute nodes", "identifier")})
    assert not ExplodeDiscrete("node").applies(schema, dictionary)
    assert not ExplodeDiscrete("missing").applies(schema, dictionary)


def test_explode_discrete_apply_rejects_invalid(ctx, dictionary):
    schema = Schema({"node": domain("compute nodes", "identifier")})
    ds = ScrubJayDataset.from_rows(ctx, [], schema, "x")
    with pytest.raises(DerivationError):
        ExplodeDiscrete("node").apply(ds, dictionary)


def test_explode_discrete_instantiations(dictionary):
    schema = Schema({
        "a": domain("compute nodes", "list<identifier>"),
        "b": domain("racks", "identifier"),
    })
    insts = ExplodeDiscrete.instantiations(schema, dictionary)
    assert [i.field for i in insts] == ["a"]


# ----------------------------------------------------------------------
# explode_continuous
# ----------------------------------------------------------------------

def test_explode_continuous(ctx, dictionary):
    schema = Schema({
        "job": domain("jobs", "identifier"),
        "span": domain("time", "timespan"),
    })
    ds = ScrubJayDataset.from_rows(ctx, [
        {"job": 1, "span": TimeSpan(0.0, 300.0)},
    ], schema, "jobs")
    out = ExplodeContinuous("span", period=100.0).apply(ds, dictionary)
    assert out.schema["span_exploded"].units == "datetime"
    assert [r["span_exploded"].epoch for r in out.collect()] == \
        [0.0, 100.0, 200.0]


def test_explode_continuous_rejects_bad_period():
    with pytest.raises(DerivationError):
        ExplodeContinuous("span", period=0.0)


def test_explode_continuous_skips_malformed_rows(ctx, dictionary):
    schema = Schema({"span": domain("time", "timespan")})
    ds = ScrubJayDataset.from_rows(
        ctx, [{"span": TimeSpan(0, 100)}, {}], schema, "x"
    )
    out = ExplodeContinuous("span", period=50.0).apply(ds, dictionary)
    assert out.count() == 2  # only the well-formed row explodes


# ----------------------------------------------------------------------
# convert_units
# ----------------------------------------------------------------------

def test_convert_units(ctx, dictionary):
    schema = Schema({"temp": value("temperature", "degrees Celsius")})
    ds = ScrubJayDataset.from_rows(ctx, [{"temp": 100.0}], schema, "t")
    out = ConvertUnits("temp", "degrees Fahrenheit").apply(ds, dictionary)
    assert out.schema["temp"].units == "degrees Fahrenheit"
    assert out.collect()[0]["temp"] == pytest.approx(212.0)


def test_convert_units_cross_dimension_not_applicable(dictionary):
    schema = Schema({"temp": value("temperature", "degrees Celsius")})
    assert not ConvertUnits("temp", "seconds").applies(schema, dictionary)


# ----------------------------------------------------------------------
# rename_field
# ----------------------------------------------------------------------

def test_rename_field(ctx, dictionary):
    schema = Schema({"n": domain("compute nodes", "identifier")})
    ds = ScrubJayDataset.from_rows(ctx, [{"n": 1}], schema, "x")
    out = RenameField("n", "node").apply(ds, dictionary)
    assert out.schema.fields() == ["node"]
    assert out.collect() == [{"node": 1}]


def test_rename_to_existing_not_applicable(dictionary):
    schema = Schema({
        "a": domain("racks", "identifier"),
        "b": domain("jobs", "identifier"),
    })
    assert not RenameField("a", "b").applies(schema, dictionary)


# ----------------------------------------------------------------------
# derive_rate
# ----------------------------------------------------------------------

RATE_SCHEMA = Schema({
    "cpu": domain("cpus", "identifier"),
    "time": domain("time", "datetime"),
    "events": value("event count", "count"),
})


def _samples(cpu, series):
    return [
        {"cpu": cpu, "time": Timestamp(float(t)), "events": c}
        for t, c in series
    ]


def test_derive_rate_basic(ctx, dictionary):
    ds = ScrubJayDataset.from_rows(
        ctx,
        _samples(0, [(0, 100), (10, 300), (20, 400)]),
        RATE_SCHEMA, "c",
    )
    out = DeriveRate().apply(ds, dictionary)
    assert "events" not in out.schema
    sem = out.schema["events_rate"]
    assert sem.units == "count per second"
    assert sem.dimension == "event count per time"
    rows = sorted(out.collect(), key=lambda r: r["time"])
    assert [r["events_rate"] for r in rows] == [20.0, 10.0]


def test_derive_rate_groups_by_entity(ctx, dictionary):
    rows = _samples(0, [(0, 0), (10, 100)]) + _samples(1, [(0, 0), (10, 500)])
    ds = ScrubJayDataset.from_rows(ctx, rows, RATE_SCHEMA, "c")
    out = {r["cpu"]: r["events_rate"]
           for r in DeriveRate().apply(ds, dictionary).collect()}
    assert out == {0: 10.0, 1: 50.0}


def test_derive_rate_reset_safe(ctx, dictionary):
    # counter resets between t=10 and t=20; that pair must be skipped
    ds = ScrubJayDataset.from_rows(
        ctx,
        _samples(0, [(0, 1000), (10, 2000), (20, 50), (30, 150)]),
        RATE_SCHEMA, "c",
    )
    rows = sorted(DeriveRate().apply(ds, dictionary).collect(),
                  key=lambda r: r["time"])
    assert [r["events_rate"] for r in rows] == [100.0, 10.0]


def test_derive_rate_unsorted_input(ctx, dictionary):
    ds = ScrubJayDataset.from_rows(
        ctx,
        _samples(0, [(20, 400), (0, 100), (10, 300)]),
        RATE_SCHEMA, "c",
    )
    rows = sorted(DeriveRate().apply(ds, dictionary).collect(),
                  key=lambda r: r["time"])
    assert [r["events_rate"] for r in rows] == [20.0, 10.0]


def test_derive_rate_none_count_skips_its_pairs(ctx, dictionary):
    schema = RATE_SCHEMA.with_field("other", value("event count", "count"))
    rows = [
        {"cpu": 0, "time": Timestamp(0.0), "events": 0, "other": 0},
        {"cpu": 0, "time": Timestamp(10.0), "events": None, "other": 50},
        {"cpu": 0, "time": Timestamp(20.0), "events": 300, "other": 100},
    ]
    ds = ScrubJayDataset.from_rows(ctx, rows, schema, "c")
    out = sorted(DeriveRate().apply(ds, dictionary).collect(),
                 key=lambda r: r["time"])
    # both pairs touching the None are skipped for `events` only, as
    # if the field were missing; `other` still has its two rates
    assert [r.get("events_rate") for r in out] == [None, None]
    assert [r["other_rate"] for r in out] == [5.0, 5.0]


def test_derive_rate_none_time_is_not_a_sample(ctx, dictionary):
    rows = _samples(0, [(0, 100), (10, 300)]) + [
        {"cpu": 0, "time": None, "events": 1000},
    ]
    ds = ScrubJayDataset.from_rows(ctx, rows, RATE_SCHEMA, "c")
    out = DeriveRate().apply(ds, dictionary).collect()
    assert [r["events_rate"] for r in out] == [20.0]


def test_derive_rate_requires_counts_and_time(dictionary):
    no_time = Schema({
        "cpu": domain("cpus", "identifier"),
        "events": value("event count", "count"),
    })
    assert not DeriveRate().applies(no_time, dictionary)
    no_counts = Schema({
        "cpu": domain("cpus", "identifier"),
        "time": domain("time", "datetime"),
        "temp": value("temperature", "degrees Celsius"),
    })
    assert not DeriveRate().applies(no_counts, dictionary)


def test_derive_rate_field_subset(ctx, dictionary):
    schema = RATE_SCHEMA.with_field("other", value("event count", "count"))
    rows = [
        {"cpu": 0, "time": Timestamp(0.0), "events": 0, "other": 0},
        {"cpu": 0, "time": Timestamp(10.0), "events": 100, "other": 50},
    ]
    ds = ScrubJayDataset.from_rows(ctx, rows, schema, "c")
    out = DeriveRate(fields=["events"]).apply(ds, dictionary)
    assert "events_rate" in out.schema
    assert "other" in out.schema  # untouched
    assert "other_rate" not in out.schema


def test_derive_rate_preserves_non_count_values(ctx, dictionary):
    schema = RATE_SCHEMA.with_field(
        "temp", value("temperature", "degrees Celsius")
    )
    rows = [
        {"cpu": 0, "time": Timestamp(0.0), "events": 0, "temp": 20.0},
        {"cpu": 0, "time": Timestamp(10.0), "events": 10, "temp": 21.0},
    ]
    ds = ScrubJayDataset.from_rows(ctx, rows, schema, "c")
    out_rows = DeriveRate().apply(ds, dictionary).collect()
    assert out_rows[0]["temp"] == 21.0  # later sample's domains+values


# ----------------------------------------------------------------------
# derive_ratio
# ----------------------------------------------------------------------

def test_derive_ratio(ctx, dictionary):
    schema = Schema({
        "job": domain("jobs", "identifier"),
        "instructions": value("event count", "count"),
        "elapsed": value("time", "seconds"),
    })
    ds = ScrubJayDataset.from_rows(ctx, [
        {"job": 1, "instructions": 1000, "elapsed": 10.0},
        {"job": 2, "instructions": 500, "elapsed": 0.0},  # dropped
    ], schema, "j")
    t = DeriveRatio("instructions", "elapsed", "ips",
                    "event count per time", "count per second")
    out = t.apply(ds, dictionary)
    assert out.schema["ips"].dimension == "event count per time"
    rows = out.collect()
    assert len(rows) == 1 and rows[0]["ips"] == 100.0


def test_derive_ratio_drop_inputs(ctx, dictionary):
    schema = Schema({
        "a": value("event count", "count"),
        "b": value("time", "seconds"),
    })
    ds = ScrubJayDataset.from_rows(ctx, [{"a": 4, "b": 2.0}], schema, "x")
    t = DeriveRatio("a", "b", "r", "event count per time",
                    "count per second", drop_inputs=True)
    out = t.apply(ds, dictionary)
    assert out.schema.fields() == ["r"]
    assert out.collect() == [{"r": 2.0}]


def test_derive_ratio_none_input_is_not_a_sample(ctx, dictionary):
    schema = Schema({
        "a": value("event count", "count"),
        "b": value("time", "seconds"),
    })
    ds = ScrubJayDataset.from_rows(ctx, [
        {"a": 4, "b": 2.0},
        {"a": None, "b": 2.0},  # dropped, as if `a` were missing
        {"a": 4, "b": None},  # dropped, as if `b` were missing
    ], schema, "x")
    t = DeriveRatio("a", "b", "r", "event count per time",
                    "count per second")
    assert [r["r"] for r in t.apply(ds, dictionary).collect()] == [2.0]


def test_derive_ratio_requires_value_fields(dictionary):
    schema = Schema({
        "a": domain("jobs", "identifier"),
        "b": value("time", "seconds"),
    })
    t = DeriveRatio("a", "b", "r", "event count per time",
                    "count per second")
    assert not t.applies(schema, dictionary)


# ----------------------------------------------------------------------
# serialization / reflection
# ----------------------------------------------------------------------

def test_params_via_reflection():
    t = ExplodeContinuous("span", period=30.0)
    assert t.to_json_dict() == {
        "op": "explode_continuous", "field": "span", "period": 30.0
    }


def test_equality_by_params():
    assert ExplodeDiscrete("a") == ExplodeDiscrete("a")
    assert ExplodeDiscrete("a") != ExplodeDiscrete("b")
    assert ExplodeDiscrete("a") != ExplodeContinuous("a")
