"""Natural join and interpolation join: applicability rules and data
correctness against brute-force oracles."""

import pytest

from repro.core.combinations import (
    InterpolationJoin,
    NaturalJoin,
    shared_domain_dimensions,
)
from repro.core.dataset import ScrubJayDataset
from repro.core.semantics import Schema, domain, value
from repro.errors import DerivationError
from repro.rdd import AdaptiveConfig, SJContext
from repro.units.temporal import Timestamp

LEFT = Schema({
    "node": domain("compute nodes", "identifier"),
    "power": value("power", "watts"),
})
RIGHT = Schema({
    "node": domain("compute nodes", "identifier"),
    "rack": domain("racks", "identifier"),
})

TLEFT = Schema({
    "node": domain("compute nodes", "identifier"),
    "time": domain("time", "datetime"),
    "power": value("power", "watts"),
})
TRIGHT = Schema({
    "node": domain("compute nodes", "identifier"),
    "time": domain("time", "datetime"),
    "temp": value("temperature", "degrees Celsius"),
})


def test_shared_domain_dimensions():
    assert shared_domain_dimensions(LEFT, RIGHT) == {"compute nodes"}
    assert shared_domain_dimensions(TLEFT, TRIGHT) == {"compute nodes", "time"}


# ----------------------------------------------------------------------
# natural join
# ----------------------------------------------------------------------

def test_natural_join_applies_on_discrete_shared_dims(dictionary):
    assert NaturalJoin().applies(LEFT, RIGHT, dictionary)


def test_natural_join_refuses_interpolatable_shared_dim(dictionary):
    assert not NaturalJoin().applies(TLEFT, TRIGHT, dictionary)


def test_natural_join_refuses_disjoint_schemas(dictionary):
    other = Schema({"rack": domain("racks", "identifier")})
    assert not NaturalJoin().applies(LEFT, other, dictionary)


def test_natural_join_refuses_mismatched_units(dictionary):
    listy = Schema({
        "nodes": domain("compute nodes", "list<identifier>"),
        "rack": domain("racks", "identifier"),
    })
    assert not NaturalJoin().applies(LEFT, listy, dictionary)


def test_natural_join_refuses_ambiguous_fields(dictionary):
    two = Schema({
        "node_a": domain("compute nodes", "identifier"),
        "node_b": domain("compute nodes", "identifier"),
    })
    assert not NaturalJoin().applies(LEFT, two, dictionary)


def test_natural_join_schema_drops_right_keys(dictionary):
    out = NaturalJoin().derive_schema(LEFT, RIGHT, dictionary)
    assert set(out.fields()) == {"node", "power", "rack"}


def test_natural_join_data_matches_oracle(ctx, dictionary):
    left_rows = [{"node": n % 4, "power": float(n)} for n in range(20)]
    right_rows = [{"node": n, "rack": 100 + n} for n in range(3)]
    lds = ScrubJayDataset.from_rows(ctx, left_rows, LEFT, "l")
    rds = ScrubJayDataset.from_rows(ctx, right_rows, RIGHT, "r")
    got = sorted(
        NaturalJoin().apply(lds, rds, dictionary).collect(),
        key=lambda r: (r["node"], r["power"]),
    )
    want = sorted(
        (
            {**lr, "rack": rr["rack"]}
            for lr in left_rows for rr in right_rows
            if lr["node"] == rr["node"]
        ),
        key=lambda r: (r["node"], r["power"]),
    )
    assert got == want


def test_natural_join_renames_colliding_value_fields(ctx, dictionary):
    right = Schema({
        "node": domain("compute nodes", "identifier"),
        "power": value("energy", "joules"),
    })
    lds = ScrubJayDataset.from_rows(ctx, [{"node": 1, "power": 5.0}], LEFT, "l")
    rds = ScrubJayDataset.from_rows(ctx, [{"node": 1, "power": 9.0}], right, "r")
    out = NaturalJoin().apply(lds, rds, dictionary)
    assert "power_r" in out.schema
    row = out.collect()[0]
    assert row["power"] == 5.0 and row["power_r"] == 9.0


def test_natural_join_apply_rejects_invalid(ctx, dictionary):
    lds = ScrubJayDataset.from_rows(ctx, [], LEFT, "l")
    rds = ScrubJayDataset.from_rows(
        ctx, [], Schema({"rack": domain("racks", "identifier")}), "r"
    )
    with pytest.raises(DerivationError):
        NaturalJoin().apply(lds, rds, dictionary)


def test_natural_join_multi_key(ctx, dictionary):
    l2 = Schema({
        "node": domain("compute nodes", "identifier"),
        "cpu": domain("cpus", "identifier"),
        "x": value("power", "watts"),
    })
    r2 = Schema({
        "node": domain("compute nodes", "identifier"),
        "cpu": domain("cpus", "identifier"),
        "y": value("energy", "joules"),
    })
    lrows = [{"node": 0, "cpu": c, "x": float(c)} for c in range(3)]
    rrows = [{"node": 0, "cpu": 1, "y": 9.0}, {"node": 1, "cpu": 1, "y": 8.0}]
    out = NaturalJoin().apply(
        ScrubJayDataset.from_rows(ctx, lrows, l2, "l"),
        ScrubJayDataset.from_rows(ctx, rrows, r2, "r"),
        dictionary,
    ).collect()
    assert out == [{"node": 0, "cpu": 1, "x": 1.0, "y": 9.0}]


# ----------------------------------------------------------------------
# interpolation join
# ----------------------------------------------------------------------

def _trows(node, series, field, fieldname):
    return [
        {"node": node, "time": Timestamp(float(t)), fieldname: v}
        for t, v in series
    ]


def test_interp_join_applies(dictionary):
    assert InterpolationJoin(10.0).applies(TLEFT, TRIGHT, dictionary)


def test_interp_join_refuses_time_only_sharing(dictionary):
    tonly = Schema({
        "time": domain("time", "datetime"),
        "temp": value("temperature", "degrees Celsius"),
    })
    lonly = Schema({
        "time": domain("time", "datetime"),
        "power": value("power", "watts"),
    })
    assert not InterpolationJoin(10.0).applies(lonly, tonly, dictionary)


def test_interp_join_refuses_without_continuous_dim(dictionary):
    assert not InterpolationJoin(10.0).applies(LEFT, RIGHT, dictionary)


def test_interp_join_refuses_raw_counter_values(dictionary):
    counters = Schema({
        "node": domain("compute nodes", "identifier"),
        "time": domain("time", "datetime"),
        "events": value("event count", "count"),
    })
    assert not InterpolationJoin(10.0).applies(TLEFT, counters, dictionary)
    # but counters on the LEFT (carried through) are fine
    assert InterpolationJoin(10.0).applies(counters, TRIGHT, dictionary)


def test_interp_join_rejects_bad_window():
    with pytest.raises(DerivationError):
        InterpolationJoin(0.0)


def test_interp_join_nearest_within_window(ctx, dictionary):
    lds = ScrubJayDataset.from_rows(
        ctx, _trows(0, [(100, 1.0)], 0, "power"), TLEFT, "l"
    )
    rds = ScrubJayDataset.from_rows(
        ctx, _trows(0, [(93, 20.0), (104, 24.0), (150, 99.0)], 0, "temp"),
        TRIGHT, "r",
    )
    out = InterpolationJoin(window=10.0).apply(lds, rds, dictionary).collect()
    assert len(out) == 1
    # temperature is continuous+ordered → linear interpolation between
    # the bracketing samples at 93 and 104
    expected = 20.0 + (24.0 - 20.0) * (100 - 93) / (104 - 93)
    assert out[0]["temp"] == pytest.approx(expected)


def test_interp_join_no_match_outside_window(ctx, dictionary):
    lds = ScrubJayDataset.from_rows(
        ctx, _trows(0, [(100, 1.0)], 0, "power"), TLEFT, "l"
    )
    rds = ScrubJayDataset.from_rows(
        ctx, _trows(0, [(150, 20.0)], 0, "temp"), TRIGHT, "r"
    )
    assert InterpolationJoin(10.0).apply(lds, rds, dictionary).collect() == []


def test_interp_join_requires_exact_key_match(ctx, dictionary):
    lds = ScrubJayDataset.from_rows(
        ctx, _trows(0, [(100, 1.0)], 0, "power"), TLEFT, "l"
    )
    rds = ScrubJayDataset.from_rows(
        ctx, _trows(1, [(100, 20.0)], 0, "temp"), TRIGHT, "r"
    )
    assert InterpolationJoin(10.0).apply(lds, rds, dictionary).collect() == []


def test_interp_join_extra_right_domain_partitions_output(ctx, dictionary):
    tright = Schema({
        "node": domain("compute nodes", "identifier"),
        "loc": domain("rack locations", "label"),
        "time": domain("time", "datetime"),
        "temp": value("temperature", "degrees Celsius"),
    })
    lds = ScrubJayDataset.from_rows(
        ctx, _trows(0, [(100, 1.0)], 0, "power"), TLEFT, "l"
    )
    rrows = [
        {"node": 0, "loc": "top", "time": Timestamp(99.0), "temp": 30.0},
        {"node": 0, "loc": "bottom", "time": Timestamp(99.0), "temp": 20.0},
    ]
    rds = ScrubJayDataset.from_rows(ctx, rrows, tright, "r")
    out = sorted(
        InterpolationJoin(10.0).apply(lds, rds, dictionary).collect(),
        key=lambda r: r["loc"],
    )
    assert [(r["loc"], r["temp"]) for r in out] == \
        [("bottom", 20.0), ("top", 30.0)]


def test_interp_join_schema_merges_and_drops(dictionary):
    out = InterpolationJoin(10.0).derive_schema(TLEFT, TRIGHT, dictionary)
    assert set(out.fields()) == {"node", "time", "power", "temp"}


def test_interp_join_unordered_value_takes_nearest(ctx, dictionary):
    tright = Schema({
        "node": domain("compute nodes", "identifier"),
        "time": domain("time", "datetime"),
        "app": value("applications", "label"),
    })
    lds = ScrubJayDataset.from_rows(
        ctx, _trows(0, [(100, 1.0)], 0, "power"), TLEFT, "l"
    )
    rrows = [
        {"node": 0, "time": Timestamp(95.0), "app": "far"},
        {"node": 0, "time": Timestamp(99.0), "app": "near"},
    ]
    rds = ScrubJayDataset.from_rows(ctx, rrows, tright, "r")
    out = InterpolationJoin(10.0).apply(lds, rds, dictionary).collect()
    assert out[0]["app"] == "near"


def test_interp_join_pair_found_exactly_once_across_schemes(ctx, dictionary):
    # a right row is in the window of several left rows, a left row has
    # several right rows in its window; each left row is met once
    lds = ScrubJayDataset.from_rows(
        ctx, _trows(0, [(t, 1.0) for t in range(0, 200, 7)], 0, "power"),
        TLEFT, "l",
    )
    rds = ScrubJayDataset.from_rows(
        ctx, _trows(0, [(t, 20.0) for t in range(0, 200, 5)], 0, "temp"),
        TRIGHT, "r",
    )
    out = InterpolationJoin(10.0).apply(lds, rds, dictionary).collect()
    # exactly one output row per left row (single extra-domain group)
    assert len(out) == len(lds.collect())


# -- order independence and None values, on both strategies -------------

APPS = Schema({
    "node": domain("compute nodes", "identifier"),
    "time": domain("time", "datetime"),
    "app": value("applications", "label"),
})


@pytest.fixture(params=["broadcast", "shuffle"])
def strategy_ctx(request):
    adaptive = None if request.param == "broadcast" else \
        AdaptiveConfig(broadcast_threshold_rows=0)
    with SJContext(executor="serial", default_parallelism=4,
                   adaptive=adaptive) as c:
        yield c
        assert c.report.of("join")[-1].choice == request.param


def _attached(ctx, dictionary, series, schema=TRIGHT, field="temp",
              partitions=1):
    """What one left row at t=10 gets attached, window 5."""
    lds = ScrubJayDataset.from_rows(
        ctx, _trows(0, [(10, 1.0)], 0, "power"), TLEFT, "l"
    )
    rds = ScrubJayDataset.from_rows(
        ctx, _trows(0, series, 0, field), schema, "r", partitions
    )
    (row,) = InterpolationJoin(5.0).apply(lds, rds, dictionary).collect()
    return row.get(field)


def test_interp_join_none_value_is_not_a_sample(strategy_ctx, dictionary):
    assert _attached(strategy_ctx, dictionary,
                     [(8, None), (12, 30.0)]) == 30.0
    # nothing left to attach: the row is kept, the field stays absent
    assert _attached(strategy_ctx, dictionary,
                     [(8, None), (12, None)]) is None


@pytest.mark.parametrize("partitions", [1, 2, 3, 4])
def test_interp_join_tied_times_ignore_row_order(
        strategy_ctx, dictionary, partitions):
    series = [(8, 10.0), (8, 20.0), (12, 30.0)]
    for order in (series, series[::-1]):
        # the two samples at t=8 are one reading of 15.0; t=10 is midway
        assert _attached(strategy_ctx, dictionary, order,
                         partitions=partitions) == 22.5
    labels = [(8, "b"), (8, "a"), (13, "c")]
    for order in (labels, labels[::-1]):
        # nearest is t=8; of its tied labels the first by repr
        assert _attached(strategy_ctx, dictionary, order, APPS, "app",
                         partitions) == "a"
    equidistant = [(8, "late"), (12, "early")]
    for order in (equidistant, equidistant[::-1]):
        # equally near on both sides: the earlier reading
        assert _attached(strategy_ctx, dictionary, order, APPS, "app",
                         partitions) == "late"


def test_interp_join_matches_every_exact_dimension(strategy_ctx, dictionary):
    cpu = domain("cpus", "identifier")
    left = ScrubJayDataset.from_rows(strategy_ctx, [
        {"node": n, "cpu": c, "time": Timestamp(10.0), "power": 1.0}
        for n in (0, 1) for c in (0, 1, 2)
    ], TLEFT.with_field("cpu", cpu), "l", 2)
    right = ScrubJayDataset.from_rows(strategy_ctx, [
        {"node": n, "cpu": c, "time": Timestamp(9.0), "temp": 10.0 * n + c}
        for n in (0, 1) for c in (0, 1)  # no cpu 2 on the right
    ], TRIGHT.with_field("cpu", cpu), "r", 2)
    out = InterpolationJoin(5.0).apply(left, right, dictionary).collect()
    assert sorted((r["node"], r["cpu"], r["temp"]) for r in out) == [
        (0, 0, 0.0), (0, 1, 1.0), (1, 0, 10.0), (1, 1, 11.0),
    ]
