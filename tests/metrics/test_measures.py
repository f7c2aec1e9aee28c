"""Measure/Grain semantics and raw-route metric evaluation."""

from __future__ import annotations

import pytest

from repro import Query, ScrubJaySession
from repro.core.query import Grain, Measure, QueryBuilder
from repro.errors import QueryError, QueryValidationError
from repro.metrics import MetricAnswer, rows_from_state
from repro.metrics.compute import rebucket_partials
from repro.units.temporal import Timestamp

from tests.metrics.conftest import (
    RACK_POWER_SCHEMA,
    assert_groups_equal,
    close,
    manual_groups,
    power_rows,
)


# ----------------------------------------------------------------------
# Measure / Grain value objects
# ----------------------------------------------------------------------

def test_measure_rejects_unknown_how():
    with pytest.raises(QueryError, match="unknown measure aggregation"):
        Measure("power", "median")


def test_measure_key_is_stable():
    assert Measure("power", "p95").key() == "power_p95"
    assert Measure("power", "mean", window="15m").key() == \
        "power_mean_w900"


def test_grain_parses_duration_spellings():
    assert Grain.of("1h").seconds == 3600.0
    assert Grain.of("15m").seconds == 900.0
    assert Grain.of(60).seconds == 60.0
    with pytest.raises(QueryError, match="cannot parse duration"):
        Grain.of("fortnight")
    with pytest.raises(QueryError, match="positive"):
        Grain.of(0)


def test_grain_divides_requires_exact_nesting():
    assert Grain.of("30m").divides(Grain.of("1h"))
    assert Grain.of("1h").divides(Grain.of("1h"))
    assert not Grain.of("45m").divides(Grain.of("1h"))
    assert not Grain.of("2h").divides(Grain.of("1h"))  # coarser
    assert not Grain.of("30m").divides(Grain.of("1h", "other"))


# ----------------------------------------------------------------------
# builder validation (QueryValidationError)
# ----------------------------------------------------------------------

def test_builder_metric_terms_build():
    q = (QueryBuilder()
         .across("time")
         .measure("power", "mean")
         .per("racks")
         .grain("1h")
         .build())
    assert q.is_metric
    # per dims join the domains; measure dims join the values
    assert set(q.domains) >= {"racks", "time"}
    assert "power" in q.value_dimensions()
    base = q.base()
    assert not base.is_metric
    assert base.measures == ()


def test_per_and_grain_alone_provide_the_domains():
    q = (QueryBuilder()
         .measure("power", "max")
         .per("racks")
         .grain("1h")
         .build())
    assert set(q.domains) == {"racks", "time"}


def test_per_without_measure_is_rejected():
    with pytest.raises(QueryValidationError, match="no .measure"):
        QueryBuilder().across("racks").value("power").per("racks").build()


def test_windowed_measure_without_grain_is_rejected():
    with pytest.raises(QueryValidationError, match="time grain"):
        (QueryBuilder()
         .measure("power", "mean", window="30m")
         .per("racks")
         .build())


def test_empty_builder_is_rejected_with_clause():
    with pytest.raises(QueryValidationError) as e:
        QueryBuilder().value("power").build()
    assert e.value.clause == "across"
    with pytest.raises(QueryValidationError) as e:
        QueryBuilder().across("racks").build()
    assert e.value.clause == "value"


def test_metric_query_round_trips_through_json():
    q = (QueryBuilder()
         .measure("power", "p95")
         .measure("power", "mean", window="30m")
         .per("racks")
         .grain("15m")
         .build())
    assert Query.from_json_dict(q.to_json_dict()) == q


def test_plain_query_json_has_no_metric_keys():
    q = QueryBuilder().across("racks").value("power").build()
    assert set(q.to_json_dict()) == {"domains", "values"}


# ----------------------------------------------------------------------
# rebucket_partials
# ----------------------------------------------------------------------

def test_rebucket_merges_into_coarser_buckets():
    parts = {
        (1, Timestamp(0.0)): (10.0, 1),
        (1, Timestamp(1800.0)): (20.0, 1),
        (2, Timestamp(1800.0)): (5.0, 1),
    }
    out = rebucket_partials(parts, Grain.of("1h"), "mean")
    assert out == {
        (1, Timestamp(0.0)): (30.0, 2),
        (2, Timestamp(0.0)): (5.0, 1),
    }


def test_rebucket_is_idempotent_on_bucketed_keys():
    parts = {(1, Timestamp(3600.0)): (10.0, 2)}
    once = rebucket_partials(parts, Grain.of("1h"), "mean")
    twice = rebucket_partials(once, Grain.of("1h"), "mean")
    assert once == twice == parts


def test_rebucket_identity_without_grain():
    parts = {(1, Timestamp(17.0)): 4.0}
    assert rebucket_partials(parts, None, "sum") is parts


# ----------------------------------------------------------------------
# raw-route evaluation through the session
# ----------------------------------------------------------------------

@pytest.mark.parametrize("how", ["mean", "sum", "min", "max", "count"])
def test_metric_answer_matches_manual_aggregation(power_session, how):
    ans = power_session.ask(
        power_session.query()
        .measure("power", how).per("racks").grain("1h")
    )
    assert ans.decision.choice == "raw"
    want = manual_groups(power_rows(), 3600.0, how)
    got = {k: v[f"power_{how}"] for k, v in ans.groups.items()}
    assert_groups_equal(got, want)


def test_percentiles_use_linear_interpolation(power_session):
    ans = power_session.ask(
        power_session.query()
        .measure("power", "p50").measure("power", "p95")
        .per("racks").grain("1h")
    )

    def pct(vals, q):
        s = sorted(vals)
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    buckets = {}
    for row in power_rows():
        b = (row["time"].epoch // 3600.0) * 3600.0
        buckets.setdefault((row["rack"], Timestamp(b)), []).append(
            row["power"]
        )
    for k, vals in buckets.items():
        assert close(ans.groups[k]["power_p50"], pct(vals, 0.50))
        assert close(ans.groups[k]["power_p95"], pct(vals, 0.95))


def test_windowed_measure_covers_trailing_buckets(power_session):
    # window = 2 buckets: each bucket averages itself + the previous one
    ans = power_session.ask(
        power_session.query()
        .measure("power", "mean", window="2h").per("racks").grain("1h")
    )
    per_bucket = manual_groups(power_rows(), 3600.0, "sum")
    counts = manual_groups(power_rows(), 3600.0, "count")
    for (rack, t), _ in per_bucket.items():
        prev = (rack, Timestamp(t.epoch - 3600.0))
        total = per_bucket[(rack, t)] + per_bucket.get(prev, 0.0)
        n = counts[(rack, t)] + counts.get(prev, 0)
        got = ans.groups[(rack, t)]["power_mean_w7200"]
        assert close(got, total / n), (rack, t)


def test_metric_answer_rows_and_series(power_session):
    ans = power_session.ask(
        power_session.query()
        .measure("power", "mean").per("racks").grain("1h")
    )
    assert ans.group_dims == ("racks", "time")
    rows = ans.rows()
    assert len(rows) == len(ans)
    assert {"racks", "time", "power_mean"} <= set(rows[0])
    series = ans.series()
    assert set(series) == {(r,) for r in range(3)}
    for pts in series.values():
        assert [p[0].epoch for p in pts] == [0.0, 3600.0]


def test_measure_without_grain_gives_single_bucketless_groups(
    power_session,
):
    ans = power_session.ask(
        power_session.query().measure("power", "max").per("racks")
    )
    assert ans.group_dims == ("racks",)
    want = {}
    for row in power_rows():
        k = (row["rack"],)
        want[k] = max(want.get(k, float("-inf")), row["power"])
    got = {k: v["power_max"] for k, v in ans.groups.items()}
    assert_groups_equal(got, want)


# ----------------------------------------------------------------------
# None is absent; rows sort by group key
# ----------------------------------------------------------------------

#: a present-but-None value, rack and time: none of them is a sample
NONE_ROWS = [
    {"rack": 1, "time": Timestamp(60.0), "power": None},
    {"rack": None, "time": Timestamp(60.0), "power": 5.0},
    {"rack": 1, "time": None, "power": 7.0},
]


@pytest.mark.parametrize(
    "how", ["mean", "sum", "min", "max", "count", "p50", "p95"]
)
def test_none_value_or_group_field_is_not_a_sample(how):
    def groups(rows):
        sj = ScrubJaySession()
        try:
            sj.register_rows(rows, RACK_POWER_SCHEMA, "rack_power")
            return sj.ask(
                sj.query().measure("power", how).per("racks").grain("1h")
            ).groups
        finally:
            sj.close()

    got = groups(NONE_ROWS[:1] + power_rows() + NONE_ROWS[1:])
    assert_groups_equal(got, groups(power_rows()))


def test_metric_rows_sort_by_group_key_not_repr():
    rows = [
        {"rack": r, "time": Timestamp(0.0), "power": 1.0}
        for r in (10, 2, 18, 4)
    ]
    sj = ScrubJaySession()
    try:
        sj.register_rows(rows, RACK_POWER_SCHEMA, "rack_power")
        q = sj.query().measure("power", "sum").per("racks").grain("1h")
        ans = sj.ask(q)
        assert [r["racks"] for r in ans.rows()] == [2, 4, 10, 18]
        state = {"power_sum": {k: 1.0 for k in ans.groups}}
        table = rows_from_state(state, ["rack", "time"], q.build())
        assert [r["rack"] for r in table] == [2, 4, 10, 18]
    finally:
        sj.close()


def test_unorderable_group_keys_fall_back_to_repr_order():
    q = Query.of(["racks"], ["power"])
    ans = MetricAnswer(q, {("b",): {"p": 1}, (3,): {"p": 2}},
                       group_dims=("racks",))
    assert [r["racks"] for r in ans.rows()] == ["b", 3]
