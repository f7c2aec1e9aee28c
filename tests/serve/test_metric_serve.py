"""Metric queries through the serve tier: raw and rollup routes,
``aggregate()``, the wire ``metric`` op, and live metric
subscriptions."""

from __future__ import annotations

import pytest

from repro import ScrubJaySession
from repro.core.query import Query
from repro.errors import ServiceError
from repro.serve.service import AggregateSpec, QueryService
from repro.serve.wire import InProcessClient

from tests.metrics.conftest import (
    RACK_POWER_SCHEMA,
    assert_groups_equal,
    power_rows,
)


def metric_query(sj):
    return (sj.query()
            .measure("power", "mean").per("racks").grain("1h")
            .build())


@pytest.fixture()
def power_service():
    sj = ScrubJaySession()
    sj.register_rows(power_rows(), RACK_POWER_SCHEMA, "rack_power")
    svc = QueryService(sj, num_workers=2)
    yield sj, svc
    svc.close()
    sj.close()


def truth(sj):
    return sj.ask(metric_query(sj)).groups


def test_service_answers_metric_raw(power_service):
    sj, svc = power_service
    ans = svc.query(metric_query(sj))
    assert ans.decision.choice == "raw"
    assert_groups_equal(ans.groups, truth(sj))


def test_aggregate_accepts_query_objects(power_service):
    sj, svc = power_service
    ans = svc.aggregate(metric_query(sj))
    assert_groups_equal(ans.groups, truth(sj))
    # mixing the metric query with legacy spec args is a typed error
    with pytest.raises(ServiceError):
        svc.aggregate(metric_query(sj), group_by=["rack"])


def test_service_accepts_unbuilt_builder(power_service):
    sj, svc = power_service
    ans = svc.query(
        sj.query().measure("power", "mean").per("racks").grain("1h")
    )
    assert_groups_equal(ans.groups, truth(sj))


def test_legacy_positional_aggregate_still_works(power_service):
    sj, svc = power_service
    legacy = svc.aggregate(
        ["racks", "time"], ["power"],
        group_by=["rack"], value_field="power", how="mean",
    )
    assert isinstance(legacy, dict) and legacy


def test_service_routes_through_rollup(power_service):
    sj, svc = power_service
    want = truth(sj)
    sj.rollup("power_1h", metric_query(sj))
    svc.invalidate()
    ans = svc.query(metric_query(sj))
    assert ans.decision.choice == "rollup"
    assert ans.decision.evidence["rollup"] == "power_1h"
    assert_groups_equal(ans.groups, want)


def test_wire_metric_op(power_service):
    sj, svc = power_service
    client = InProcessClient(svc)
    ans = client.metric(metric_query(sj), dictionary=sj.dictionary)
    assert_groups_equal(ans.groups, truth(sj))
    assert ans.decision["route"] == "raw"
    assert ans.group_dims == ("racks", "time")


def test_wire_unknown_op_typed_error(power_service):
    _sj, svc = power_service
    client = InProcessClient(svc)
    resp = client.request({"op": "metric_v3"})
    assert resp["error"] == "UnsupportedOpError"


def test_aggregate_spec_wire_round_trip():
    spec = AggregateSpec(("rack",), "power", "mean", False)
    assert AggregateSpec.from_wire(spec.to_wire()) == spec
    assert AggregateSpec.from_wire({"group_by": []}) is None


def test_metric_subscription_refreshes_incrementally():
    rows = power_rows()
    half = len(rows) // 2
    sj = ScrubJaySession()
    sj.ingest().feed(RACK_POWER_SCHEMA, rows=rows[:half]) \
        .tail("rack_power")
    svc = QueryService(sj, num_workers=2)
    try:
        sub = svc.subscribe(metric_query(sj))
        snap0 = sub.current()
        assert snap0.groups

        out = svc.advance("rack_power", rows=rows[half:])
        assert out["subscriptions_refreshed"] == 1, out
        snap1 = sub.current()

        ref = ScrubJaySession()
        try:
            ref.register_rows(rows, RACK_POWER_SCHEMA, "rack_power")
            want = {k: v["power_mean"]
                    for k, v in truth(ref).items()}
        finally:
            ref.close()
        assert_groups_equal(dict(snap1.groups), want)
    finally:
        svc.close()
        sj.close()


def test_metric_subscription_rejects_explicit_spec(power_service):
    sj, svc = power_service
    with pytest.raises(ServiceError):
        svc.subscribe(
            metric_query(sj),
            aggregate=AggregateSpec(("rack",), "power", "mean", False),
        )
