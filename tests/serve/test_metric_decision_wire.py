"""The wire ``metric`` reply's ``decision`` object is a published
format: every key and value a client has read from it stays, on a
single service and through a sharded router alike (keys may be
added)."""

from __future__ import annotations

import pytest

from repro import ScrubJaySession
from repro.serve.service import QueryService
from repro.serve.sharded import ShardRouter
from repro.serve.wire import InProcessClient

from tests.metrics.conftest import RACK_POWER_SCHEMA, power_rows

RAW = {
    "kind": "rollup",
    "route": "raw",
    "rollup": None,
    "requested_grain": 3600.0,
    "rollup_grain": None,
    "candidates": 0,
    "reason": "no rollups registered",
}

ROLLUP = {
    "kind": "rollup",
    "route": "rollup",
    "rollup": "power_1h",
    "requested_grain": 3600.0,
    "rollup_grain": 3600.0,
    "candidates": 1,
    "reason": "coarsest of 1 eligible rollup(s) at grain 3600s",
}


def metric_query(sj):
    return (sj.query()
            .measure("power", "mean").per("racks").grain("1h")
            .build())


@pytest.fixture(params=["service", "router"])
def served(request):
    sj = ScrubJaySession()
    sj.ingest().feed(RACK_POWER_SCHEMA, rows=power_rows()).tail("rack_power")
    if request.param == "service":
        svc = QueryService(sj, num_workers=1)
    else:
        svc = ShardRouter(
            sj, shards=2, shard_on={"rack_power": ["rack"]}, num_workers=1
        )
    yield sj, svc
    svc.close()
    sj.close()


def _decision(sj, svc):
    client = InProcessClient(svc)
    return client.metric(metric_query(sj), dictionary=sj.dictionary).decision


def test_wire_metric_decision_keeps_its_keys(served):
    sj, svc = served
    raw = _decision(sj, svc)
    assert {k: raw[k] for k in RAW} == RAW
    sj.rollup("power_1h", metric_query(sj))
    svc.invalidate()
    routed = _decision(sj, svc)
    assert {k: routed[k] for k in ROLLUP} == ROLLUP
