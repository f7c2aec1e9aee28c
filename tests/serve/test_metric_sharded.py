"""Metric queries over a sharded fleet: per-shard partials merged and
finalized once, router-side; metric subscriptions stay fresh across
fleet-wide advances."""

from __future__ import annotations

import pytest

from repro import ScrubJaySession
from repro.serve.sharded import ShardRouter

from tests.metrics.conftest import (
    RACK_POWER_SCHEMA,
    assert_groups_equal,
    power_rows,
)


def make_session(initial):
    sj = ScrubJaySession()
    sj.ingest().feed(RACK_POWER_SCHEMA, rows=initial).tail("rack_power")
    return sj


def metric_query(sj):
    return (sj.query()
            .measure("power", "mean").per("racks").grain("1h")
            .build())


def truth_at(rows):
    ref = make_session(rows)
    try:
        return ref.ask(metric_query(ref)).groups
    finally:
        ref.close()


@pytest.fixture()
def fleet():
    rows = power_rows()
    half = len(rows) // 2
    sj = make_session(rows[:half])
    router = ShardRouter(
        sj, shards=2, shard_on={"rack_power": ["rack"]}, num_workers=1
    )
    yield sj, router, rows, half
    router.close()
    sj.close()


def test_sharded_metric_query_merges_partials(fleet):
    sj, router, rows, half = fleet
    ans = router.query(metric_query(sj))
    assert ans.decision.choice == "raw"
    assert_groups_equal(ans.groups, truth_at(rows[:half]))


def test_sharded_metric_query_after_advance(fleet):
    sj, router, rows, half = fleet
    router.advance("rack_power", rows=rows[half:])
    ans = router.query(metric_query(sj))
    assert_groups_equal(ans.groups, truth_at(rows))


def test_sharded_metric_subscription_follows_the_fleet(fleet):
    sj, router, rows, half = fleet
    sub = router.subscribe(metric_query(sj))
    first = sub.current()
    assert first.groups

    out = router.advance("rack_power", rows=rows[half:])
    assert out["subscriptions_refreshed"] == 1, out
    snap = sub.current()
    want = {k: v["power_mean"] for k, v in truth_at(rows).items()}
    assert_groups_equal(dict(snap.groups), want)
