"""The registry series every decision kind mirrors into.

The benchmark suite's layer metrics (``rdd.broadcast_join_ratio``,
``rdd.shuffle_pairs``, ``metrics.rollup_route_ratio``) and the
Prometheus dump read these exact names and label keys, so they are
pinned here: one decision of each kind, and the complete set of series
it leaves behind.
"""

from __future__ import annotations

from repro import ScrubJaySession
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.rdd import AdaptiveConfig, SJContext
from repro.serve import QueryService

from tests.conftest import (
    JOBS_SCHEMA,
    LAYOUT_SCHEMA,
    TEMPS_SCHEMA,
    jobs_rows,
    layout_rows,
    temps_rows,
)
from tests.serve.conftest import JOIN_DOMAINS, JOIN_VALUES

#: counter families the decision kinds publish
FAMILIES = ("rdd.join.", "rdd.shuffle.", "stream.delta.",
            "metrics.rollup.", "engine.plan.")


def _series(registry):
    snap = registry.snapshot()
    counters = {
        k: v for k, v in snap["counters"].items() if k.startswith(FAMILIES)
    }
    timings = {
        k: h["count"] for k, h in snap["histograms"].items()
        if k.startswith("rdd.timing.")
    }
    return counters, timings


def test_join_and_shuffle_series():
    # 300 keys that all hash to bucket 0 of a 4-way shuffle plus 90
    # spread over the others: a hot bucket is one more bucket
    hot = [(4 * i, i) for i in range(300)] + \
        [(4 * i + r, i) for r in (1, 2, 3) for i in range(30)]
    with SJContext(executor="simulated", default_parallelism=4) as ctx:
        big = ctx.parallelize([(i % 8, i) for i in range(64)], 2)
        small = ctx.parallelize([(k, -k) for k in range(8)], 1)
        big.adaptiveJoin(small).collect()
        ctx.parallelize(hot, 4).groupByKey().collect()
        assert _series(ctx.metrics) == (
            {
                "rdd.join.decisions{strategy=broadcast}": 1,
                "rdd.shuffle.decisions": 1,
                "rdd.shuffle.pairs": 390,
            },
            {"rdd.timing.join.broadcast": 1, "rdd.timing.shuffle": 1},
        )


def test_shuffle_join_series():
    with SJContext(executor="serial", default_parallelism=2,
                   adaptive=AdaptiveConfig(broadcast_threshold_rows=0)
                   ) as ctx:
        left = ctx.parallelize([(i % 4, i) for i in range(8)], 2)
        right = ctx.parallelize([(k, -k) for k in range(4)], 1)
        left.adaptiveJoin(right).collect()
        counters, timings = _series(ctx.metrics)
    assert counters == {
        "rdd.join.decisions{strategy=shuffle}": 1,
        "rdd.shuffle.decisions": 1,
        "rdd.shuffle.pairs": 12,
    }
    assert timings == {"rdd.timing.join.shuffle": 1, "rdd.timing.shuffle": 1}


def test_rollup_series():
    sj = ScrubJaySession()
    try:
        sj.register_rows(temps_rows(), TEMPS_SCHEMA, "rack_temperatures")
        sj.query().measure("temperature", "mean").per("racks").ask()
        counters, _ = _series(sj.ctx.metrics)
    finally:
        sj.close()
    # the raw route groups the base relation through one shuffle
    assert counters == {
        "metrics.rollup.decisions{route=raw}": 1,
        "rdd.shuffle.decisions": 1,
        "rdd.shuffle.pairs": 8,
    }


def test_delta_series():
    sj = ScrubJaySession()
    left, right = keyed_tables(40, num_keys=4)
    sj.ingest().feed(KEYED_LEFT_SCHEMA, rows=left).tail("samples")
    sj.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
    svc = QueryService(sj, num_workers=1)
    try:
        svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
        before, _ = _series(sj.ctx.metrics)
        svc.advance("samples", rows=[
            {"node": i % 4, "sample": 10_000 + i, "metric_a": float(i)}
            for i in range(4)
        ])
        after, _ = _series(sj.ctx.metrics)
    finally:
        svc.close()
        sj.close()
    grown = {k: v - before.get(k, 0) for k, v in after.items()
             if v != before.get(k, 0)}
    # the delta run's natural join decides its own strategy
    assert grown == {
        "stream.delta.decisions{choice=delta}": 1,
        "rdd.join.decisions{strategy=broadcast}": 1,
    }


def test_plan_series():
    sj = ScrubJaySession()
    try:
        sj.register_rows(jobs_rows(), JOBS_SCHEMA, "job_queue_log")
        sj.register_rows(layout_rows(), LAYOUT_SCHEMA, "node_layout")
        sj.register_rows(temps_rows(), TEMPS_SCHEMA, "rack_temperatures")
        # planning only: the heat question's same-schema sequences tie
        # on steps and are decided by estimated rows, once at the root
        # and once for the order of the job log's explodes
        sj.plan(sj.query().across("jobs", "racks")
                .values("applications", "heat").build())
        counters, timings = _series(sj.ctx.metrics)
    finally:
        sj.close()
    assert (counters, timings) == ({"engine.plan.decisions": 2}, {})
