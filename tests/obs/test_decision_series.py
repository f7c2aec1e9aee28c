"""The registry series every decision kind mirrors into.

The benchmark suite's layer metrics (``rdd.broadcast_join_ratio``,
``rdd.shuffle_pairs``, ``columnar.batch_ratio``,
``metrics.rollup_route_ratio``) and the Prometheus dump read these
exact names and label keys, so they are pinned here: one decision of
each kind, and the complete set of series it leaves behind.
"""

from __future__ import annotations

from repro import ScrubJaySession, TuningProfile
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.rdd import AdaptiveConfig, SJContext
from repro.serve import QueryService

from tests.conftest import TEMPS_SCHEMA, temps_rows
from tests.serve.conftest import JOIN_DOMAINS, JOIN_VALUES

#: counter families the decision kinds publish
FAMILIES = ("rdd.join.", "rdd.shuffle.", "core.kernel.", "stream.delta.",
            "metrics.rollup.")


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
    # spread over the others: one skewed bucket
    skewed = [(4 * i, i) for i in range(300)] + \
        [(4 * i + r, i) for r in (1, 2, 3) for i in range(30)]
    cfg = AdaptiveConfig(skew_min_pairs=50, skew_factor=2.0)
    with SJContext(executor="serial", default_parallelism=4,
                   adaptive=cfg) as ctx:
        big = ctx.parallelize([(i % 8, i) for i in range(64)], 2)
        small = ctx.parallelize([(k, -k) for k in range(8)], 1)
        big.adaptiveJoin(small).collect()
        ctx.parallelize(skewed, 4).groupByKey(4).collect()
        assert _series(ctx.metrics) == (
            {
                "rdd.join.decisions{strategy=broadcast}": 1,
                "rdd.shuffle.decisions": 1,
                "rdd.shuffle.pairs": 390,
                "rdd.shuffle.skewed_buckets": 1,
            },
            {"rdd.timing.join.broadcast": 1, "rdd.timing.shuffle": 1},
        )


def test_shuffle_join_series():
    with SJContext(executor="serial", default_parallelism=2,
                   adaptive=AdaptiveConfig(enabled=False)) as ctx:
        left = ctx.parallelize([(i % 4, i) for i in range(8)], 2)
        right = ctx.parallelize([(k, -k) for k in range(4)], 1)
        left.adaptiveJoin(right, 2).collect()
        counters, timings = _series(ctx.metrics)
    assert counters == {
        "rdd.join.decisions{strategy=shuffle}": 1,
        "rdd.shuffle.decisions": 1,
        "rdd.shuffle.pairs": 12,
    }
    assert timings == {"rdd.timing.join.shuffle": 1, "rdd.timing.shuffle": 1}


def test_kernel_series():
    sj = ScrubJaySession(TuningProfile(columnar=True, pushdown=False))
    try:
        sj.register_rows(temps_rows(), TEMPS_SCHEMA, "rack_temperatures")
        (sj.query().across("racks", "time").value("temperature")
         .where("racks", equals=17).ask().collect())
        counters, timings = _series(sj.ctx.metrics)
    finally:
        sj.close()
    assert counters == {"core.kernel.decisions{choice=batch}": 1}
    assert timings == {}


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
