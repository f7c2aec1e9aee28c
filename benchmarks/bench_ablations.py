"""Ablations of the design choices DESIGN.md calls out.

1. **Per-key sorted interpolation join vs. brute force** — the
   paper's §5.3 motivation: naively computing all pairwise distances
   is unscalable. Sorting each exact key's right rows by time once and
   bisecting each left row's window must beat an all-pairs scan as
   data grows (that both produce the same rows is tier-1's property
   test, ``tests/core/test_combinations_properties.py``).
2. **Engine memoization on/off** — Algorithm 1 caches CombineSet /
   CombinePair; disabling the pair memo must not change the plan.
3. **Map-side combine** — the shuffle's combiner keeps exchanged
   volume proportional to distinct keys, not records.
"""

from __future__ import annotations

import pytest

from repro import SJContext, ScrubJayDataset, default_dictionary
from repro.core.combinations import InterpolationJoin
from repro.datagen.synthetic import (
    TIMED_LEFT_SCHEMA,
    TIMED_RIGHT_SCHEMA,
    timed_tables,
)
from repro.util import Timer

_DICT = default_dictionary()
WINDOW = 2.0


def _brute_force_interp_join(left_rows, right_rows, window):
    """All-pairs oracle: per left row, right matches within the window
    (matching node), attached by nearest sample."""
    from collections import defaultdict

    by_node = defaultdict(list)
    for r in right_rows:
        by_node[r["node"]].append(r)
    out = []
    for lr in left_rows:
        lt = lr["time"].epoch
        matches = [
            rr for rr in by_node.get(lr["node"], [])
            if abs(rr["time"].epoch - lt) <= window
        ]
        if not matches:
            continue
        nearest = min(matches, key=lambda rr: abs(rr["time"].epoch - lt))
        row = dict(lr)
        row["metric_b"] = nearest["metric_b"]
        out.append(row)
    return out


@pytest.fixture(scope="module")
def recorder(recorder_factory):
    return recorder_factory("ablation_sorted_vs_bruteforce",
                            "rows", "seconds")


def test_sorted_join_beats_bruteforce_at_scale(benchmark, recorder):
    """Brute force is quadratic per key; the per-key sorted join is
    ~n log n in rows for a fixed window and density."""
    results = {}

    def run():
        # few keys + long streams: the regime where per-key all-pairs
        # explodes quadratically
        for n in (4_000, 16_000):
            left, right = timed_tables(n, num_keys=4)
            with SJContext() as ctx:
                lds = ScrubJayDataset.from_rows(
                    ctx, left, TIMED_LEFT_SCHEMA, "l"
                )
                rds = ScrubJayDataset.from_rows(
                    ctx, right, TIMED_RIGHT_SCHEMA, "r"
                )
                with Timer() as ts:
                    InterpolationJoin(WINDOW).apply(
                        lds, rds, _DICT
                    ).count()
            with Timer() as tf:
                _brute_force_interp_join(left, right, WINDOW)
            results[n] = (ts.elapsed, tf.elapsed)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for n, (sorted_s, brute_s) in results.items():
        recorder.add(n, sorted_s, "per-key sorted")
        recorder.add(n, brute_s, "brute force")
    # growth factor from 4k → 16k rows: sorted should grow far slower
    sorted_growth = results[16_000][0] / results[4_000][0]
    brute_growth = results[16_000][1] / results[4_000][1]
    assert brute_growth > 2.0 * sorted_growth, (
        f"sorted×{sorted_growth:.1f} vs brute×{brute_growth:.1f}"
    )


def test_engine_memoization_plan_invariant(benchmark):
    """Clearing the pair memo between queries must not change plans."""
    from repro import DerivationEngine, Query
    from repro.datagen.dat import (
        JOB_LOG_SCHEMA, NODE_LAYOUT_SCHEMA, RACK_TEMPERATURE_SCHEMA,
        ensure_semantics,
    )

    d = default_dictionary()
    ensure_semantics(d)
    catalog = {
        "job_queue_log": JOB_LOG_SCHEMA,
        "node_layout": NODE_LAYOUT_SCHEMA,
        "rack_temperatures": RACK_TEMPERATURE_SCHEMA,
    }
    q = Query.of(["jobs", "racks"], ["applications", "heat"])

    def run():
        engine = DerivationEngine(d)
        with_memo = engine.solve(catalog, q).to_json()
        fresh = DerivationEngine(d)
        fresh._pair_memo.clear()
        without_memo = fresh.solve(catalog, q).to_json()
        return with_memo, without_memo

    with_memo, without_memo = benchmark.pedantic(run, rounds=1, iterations=1)
    assert with_memo == without_memo


def test_map_side_combine_bounds_shuffle_volume(benchmark):
    """aggregateByKey's partial combiners keep the exchanged pair count at
    (#partitions × #keys), not #records."""
    with SJContext() as ctx:
        rdd = ctx.parallelize(
            [(i % 10, 1) for i in range(100_000)], 8
        ).aggregateByKey(0, lambda a, b: a + b, lambda a, b: a + b)

        # count pairs crossing the exchange by instrumenting the
        # scheduler's shuffle directly
        from repro.rdd.plan import Scheduler

        scheduler = ctx.scheduler
        parent_parts = scheduler.materialize(rdd.parent)
        n = ctx.default_parallelism
        from repro.rdd.shuffle import hash_bucket

        def count_exchanged():
            total = 0
            for p in parent_parts:
                buckets = [dict() for _ in range(n)]
                for k, v in p.data:
                    d = buckets[hash_bucket(k, n)]
                    d[k] = d.get(k, 0) + v
                total += sum(len(b) for b in buckets)
            return total

        exchanged = benchmark.pedantic(count_exchanged, rounds=1,
                                       iterations=1)
        assert exchanged <= 8 * 10  # partitions × keys
        assert dict(rdd.collect())[0] == 10_000
