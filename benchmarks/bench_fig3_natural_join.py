"""Figure 3 (top row): Natural Join scaling.

Paper: 2M–40M rows on a 10-node × 32-core cluster — time grows
linearly with rows (left panel); fixed 40M rows over 1–10 nodes —
strong scaling with diminishing returns from the shuffle bottleneck
(right panel).

Here: 20k–160k rows (pure-Python rows cost ~100× Spark's JVM rows per
row). This machine exposes a single CPU core, so cluster timing is
*simulated*: every task is executed and timed for real, then stage
wall-clock is the critical path of an LPT assignment of tasks onto N
workers, while driver-side shuffle exchange stays serial
(:class:`repro.rdd.executors.SimulatedClusterExecutor`). The shapes
under test: linear growth in rows, speedup in workers, sublinear due
to the serial shuffle.
"""

from __future__ import annotations

import pytest

from repro import (
    AdaptiveConfig,
    SJContext,
    ScrubJayDataset,
    default_dictionary,
)
from repro.core.combinations import NaturalJoin
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)

ROW_COUNTS = [20_000, 40_000, 80_000, 160_000]
WORKER_COUNTS = [1, 2, 4, 8, 10]
STRONG_SCALING_ROWS = 160_000
PARTITIONS = 20  # fixed decomposition, like fixed data on the cluster

_DICT = default_dictionary()


@pytest.fixture(scope="module")
def tables():
    return keyed_tables(max(ROW_COUNTS), num_keys=1024)


@pytest.fixture(scope="module")
def rows_recorder(recorder_factory):
    return recorder_factory(
        "fig3a_natural_join_rows", "rows", "sim_seconds"
    )


@pytest.fixture(scope="module")
def scaling_recorder(recorder_factory):
    return recorder_factory(
        "fig3b_natural_join_strong_scaling", "workers", "sim_seconds"
    )


def _run_join(workers, left_rows, right_rows):
    """Run the join on a simulated cluster; returns (sim_seconds, count)."""
    # broadcast_threshold_rows=0 pins the shuffle path: these panels
    # reproduce the paper's *shuffle-bound* scaling shapes, which the
    # adaptive broadcast join (benchmarked separately below and in
    # harness.py) would otherwise optimize away.
    with SJContext(
        executor="simulated", num_workers=workers,
        default_parallelism=PARTITIONS,
        adaptive=AdaptiveConfig(broadcast_threshold_rows=0),
    ) as ctx:
        left = ScrubJayDataset.from_rows(
            ctx, left_rows, KEYED_LEFT_SCHEMA, "left", PARTITIONS
        )
        right = ScrubJayDataset.from_rows(
            ctx, right_rows, KEYED_RIGHT_SCHEMA, "right", PARTITIONS
        )
        ctx.executor.reset()
        count = NaturalJoin().apply(left, right, _DICT).count()
        return ctx.executor.simulated_elapsed, count


@pytest.mark.parametrize("num_rows", ROW_COUNTS)
def test_fig3a_time_vs_rows(benchmark, tables, rows_recorder, num_rows):
    left_all, right = tables
    left = left_all[:num_rows]
    sim_s, count = benchmark.pedantic(
        _run_join, args=(10, left, right), rounds=1, iterations=1
    )
    assert count == num_rows  # every left row matches exactly one key
    benchmark.extra_info["sim_seconds"] = sim_s
    rows_recorder.add(num_rows, sim_s, "10 workers (simulated)")


def test_fig3a_shape_is_linear(benchmark, rows_recorder, shape):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # shape check only
    xs = [x for x, _y, _n in rows_recorder.rows]
    ys = [y for _x, y, _n in rows_recorder.rows]
    assert len(xs) == len(ROW_COUNTS)
    shape.assert_roughly_linear(xs, ys)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fig3b_strong_scaling(benchmark, tables, scaling_recorder, workers):
    left_all, right = tables
    left = left_all[:STRONG_SCALING_ROWS]
    sim_s, count = benchmark.pedantic(
        _run_join, args=(workers, left, right), rounds=1, iterations=1
    )
    assert count == STRONG_SCALING_ROWS
    benchmark.extra_info["sim_seconds"] = sim_s
    scaling_recorder.add(workers, sim_s, f"{STRONG_SCALING_ROWS} rows")


def test_fig3b_shape_speedup(benchmark, scaling_recorder):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # shape check only
    times = {x: y for x, y, _n in scaling_recorder.rows}
    assert len(times) == len(WORKER_COUNTS)
    # monotone-ish decrease with a real gain at 10 workers; the paper's
    # panel shows ~1.5× from 1 → 10 nodes
    assert times[10] < times[1] / 1.3
    # diminishing returns: nowhere near perfectly linear speedup
    assert times[10] > times[1] / 10.0


# ----------------------------------------------------------------------
# adaptive broadcast vs forced shuffle (BENCH_fig3.json)
# ----------------------------------------------------------------------

def test_fig3_broadcast_vs_shuffle_speedup(benchmark):
    """With the lookup side under the broadcast threshold, the
    adaptively selected broadcast-hash join must beat the forced
    shuffle path by >= 1.5x wall-clock; the run (timings + chosen
    strategies + ExecutionReport evidence) lands in
    ``benchmarks/results/BENCH_fig3.json``."""
    import harness

    payload = benchmark.pedantic(
        harness.run_comparison,
        kwargs=dict(row_counts=[80_000], repeats=3),
        rounds=1, iterations=1,
    )
    harness.write_json(payload)
    assert harness.check_smoke(payload) == []

    adaptive = next(
        r for r in payload["runs"] if r["mode"] == "adaptive"
    )
    forced = next(
        r for r in payload["runs"] if r["mode"] == "forced-shuffle"
    )
    speedup = forced["wall_seconds"] / adaptive["wall_seconds"]
    print(
        f"\nadaptive (broadcast): {adaptive['wall_seconds']:.4f} s"
        f"\nforced shuffle:       {forced['wall_seconds']:.4f} s"
        f"\nspeedup:              {speedup:.2f}x"
    )
    benchmark.extra_info["adaptive_s"] = adaptive["wall_seconds"]
    benchmark.extra_info["shuffle_s"] = forced["wall_seconds"]
    benchmark.extra_info["speedup"] = speedup

    # the optimizer must have *chosen* broadcast from statistics
    assert adaptive["join_strategy"] == "broadcast"
    assert adaptive["strategy_adaptive"] is True
    assert forced["join_strategy"] == "shuffle"
    # the shuffle actually moved data; the broadcast path moved none
    assert forced["shuffled_pairs"] > 0
    assert adaptive["shuffled_pairs"] == 0
    assert speedup >= 1.5
