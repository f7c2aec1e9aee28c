"""Figure 3 (bottom row): Interpolation Join scaling.

Paper: the windowed join costs roughly an order of magnitude more
than the natural join at equal rows, grows linearly in rows (left
panel), and strong-scales with diminishing returns from 1 to 10 nodes
at 16M rows (right panel). Scaled here to 5k–40k left rows with a
2-second window over per-node sample streams, on the simulated cluster
(single-core machine; see bench_fig3_natural_join for the timing
model).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from repro import SJContext, ScrubJayDataset, default_dictionary
from repro.core.combinations import InterpolationJoin, NaturalJoin
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    TIMED_LEFT_SCHEMA,
    TIMED_RIGHT_SCHEMA,
    keyed_tables,
    timed_tables,
)
from repro.rdd.stats import AdaptiveConfig

ROW_COUNTS = [5_000, 10_000, 20_000, 40_000]
WORKER_COUNTS = [1, 2, 4, 8, 10]
STRONG_SCALING_ROWS = 40_000
WINDOW = 2.0
PARTITIONS = 20
ROUNDS = 3

_DICT = default_dictionary()


@pytest.fixture(scope="module")
def tables():
    # per-size generation keeps the same per-key sample density
    return {n: timed_tables(n, num_keys=64) for n in ROW_COUNTS}


@pytest.fixture(scope="module")
def rows_recorder(recorder_factory):
    return recorder_factory("fig3c_interp_join_rows", "rows", "sim_seconds")


@pytest.fixture(scope="module")
def scaling_recorder(recorder_factory):
    return recorder_factory(
        "fig3d_interp_join_strong_scaling", "workers", "sim_seconds"
    )


@contextmanager
def _frozen_heap():
    """Keep the module's input tables (~300k objects) out of the cyclic
    GC while a join runs: a full collection walks them all, and one
    landing inside a ~10 ms stage would outweigh the join itself."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _run_join(workers, left_rows, right_rows):
    # broadcast_threshold_rows=0 pins the exact-key shuffle path these panels
    # measure; the adaptive broadcast is covered by its own tests. The
    # simulated cluster reduces in default_parallelism = PARTITIONS tasks.
    with _frozen_heap(), SJContext(
        executor="simulated", num_workers=workers,
        default_parallelism=PARTITIONS,
        adaptive=AdaptiveConfig(broadcast_threshold_rows=0),
    ) as ctx:
        left = ScrubJayDataset.from_rows(
            ctx, left_rows, TIMED_LEFT_SCHEMA, "left", PARTITIONS
        )
        right = ScrubJayDataset.from_rows(
            ctx, right_rows, TIMED_RIGHT_SCHEMA, "right", PARTITIONS
        )
        ctx.executor.reset()
        count = InterpolationJoin(WINDOW).apply(left, right, _DICT).count()
        return ctx.executor.simulated_elapsed, count


@pytest.mark.parametrize("num_rows", ROW_COUNTS)
def test_fig3c_time_vs_rows(benchmark, tables, rows_recorder, num_rows):
    left, right = tables[num_rows]
    # The paper's Spark ran a fixed partition count, so each node's
    # share grew with the rows; the simulated cluster's reduce side is
    # PARTITIONS tasks at every row count, the same decomposition.
    # A warm-up round: the smallest point's join takes a few ms, so
    # its first run's cold start would decide the linearity check.
    sim_s, count = benchmark.pedantic(
        _run_join, args=(10, left, right), rounds=1, iterations=1,
        warmup_rounds=1,
    )
    # the generator guarantees every left row a right sample in-window
    assert count == len(left)
    benchmark.extra_info["sim_seconds"] = sim_s
    rows_recorder.add(num_rows, sim_s, "10 workers (simulated)")


def test_fig3c_shape_is_linear(benchmark, rows_recorder, shape):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # shape check only
    xs = [x for x, _y, _n in rows_recorder.rows]
    ys = [y for _x, y, _n in rows_recorder.rows]
    assert len(xs) == len(ROW_COUNTS)
    shape.assert_roughly_linear(xs, ys)


def test_fig3c_costlier_than_natural_join(benchmark, tables,
                                          recorder_factory):
    """The paper's panels put the interpolation join roughly an order
    of magnitude above the natural join at equal row counts. That gap
    is not reproduced (EXPERIMENTS.md): both joins here shuffle each
    row once by its exact key, so what the windowed join adds is only
    a per-key sort by time, a bisect per left row and the value
    attachment. Demand the shape that still follows from the
    algorithm: the windowed join costs more."""
    from repro.util import Timer

    n = 20_000

    def best_of(join, left, right):
        # one-shot wall-clocks of ~0.1 s swing by more than the gap
        best = float("inf")
        for _ in range(ROUNDS):
            with Timer() as t:
                join.apply(left, right, _DICT).count()
            best = min(best, t.elapsed)
        return best

    def compare():
        kl, kr = keyed_tables(n, num_keys=64)
        # same execution strategy for both joins: broadcast off, so the
        # comparison measures the algorithms, not the optimizer
        with _frozen_heap(), \
                SJContext(executor="serial", adaptive=AdaptiveConfig(
                    broadcast_threshold_rows=0)) as ctx:
            left = ScrubJayDataset.from_rows(ctx, kl, KEYED_LEFT_SCHEMA, "l")
            right = ScrubJayDataset.from_rows(ctx, kr, KEYED_RIGHT_SCHEMA, "r")
            tl, tr = tables[n]
            ileft = ScrubJayDataset.from_rows(ctx, tl, TIMED_LEFT_SCHEMA, "l")
            iright = ScrubJayDataset.from_rows(
                ctx, tr, TIMED_RIGHT_SCHEMA, "r"
            )
            return (best_of(NaturalJoin(), left, right),
                    best_of(InterpolationJoin(WINDOW), ileft, iright))

    natural_s, interp_s = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["natural_s"] = natural_s
    benchmark.extra_info["interp_s"] = interp_s
    recorder = recorder_factory("fig3c_interp_vs_natural", "rows", "seconds")
    recorder.add(n, natural_s, "natural join")
    recorder.add(n, interp_s,
                 f"interpolation join ({interp_s / natural_s:.2f}x)")
    assert interp_s > natural_s


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fig3d_strong_scaling(benchmark, tables, scaling_recorder, workers):
    left, right = tables[STRONG_SCALING_ROWS]
    sim_s, count = benchmark.pedantic(
        _run_join, args=(workers, left, right), rounds=1, iterations=1
    )
    assert count == len(left)
    benchmark.extra_info["sim_seconds"] = sim_s
    scaling_recorder.add(workers, sim_s, f"{STRONG_SCALING_ROWS} rows")


def test_fig3d_shape_speedup(benchmark, scaling_recorder):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # shape check only
    times = {x: y for x, y, _n in scaling_recorder.rows}
    assert len(times) == len(WORKER_COUNTS)
    # the paper's panel: ~240 s at 1 node to ~95 s at 10 (≈2.5×)
    assert times[10] < times[1] / 1.3
    assert times[10] > times[1] / 10.0
