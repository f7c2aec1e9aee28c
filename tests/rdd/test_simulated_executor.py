"""SimulatedClusterExecutor: correctness and timing-model properties."""

import operator

import pytest

from repro.rdd import SJContext, SimulatedClusterExecutor
from repro.rdd.executors import make_executor
from repro.rdd.partition import Partition


def test_results_identical_to_serial():
    data = list(range(500))
    with SJContext(executor="serial") as s, \
            SJContext(executor="simulated", num_workers=4) as sim:
        serial = (s.parallelize(data, 8)
                  .map(lambda x: (x % 7, x))
                  .aggregateByKey(0, operator.add, operator.add)
                  .collect())
        simulated = (sim.parallelize(data, 8)
                     .map(lambda x: (x % 7, x))
                     .aggregateByKey(0, operator.add, operator.add)
                     .collect())
    assert sorted(serial) == sorted(simulated)


def test_simulated_elapsed_accumulates():
    ex = SimulatedClusterExecutor(num_workers=2)
    parts = [Partition(i, list(range(1000))) for i in range(4)]
    ex.run_partition_tasks(lambda _i, items: [sum(items)], parts)
    assert ex.simulated_elapsed > 0.0
    before = ex.simulated_elapsed
    ex.run_partition_tasks(lambda _i, items: items, parts)
    assert ex.simulated_elapsed > before


def test_reset_clears_clock():
    ex = SimulatedClusterExecutor(num_workers=2)
    parts = [Partition(0, [1, 2, 3])]
    ex.run_partition_tasks(lambda _i, items: items, parts)
    ex.reset()
    assert ex.simulated_elapsed == 0.0


def test_more_workers_never_slower_within_one_stage():
    """For a single stage of equal tasks, the LPT critical path is
    non-increasing in workers (the stage part is max-load; no driver
    gap is involved on the first stage)."""

    def burn(_i, items):
        total = 0.0
        for x in items:
            total += x ** 0.5
        return [total]

    parts = [Partition(i, list(range(20000))) for i in range(8)]
    elapsed = {}
    for w in (1, 2, 4, 8):
        ex = SimulatedClusterExecutor(num_workers=w)
        ex.run_partition_tasks(burn, parts)
        elapsed[w] = ex.simulated_elapsed
    # allow small measurement noise between runs
    assert elapsed[8] < elapsed[1] * 0.6
    assert elapsed[2] < elapsed[1] * 1.1


def test_empty_stage_costs_nothing():
    ex = SimulatedClusterExecutor(num_workers=4)
    out = ex.run_partition_tasks(lambda _i, items: items, [])
    assert out == []
    assert ex.simulated_elapsed == 0.0


def test_make_executor_builds_simulated():
    ex = make_executor("simulated", 5)
    assert isinstance(ex, SimulatedClusterExecutor)
    assert ex.num_workers == 5


def test_think_time_between_jobs_not_charged():
    # Regression: _last_return survived across jobs, so any driver
    # think-time between two actions was billed as shuffle-exchange
    # time of the later job.
    import time

    ex = SimulatedClusterExecutor(num_workers=2)
    with SJContext(executor=ex, default_parallelism=4) as ctx:
        ctx.parallelize(range(100), 4).map(lambda x: x + 1).collect()
        after_first = ex.simulated_elapsed
        time.sleep(0.3)  # analyst reads the first result...
        ctx.parallelize(range(100), 4).map(lambda x: x + 1).collect()
        delta = ex.simulated_elapsed - after_first
    assert delta < 0.25, (
        f"driver think-time leaked into the simulated clock: {delta:.3f}s"
    )
