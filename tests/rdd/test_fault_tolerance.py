"""Fault tolerance: task retry and seeded task kills.

The acceptance contract: with task kills injected on a seeded
schedule, every RDD op still produces results identical to a clean
serial run (retry replays deterministic tasks exactly).
"""

from __future__ import annotations

import operator

import pytest

from repro.errors import (
    ExecutorError,
    FatalTaskError,
    TaskError,
    TransientTaskError,
)
from repro.rdd import SJContext
from repro.rdd.executors import (
    FaultInjectingExecutor,
    SerialExecutor,
    SimulatedClusterExecutor,
)
from repro.rdd.fault import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    no_retry_policy,
    run_task_with_retry,
)

FAST = dict(backoff_base=0.0)  # retries without real sleeping


# ----------------------------------------------------------------------
# RetryPolicy and the task runner
# ----------------------------------------------------------------------

def test_backoff_is_exponential_and_capped():
    p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, max_backoff=0.3)
    assert [p.backoff(k) for k in (1, 2, 3, 4)] == [0.1, 0.2, 0.3, 0.3]


def test_policy_rejects_zero_budgets():
    with pytest.raises(ValueError):
        RetryPolicy(max_task_attempts=0)


def test_transient_failure_retried_until_success():
    sleeps = []
    p = RetryPolicy(max_task_attempts=4, backoff_base=0.1,
                    sleep=sleeps.append)
    calls = []

    def flaky(index, items):
        calls.append(index)
        if len(calls) < 3:
            raise TransientTaskError("flaky")
        return [x + 1 for x in items]

    assert run_task_with_retry(flaky, 0, [1, 2], p) == [2, 3]
    assert len(calls) == 3
    assert sleeps == [p.backoff(1), p.backoff(2)]  # backoff between tries


def test_deterministic_failure_not_retried():
    calls = []

    def bad(index, items):
        calls.append(index)
        raise ValueError("deterministic application bug")

    with pytest.raises(ValueError) as ei:
        run_task_with_retry(bad, 3, [], RetryPolicy(**FAST))
    assert len(calls) == 1  # retrying a deterministic error is futile
    assert ei.value.partition_index == 3  # chained task position


def test_exhausted_budget_raises_fatal_with_taxonomy():
    p = RetryPolicy(max_task_attempts=2, **FAST)

    def always_flaky(index, items):
        raise TransientTaskError("the environment hates you")

    with pytest.raises(FatalTaskError) as ei:
        run_task_with_retry(always_flaky, 5, [], p)
    err = ei.value
    assert err.partition_index == 5 and err.task_index == 5
    assert err.attempts == 2
    assert isinstance(err.__cause__, TransientTaskError)
    assert isinstance(err, TaskError) and isinstance(err, ExecutorError)


def test_task_error_attributes_survive_pickling():
    import pickle

    err = FatalTaskError("gone", task_index=1, partition_index=2, attempts=3)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is FatalTaskError
    assert (back.task_index, back.partition_index, back.attempts) == (1, 2, 3)


# ----------------------------------------------------------------------
# FaultInjectingExecutor: seeded task kills leave results unchanged
# ----------------------------------------------------------------------

DATA = list(range(60))
PAIRS = [(i % 7, i) for i in range(60)]


def _invariant_ops(ctx):
    """The RDD ops of the invariants suite, as comparable values."""
    add = operator.add
    pairs = ctx.parallelize(PAIRS, 5)
    other = ctx.parallelize([(k, k * 100) for k in range(7)], 3)
    return {
        "map": ctx.parallelize(DATA, 5).map(lambda x: x * 2).collect(),
        "filter": ctx.parallelize(DATA, 5).filter(lambda x: x % 3).collect(),
        "flatMap": ctx.parallelize(DATA[:10], 3)
                      .flatMap(lambda x: [x, -x]).collect(),
        "groupByKey": sorted(
            (k, tuple(v)) for k, v in pairs.groupByKey().collect()
        ),
        "aggregateByKey": sorted(
            pairs.aggregateByKey(0, add, add).collect()
        ),
        "join": sorted(pairs.join(other).collect()),
        "adaptiveJoin": sorted(pairs.adaptiveJoin(other).collect()),
        "union": ctx.union([
            ctx.parallelize(DATA[:5], 2), ctx.parallelize(DATA[5:10], 2),
        ]).collect(),
        "count": ctx.parallelize(DATA, 5).count(),
        "aggregate": ctx.parallelize(DATA, 5).aggregate(0, add, add),
        "take": ctx.parallelize(DATA, 5).take(7),
    }


@pytest.fixture(scope="module")
def serial_expected():
    with SJContext(executor="serial", default_parallelism=4) as ctx:
        return _invariant_ops(ctx)


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_kill_one_task_per_stage_matches_serial(serial_expected, seed):
    inj = FaultInjectingExecutor(
        SerialExecutor(RetryPolicy(**FAST)),
        seed=seed,
        kill_tasks_per_stage=1,
    )
    with SJContext(executor=inj, default_parallelism=4) as ctx:
        got = _invariant_ops(ctx)
    assert got == serial_expected
    assert inj.injected_task_faults > 0  # the schedule actually fired


def test_kill_under_simulated_cluster_matches_serial(serial_expected):
    inj = FaultInjectingExecutor(
        SimulatedClusterExecutor(2, RetryPolicy(**FAST)),
        seed=7,
        kill_tasks_per_stage=1,
    )
    with SJContext(executor=inj, default_parallelism=4) as ctx:
        got = _invariant_ops(ctx)
    assert got == serial_expected
    assert inj.injected_task_faults > 0
    assert inj.inner.simulated_elapsed > 0


def test_fault_schedule_is_deterministic():
    def run():
        inj = FaultInjectingExecutor(
            SerialExecutor(RetryPolicy(**FAST)), seed=5,
            kill_tasks_per_stage=2,
        )
        with SJContext(executor=inj, default_parallelism=4) as ctx:
            ctx.parallelize(PAIRS, 5).aggregateByKey(
                0, operator.add, operator.add
            ).collect()
        return inj.injected_task_faults

    assert run() == run() > 0


def test_injected_faults_outlasting_budget_become_fatal():
    inj = FaultInjectingExecutor(
        SerialExecutor(RetryPolicy(max_task_attempts=2, **FAST)),
        kill_tasks_per_stage=1,
        faults_per_task=99,  # fault on every attempt
    )
    with SJContext(executor=inj, default_parallelism=4) as ctx:
        with pytest.raises(FatalTaskError) as ei:
            ctx.parallelize(DATA, 4).map(lambda x: x).collect()
    assert ei.value.attempts == 2
    assert ei.value.partition_index is not None


# ----------------------------------------------------------------------
# retry disabled = seed behaviour; misc integration
# ----------------------------------------------------------------------

def test_no_retry_policy_propagates_transient_errors():
    inj = FaultInjectingExecutor(
        SerialExecutor(no_retry_policy()), kill_tasks_per_stage=1
    )
    with SJContext(executor=inj, default_parallelism=2) as ctx:
        with pytest.raises(TransientTaskError):
            ctx.parallelize(DATA, 2).map(lambda x: x).collect()


def test_retry_does_not_mask_deterministic_failures():
    class Boom(RuntimeError):
        pass

    def explode(x):
        if x == 4:
            raise Boom("poisoned element 4")
        return x

    with SJContext(executor="serial", default_parallelism=2) as ctx:
        with pytest.raises(Boom, match="poisoned element 4") as ei:
            ctx.parallelize(range(10), 2).map(explode).collect()
    assert getattr(ei.value, "partition_index", None) is not None


def test_executor_instance_accepted_by_context_and_session():
    from repro import ScrubJaySession

    inj = FaultInjectingExecutor(SerialExecutor(), kill_tasks_per_stage=1)
    with ScrubJaySession(executor=inj) as sj:
        assert sj.ctx.executor is inj
    with pytest.raises(Exception, match="ctx or executor"):
        ScrubJaySession(ctx=SJContext(), executor="serial")


def test_fault_injector_reset_restarts_schedule():
    inj = FaultInjectingExecutor(
        SerialExecutor(RetryPolicy(**FAST)), seed=3, kill_tasks_per_stage=1
    )
    with SJContext(executor=inj, default_parallelism=2) as ctx:
        ctx.parallelize(DATA, 2).map(lambda x: x).collect()
        first = inj.injected_task_faults
        inj.reset()
        ctx.parallelize(DATA, 2).map(lambda x: x).collect()
    assert inj.injected_task_faults == first > 0


def test_default_policy_adds_retry_wrapper_and_noop_otherwise():
    from repro.rdd.fault import make_retrying_task

    def fn(i, items):
        return items

    assert make_retrying_task(fn, no_retry_policy()) is fn
    assert make_retrying_task(fn, DEFAULT_RETRY_POLICY) is not fn
