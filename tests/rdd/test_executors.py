"""Executor behaviour: both kinds, ordering, errors."""

import pytest

from repro.errors import ExecutorError
from repro.rdd.executors import SerialExecutor, make_executor
from repro.rdd.partition import Partition


def _parts(n=4, size=5):
    return [Partition(i, list(range(i * size, (i + 1) * size)))
            for i in range(n)]


@pytest.mark.parametrize("kind", ["serial", "simulated"])
def test_run_partition_tasks_applies_fn_in_order(kind):
    ex = make_executor(kind, 2)
    out = ex.run_partition_tasks(
        lambda i, items: [x * 10 + i for x in items], _parts()
    )
    assert [p.index for p in out] == [0, 1, 2, 3]
    assert out[1].data == [x * 10 + 1 for x in range(5, 10)]


@pytest.mark.parametrize("kind", ["serial", "simulated"])
def test_closures_over_local_state(kind):
    ex = make_executor(kind, 2)
    offset = 100
    out = ex.run_partition_tasks(
        lambda _i, items: [x + offset for x in items], _parts(2, 2)
    )
    assert out[0].data == [100, 101]


def test_make_executor_rejects_unknown_kind():
    with pytest.raises(ExecutorError):
        make_executor("gpu")
    with pytest.raises(ExecutorError):
        make_executor("processes")


def test_serial_executor_reports_one_worker():
    assert SerialExecutor().num_workers == 1


@pytest.mark.parametrize("kind", ["serial", "simulated"])
def test_task_exception_propagates(kind):
    ex = make_executor(kind, 2)

    def boom(_i, _items):
        raise RuntimeError("task failed")

    with pytest.raises(RuntimeError, match="task failed") as ei:
        ex.run_partition_tasks(boom, _parts(2, 2))
    assert ei.value.partition_index == 0  # failing task identified
