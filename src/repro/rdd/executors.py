"""Task executors: the simulated cluster.

The paper runs Spark over 10 worker nodes with 32 cores each. Here a
task always runs in the driver's interpreter, on the calling thread;
the executors differ only in what they record around it and in how
many reduce buckets a shuffle gets (:meth:`Executor.reduce_partitions`):

- :class:`SerialExecutor` — runs tasks in order, one reduce bucket per
  shuffle. The default: deterministic, zero overhead.
- :class:`SimulatedClusterExecutor` — serial execution with a
  deterministic cluster-timing model for the strong-scaling studies
  (Fig 3b/3d); a shuffle has ``default_parallelism`` buckets.

Real thread and process pools were measured on ``paper_derive`` at two
workers and gave no gain over serial (EXPERIMENTS.md), so none exists.

All executors implement one method, :meth:`Executor.run_partition_tasks`,
which applies ``fn(index, items) -> items`` to every partition and
returns the transformed partitions in input order. A task runs once:
its exception is the stage's answer, re-raised with its class
unchanged and its partition index attached (see DESIGN.md, "Failure
semantics").
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional

from repro.errors import ExecutorError
from repro.rdd.partition import Partition

PartitionFunc = Callable[[int, List[Any]], List[Any]]


def _annotate(exc: BaseException, index: int) -> None:
    """Chain the task's partition index into an exception in place,
    without changing its type (callers match on the original class)."""
    try:
        exc.partition_index = index  # type: ignore[attr-defined]
        exc.add_note(f"[repro.rdd] task for partition {index} failed")
    except Exception:  # pragma: no cover - exotic exception classes
        pass


def _run_task(fn: PartitionFunc, index: int, items: List[Any]) -> List[Any]:
    """Run one partition task, once; its exception is the answer."""
    try:
        return fn(index, items)
    except Exception as exc:
        _annotate(exc, index)
        raise


class Executor(ABC):
    """Runs one task per partition and collects results in order."""

    #: number of simulated cluster nodes (1 for the serial executor)
    num_workers: int = 1
    #: the reduce-partition rule, named on every shuffle decision
    reduce_rule: str = "one-bucket"

    @abstractmethod
    def run_partition_tasks(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        """Apply ``fn`` to every partition, returning new partitions."""

    def job_boundary(self) -> None:
        """Called by the scheduler when a new job (action) starts.

        Lets stateful executors drop cross-job state — e.g. the
        simulated-cluster executor stops charging driver think-time
        between two separate actions as shuffle-exchange time.
        """

    def reduce_partitions(self, default_parallelism: int) -> int:
        """Reduce buckets per shuffle. Tasks run one after another in
        the driver, so more than one bucket buys no parallelism: a
        shuffle is one dict group-by that hashes nothing."""
        return 1


class SerialExecutor(Executor):
    """Run all tasks sequentially in the driver process."""

    num_workers = 1

    def run_partition_tasks(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        return [
            Partition(p.index, _run_task(fn, p.index, p.data))
            for p in partitions
        ]


class SimulatedClusterExecutor(Executor):
    """Deterministic cluster-timing simulation in the driver.

    Strong-scaling studies use this executor: every task runs serially
    and is *timed*, then the stage's wall-clock on an
    ``num_workers``-node cluster is modelled as the critical path of a
    longest-processing-time assignment of tasks to workers. Time the
    driver spends *between* stages — the shuffle exchange — is charged
    serially, so scaling stays Amdahl-limited exactly like the
    shuffle-bound joins in the paper's Figure 3. Time between *jobs*
    (driver think-time between two actions) is not charged: the
    scheduler calls :meth:`job_boundary` when an action starts, which
    drops the previous stage's end mark.

    A shuffle has ``default_parallelism`` reduce buckets, the tasks
    the model spreads over the workers.

    Read :attr:`simulated_elapsed` after the job; call :meth:`reset`
    before starting a measurement.
    """

    reduce_rule = "cluster-parallelism"

    def __init__(self, num_workers: Optional[int] = None) -> None:
        self.num_workers = num_workers or 1
        self.simulated_elapsed = 0.0
        self._last_return: Optional[float] = None

    def reset(self) -> None:
        self.simulated_elapsed = 0.0
        self._last_return = None

    def job_boundary(self) -> None:
        # think-time between two actions is not shuffle-exchange time
        self._last_return = None

    def reduce_partitions(self, default_parallelism: int) -> int:
        return default_parallelism

    def run_partition_tasks(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        now = time.perf_counter()
        if self._last_return is not None:
            # driver-side (serial) time since the previous stage ended:
            # shuffle regroup, lineage walking, result handling
            self.simulated_elapsed += now - self._last_return
        durations: List[float] = []
        out: List[Partition] = []
        for p in partitions:
            t0 = time.perf_counter()
            data = _run_task(fn, p.index, p.data)
            durations.append(time.perf_counter() - t0)
            out.append(Partition(p.index, data))
        # LPT list scheduling onto the simulated workers
        loads = [0.0] * self.num_workers
        for d in sorted(durations, reverse=True):
            loads[loads.index(min(loads))] += d
        self.simulated_elapsed += max(loads) if durations else 0.0
        self._last_return = time.perf_counter()
        return out


_EXECUTOR_KINDS = {
    "serial": SerialExecutor,
    "simulated": SimulatedClusterExecutor,
}


def make_executor(kind: str, num_workers: Optional[int] = None) -> Executor:
    """Build an executor by name: ``serial`` or ``simulated``."""
    try:
        cls = _EXECUTOR_KINDS[kind]
    except KeyError:
        raise ExecutorError(
            f"unknown executor kind {kind!r}; expected one of "
            f"{sorted(_EXECUTOR_KINDS)}"
        ) from None
    if cls is SerialExecutor:
        return cls()
    return cls(num_workers)
