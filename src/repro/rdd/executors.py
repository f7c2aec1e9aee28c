"""Task executors: the simulated cluster.

The paper runs Spark over 10 worker nodes with 32 cores each. Here a
task always runs in the driver's interpreter, on the calling thread;
the executors differ only in what they record around it:

- :class:`SerialExecutor` — runs tasks in order. The default:
  deterministic, zero overhead.
- :class:`SimulatedClusterExecutor` — serial execution with a
  deterministic cluster-timing model for the strong-scaling studies
  (Fig 3b/3d).
- :class:`FaultInjectingExecutor` — wraps either of the above and
  kills tasks on a seeded deterministic schedule, so the per-task
  retry path is testable in CI.

Real thread and process pools were measured on ``paper_derive`` at two
workers and gave no gain over serial (EXPERIMENTS.md), so none exists.

All executors implement one method, :meth:`Executor.run_partition_tasks`,
which applies ``fn(index, items) -> items`` to every partition and
returns the transformed partitions in input order. Every executor runs
its tasks through the retry runner in :mod:`repro.rdd.fault`, so
transient task failures are retried in place with exponential backoff
(see DESIGN.md, "Failure semantics").
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional

from repro.errors import ExecutorError, TransientTaskError
from repro.rdd.fault import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    make_retrying_task,
)
from repro.rdd.partition import Partition

PartitionFunc = Callable[[int, List[Any]], List[Any]]


class Executor(ABC):
    """Runs one task per partition and collects results in order."""

    #: number of simulated cluster nodes (1 for the serial executor)
    num_workers: int = 1

    #: per-task retry budget and backoff
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY

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


class SerialExecutor(Executor):
    """Run all tasks sequentially in the driver process."""

    num_workers = 1

    def __init__(self, retry_policy: Optional[RetryPolicy] = None) -> None:
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY

    def run_partition_tasks(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        task = make_retrying_task(fn, self.retry_policy)
        return [Partition(p.index, task(p.index, p.data)) for p in partitions]


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

    Read :attr:`simulated_elapsed` after the job; call :meth:`reset`
    before starting a measurement.
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.num_workers = num_workers or 1
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.simulated_elapsed = 0.0
        self._last_return: Optional[float] = None

    def reset(self) -> None:
        self.simulated_elapsed = 0.0
        self._last_return = None

    def job_boundary(self) -> None:
        # think-time between two actions is not shuffle-exchange time
        self._last_return = None

    def run_partition_tasks(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        task = make_retrying_task(fn, self.retry_policy)
        now = time.perf_counter()
        if self._last_return is not None:
            # driver-side (serial) time since the previous stage ended:
            # shuffle regroup, lineage walking, result handling
            self.simulated_elapsed += now - self._last_return
        durations: List[float] = []
        out: List[Partition] = []
        for p in partitions:
            t0 = time.perf_counter()
            data = task(p.index, p.data)
            durations.append(time.perf_counter() - t0)
            out.append(Partition(p.index, data))
        # LPT list scheduling onto the simulated workers
        loads = [0.0] * self.num_workers
        for d in sorted(durations, reverse=True):
            loads[loads.index(min(loads))] += d
        self.simulated_elapsed += max(loads) if durations else 0.0
        self._last_return = time.perf_counter()
        return out


class FaultInjectingExecutor(Executor):
    """Deterministic task kills around any executor, for testing.

    Wraps an inner executor and, on a schedule derived purely from
    ``seed`` and the logical stage number, picks
    ``kill_tasks_per_stage`` victim tasks per stage. A victim raises
    :class:`~repro.errors.TransientTaskError` on its first
    ``faults_per_task`` attempts (simulating a worker killed mid-task
    and the task being re-queued), then succeeds, which exercises the
    per-task retry path end to end.

    The schedule is deterministic: the same seed and the same sequence
    of stages produce the same faults, so failing runs replay exactly.
    Per-(stage, task) attempt counts live in a closure created per
    stage, so retries within one stage see them.
    """

    def __init__(
        self,
        inner: Executor,
        seed: int = 0,
        kill_tasks_per_stage: int = 0,
        faults_per_task: int = 1,
    ) -> None:
        self.inner = inner
        self.seed = seed
        self.kill_tasks_per_stage = kill_tasks_per_stage
        self.faults_per_task = faults_per_task
        self._completed_stages = 0
        self.injected_task_faults = 0

    # -- delegation ----------------------------------------------------

    @property
    def num_workers(self) -> int:  # type: ignore[override]
        return self.inner.num_workers

    @property
    def retry_policy(self) -> RetryPolicy:  # type: ignore[override]
        return self.inner.retry_policy

    @retry_policy.setter
    def retry_policy(self, policy: RetryPolicy) -> None:
        self.inner.retry_policy = policy

    def job_boundary(self) -> None:
        self.inner.job_boundary()

    def reset(self) -> None:
        """Restart the fault schedule (e.g. between test cases)."""
        self._completed_stages = 0
        self.injected_task_faults = 0

    # -- injection -----------------------------------------------------

    def run_partition_tasks(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        stage = self._completed_stages
        out = self.inner.run_partition_tasks(
            self._wrap(fn, stage, len(partitions)), partitions
        )
        self._completed_stages += 1
        return out

    def _wrap(
        self, fn: PartitionFunc, stage: int, num_tasks: int
    ) -> PartitionFunc:
        if not (self.kill_tasks_per_stage and num_tasks):
            return fn
        rng = random.Random(self.seed * 1_000_003 + stage)
        victims = frozenset(
            rng.sample(
                range(num_tasks), min(self.kill_tasks_per_stage, num_tasks)
            )
        )
        attempts: dict = {}
        faults_per_task = self.faults_per_task
        injector = self

        def faulty(index: int, items: List[Any]) -> List[Any]:
            if index in victims:
                attempt = attempts.get(index, 0) + 1
                attempts[index] = attempt
                if attempt <= faults_per_task:
                    injector.injected_task_faults += 1
                    raise TransientTaskError(
                        f"injected task kill: stage {stage}, task {index},"
                        f" attempt {attempt}",
                        task_index=index,
                        partition_index=index,
                        attempts=attempt,
                    )
            return fn(index, items)

        return faulty


_EXECUTOR_KINDS = {
    "serial": SerialExecutor,
    "simulated": SimulatedClusterExecutor,
}


def make_executor(
    kind: str,
    num_workers: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> Executor:
    """Build an executor by name: ``serial`` or ``simulated``."""
    try:
        cls = _EXECUTOR_KINDS[kind]
    except KeyError:
        raise ExecutorError(
            f"unknown executor kind {kind!r}; expected one of "
            f"{sorted(_EXECUTOR_KINDS)}"
        ) from None
    if cls is SerialExecutor:
        return cls(retry_policy)
    return cls(num_workers, retry_policy)
