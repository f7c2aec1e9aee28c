"""Task executors: the simulated cluster.

The paper runs Spark over 10 worker nodes with 32 cores each. Here a
single machine stands in, with interchangeable executors:

- :class:`SerialExecutor` — runs tasks in the driver, in order. The
  default: deterministic, zero overhead, ideal for tests.
- :class:`ThreadExecutor` — a thread pool. Python's GIL limits it for
  pure-Python work, but it exercises concurrent scheduling.
- :class:`ProcessExecutor` — a process pool; each worker process plays
  the role of a cluster node. Closures are shipped with cloudpickle
  (lambdas and nested functions are first-class in ScrubJay pipelines,
  which the stdlib pickler cannot serialize), partition data with the
  stdlib pickler.
- :class:`SimulatedClusterExecutor` — serial execution with a
  deterministic cluster-timing model for strong-scaling studies on
  one core.
- :class:`FaultInjectingExecutor` — wraps any of the above and
  kills/delays/fails tasks (or whole pools) on a seeded deterministic
  schedule, so the fault-tolerance machinery is testable in CI.

All executors implement one method, :meth:`Executor.run_partition_tasks`,
which applies ``fn(index, items) -> items`` to every partition and
returns the transformed partitions in input order.

Failure semantics (see DESIGN.md, "Failure semantics"): every executor
runs its tasks through the retry runner in :mod:`repro.rdd.fault`, so
transient task failures are retried in place with exponential backoff.
A whole-pool death surfaces as :class:`~repro.errors.WorkerPoolError`,
which the scheduler recovers from by replaying the stage from its
lineage inputs; after ``RetryPolicy.degrade_after_pool_deaths``
consecutive deaths the process executor degrades to serial in-driver
execution instead of failing the job.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import logging
import os
import random
import threading
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Collection, List, Optional

import cloudpickle

from repro.errors import (
    ExecutorError,
    TransientTaskError,
    WorkerPoolError,
)
from repro.rdd.fault import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    make_retrying_task,
)
from repro.rdd.partition import Partition

PartitionFunc = Callable[[int, List[Any]], List[Any]]

logger = logging.getLogger("repro.rdd.executors")

_BrokenProcessPool = concurrent.futures.process.BrokenProcessPool


class Executor(ABC):
    """Runs one task per partition and collects results in order."""

    #: number of simulated cluster nodes (1 for the serial executor)
    num_workers: int = 1

    #: retry/replay budgets; shared with the scheduler for stage replay
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY

    #: True when tasks run in separate interpreters, so shuffle keys
    #: must hash identically across processes (see repro.rdd.shuffle)
    portable_hash_required: bool = False

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

    def shutdown(self) -> None:
        """Release any worker resources. Idempotent."""


def _chain_partition_index(exc: BaseException, index: int) -> None:
    """Attach the failing task's partition index to an exception
    without changing its type (callers match on the original class)."""
    if getattr(exc, "partition_index", None) is None:
        try:
            exc.partition_index = index  # type: ignore[attr-defined]
            exc.add_note(f"[repro.rdd] raised by task for partition {index}")
        except Exception:  # pragma: no cover - exotic exception classes
            pass


def _collect_in_order(
    futures: List[concurrent.futures.Future],
    partitions: List[Partition],
) -> List[List[Any]]:
    """Gather future results in submission (partition) order.

    On the first failure, outstanding futures are cancelled so a dead
    stage stops consuming workers, and the failure from the
    lowest-indexed partition is raised with that index chained in —
    later tasks' exceptions are never silently dropped in favour of a
    submission-order wait. A broken process pool is re-raised as-is for
    the caller to translate into :class:`WorkerPoolError`.
    """
    done, not_done = concurrent.futures.wait(
        futures, return_when=concurrent.futures.FIRST_EXCEPTION
    )
    failures = []
    broken: Optional[BaseException] = None
    for p, f in zip(partitions, futures):
        if f in done and not f.cancelled():
            exc = f.exception()
            if exc is None:
                continue
            if isinstance(exc, _BrokenProcessPool):
                broken = exc
            else:
                failures.append((p.index, exc))
    if failures:
        for f in not_done:
            f.cancel()
        index, exc = min(failures, key=lambda pair: pair[0])
        _chain_partition_index(exc, index)
        raise exc
    if broken is not None:
        raise broken
    return [f.result() for f in futures]


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


class ThreadExecutor(Executor):
    """Run tasks on a shared thread pool."""

    def __init__(
        self,
        num_workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.num_workers = num_workers or min(8, os.cpu_count() or 1)
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.num_workers, thread_name_prefix="sj-worker"
        )

    def run_partition_tasks(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        task = make_retrying_task(fn, self.retry_policy)
        futures = [
            self._pool.submit(task, p.index, p.data) for p in partitions
        ]
        results = _collect_in_order(futures, partitions)
        return [
            Partition(p.index, r) for p, r in zip(partitions, results)
        ]

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


# Worker-process-local cache for the per-stage closure broadcast: the
# driver cloudpickles the stage function ONCE per stage and every task
# ships the same payload bytes (a cheap memcpy for the stdlib pickler);
# each worker deserializes it once per stage and reuses it for all the
# tasks it runs, instead of a cloudpickle round-trip per task. Stage
# closures can be heavy — a broadcast-hash join's closure carries the
# whole build-side hash map — so per-task deserialization would scale
# the cost by task count for no reason.
_WORKER_STAGE_CACHE: dict = {"key": None, "fn": None}


def _invoke_stage_task(
    stage_key: Any, fn_payload: bytes, index: int, items: List[Any]
) -> List[Any]:
    cache = _WORKER_STAGE_CACHE
    if cache["key"] != stage_key:
        cache["fn"] = cloudpickle.loads(fn_payload)
        cache["key"] = stage_key
    return cache["fn"](index, items)


# Stage state inherited by fork-per-stage workers (copy-on-write): the
# driver sets these immediately before forking the stage pool, so the
# workers see the task function and input partitions for free — no
# driver-side pickling of inputs. Only task *results* cross IPC, which
# plays the role of the network in the real system.
_STAGE_FN: Optional[PartitionFunc] = None
_STAGE_PARTITIONS: Optional[List[Partition]] = None


def _run_stage_task(index: int) -> List[Any]:
    assert _STAGE_FN is not None and _STAGE_PARTITIONS is not None
    p = _STAGE_PARTITIONS[index]
    return _STAGE_FN(p.index, p.data)


class ProcessExecutor(Executor):
    """Run tasks on a process pool — each process simulates a node.

    On platforms with ``fork`` (Linux), a fresh pool is forked per
    stage: the workers inherit the driver's memory copy-on-write, so
    task inputs (partitions, closures) ship for free and only results
    are pickled back. This mirrors Spark executors reading their map
    inputs locally and shuffling only outputs — without it, the driver
    serializing every input partition becomes a serial bottleneck that
    masks all scaling. Elsewhere (or with ``start_method="spawn"`` /
    ``"forkserver"``), a persistent pool is used with a *per-stage
    closure broadcast*: the stage function is cloudpickled once per
    stage and cached worker-side, instead of a cloudpickle round-trip
    per task (see :func:`_invoke_stage_task`).

    Fault tolerance: per-task retry runs *inside* the worker (an
    attempt costs no extra IPC). A worker process dying takes the whole
    fork-pool with it; that is detected structurally
    (``BrokenProcessPool``, not string matching) and surfaced as
    :class:`WorkerPoolError` so the scheduler can replay the stage from
    lineage. After ``retry_policy.degrade_after_pool_deaths``
    consecutive deaths the executor stops gambling on the pool and
    permanently degrades to serial in-driver execution, logged.
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self.num_workers = num_workers or min(8, os.cpu_count() or 1)
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        import multiprocessing

        if start_method is not None:
            # explicit override, e.g. "spawn"/"forkserver" to exercise
            # the persistent-pool path with per-stage closure broadcast
            self._mp_ctx = multiprocessing.get_context(start_method)
            self._use_fork = start_method == "fork"
        else:
            try:
                self._mp_ctx = multiprocessing.get_context("fork")
                self._use_fork = True
            except ValueError:  # pragma: no cover - non-POSIX platforms
                self._mp_ctx = multiprocessing.get_context()
                self._use_fork = False
        self._fallback_pool: Optional[
            concurrent.futures.ProcessPoolExecutor
        ] = None
        self._consecutive_pool_deaths = 0
        self._serial_fallback: Optional[SerialExecutor] = None
        self._stage_counter = 0
        # The fork path broadcasts stage state to workers through
        # module globals (_STAGE_FN/_STAGE_PARTITIONS, copy-on-write at
        # fork time); when several driver threads share one executor —
        # a QueryService multiplexing clients over one session — two
        # concurrent stages would clobber each other's globals and fork
        # workers against the wrong stage's inputs. Stages therefore
        # run one at a time; tasks within a stage still parallelize.
        self._stage_lock = threading.Lock()
        #: how many times a stage closure was cloudpickled (one per
        #: stage on the persistent-pool path, never per task)
        self.closure_pickle_count = 0

    @property
    def portable_hash_required(self) -> bool:  # type: ignore[override]
        return self._serial_fallback is None

    @property
    def degraded(self) -> bool:
        """True once the executor has fallen back to serial execution."""
        return self._serial_fallback is not None

    def run_partition_tasks(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        if not partitions:
            return []
        if self._serial_fallback is None and (
            self._consecutive_pool_deaths
            >= self.retry_policy.degrade_after_pool_deaths
        ):
            logger.warning(
                "ProcessExecutor: %d consecutive worker-pool deaths; "
                "degrading to serial in-driver execution",
                self._consecutive_pool_deaths,
            )
            self._serial_fallback = SerialExecutor(self.retry_policy)
        if self._serial_fallback is not None:
            return self._serial_fallback.run_partition_tasks(fn, partitions)
        if self._use_fork:
            return self._run_forked_stage(fn, partitions)
        return self._run_pickled(fn, partitions)

    def _note_pool_death(self, exc: BaseException) -> WorkerPoolError:
        self._consecutive_pool_deaths += 1
        logger.warning(
            "ProcessExecutor: worker pool died (%d consecutive): %s",
            self._consecutive_pool_deaths,
            exc,
        )
        return WorkerPoolError(
            f"worker pool died mid-stage "
            f"({self._consecutive_pool_deaths} consecutive): {exc}"
        )

    def _run_forked_stage(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        global _STAGE_FN, _STAGE_PARTITIONS
        workers = min(self.num_workers, len(partitions))
        pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        with self._stage_lock:
            # retry runs inside the worker: an attempt costs no extra IPC
            _STAGE_FN = make_retrying_task(fn, self.retry_policy)
            _STAGE_PARTITIONS = partitions
            try:
                try:
                    pool = concurrent.futures.ProcessPoolExecutor(
                        max_workers=workers, mp_context=self._mp_ctx
                    )
                    futures = [
                        pool.submit(_run_stage_task, i)
                        for i in range(len(partitions))
                    ]
                    results = _collect_in_order(futures, partitions)
                except (_BrokenProcessPool, concurrent.futures.BrokenExecutor) as exc:
                    raise self._note_pool_death(exc) from exc
            finally:
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                _STAGE_FN = _STAGE_PARTITIONS = None
        self._consecutive_pool_deaths = 0
        return [
            Partition(p.index, r) for p, r in zip(partitions, results)
        ]

    def _run_pickled(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        task = make_retrying_task(fn, self.retry_policy)
        with self._stage_lock:
            if self._fallback_pool is None:
                self._fallback_pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.num_workers, mp_context=self._mp_ctx
                )
            self._stage_counter += 1
            stage_key = (id(self), self._stage_counter)
        # per-stage closure broadcast: cloudpickle the stage function
        # once, here; workers deserialize it once per stage (see
        # _invoke_stage_task; distinct concurrent stage_keys at worst
        # thrash that one-slot cache, never corrupt it). Partition data
        # rides the pool's stdlib pickler per task, as before.
        fn_payload = cloudpickle.dumps(task)
        self.closure_pickle_count += 1
        try:
            futures = [
                self._fallback_pool.submit(
                    _invoke_stage_task, stage_key, fn_payload,
                    p.index, p.data,
                )
                for p in partitions
            ]
            results = _collect_in_order(futures, partitions)
        except (_BrokenProcessPool, concurrent.futures.BrokenExecutor) as exc:
            # a broken persistent pool cannot run the next stage either
            self._fallback_pool.shutdown(wait=False, cancel_futures=True)
            self._fallback_pool = None
            raise self._note_pool_death(exc) from exc
        self._consecutive_pool_deaths = 0
        return [
            Partition(p.index, r) for p, r in zip(partitions, results)
        ]

    def shutdown(self) -> None:
        if self._fallback_pool is not None:
            self._fallback_pool.shutdown(wait=True)
            self._fallback_pool = None


class SimulatedClusterExecutor(Executor):
    """Deterministic cluster-timing simulation on one core.

    Machines with a single usable CPU (like CI containers) cannot show
    real multiprocess speedup, so strong-scaling studies use this
    executor instead: every task runs serially and is *timed*, then the
    stage's wall-clock on an ``num_workers``-node cluster is modelled
    as the critical path of a longest-processing-time assignment of
    tasks to workers. Time the driver spends *between* stages — the
    shuffle exchange — is charged serially, so scaling stays
    Amdahl-limited exactly like the shuffle-bound joins in the paper's
    Figure 3. Time between *jobs* (driver think-time between two
    actions) is not charged: the scheduler calls :meth:`job_boundary`
    when an action starts, which drops the previous stage's end mark.

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
    """Deterministic fault injection around any executor, for testing.

    Wraps an inner executor and, on a schedule derived purely from
    ``seed`` and the logical stage number, injects three kinds of
    fault:

    - **task kills** — ``kill_tasks_per_stage`` victim tasks per stage
      raise :class:`~repro.errors.TransientTaskError` on their first
      ``faults_per_task`` attempts (simulating a worker killed
      mid-task and the task being re-queued), then succeed, which
      exercises the per-task retry path end to end.
    - **pool deaths** — stages whose logical number is in
      ``pool_death_stages`` raise
      :class:`~repro.errors.WorkerPoolError` before any task runs, on
      their first ``pool_deaths_per_stage`` attempts, which exercises
      the scheduler's lineage-based stage replay (and, when deaths
      outlast ``max_stage_attempts``, the give-up path).
    - **delays** — each task independently sleeps up to ``max_delay``
      seconds with probability ``delay_task_probability`` (seeded), to
      shake out ordering assumptions under the thread executor.

    The schedule is deterministic: the same seed and the same sequence
    of stages produce the same faults, so failing runs replay exactly.
    The logical stage number only advances when a stage *completes*,
    so a replayed stage is recognized and not re-killed forever.

    With a process-pool inner executor, use the fork start method
    (default on Linux): the injector's bookkeeping rides into workers
    copy-on-write. Per-(stage, task) attempt counts live in a closure
    created per stage, so retries within one stage see them in every
    executor kind.
    """

    def __init__(
        self,
        inner: Executor,
        seed: int = 0,
        kill_tasks_per_stage: int = 0,
        faults_per_task: int = 1,
        pool_death_stages: Collection[int] = (),
        pool_deaths_per_stage: int = 1,
        delay_task_probability: float = 0.0,
        max_delay: float = 0.001,
    ) -> None:
        self.inner = inner
        self.seed = seed
        self.kill_tasks_per_stage = kill_tasks_per_stage
        self.faults_per_task = faults_per_task
        self.pool_death_stages = frozenset(pool_death_stages)
        self.pool_deaths_per_stage = pool_deaths_per_stage
        self.delay_task_probability = delay_task_probability
        self.max_delay = max_delay
        self._completed_stages = 0
        self._injected_pool_deaths: dict = {}
        self.injected_task_faults = 0

    # -- delegation ----------------------------------------------------

    @property
    def num_workers(self) -> int:  # type: ignore[override]
        return self.inner.num_workers

    @property
    def retry_policy(self) -> RetryPolicy:  # type: ignore[override]
        return self.inner.retry_policy

    @property
    def portable_hash_required(self) -> bool:  # type: ignore[override]
        return self.inner.portable_hash_required

    def job_boundary(self) -> None:
        self.inner.job_boundary()

    def shutdown(self) -> None:
        self.inner.shutdown()

    def reset(self) -> None:
        """Restart the fault schedule (e.g. between test cases)."""
        self._completed_stages = 0
        self._injected_pool_deaths.clear()
        self.injected_task_faults = 0

    # -- injection -----------------------------------------------------

    def run_partition_tasks(
        self, fn: PartitionFunc, partitions: List[Partition]
    ) -> List[Partition]:
        stage = self._completed_stages
        if stage in self.pool_death_stages:
            deaths = self._injected_pool_deaths.get(stage, 0)
            if deaths < self.pool_deaths_per_stage:
                self._injected_pool_deaths[stage] = deaths + 1
                raise WorkerPoolError(
                    f"injected pool death at stage {stage} "
                    f"(death {deaths + 1})"
                )
        out = self.inner.run_partition_tasks(
            self._wrap(fn, stage, len(partitions)), partitions
        )
        self._completed_stages += 1
        return out

    def _wrap(
        self, fn: PartitionFunc, stage: int, num_tasks: int
    ) -> PartitionFunc:
        victims: frozenset = frozenset()
        if self.kill_tasks_per_stage and num_tasks:
            rng = random.Random(self.seed * 1_000_003 + stage)
            victims = frozenset(
                rng.sample(
                    range(num_tasks),
                    min(self.kill_tasks_per_stage, num_tasks),
                )
            )
        attempts: dict = {}
        faults_per_task = self.faults_per_task
        delay_p = self.delay_task_probability
        max_delay = self.max_delay
        seed = self.seed
        injector = self

        def faulty(index: int, items: List[Any]) -> List[Any]:
            if delay_p:
                rng = random.Random(
                    (seed * 1_000_003 + stage) * 1_000_003 + index
                )
                if rng.random() < delay_p:
                    time.sleep(rng.random() * max_delay)
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
    "threads": ThreadExecutor,
    "processes": ProcessExecutor,
    "simulated": SimulatedClusterExecutor,
}


def make_executor(
    kind: str,
    num_workers: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> Executor:
    """Build an executor by name: ``serial``, ``threads``, ``processes``
    or ``simulated``."""
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
