"""SJContext: entry point to the distributed dataset engine.

Plays the role of Spark's ``SparkContext``: owns the executor (the
simulated cluster), the scheduler, and the factory methods that create
source RDDs from driver-side collections.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.rdd.executors import Executor, make_executor
from repro.rdd.partition import split_into_partitions
from repro.rdd.plan import Scheduler
from repro.rdd.rdd import RDD, SourceRDD, UnionRDD
from repro.rdd.stats import AdaptiveConfig, AdaptivePlanner, ExecutionReport


class SJContext:
    """Owns the executor, scheduler, and adaptive planner; creates
    source RDDs.

    Parameters
    ----------
    executor:
        ``"serial"`` (default) or ``"simulated"`` — or a ready-built
        :class:`Executor` instance. Either way tasks run in the driver;
        the simulated executor models a cluster's strong scaling.
    num_workers:
        Simulated node count (ignored by the serial executor and when
        an executor instance is passed).
    default_parallelism:
        Partition count of :meth:`parallelize` when the call names
        none, and the simulated cluster's reduce partitions per
        shuffle (the serial executor reduces in one). Defaults to
        ``2 * num_workers`` (at least 4).
    adaptive:
        An :class:`~repro.rdd.stats.AdaptiveConfig` controlling
        row-count-driven join choice: a join side of at most
        ``broadcast_threshold_rows`` rows is broadcast instead of
        shuffled; ``AdaptiveConfig(broadcast_threshold_rows=0)`` turns
        broadcast joins of non-empty sides off.
    tracer:
        A :class:`~repro.obs.Tracer` shared by every layer touching
        this context (scheduler stages/tasks, derivation engine,
        serve). Defaults to a fresh *disabled* tracer — instrumented
        code then costs one attribute read per site. Flip
        ``ctx.tracer.enabled`` (or pass an enabled tracer) to record
        span trees.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` absorbing the cheap
        always-on counters (stages run, rows, shuffle pairs, cache
        hits, adaptive decisions). Defaults to a fresh registry.
    """

    def __init__(
        self,
        executor: Union[str, Executor] = "serial",
        num_workers: Optional[int] = None,
        default_parallelism: Optional[int] = None,
        adaptive: Optional[AdaptiveConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if isinstance(executor, Executor):
            self.executor: Executor = executor
        else:
            self.executor = make_executor(executor, num_workers)
        self.default_parallelism = default_parallelism or max(
            4, 2 * self.executor.num_workers
        )
        self.adaptive = adaptive or AdaptiveConfig()
        # One tracer/registry object per context, shared (never copied)
        # by the scheduler, engine, and serve layers — flipping
        # tracer.enabled is observed everywhere at once.
        self.tracer = tracer or Tracer(enabled=False)
        self.metrics = metrics or MetricsRegistry()
        #: audit trail of the newest decisions (joins, shuffles,
        #: delta refreshes, rollup routes)
        self.report = ExecutionReport(metrics=self.metrics)
        self.planner = AdaptivePlanner(self.adaptive, self.report)
        self.scheduler = Scheduler(
            self.executor,
            self.planner,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._stopped = False

    # ------------------------------------------------------------------

    def parallelize(
        self, data: Iterable[Any], num_partitions: Optional[int] = None
    ) -> RDD:
        """Distribute a local collection into an RDD."""
        items = list(data)
        n = num_partitions or self.default_parallelism
        n = max(1, min(n, max(1, len(items)))) if items else 1
        return SourceRDD(self, split_into_partitions(items, n))

    def union(self, rdds: Sequence[RDD]) -> RDD:
        """Concatenate RDDs' partitions (no shuffle)."""
        if not rdds:
            return self.parallelize([])
        return UnionRDD(self, list(rdds))

    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Mark the context stopped. Tasks run in the driver and hold
        no worker resources, so there is nothing else to release."""
        self._stopped = True

    def __enter__(self) -> "SJContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"SJContext(executor={type(self.executor).__name__}, "
            f"workers={self.executor.num_workers}, "
            f"default_parallelism={self.default_parallelism})"
        )
