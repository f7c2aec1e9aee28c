"""A from-scratch, Spark-like distributed dataset engine.

The paper implements ScrubJay on Apache Spark RDDs distributed across a
10-node data cluster. This package is the substitute substrate: a lazy,
partitioned, lineage-tracked dataset (:class:`~repro.rdd.rdd.RDD`) whose
operations pipeline within partitions and split into stages at shuffle
boundaries, executed by a pluggable executor (serial, thread pool, or a
process pool standing in for cluster nodes).

Public entry points::

    from repro.rdd import SJContext

    ctx = SJContext(executor="processes", num_workers=4)
    rdd = ctx.parallelize(range(1000), num_partitions=8)
    sums = rdd.keyBy(lambda x: x % 10).aggregateByKey(
        0, lambda acc, x: acc + x, lambda a, b: a + b
    ).collect()
"""

# Deprecated aliases: the task/executor error family is defined in (and
# best imported from) repro.errors, the one import surface for the whole
# stack's typed errors; these names stay importable from here for code
# that learned them as rdd-level concepts.
from repro.errors import (
    ExecutorError,
    FatalTaskError,
    ShuffleKeyError,
    TaskError,
    TransientTaskError,
    WorkerPoolError,
)
from repro.rdd.context import SJContext
from repro.rdd.rdd import RDD
from repro.rdd.partition import Partition
from repro.rdd.executors import (
    Executor,
    FaultInjectingExecutor,
    SerialExecutor,
    SimulatedClusterExecutor,
    ThreadExecutor,
    ProcessExecutor,
    make_executor,
)
from repro.rdd.fault import DEFAULT_RETRY_POLICY, RetryPolicy, no_retry_policy
from repro.rdd.stats import (
    AdaptiveConfig,
    AdaptivePlanner,
    DeltaDecision,
    RollupDecision,
    ExecutionReport,
    JoinDecision,
    RDDStats,
    ShuffleDecision,
)

__all__ = [
    "SJContext",
    "RDD",
    "Partition",
    "AdaptiveConfig",
    "AdaptivePlanner",
    "DeltaDecision",
    "RollupDecision",
    "ExecutionReport",
    "JoinDecision",
    "RDDStats",
    "ShuffleDecision",
    "Executor",
    "FaultInjectingExecutor",
    "SerialExecutor",
    "SimulatedClusterExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "no_retry_policy",
    # deprecated aliases of the repro.errors classes
    "ExecutorError",
    "TaskError",
    "TransientTaskError",
    "FatalTaskError",
    "WorkerPoolError",
    "ShuffleKeyError",
]
