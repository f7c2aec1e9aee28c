"""A from-scratch, Spark-like distributed dataset engine.

The paper implements ScrubJay on Apache Spark RDDs distributed across a
10-node data cluster. This package is the substitute substrate: a lazy,
partitioned, lineage-tracked dataset (:class:`~repro.rdd.rdd.RDD`) whose
operations pipeline within partitions and split into stages at shuffle
boundaries. Tasks run in the driver, through a pluggable executor:
serial, or a simulated cluster that models strong scaling.

Public entry points::

    from repro.rdd import SJContext

    ctx = SJContext(executor="simulated", num_workers=4)
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
)
from repro.rdd.context import SJContext
from repro.rdd.rdd import RDD
from repro.rdd.partition import Partition
from repro.rdd.executors import (
    Executor,
    FaultInjectingExecutor,
    SerialExecutor,
    SimulatedClusterExecutor,
    make_executor,
)
from repro.rdd.fault import DEFAULT_RETRY_POLICY, RetryPolicy, no_retry_policy
from repro.rdd.stats import (
    AdaptiveConfig,
    AdaptivePlanner,
    Decision,
    ExecutionReport,
    RDDStats,
)

__all__ = [
    "SJContext",
    "RDD",
    "Partition",
    "AdaptiveConfig",
    "AdaptivePlanner",
    "Decision",
    "ExecutionReport",
    "RDDStats",
    "Executor",
    "FaultInjectingExecutor",
    "SerialExecutor",
    "SimulatedClusterExecutor",
    "make_executor",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "no_retry_policy",
    # deprecated aliases of the repro.errors classes
    "ExecutorError",
    "TaskError",
    "TransientTaskError",
    "FatalTaskError",
    "ShuffleKeyError",
]
