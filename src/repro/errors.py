"""Exception hierarchy for the ScrubJay reproduction.

Every error raised deliberately by this package derives from
:class:`ScrubJayError` so callers can catch the whole family with one
``except`` clause while still distinguishing specific failure modes.
"""

from __future__ import annotations


class ScrubJayError(Exception):
    """Base class for all errors raised by this package."""


class SemanticError(ScrubJayError):
    """A dataset or annotation violates the semantic rules.

    Raised e.g. when a schema references a dimension or unit that is not
    present in the active semantic dictionary, or when a field's relation
    type is neither ``domain`` nor ``value``.
    """


class DictionaryError(ScrubJayError):
    """The semantic dictionary would become inconsistent.

    Raised when registering an entry that would introduce a synonym
    (two keywords for the same meaning) or a homonym (one keyword with
    two meanings), which the paper's dictionary explicitly forbids.
    """


class UnitError(ScrubJayError):
    """Invalid unit operation.

    Raised for conversions across dimensions, unknown units, or
    arithmetic between incompatible quantities.
    """


class DerivationError(ScrubJayError):
    """A derivation was applied to a dataset that does not satisfy its
    required semantics, or its execution produced inconsistent output."""


class QueryError(ScrubJayError):
    """A query is malformed — e.g. references unknown dimensions."""


class QueryValidationError(QueryError):
    """A query was rejected *before* planning.

    Raised by :meth:`~repro.core.query.QueryBuilder.build` (and the
    measure/grain terminals) when the accumulated terms cannot form a
    well-formed query — an empty builder, a filter on a dimension the
    query never mentions, a windowed measure without a grain. Carries
    the offending ``clause`` (e.g. ``"across"``, ``"where"``,
    ``"measure"``) so callers and tests can pinpoint what is missing
    without parsing the message.
    """

    def __init__(self, message: str, clause: "str | None" = None) -> None:
        super().__init__(message)
        self.clause = clause


class NoSolutionError(QueryError):
    """The derivation engine exhausted its search without finding a
    derivation sequence that satisfies the query.

    Mirrors the ``return no solution`` branch of Algorithm 1 in the
    paper: if a queried domain dimension exists in no dataset, or the
    datasets holding the queried dimensions cannot be combined, no
    sequence of derivations can ever satisfy the query.
    """


class PipelineError(ScrubJayError):
    """A serialized derivation sequence is malformed or refers to
    operations/datasets that are not registered in this session."""


class WrapperError(ScrubJayError):
    """A data wrapper failed to parse its source into rows."""


class SourceError(WrapperError):
    """A :class:`~repro.sources.base.DataSource` failed to read or
    describe its backing data. Subclasses :class:`WrapperError` so
    code written against the deprecated wrapper classes keeps catching
    ingestion failures unchanged."""


class FeedError(SourceError):
    """A streaming feed operation failed — the source is not
    appendable, a push was rejected, or tailing state is invalid."""


class FeedRewoundError(FeedError):
    """A tailed source moved *backwards* past a committed watermark.

    Raised when ``append_scan(since_offset)`` is asked to resume from
    an offset beyond the source's current end — the file was truncated
    or rewritten, or the store lost sealed segments. The feed cannot
    silently re-read: rows before the watermark were already delivered
    exactly once, so the caller must decide whether to reset the feed
    (replaying everything) or treat the source as corrupt.
    """

    def __init__(
        self,
        message: str,
        since_offset: "int | None" = None,
        current_offset: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.since_offset = since_offset
        self.current_offset = current_offset


class ConfigError(ScrubJayError):
    """A configuration knob was rejected at construction time.

    Raised by the typed configuration layer (:mod:`repro.config`) for
    unknown knob names, values of the wrong type, NaN, or
    out-of-bounds values. Carries the offending ``knob`` name (when one was identified) so callers and
    tests can pinpoint the rejected setting without parsing the
    message.
    """

    def __init__(self, message: str, knob: "str | None" = None) -> None:
        super().__init__(message)
        self.knob = knob


class StoreError(ScrubJayError):
    """The wide-column store was used inconsistently (unknown table,
    missing partition key, schema mismatch on insert)."""


class ExecutorError(ScrubJayError):
    """A parallel executor failed to run tasks."""


class TaskError(ExecutorError):
    """A single task (one partition of one stage) failed.

    Carries the task's position so callers and logs can identify the
    failing unit of work: in this engine a stage runs exactly one task
    per partition, so ``task_index`` and ``partition_index`` usually
    coincide, but both are kept because a re-bucketed stage (shuffle
    reduce) numbers its tasks by output bucket.
    """

    def __init__(
        self,
        message: str,
        task_index: "int | None" = None,
        partition_index: "int | None" = None,
        attempts: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.task_index = task_index
        self.partition_index = partition_index
        self.attempts = attempts

    def __reduce__(self):  # preserve attributes across process pickling
        return (
            type(self),
            (
                self.args[0] if self.args else "",
                self.task_index,
                self.partition_index,
                self.attempts,
            ),
        )


class TransientTaskError(TaskError):
    """A task failed for an environmental, retryable reason — a killed
    worker, a dropped connection, an injected fault. The retry machinery
    re-runs the task (same partition, same closure) up to the policy's
    attempt budget; determinism of the task function makes the retry
    exact replay."""


class FatalTaskError(TaskError):
    """A task failed for good: either its error was deterministic (an
    application exception would recur on every attempt) or its transient
    retry budget is exhausted. Not retried."""


class ServiceError(ScrubJayError):
    """Base class for failures of the ``repro.serve`` query service."""


class ServiceOverloadError(ServiceError):
    """The service shed a query at admission.

    Raised when the bounded admission queue is full: accepting more
    work would only grow latency without bound, so excess load is
    rejected immediately (fail-fast load shedding) instead of queueing
    toward a deadlock or an OOM. Clients should back off and retry.
    """

    def __init__(
        self,
        message: str,
        queue_depth: "int | None" = None,
        max_queue: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue = max_queue


class QueryTimeoutError(ServiceError):
    """A served query exceeded its deadline (queue wait + execution).

    Execution is not preempted mid-task — cancellation is cooperative
    — but a query whose deadline passes while still queued is never
    dispatched, and one that finishes late delivers this error instead
    of its (stale) result.
    """


class QueryCancelledError(ServiceError):
    """The query's ticket was cancelled before a result was delivered."""


class ServiceClosedError(ServiceError):
    """The query service has been closed and accepts no new queries."""


class ProtocolVersionError(ServiceError):
    """Client and server speak incompatible wire-protocol versions.

    Raised on the ``hello`` handshake instead of letting a
    mixed-version router/shard fleet fail later with an opaque decode
    error mid-query. Carries both version numbers so the operator can
    see which side is behind.
    """

    def __init__(
        self, message: str, local: int = 0, remote: int = 0
    ) -> None:
        super().__init__(message)
        self.local = local
        self.remote = remote


class UnsupportedOpError(ServiceError):
    """The server does not implement the requested wire op.

    Returned as a typed response (op name + the server's supported op
    list) instead of killing the connection, so newer clients can
    degrade gracefully against older servers — e.g. fall back from
    ``subscribe`` to polling ``query`` when the fleet predates the
    streaming ops.
    """

    def __init__(
        self,
        message: str,
        op: "str | None" = None,
        supported: "tuple | None" = None,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.supported = tuple(supported or ())


class SubscriptionError(ServiceError):
    """A standing-query subscription was used inconsistently —
    unknown subscription id, subscribing over a dataset with no feed,
    or advancing a feed the session does not know."""


class StaleRefreshError(SubscriptionError):
    """A subscription refresh kept racing feed advances.

    The refresh machinery pins each refresh to explicit watermarks and
    retries (like :class:`ShardStaleReadError`) when a gathered shard
    answer carries different watermarks than the router pushed; this
    error surfaces only when the retries run out.
    """


class ShardError(ServiceError):
    """A shard of a sharded serve fleet failed to answer.

    Raised by the :class:`~repro.serve.sharded.ShardRouter` after a
    shard request could not be completed — connection refused/reset,
    the shard process died, or the shard returned a server-side
    internal error — and no replica could answer either.
    """

    def __init__(self, message: str, shard: "int | None" = None) -> None:
        super().__init__(message)
        self.shard = shard


class ShardStaleReadError(ShardError):
    """A scatter straddled a catalog change and read inconsistent
    shard states.

    Replication applies a mutation shard by shard; a query fanned out
    at just the wrong moment can see some shards before the mutation
    and some after. The router detects this from the
    ``catalog_version``/``state`` stamps every shard response carries
    and retries the whole query against the settled fleet; this error
    surfaces only when retries run out (sustained churn).
    """


class ShardStateError(ServiceError):
    """A shard's replicated catalog/dictionary state diverged from the
    router's.

    Every replicated mutation echoes the shard's resulting
    ``state_fingerprint``/``catalog_version``; a mismatch means the
    shard would plan or execute against different schemas than the
    router keyed its caches on, so the fleet fails loudly instead of
    serving silently inconsistent answers. The usual cause is
    router-side state that does not replicate (session-local expert
    derivations, ad-hoc dictionary edits made directly on the session
    instead of through the router).
    """


class ShardRoutingError(ServiceError):
    """A query's plan cannot be correctly scatter-gathered.

    Raised when a plan combines two datasets sharded on *different*
    key columns: their matching rows live on different shards, so
    per-shard execution plus concatenation would silently drop join
    matches. Co-shard the datasets (same ``shard_on`` columns) or
    replicate one of them.
    """


class ShuffleKeyError(ScrubJayError):
    """A shuffle key's type has no process-stable portable hash.

    Raised by ``portable_hash(key, strict=True)`` — the shard router's
    placement — instead of falling back to Python's per-interpreter
    salted ``hash()``, under which equal keys land on different shards
    when routed from different processes. Fix: use
    primitive/tuple/dataclass keys, or give the key type a
    ``__portable_hash__`` method."""


#: the one import surface for the whole stack's typed errors; the
#: subsystem packages (``repro.rdd``, ``repro.serve``) re-export their
#: families as deprecated aliases of these same classes.
__all__ = [
    "ScrubJayError",
    "SemanticError",
    "DictionaryError",
    "UnitError",
    "DerivationError",
    "QueryError",
    "QueryValidationError",
    "NoSolutionError",
    "ConfigError",
    "PipelineError",
    "WrapperError",
    "SourceError",
    "FeedError",
    "FeedRewoundError",
    "StoreError",
    "ExecutorError",
    "TaskError",
    "TransientTaskError",
    "FatalTaskError",
    "ServiceError",
    "ServiceOverloadError",
    "QueryTimeoutError",
    "QueryCancelledError",
    "ServiceClosedError",
    "ProtocolVersionError",
    "UnsupportedOpError",
    "SubscriptionError",
    "StaleRefreshError",
    "ShardError",
    "ShardStaleReadError",
    "ShardStateError",
    "ShardRoutingError",
    "ShuffleKeyError",
]
