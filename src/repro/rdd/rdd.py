"""The lazy, partitioned, lineage-tracked dataset (a ScrubJayRDD).

Mirrors the Spark RDD programming model the paper builds on (§4.1):
transformations are *lazy* — they only record lineage — and actions
(``collect``, ``count``, ``reduce``, …) trigger evaluation. Narrow
transformations pipeline inside a partition; key-based transformations
introduce a shuffle and split the lineage into stages (see
:mod:`repro.rdd.plan` for the scheduler).

Rows in ScrubJay are variable-length named tuples, represented here as
plain dicts; the RDD itself is agnostic to element type.
"""

from __future__ import annotations

import builtins
import random
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro.rdd.partition import Partition

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdd.context import SJContext
    from repro.rdd.stats import RDDStats


class RDD:
    """Base class: holds context, lineage, and persistence state.

    Subclasses define how their partitions derive from their parents';
    the scheduler in :mod:`repro.rdd.plan` interprets the lineage.
    """

    def __init__(self, ctx: "SJContext") -> None:
        self.ctx = ctx
        self._persist = False
        self._cached: Optional[List[Partition]] = None
        #: sampled statistics, cached once collected (see RDD.stats);
        #: safe to cache because lineage is immutable and deterministic
        self._stats: Optional["RDDStats"] = None

    # ------------------------------------------------------------------
    # lineage interface (overridden by subclasses)
    # ------------------------------------------------------------------

    def parents(self) -> List["RDD"]:
        """Immediate lineage parents."""
        return []

    def num_partitions(self) -> int:
        raise NotImplementedError

    def toDebugString(self) -> str:
        """Render the lineage tree, one RDD per line (Spark parity).

        Useful when a fault-tolerance log names a replayed stage and
        you want to see which lineage it re-executed. Cached RDDs are
        marked — they are replay barriers: recovery never recomputes
        above a materialized cache.
        """
        lines: List[str] = []

        def walk(rdd: "RDD", depth: int) -> None:
            mark = " [cached]" if rdd.is_cached else ""
            lines.append(
                f"{'  ' * depth}{type(rdd).__name__}"
                f"[{rdd.num_partitions()}]{mark}"
            )
            for parent in rdd.parents():
                walk(parent, depth + 1)

        walk(self, 0)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def persist(self) -> "RDD":
        """Cache this RDD's partitions on first materialization."""
        self._persist = True
        return self

    cache = persist

    def unpersist(self) -> "RDD":
        """Drop any cached partitions and stop caching."""
        self._persist = False
        self._cached = None
        self._stats = None
        return self

    @property
    def is_cached(self) -> bool:
        return self._cached is not None

    # ------------------------------------------------------------------
    # narrow transformations
    # ------------------------------------------------------------------

    def mapPartitionsWithIndex(
        self, fn: Callable[[int, List[Any]], List[Any]]
    ) -> "RDD":
        """Apply ``fn(index, items) -> items`` to each partition."""
        return MappedPartitionsRDD(self, fn)

    def mapPartitions(self, fn: Callable[[List[Any]], List[Any]]) -> "RDD":
        return self.mapPartitionsWithIndex(lambda _i, items: fn(items))

    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.mapPartitionsWithIndex(
            lambda _i, items: [fn(x) for x in items]
        )

    def flatMap(self, fn: Callable[[Any], Iterable[Any]]) -> "RDD":
        return self.mapPartitionsWithIndex(
            lambda _i, items: [y for x in items for y in fn(x)]
        )

    def filter(self, fn: Callable[[Any], bool]) -> "RDD":
        return self.mapPartitionsWithIndex(
            lambda _i, items: [x for x in items if fn(x)]
        )

    def glom(self) -> "RDD":
        """Collapse each partition into a single list element."""
        return self.mapPartitionsWithIndex(lambda _i, items: [list(items)])

    def keyBy(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda x: (fn(x), x))

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def mapValues(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda kv: (kv[0], fn(kv[1])))

    def flatMapValues(self, fn: Callable[[Any], Iterable[Any]]) -> "RDD":
        return self.flatMap(lambda kv: [(kv[0], v) for v in fn(kv[1])])

    def sample(self, fraction: float, seed: int = 0) -> "RDD":
        """Bernoulli sample; deterministic given ``seed``."""

        def _sample(index: int, items: List[Any]) -> List[Any]:
            rng = random.Random(seed * 1_000_003 + index)
            return [x for x in items if rng.random() < fraction]

        return self.mapPartitionsWithIndex(_sample)

    # ------------------------------------------------------------------
    # structural transformations
    # ------------------------------------------------------------------

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce partition count without a shuffle."""
        return CoalescedRDD(self, num_partitions)

    def repartition(self, num_partitions: int) -> "RDD":
        """Redistribute elements round-robin over ``num_partitions``
        (incurs a shuffle)."""
        return RepartitionedRDD(self, num_partitions)

    # ------------------------------------------------------------------
    # shuffle (key-based) transformations
    # ------------------------------------------------------------------

    def combineByKey(
        self,
        create: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """The single shuffle primitive all key-based ops build on.

        Performs a map-side combine per partition (Spark's combiner
        optimization), shuffles the partial combiners by key, and
        merges them on the reduce side, yielding ``(key, combiner)``
        pairs.

        With ``num_partitions=None`` the reduce partition count is
        chosen at run time from input statistics (rows per partition
        target, capped by the distinct-key estimate) when the context
        has adaptive execution enabled; otherwise it falls back to
        ``ctx.default_parallelism``.
        """
        return ShuffledRDD(
            self,
            num_partitions,
            create,
            merge_value,
            merge_combiners,
        )

    def reduceByKey(
        self,
        fn: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        return self.combineByKey(lambda v: v, fn, fn, num_partitions)

    def groupByKey(self, num_partitions: Optional[int] = None) -> "RDD":
        def _extend(acc: List[Any], acc2: List[Any]) -> List[Any]:
            acc.extend(acc2)
            return acc

        def _append(acc: List[Any], v: Any) -> List[Any]:
            acc.append(v)
            return acc

        return self.combineByKey(
            lambda v: [v], _append, _extend, num_partitions
        )

    def aggregateByKey(
        self,
        zero: Any,
        seq_fn: Callable[[Any, Any], Any],
        comb_fn: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """Fold each key's values into ``zero`` with ``seq_fn``, then
        merge per-partition results with ``comb_fn``. Every key starts
        from its own deep copy of an unhashable (so possibly mutable)
        ``zero``; a hashable one is taken to be immutable and shared."""
        import copy

        try:
            hash(zero)
            create = lambda v: seq_fn(zero, v)
        except TypeError:
            create = lambda v: seq_fn(copy.deepcopy(zero), v)
        return self.combineByKey(create, seq_fn, comb_fn, num_partitions)

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        return (
            self.map(lambda x: (x, None))
            .reduceByKey(lambda a, _b: a, num_partitions)
            .keys()
        )

    def subtract(self, other: "RDD",
                 num_partitions: Optional[int] = None) -> "RDD":
        """Elements of this RDD absent from ``other`` (duplicates kept).

        Elements must be hashable (they become shuffle keys)."""
        return (
            self.map(lambda x: (x, False))
            .cogroup(other.map(lambda x: (x, True)), num_partitions)
            .flatMap(
                lambda kv: [kv[0]] * len(kv[1][0]) if not kv[1][1] else []
            )
        )

    def intersection(self, other: "RDD",
                     num_partitions: Optional[int] = None) -> "RDD":
        """Distinct elements present in both RDDs."""
        return (
            self.map(lambda x: (x, False))
            .cogroup(other.map(lambda x: (x, True)), num_partitions)
            .flatMap(
                lambda kv: [kv[0]] if kv[1][0] and kv[1][1] else []
            )
        )

    def cogroup(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Group two keyed RDDs: ``(k, (list_self, list_other))``."""
        tagged = self.mapValues(lambda v: (0, v)).union(
            other.mapValues(lambda v: (1, v))
        )

        def _create(tv: Tuple[int, Any]) -> Tuple[List[Any], List[Any]]:
            pair: Tuple[List[Any], List[Any]] = ([], [])
            pair[tv[0]].append(tv[1])
            return pair

        def _merge_value(pair, tv):
            pair[tv[0]].append(tv[1])
            return pair

        def _merge_combiners(pa, pb):
            pa[0].extend(pb[0])
            pa[1].extend(pb[1])
            return pa

        return tagged.combineByKey(
            _create, _merge_value, _merge_combiners, num_partitions
        )

    def join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Inner equi-join of keyed RDDs: ``(k, (v_self, v_other))``.

        Always the shuffle (cogroup) plan. Use :meth:`adaptiveJoin`
        to let run-time statistics pick broadcast-hash instead.
        """
        return self.cogroup(other, num_partitions).flatMap(
            lambda kv: [
                (kv[0], (a, b)) for a in kv[1][0] for b in kv[1][1]
            ]
        )

    def adaptiveJoin(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        """Inner equi-join whose physical plan is chosen at run time.

        The scheduler materializes both inputs, collects sampled
        statistics, and picks broadcast-hash (small side shipped whole
        to every task, no shuffle) or the shuffle cogroup plan —
        recording the decision in the context's
        :class:`~repro.rdd.stats.ExecutionReport`. Output is identical
        to :meth:`join` up to element order within partitions.
        """
        return AdaptiveJoinRDD(self, other, num_partitions, "auto")

    def broadcastJoin(self, other: "RDD", build_side: str = "right") -> "RDD":
        """Inner equi-join forced to the broadcast-hash strategy.

        ``build_side`` names the side materialized into the driver-built
        hash map (``"right"`` = ``other``); the other side streams.
        """
        if build_side not in ("left", "right"):
            raise ValueError(
                f"build_side must be 'left' or 'right', got {build_side!r}"
            )
        return AdaptiveJoinRDD(self, other, None, f"broadcast-{build_side}")

    def leftOuterJoin(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        return self.cogroup(other, num_partitions).flatMap(
            lambda kv: [
                (kv[0], (a, b))
                for a in kv[1][0]
                for b in (kv[1][1] or [None])
            ]
        )

    def partitionBy(self, num_partitions: int) -> "RDD":
        """Hash-partition keyed elements so equal keys share a partition."""
        return self.groupByKey(num_partitions).flatMap(
            lambda kv: [(kv[0], v) for v in kv[1]]
        )

    def sortBy(
        self,
        key_fn: Callable[[Any], Any],
        ascending: bool = True,
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """Globally sort by ``key_fn`` via sampled range partitioning."""
        return RangePartitionedRDD(
            self,
            key_fn,
            ascending,
            num_partitions or self.ctx.default_parallelism,
        )

    def sortByKey(
        self, ascending: bool = True, num_partitions: Optional[int] = None
    ) -> "RDD":
        return self.sortBy(lambda kv: kv[0], ascending, num_partitions)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------

    def _materialize(self) -> List[Partition]:
        return self.ctx.scheduler.materialize(self)

    def collect(self) -> List[Any]:
        """Compute and return all elements in partition order."""
        return [x for p in self._materialize() for x in p.data]

    def count(self) -> int:
        return sum(len(p) for p in self._materialize())

    def isEmpty(self) -> bool:
        return self.count() == 0

    def take(self, n: int) -> List[Any]:
        out: List[Any] = []
        for p in self._materialize():
            for x in p.data:
                out.append(x)
                if len(out) >= n:
                    return out
        return out

    def first(self) -> Any:
        taken = self.take(1)
        if not taken:
            raise ValueError("first() on an empty RDD")
        return taken[0]

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        parts = [
            p.data for p in self._materialize() if p.data
        ]
        if not parts:
            raise ValueError("reduce() on an empty RDD")
        partials = []
        for data in parts:
            acc = data[0]
            for x in data[1:]:
                acc = fn(acc, x)
            partials.append(acc)
        acc = partials[0]
        for x in partials[1:]:
            acc = fn(acc, x)
        return acc

    def fold(self, zero: Any, fn: Callable[[Any, Any], Any]) -> Any:
        acc = zero
        for p in self._materialize():
            for x in p.data:
                acc = fn(acc, x)
        return acc

    def aggregate(
        self,
        zero: Any,
        seq_fn: Callable[[Any, Any], Any],
        comb_fn: Callable[[Any, Any], Any],
    ) -> Any:
        import copy

        partials = []
        for p in self._materialize():
            acc = copy.deepcopy(zero)
            for x in p.data:
                acc = seq_fn(acc, x)
            partials.append(acc)
        acc = copy.deepcopy(zero)
        for partial in partials:
            acc = comb_fn(acc, partial)
        return acc

    def sum(self) -> Any:
        return self.fold(0, lambda a, b: a + b)

    def min(self) -> Any:
        return self.reduce(lambda a, b: a if a <= b else b)

    def max(self) -> Any:
        return self.reduce(lambda a, b: a if a >= b else b)

    def mean(self) -> float:
        total, n = self.aggregate(
            (0.0, 0),
            lambda acc, x: (acc[0] + x, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        if n == 0:
            raise ValueError("mean() on an empty RDD")
        return total / n

    def countByKey(self) -> Dict[Any, int]:
        out: Dict[Any, int] = {}
        for k, _v in self.collect():
            out[k] = out.get(k, 0) + 1
        return out

    def countByValue(self) -> Dict[Any, int]:
        out: Dict[Any, int] = {}
        for x in self.collect():
            out[x] = out.get(x, 0) + 1
        return out

    def lookup(self, key: Any) -> List[Any]:
        """All values whose key equals ``key``."""
        return self.filter(lambda kv: kv[0] == key).values().collect()

    def foreach(self, fn: Callable[[Any], None]) -> None:
        for x in self.collect():
            fn(x)

    def zipWithIndex(self) -> "RDD":
        """Pair each element with its global index.

        Materializes this RDD eagerly (partition sizes are needed to
        assign offsets), like Spark's extra job for the same op.
        """
        parts = self._materialize()
        offset = 0
        new_parts: List[Partition] = []
        for p in parts:
            new_parts.append(
                Partition(
                    p.index,
                    [(x, offset + i) for i, x in enumerate(p.data)],
                )
            )
            offset += len(p.data)
        return SourceRDD(self.ctx, new_parts)

    def top(self, n: int, key_fn: Optional[Callable[[Any], Any]] = None) -> List[Any]:
        """The ``n`` largest elements, descending."""
        return sorted(self.collect(), key=key_fn, reverse=True)[:n]

    def getNumPartitions(self) -> int:
        return self.num_partitions()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def stats(self, keyed: bool = False) -> "RDDStats":
        """Sampled statistics for this RDD (materializes it).

        Collected driver-side from the materialized partitions (no
        extra stages) and cached on the RDD; the scheduler also fills
        the cache when a persisted RDD first materializes. With
        ``keyed=True`` the elements are treated as ``(key, value)``
        pairs and a sampled key census adds distinct/heavy-hitter
        estimates.
        """
        from repro.rdd.stats import collect_stats

        if self._stats is None or (
            keyed and self._stats.distinct_keys is None
        ):
            self._stats = collect_stats(
                self._materialize(),
                getattr(self.ctx, "adaptive", None),
                keyed=keyed,
            )
        return self._stats


class SourceRDD(RDD):
    """An RDD whose partitions live in the driver (from ``parallelize``)."""

    def __init__(self, ctx: "SJContext", partitions: List[Partition]) -> None:
        super().__init__(ctx)
        self.partitions = partitions

    def num_partitions(self) -> int:
        return len(self.partitions)


class ScanRDD(RDD):
    """A leaf RDD that reads lazily from a
    :class:`~repro.sources.base.DataSource`.

    Partitions map 1:1 onto the source's surviving partitions after
    driver-side pruning (``source.prune(predicate)``); each task reads
    its partition inside the worker — projected to ``columns`` and
    filtered by ``predicate`` as close to storage as the source
    allows. The scheduler fills :attr:`last_scan` with the aggregated
    read statistics after every materialization.
    """

    def __init__(
        self,
        ctx: "SJContext",
        source: Any,
        columns: Optional[List[str]] = None,
        predicate: Any = None,
        batched: bool = False,
    ) -> None:
        super().__init__(ctx)
        self.source = source
        self.columns = list(columns) if columns is not None else None
        self.predicate = predicate
        #: True = partitions hold ColumnBatch elements (the source is
        #: read through ``read_partition_batches_stats``); downstream
        #: row counting goes through the batch-aware helpers
        self.batched = batched
        #: {"rows_read", "bytes_scanned", "segments_read",
        #:  "segments_skipped", "partitions_total",
        #:  "partitions_scanned"} — set by Scheduler._compute_scan
        self.last_scan: Optional[Dict[str, Any]] = None

    def with_columns(self, columns: Iterable[str]) -> "ScanRDD":
        """A copy projected to ``columns`` (intersected with any
        existing projection)."""
        cols = list(columns)
        if self.columns is not None:
            cols = [c for c in cols if c in self.columns]
        return ScanRDD(
            self.ctx, self.source, cols, self.predicate,
            batched=self.batched,
        )

    def num_partitions(self) -> int:
        return max(1, self.source.num_partitions())


class MappedPartitionsRDD(RDD):
    """Narrow transformation: one output partition per parent partition."""

    def __init__(
        self, parent: RDD, fn: Callable[[int, List[Any]], List[Any]]
    ) -> None:
        super().__init__(parent.ctx)
        self.parent = parent
        self.fn = fn

    def parents(self) -> List[RDD]:
        return [self.parent]

    def num_partitions(self) -> int:
        return self.parent.num_partitions()


class UnionRDD(RDD):
    """Concatenation of several RDDs' partitions (no shuffle)."""

    def __init__(self, ctx: "SJContext", rdds: List[RDD]) -> None:
        super().__init__(ctx)
        self.rdds = rdds

    def parents(self) -> List[RDD]:
        return list(self.rdds)

    def num_partitions(self) -> int:
        return sum(r.num_partitions() for r in self.rdds)


class CoalescedRDD(RDD):
    """Merge parent partitions into fewer, without moving data by key."""

    def __init__(self, parent: RDD, num_partitions: int) -> None:
        super().__init__(parent.ctx)
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.parent = parent
        self._n = num_partitions

    def parents(self) -> List[RDD]:
        return [self.parent]

    def num_partitions(self) -> int:
        return builtins.min(self._n, builtins.max(1, self.parent.num_partitions()))


class RepartitionedRDD(RDD):
    """Round-robin redistribution over ``num_partitions`` (a shuffle)."""

    def __init__(self, parent: RDD, num_partitions: int) -> None:
        super().__init__(parent.ctx)
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.parent = parent
        self._n = num_partitions

    def parents(self) -> List[RDD]:
        return [self.parent]

    def num_partitions(self) -> int:
        return self._n


class ShuffledRDD(RDD):
    """Key-based shuffle with map-side combine (``combineByKey``).

    ``num_partitions=None`` defers the reduce partition count to the
    scheduler, which sizes it from input statistics at run time.
    """

    def __init__(
        self,
        parent: RDD,
        num_partitions: Optional[int],
        create: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
    ) -> None:
        super().__init__(parent.ctx)
        if num_partitions is not None and num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.parent = parent
        self._n = num_partitions
        self.create = create
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners

    def parents(self) -> List[RDD]:
        return [self.parent]

    def num_partitions(self) -> int:
        # the auto case is an estimate; the scheduler picks the actual
        # count from input statistics at materialization time
        return self._n or self.ctx.default_parallelism


class AdaptiveJoinRDD(RDD):
    """Inner equi-join whose physical strategy is decided at run time.

    Lineage stays lazy: the node only records its two keyed parents
    and a strategy hint. When the scheduler materializes it, both
    parents are computed, sampled statistics are collected (and cached
    on the parents), and the context's planner picks broadcast-hash or
    shuffle — after the inputs exist, so the decision sees actual
    sizes, the way Spark AQE re-plans between stages.
    """

    def __init__(
        self,
        left: RDD,
        right: RDD,
        num_partitions: Optional[int] = None,
        strategy: str = "auto",
    ) -> None:
        super().__init__(left.ctx)
        self.left = left
        self.right = right
        self._n = num_partitions
        #: "auto" | "broadcast-left" | "broadcast-right" | "shuffle"
        self.strategy = strategy

    def parents(self) -> List[RDD]:
        return [self.left, self.right]

    def num_partitions(self) -> int:
        # an estimate: the actual count depends on the chosen strategy
        # (broadcast preserves the stream side's partitioning; shuffle
        # repartitions) and is only known once materialized
        return builtins.max(1, self.left.num_partitions())


class RangePartitionedRDD(RDD):
    """Global sort: sample key boundaries, range-shuffle, sort buckets."""

    def __init__(
        self,
        parent: RDD,
        key_fn: Callable[[Any], Any],
        ascending: bool,
        num_partitions: int,
    ) -> None:
        super().__init__(parent.ctx)
        self.parent = parent
        self.key_fn = key_fn
        self.ascending = ascending
        self._n = num_partitions

    def parents(self) -> List[RDD]:
        return [self.parent]

    def num_partitions(self) -> int:
        return self._n
