"""The lazy, partitioned, lineage-tracked dataset (a ScrubJayRDD).

Mirrors the Spark RDD programming model the paper builds on (§4.1):
transformations are *lazy* — they only record lineage — and actions
(``collect``, ``count``, ``take``, ``aggregate``) trigger evaluation.
Narrow transformations pipeline inside a partition; key-based
transformations introduce a shuffle and split the lineage into stages
(see :mod:`repro.rdd.plan` for the scheduler).

The surface is what ScrubJay's derivations call: map/filter/flatMap,
keyBy, the keyed shuffles (``groupByKey``, ``aggregateByKey``, all built
on ``combineByKey``) and the equi-join (``adaptiveJoin``, with ``join``
as its shuffle plan).

Rows in ScrubJay are variable-length named tuples, represented here as
plain dicts; the RDD itself is agnostic to element type.
"""

from __future__ import annotations

import copy
from operator import itemgetter
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


def _pair(l: Tuple[Any, Any], r: Tuple[Any, Any]) -> Tuple[Any, Any]:
    """The default join output: ``(k, (v, w))`` of two keyed pairs."""
    return l[0], (l[1], r[1])


class RDD:
    """Base class: holds context, lineage, and persistence state.

    Subclasses define how their partitions derive from their parents';
    the scheduler in :mod:`repro.rdd.plan` interprets the lineage.
    """

    def __init__(self, ctx: "SJContext") -> None:
        self.ctx = ctx
        self._persist = False
        self._cached: Optional[List[Partition]] = None

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def persist(self) -> "RDD":
        """Cache this RDD's partitions on first materialization."""
        self._persist = True
        return self

    def unpersist(self) -> "RDD":
        """Drop any cached partitions and stop caching."""
        self._persist = False
        self._cached = None
        return self

    # ------------------------------------------------------------------
    # narrow transformations
    # ------------------------------------------------------------------

    def mapPartitions(self, fn: Callable[[List[Any]], List[Any]]) -> "RDD":
        return MappedPartitionsRDD(self, lambda _i, items: fn(items))

    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return MappedPartitionsRDD(
            self, lambda _i, items: [fn(x) for x in items]
        )

    def flatMap(self, fn: Callable[[Any], Iterable[Any]]) -> "RDD":
        return MappedPartitionsRDD(
            self, lambda _i, items: [y for x in items for y in fn(x)]
        )

    def filter(self, fn: Callable[[Any], bool]) -> "RDD":
        return MappedPartitionsRDD(
            self, lambda _i, items: [x for x in items if fn(x)]
        )

    def keyBy(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda x: (fn(x), x))

    # ------------------------------------------------------------------
    # shuffle (key-based) transformations
    # ------------------------------------------------------------------

    def combineByKey(
        self,
        create: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
    ) -> "RDD":
        """The single shuffle primitive all key-based ops build on.

        Performs a map-side combine per partition (Spark's combiner
        optimization), shuffles the partial combiners by key, and
        merges them on the reduce side, yielding ``(key, combiner)``
        pairs.

        The reduce partition count is the executor's
        (:meth:`~repro.rdd.executors.Executor.reduce_partitions`): one
        bucket on the serial executor, ``ctx.default_parallelism`` on
        the simulated cluster.
        """
        return ShuffledRDD(self, create, merge_value, merge_combiners)

    def groupByKey(self) -> "RDD":
        def _extend(acc: List[Any], acc2: List[Any]) -> List[Any]:
            acc.extend(acc2)
            return acc

        def _append(acc: List[Any], v: Any) -> List[Any]:
            acc.append(v)
            return acc

        return self.combineByKey(lambda v: [v], _append, _extend)

    def aggregateByKey(
        self,
        zero: Any,
        seq_fn: Callable[[Any, Any], Any],
        comb_fn: Callable[[Any, Any], Any],
    ) -> "RDD":
        """Fold each key's values into ``zero`` with ``seq_fn``, then
        merge per-partition results with ``comb_fn``. Every key starts
        from its own deep copy of an unhashable (so possibly mutable)
        ``zero``; a hashable one is taken to be immutable and shared."""
        try:
            hash(zero)
            create = lambda v: seq_fn(zero, v)
        except TypeError:
            create = lambda v: seq_fn(copy.deepcopy(zero), v)
        return self.combineByKey(create, seq_fn, comb_fn)

    def join(self, other: "RDD") -> "RDD":
        """Inner equi-join of keyed RDDs: ``(k, (v_self, v_other))``.

        Always the shuffle plan: both sides' values are tagged with
        their side, grouped per key in one shuffle, and each key's two
        value lists are crossed. Use :meth:`adaptiveJoin` to let
        run-time row counts pick broadcast-hash instead.
        """
        tagged = UnionRDD(self.ctx, [
            self.map(lambda kv: (kv[0], (0, kv[1]))),
            other.map(lambda kv: (kv[0], (1, kv[1]))),
        ])

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
            _create, _merge_value, _merge_combiners
        ).flatMap(
            lambda kv: [
                (kv[0], (a, b)) for a in kv[1][0] for b in kv[1][1]
            ]
        )

    def adaptiveJoin(
        self,
        other: "RDD",
        lkey: Callable[[Any], Any] = itemgetter(0),
        rkey: Callable[[Any], Any] = itemgetter(0),
        combine: Callable[[Any, Any], Any] = _pair,
    ) -> "RDD":
        """Inner equi-join whose physical plan is chosen at run time.

        Element ``l`` meets element ``r`` of ``other`` when ``lkey(l)
        == rkey(r)``, and the pair becomes ``combine(l, r)``; the
        defaults join keyed pairs into ``(k, (v, w))`` as :meth:`join`
        does. The scheduler materializes both inputs, counts their
        rows, and picks broadcast-hash (the small side keyed once and
        shipped whole to every task, no shuffle) or the shuffle plan of
        :meth:`join` — recording the decision in the context's
        :class:`~repro.rdd.stats.ExecutionReport`. Both plans emit the
        same multiset.
        """
        return AdaptiveJoinRDD(self, other, lkey, rkey, combine)

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

    def take(self, n: int) -> List[Any]:
        """The first ``n`` elements in partition order (none for
        ``n <= 0``)."""
        out: List[Any] = []
        if n <= 0:
            return out
        for p in self._materialize():
            for x in p.data:
                out.append(x)
                if len(out) >= n:
                    return out
        return out

    def aggregate(
        self,
        zero: Any,
        seq_fn: Callable[[Any, Any], Any],
        comb_fn: Callable[[Any, Any], Any],
    ) -> Any:
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


class SourceRDD(RDD):
    """An RDD whose partitions live in the driver (from ``parallelize``)."""

    def __init__(self, ctx: "SJContext", partitions: List[Partition]) -> None:
        super().__init__(ctx)
        self.partitions = partitions


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
    ) -> None:
        super().__init__(ctx)
        self.source = source
        self.columns = list(columns) if columns is not None else None
        self.predicate = predicate
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
        return ScanRDD(self.ctx, self.source, cols, self.predicate)


class MappedPartitionsRDD(RDD):
    """Narrow transformation: one output partition per parent partition."""

    def __init__(
        self, parent: RDD, fn: Callable[[int, List[Any]], List[Any]]
    ) -> None:
        super().__init__(parent.ctx)
        self.parent = parent
        self.fn = fn


class UnionRDD(RDD):
    """Concatenation of several RDDs' partitions (no shuffle)."""

    def __init__(self, ctx: "SJContext", rdds: List[RDD]) -> None:
        super().__init__(ctx)
        self.rdds = rdds


class ShuffledRDD(RDD):
    """Key-based shuffle with map-side combine (``combineByKey``); the
    executor decides its reduce partition count."""

    def __init__(
        self,
        parent: RDD,
        create: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
    ) -> None:
        super().__init__(parent.ctx)
        self.parent = parent
        self.create = create
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners


class AdaptiveJoinRDD(RDD):
    """Inner equi-join whose physical strategy is decided at run time.

    Lineage stays lazy: the node only records its two parents, their
    key functions and the ``combine`` that builds an output element
    from a matching pair. When the scheduler materializes it, both
    parents are computed and the context's planner picks broadcast-hash
    or shuffle from their row counts — after the inputs exist, so the
    decision sees actual rows, the way Spark AQE re-plans between stages.
    """

    def __init__(
        self, left: RDD, right: RDD,
        lkey: Callable[[Any], Any], rkey: Callable[[Any], Any],
        combine: Callable[[Any, Any], Any],
    ) -> None:
        super().__init__(left.ctx)
        self.left, self.right = left, right
        self.lkey, self.rkey, self.combine = lkey, rkey, combine
