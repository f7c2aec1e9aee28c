"""The scheduler: interprets RDD lineage and runs stages.

Evaluation walks the lineage graph from the requested RDD down to its
sources. Chains of narrow transformations are *pipelined* — composed
into a single per-partition task — while shuffles split the graph into
stages: a map stage that assigns records to output buckets (run on the
executor), a driver-side exchange that regroups buckets (standing in
for the network shuffle between cluster nodes), and a reduce stage
that merges each bucket (run on the executor). This is the same stage
structure Spark's DAG scheduler produces, and it is what gives the
benchmarks in the paper's Figure 3 their shape: transformations are
cheap and embarrassingly parallel, combinations pay for the shuffle.

Adaptive execution: materialization happens bottom-up, so by the time
a shuffle or join node is computed its inputs already exist driver-side
as lists, and their exact row counts are free to read. The scheduler
uses them (see :mod:`repro.rdd.stats`) to pick broadcast-hash vs
shuffle for :class:`~repro.rdd.rdd.AdaptiveJoinRDD` nodes. A shuffle's
reduce partition count is the executor's
(:meth:`~repro.rdd.executors.Executor.reduce_partitions`): one bucket
in the driver, ``default_parallelism`` on the simulated cluster. Every
choice is recorded in the context's
:class:`~repro.rdd.stats.ExecutionReport`.

Failure semantics: a task runs once, in the driver, on the calling
thread. There is no worker that could die, so nothing is retried or
replayed: a task's exception is the job's answer (see
:mod:`repro.rdd.executors`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.rdd.executors import Executor
from repro.rdd.partition import Partition
from repro.rdd.rdd import (
    RDD,
    AdaptiveJoinRDD,
    MappedPartitionsRDD,
    ScanRDD,
    ShuffledRDD,
    SourceRDD,
    UnionRDD,
)
from repro.rdd.shuffle import hash_bucket
from repro.rdd.stats import AdaptivePlanner, Decision


def _traced_task(
    fn: Callable[[int, List[Any]], List[Any]],
    tracer: Tracer,
    stage: Span,
    origin: str,
) -> Callable[[int, List[Any]], List[Any]]:
    """Wrap a stage function to record one ``task`` span under
    ``stage`` per successful run, with its row counts. A failed
    task records nothing."""

    def traced(index: int, items: List[Any]) -> List[Any]:
        t0 = time.perf_counter()
        out = fn(index, items)
        task = tracer.record(
            f"task:{origin}[{index}]", t0, time.perf_counter(),
            kind="task", parent=stage, index=index,
        )
        task.add("rows_in", len(items))
        task.add("rows_out", len(out))
        stage.add("tasks")
        stage.add("rows_in", len(items))
        stage.add("rows_out", len(out))
        return out

    return traced


class Scheduler:
    """Materializes RDDs by executing their lineage on an executor.

    ``planner`` (an :class:`~repro.rdd.stats.AdaptivePlanner`) drives
    the row-count-based join choices and holds the report decisions
    land on; without one, joins are decided on the default config and
    shuffles record nothing.

    ``tracer``/``metrics`` instrument stage submissions: every stage
    run while the tracer is enabled produces a ``stage`` span holding
    one retroactive ``task`` span per partition (see
    :func:`_traced_task`); the registry counts stages and rows
    regardless of the tracer switch — those few increments per
    *stage* are noise next to per-row work.
    """

    def __init__(
        self,
        executor: Executor,
        planner: Optional[AdaptivePlanner] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.executor = executor
        self.planner = planner
        self.tracer = tracer
        self.metrics = metrics
        self._depth = 0  # materialize() recursion depth; 0 = a new job

    def materialize(self, rdd: RDD) -> List[Partition]:
        """Compute (or fetch cached) partitions for ``rdd``."""
        if self._depth == 0:
            # a fresh action: tell stateful executors a new job starts
            self.executor.job_boundary()
        self._depth += 1
        try:
            if rdd._cached is not None:
                return rdd._cached
            parts = self._compute(rdd)
            if rdd._persist:
                rdd._cached = parts
            return parts
        finally:
            self._depth -= 1

    # ------------------------------------------------------------------

    def _run_stage(
        self,
        fn: Callable[[int, List[Any]], List[Any]],
        parts: List[Partition],
        origin: str,
    ) -> List[Partition]:
        """Submit one stage, tracing it when the tracer is enabled.

        The untraced path is one attribute check away from the
        original code — the <5% no-op overhead budget rides on that.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self._submit(fn, parts, origin)
        with tracer.span(
            f"stage:{origin}", kind="stage", origin=origin
        ) as stage:
            return self._submit(
                _traced_task(fn, tracer, stage, origin), parts, origin
            )

    def _submit(
        self,
        fn: Callable[[int, List[Any]], List[Any]],
        parts: List[Partition],
        origin: str,
    ) -> List[Partition]:
        """Submit one stage to the executor, counting it."""
        if self.metrics is not None:
            self.metrics.inc("rdd.stages", labels={"origin": origin})
        return self.executor.run_partition_tasks(fn, parts)

    def _compute(self, rdd: RDD) -> List[Partition]:
        if isinstance(rdd, SourceRDD):
            return rdd.partitions
        if isinstance(rdd, ScanRDD):
            return self._compute_scan(rdd)
        if isinstance(rdd, MappedPartitionsRDD):
            return self._compute_narrow_chain(rdd)
        if isinstance(rdd, UnionRDD):
            return self._compute_union(rdd)
        if isinstance(rdd, ShuffledRDD):
            return self._compute_shuffle(rdd)
        if isinstance(rdd, AdaptiveJoinRDD):
            return self._compute_adaptive_join(rdd)
        raise TypeError(f"scheduler cannot materialize {type(rdd).__name__}")

    def _compute_scan(self, rdd: ScanRDD) -> List[Partition]:
        """Materialize a ScanRDD: prune, then read one task per partition.

        The source decides which partitions can possibly match
        (``source.prune``); each surviving partition becomes one task
        that calls ``source.read_partition_stats``. Each task adds its
        read statistics to ``rdd.last_scan`` and the metrics registry
        (always on: the ``scan.*`` metrics are cheap and load-bearing);
        when the tracer is enabled each task also becomes a
        retroactive span carrying its per-partition read stats.
        """
        source, columns = rdd.source, rdd.columns
        predicate = rdd.predicate
        selection = source.prune(predicate)
        placeholders = [
            Partition(i, [src_index])
            for i, src_index in enumerate(selection.indices)
        ]
        agg = {
            "rows_read": 0,
            "bytes_scanned": 0,
            "segments_read": 0,
            "segments_skipped": 0,
        }
        tracer = self.tracer
        stage: Optional[Span] = None  # the scan's span, when traced

        def scan_task(index: int, items: List[Any]) -> List[Any]:
            t0 = time.perf_counter()
            out, st = source.read_partition_stats(
                items[0], columns, predicate
            )
            # counted once the read returns, so a retried attempt
            # counts once
            for key in agg:
                agg[key] += st.get(key, 0)
            if stage is not None:
                task = tracer.record(
                    f"task:scan[{index}]", t0, time.perf_counter(),
                    kind="task", parent=stage, index=index,
                )
                task.add("rows_out", len(out))
                for key, value in st.items():
                    task.add(f"scan.{key}", value)
                stage.add("tasks")
                stage.add("rows_out", len(out))
            return out

        if not placeholders:
            out = [Partition(0, [])]
        elif tracer is not None and tracer.enabled:
            with tracer.span(
                "stage:scan", kind="stage", origin="scan",
                source=source.name,
            ) as stage:
                out = self._submit(scan_task, placeholders, "scan")
                stage.add("scan.partitions_total", selection.total)
                stage.add("scan.partitions_scanned", len(placeholders))
                for key, value in agg.items():
                    stage.add(f"scan.{key}", value)
        else:
            out = self._submit(scan_task, placeholders, "scan")
        agg["partitions_total"] = selection.total
        agg["partitions_scanned"] = len(placeholders)
        agg["partitions_pruned"] = selection.skipped
        rdd.last_scan = agg
        if self.metrics is not None:
            labels = {"source": source.name}
            self.metrics.inc("scan.rows_read", agg["rows_read"],
                             labels=labels)
            self.metrics.inc("scan.bytes_scanned", agg["bytes_scanned"],
                             labels=labels)
            self.metrics.inc("scan.segments_skipped",
                             agg["segments_skipped"], labels=labels)
            self.metrics.inc("scan.partitions_pruned", selection.skipped,
                             labels=labels)
        return out

    def _compute_narrow_chain(self, rdd: MappedPartitionsRDD) -> List[Partition]:
        """Pipeline consecutive narrow transformations into one task."""
        fns: List[Callable[[int, List[Any]], List[Any]]] = [rdd.fn]
        base: RDD = rdd.parent
        while (
            isinstance(base, MappedPartitionsRDD)
            and not base._persist
            and base._cached is None
        ):
            fns.append(base.fn)
            base = base.parent
        fns.reverse()
        base_parts = self.materialize(base)

        def composed(index: int, items: List[Any]) -> List[Any]:
            for fn in fns:
                items = fn(index, items)
            return items

        return self._run_stage(composed, base_parts, "narrow")

    def _compute_union(self, rdd: UnionRDD) -> List[Partition]:
        parts: List[Partition] = []
        for parent in rdd.rdds:
            for p in self.materialize(parent):
                # defensive copy: a persisted (or source) parent keeps
                # its own `data` lists alive, and downstream stages may
                # extend/consume union partitions in place — aliasing
                # them would corrupt the parent's cached partitions
                parts.append(Partition(len(parts), list(p.data)))
        return parts

    def _compute_shuffle(self, rdd: ShuffledRDD) -> List[Partition]:
        parent_parts = self.materialize(rdd.parent)
        shuffle_t0 = time.perf_counter()
        input_rows = sum(len(p.data) for p in parent_parts)
        executor = self.executor
        n = executor.reduce_partitions(rdd.ctx.default_parallelism)
        create = rdd.create
        merge_value = rdd.merge_value
        merge_combiners = rdd.merge_combiners

        def map_task(_index: int, items: List[Any]) -> List[Any]:
            # One dict of partial combiners per output bucket: the
            # map-side combine that keeps shuffle volume proportional
            # to distinct keys rather than records. One bucket is a
            # plain group-by that hashes nothing.
            if n == 1:
                d: dict = {}
                for k, v in items:
                    d[k] = merge_value(d[k], v) if k in d else create(v)
                return [list(d.items())]
            # Bucket indices are memoized per key: composite keys
            # (tuples of strings, dataclasses) pay a recursive
            # portable_hash once per distinct key per task, not once
            # per record.
            buckets: List[dict] = [dict() for _ in range(n)]
            bucket_of: dict = {}
            for k, v in items:
                b = bucket_of.get(k)
                if b is None:
                    b = bucket_of[k] = hash_bucket(k, n)
                d = buckets[b]
                if k in d:
                    d[k] = merge_value(d[k], v)
                else:
                    d[k] = create(v)
            return [list(d.items()) for d in buckets]

        map_out = self._run_stage(map_task, parent_parts, "shuffle-map")
        exchange_t0 = time.perf_counter()

        # Driver-side exchange: regroup bucket b from every map task
        shuffle_parts = [
            Partition(b, [pair for mp in map_out for pair in mp.data[b]])
            for b in range(n)
        ]
        total_pairs = sum(len(p.data) for p in shuffle_parts)

        planner = self.planner
        if planner is not None:
            decision = planner.report.add(Decision(
                "shuffle", "shuffle", executor.reduce_rule,
                f"reduce partitions of {type(executor).__name__}: {n}", {
                    "chosen_partitions": n,
                    "input_rows": input_rows,
                    "shuffled_pairs": total_pairs,
                },
            ))

        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # retroactive span: the exchange just happened, between the
            # map and reduce stage spans on the current thread's span
            exchange = tracer.record(
                "shuffle-exchange",
                exchange_t0,
                time.perf_counter(),
                kind="stage",
                origin="exchange",
            )
            exchange.add("shuffled_pairs", total_pairs)
            exchange.add("buckets", n)

        def reduce_task(_index: int, items: List[Any]) -> List[Any]:
            merged: dict = {}
            for k, combiner in items:
                if k in merged:
                    merged[k] = merge_combiners(merged[k], combiner)
                else:
                    merged[k] = combiner
            return list(merged.items())

        out = self._run_stage(reduce_task, shuffle_parts, "shuffle-reduce")
        if planner is not None:
            planner.report.measured(
                decision, time.perf_counter() - shuffle_t0
            )
        return out

    def _compute_adaptive_join(self, rdd: AdaptiveJoinRDD) -> List[Partition]:
        """Materialize inputs, then pick broadcast-hash vs shuffle.

        The decision reads the exact row counts of the
        just-materialized partitions. The broadcast path keys the small
        side once into a driver-side hash map and streams the big
        side's raw elements through one narrow stage that probes it and
        combines each match on the spot (no shuffle, no keyed pairs);
        the fallback keys the materialized inputs into the ordinary
        :meth:`~repro.rdd.rdd.RDD.join` lineage, then combines.
        """
        left_parts = self.materialize(rdd.left)
        right_parts = self.materialize(rdd.right)
        planner = self.planner or AdaptivePlanner()
        decision = planner.decide_join("join", (
            ("left", sum(len(p.data) for p in left_parts)),
            ("right", sum(len(p.data) for p in right_parts)),
        ))
        join_t0 = time.perf_counter()
        combine = rdd.combine
        if decision.choice == "broadcast":
            build_right = decision.evidence["build_side"] == "right"
            build_parts, build_key, stream_parts, stream_key = (
                (right_parts, rdd.rkey, left_parts, rdd.lkey) if build_right
                else (left_parts, rdd.lkey, right_parts, rdd.rkey)
            )
            build: dict = {}
            for p in build_parts:
                for x in p.data:
                    build.setdefault(build_key(x), []).append(x)
            if build_right:
                def probe(_index: int, items: List[Any]) -> List[Any]:
                    return [combine(x, y) for x in items
                            for y in build.get(stream_key(x), ())]
            else:
                def probe(_index: int, items: List[Any]) -> List[Any]:
                    return [combine(y, x) for x in items
                            for y in build.get(stream_key(x), ())]
            out = self._run_stage(probe, stream_parts, "broadcast-join")
        else:
            # shuffle fallback: the plain join plan over the inputs we
            # already hold (SourceRDD wrappers make them lineage roots)
            lsrc = SourceRDD(rdd.ctx, left_parts).keyBy(rdd.lkey)
            rsrc = SourceRDD(rdd.ctx, right_parts).keyBy(rdd.rkey)
            out = self.materialize(
                lsrc.join(rsrc).map(lambda kv: combine(*kv[1]))
            )
        # the measured strategy cost lands on the decision
        planner.report.measured(decision, time.perf_counter() - join_t0)
        return out
