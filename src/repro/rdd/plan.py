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
— statistics collected from them (see :mod:`repro.rdd.stats`) are
*actual* sizes, not estimates from a static plan. The scheduler uses
them to (1) pick broadcast-hash vs shuffle for
:class:`~repro.rdd.rdd.AdaptiveJoinRDD` nodes, (2) size the reduce
partition count of auto shuffles, and (3) detect skewed shuffle
buckets and split them at key granularity. Every choice is recorded in
the context's :class:`~repro.rdd.stats.ExecutionReport`.

Fault tolerance: a task runs in the driver, on the calling thread, so
its input partitions are always in hand. Transient task failures are
retried in place by the executor (see :mod:`repro.rdd.fault`); there
is no worker pool that could die, and so no stage replay.
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
from repro.rdd.shuffle import hash_bucket, portable_hash
from repro.rdd.stats import AdaptivePlanner, Decision, collect_stats

def _traced_task(
    fn: Callable[[int, List[Any]], List[Any]],
    tracer: Tracer,
    stage: Span,
    origin: str,
) -> Callable[[int, List[Any]], List[Any]]:
    """Wrap a stage function to record one ``task`` span under
    ``stage`` per successful run, with its row counts. A failed
    attempt records nothing, so a retried task counts once."""

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
    the statistics-based choices; without one the scheduler falls back
    to fixed partition counts and shuffle joins, recording nothing.

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
                # persisted partitions will be reused: collect their
                # statistics now so later planning decisions are free
                if rdd._stats is None and self.planner is not None:
                    rdd._stats = collect_stats(parts, self.planner.config)
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

    def _choose_shuffle_partitions(
        self, rdd: ShuffledRDD, parent_parts: List[Partition]
    ) -> tuple:
        """Pick the reduce partition count: (count, how it was chosen —
        ``explicit``, ``stats`` or ``default-parallelism`` —, reason)."""
        if rdd._n is not None:
            return rdd._n, "explicit", "explicit"
        planner = self.planner
        if planner is not None and planner.config.enabled:
            stats = collect_stats(
                parent_parts, planner.config, keyed=True
            )
            n = planner.choose_reduce_partitions(
                stats.total_rows, stats.distinct_keys
            )
            return n, "stats", (
                f"stats: {stats.total_rows} rows,"
                f" ~{stats.distinct_keys} distinct keys,"
                f" target {planner.config.target_partition_rows} rows/part"
            )
        default = "default-parallelism"
        return rdd.ctx.default_parallelism, default, default

    def _compute_shuffle(self, rdd: ShuffledRDD) -> List[Partition]:
        parent_parts = self.materialize(rdd.parent)
        shuffle_t0 = time.perf_counter()
        n, n_choice, n_reason = self._choose_shuffle_partitions(
            rdd, parent_parts
        )
        create = rdd.create
        merge_value = rdd.merge_value
        merge_combiners = rdd.merge_combiners

        def map_task(_index: int, items: List[Any]) -> List[Any]:
            # One dict of partial combiners per output bucket: the
            # map-side combine that keeps shuffle volume proportional
            # to distinct keys rather than records. Bucket indices are
            # memoized per key: composite keys (tuples of strings,
            # dataclasses) pay a recursive portable_hash once per
            # distinct key per task, not once per record.
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

        # Driver-side exchange: regroup bucket b from every map task,
        # splitting skewed buckets at key granularity so one hot bucket
        # does not serialize the whole reduce stage.
        bucket_sizes = [
            sum(len(mp.data[b]) for mp in map_out) for b in range(n)
        ]
        total_pairs = sum(bucket_sizes)
        planner = self.planner
        skewed: List[int] = []
        if planner is not None and planner.config.enabled:
            skewed = planner.detect_skew(bucket_sizes)
        skewed_set = frozenset(skewed)

        shuffle_parts: List[Partition] = []
        mean = total_pairs / n if n else 0.0
        for b in range(n):
            pairs = [pair for mp in map_out for pair in mp.data[b]]
            if b in skewed_set:
                m = planner.skew_splits(len(pairs), mean)
                # secondary hash on the high bits: equal keys stay
                # together (reduce merges whole keys), distinct keys
                # spread over m sub-buckets
                sub: List[List[Any]] = [[] for _ in range(m)]
                for pair in pairs:
                    h = portable_hash(pair[0])
                    sub[(h // n) % m].append(pair)
                nonempty = [s for s in sub if s]
                if len(nonempty) > 1:
                    for s in nonempty:
                        shuffle_parts.append(
                            Partition(len(shuffle_parts), s)
                        )
                    continue
                # a single hot key cannot be split without breaking
                # reduce-side merge; fall through to one partition
            shuffle_parts.append(Partition(len(shuffle_parts), pairs))

        if planner is not None:
            decision = planner.report.add(Decision(
                "shuffle", "shuffle", n_choice, n_reason, {
                    "chosen_partitions": n,
                    "output_partitions": len(shuffle_parts),
                    "input_rows": sum(len(p.data) for p in parent_parts),
                    "shuffled_pairs": total_pairs,
                    "skewed_buckets": skewed,
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
            exchange.add("output_partitions", len(shuffle_parts))
            if skewed:
                exchange.add("skewed_buckets", len(skewed))
            cfg = planner.config if planner is not None else None
            exchange.add(
                "approx_bytes",
                collect_stats(shuffle_parts, cfg).approx_bytes,
            )

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

        Statistics come from the just-materialized partitions — actual
        sizes, not estimates — and are cached on the parents. The
        broadcast path builds a driver-side hash map from the small
        side and streams the big side through one narrow stage (no
        shuffle); the fallback reuses
        the ordinary :meth:`~repro.rdd.rdd.RDD.join` lineage over the
        materialized inputs.
        """
        left_parts = self.materialize(rdd.left)
        right_parts = self.materialize(rdd.right)
        planner = self.planner or AdaptivePlanner()
        cfg = planner.config
        if rdd.left._stats is None or rdd.left._stats.distinct_keys is None:
            rdd.left._stats = collect_stats(left_parts, cfg, keyed=True)
        if rdd.right._stats is None or rdd.right._stats.distinct_keys is None:
            rdd.right._stats = collect_stats(right_parts, cfg, keyed=True)
        decision = planner.decide_join(
            "join", (("left", rdd.left._stats), ("right", rdd.right._stats))
        )
        join_t0 = time.perf_counter()
        if decision.choice == "broadcast":
            if decision.evidence["build_side"] == "right":
                build_parts, stream_parts = right_parts, left_parts
            else:
                build_parts, stream_parts = left_parts, right_parts
            build: dict = {}
            for p in build_parts:
                for k, v in p.data:
                    build.setdefault(k, []).append(v)
            if decision.evidence["build_side"] == "right":
                def probe(_index: int, items: List[Any]) -> List[Any]:
                    return [
                        (k, (v, w))
                        for k, v in items
                        for w in build.get(k, ())
                    ]
            else:
                def probe(_index: int, items: List[Any]) -> List[Any]:
                    return [
                        (k, (w, v))
                        for k, v in items
                        for w in build.get(k, ())
                    ]
            out = self._run_stage(probe, stream_parts, "broadcast-join")
        else:
            # shuffle fallback: the plain join plan over the inputs
            # we already hold (SourceRDD wrappers make them
            # lineage roots)
            lsrc = SourceRDD(rdd.ctx, left_parts)
            rsrc = SourceRDD(rdd.ctx, right_parts)
            out = self.materialize(lsrc.join(rsrc, rdd._n))
        # the measured strategy cost lands on the decision
        planner.report.measured(decision, time.perf_counter() - join_t0)
        return out
