"""Statistics substrate and adaptive planner for the RDD engine.

The paper's Figure 3 shows ScrubJay's combinations are shuffle-bound:
joins pay for the exchange, not the map work. This module provides the
pieces that let the scheduler avoid or tune those exchanges at run
time, the way Spark's adaptive query execution does:

- :class:`RDDStats` — lightweight sampled statistics (row counts,
  approximate serialized size, a sampled distinct-key estimate)
  collected driver-side from materialized partitions and cached on
  the RDD;
- :class:`AdaptiveConfig` — the adaptive knobs (broadcast threshold,
  target partition size, skew factors, sampling budgets);
- :class:`AdaptivePlanner` — the decision procedures: broadcast-hash
  vs shuffle join selection, reduce-partition-count selection, and
  skewed-bucket detection;
- :class:`ExecutionReport` — the audit trail. Every decision the
  planner takes is recorded as a :class:`JoinDecision` or
  :class:`ShuffleDecision` so tests and benchmarks can assert the
  optimizer actually fired (and why), rather than trusting it.

Statistics are *estimates*: sizes come from a per-partition row
sample, distinct-key counts from a sampled key census. They only steer
physical strategy choices — every strategy produces identical results
(asserted by the equivalence property tests), so a bad estimate can
cost time but never correctness.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence

from repro.columnar.batch import ColumnBatch, count_rows

__all__ = [
    "AdaptiveConfig",
    "AdaptivePlanner",
    "ExecutionReport",
    "JoinDecision",
    "KernelDecision",
    "RDDStats",
    "ShuffleDecision",
    "collect_stats",
]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for statistics-driven execution.

    The defaults mirror Spark's: broadcast joins below ~8 MiB, reduce
    partitions sized for thousands of rows each, skew declared when a
    bucket is several times the mean. Set ``enabled=False`` to force
    the classic always-shuffle plans (decisions are still recorded,
    marked ``adaptive-disabled``).
    """

    #: master switch: False forces shuffle plans and fixed partitioning
    enabled: bool = True
    #: broadcast a join side whose estimated size is at most this
    broadcast_threshold_bytes: int = 8 * 1024 * 1024
    #: ... and whose row count is at most this (guards bad size samples)
    broadcast_threshold_rows: int = 250_000
    #: auto-chosen reduce partitions aim for this many rows each
    target_partition_rows: int = 8192
    #: bounds for the auto-chosen reduce partition count
    min_reduce_partitions: int = 1
    max_reduce_partitions: int = 256
    #: a shuffle bucket is skewed when it exceeds ``skew_factor`` times
    #: the mean bucket size and holds at least ``skew_min_pairs`` pairs
    skew_factor: float = 4.0
    skew_min_pairs: int = 1024
    #: cap on how many sub-buckets one skewed bucket splits into
    skew_max_splits: int = 16
    #: rows sampled per partition for the size estimate
    stats_sample_rows: int = 64
    #: total keys sampled across partitions for the distinct estimate
    stats_key_budget: int = 2048

    def with_broadcast_threshold(self, num_bytes: int) -> "AdaptiveConfig":
        """A copy with a different broadcast threshold (README knob)."""
        return replace(self, broadcast_threshold_bytes=num_bytes)


DEFAULT_ADAPTIVE_CONFIG = AdaptiveConfig()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


@dataclass
class RDDStats:
    """Aggregated sampled statistics for one materialized RDD.

    ``distinct_keys`` is only present when the stats were collected
    with ``keyed=True`` over ``(key, value)`` elements; it is an
    estimate scaled up from the key sample and capped at
    ``total_rows``.
    """

    total_rows: int
    approx_bytes: int
    distinct_keys: Optional[int] = None


def _approx_size(obj: Any, depth: int = 0) -> int:
    """Approximate in-memory footprint of ``obj`` in bytes.

    Recursive ``sys.getsizeof`` walk over the container types ScrubJay
    rows are made of; large containers are sampled and extrapolated.
    Cheap and rough on purpose — it feeds threshold comparisons, not
    accounting.
    """
    if isinstance(obj, ColumnBatch):
        return obj.approx_bytes()
    size = sys.getsizeof(obj, 64)
    if depth >= 5:
        return size
    if isinstance(obj, dict):
        n = len(obj)
        if n:
            sampled = 0
            taken = 0
            for k, v in islice(obj.items(), 32):
                sampled += _approx_size(k, depth + 1)
                sampled += _approx_size(v, depth + 1)
                taken += 1
            size += sampled * n // taken
    elif isinstance(obj, (list, tuple, set, frozenset)):
        n = len(obj)
        if n:
            sampled = sum(
                _approx_size(x, depth + 1) for x in islice(iter(obj), 32)
            )
            size += sampled * n // min(n, 32)
    return size


def _sample_stride(length: int, budget: int) -> int:
    """Stride that yields at most ``budget`` evenly spread samples."""
    if budget <= 0:
        return max(1, length)
    return max(1, -(-length // budget))


def collect_stats(
    partitions: Sequence[Any],
    config: Optional[AdaptiveConfig] = None,
    keyed: bool = False,
) -> RDDStats:
    """Collect sampled statistics from materialized partitions.

    Runs driver-side over the partitions the scheduler already holds,
    so it adds no stages and no executor round-trips. With
    ``keyed=True``, elements are treated as ``(key, value)`` pairs and
    a key census is sampled for the distinct-key estimate; the
    census degrades gracefully (``distinct_keys=None``) when elements
    are not pairs or keys are unhashable.
    """
    cfg = config or DEFAULT_ADAPTIVE_CONFIG
    total_rows = 0
    total_bytes = 0
    seen_keys: Optional[set] = set() if keyed else None
    keys_sampled = 0
    key_budget = max(
        16, cfg.stats_key_budget // max(1, len(partitions))
    )

    for p in partitions:
        if p.data and isinstance(p.data[0], ColumnBatch):
            # Columnar partitions: logical rows and exact byte counts
            # come straight off the batches — no sampling, no census
            # (batches are not (key, value) pairs).
            total_rows += count_rows(p.data)
            total_bytes += sum(b.approx_bytes() for b in p.data)
            continue
        rows = len(p.data)
        total_rows += rows
        if rows == 0:
            continue
        stride = _sample_stride(rows, cfg.stats_sample_rows)
        sample = p.data[::stride]
        sampled_bytes = sum(_approx_size(x) for x in sample)
        total_bytes += sampled_bytes * rows // len(sample)
        if seen_keys is not None:
            kstride = _sample_stride(rows, key_budget)
            try:
                for item in p.data[::kstride]:
                    k, _v = item
                    seen_keys.add(k)
                    keys_sampled += 1
            except (TypeError, ValueError):
                seen_keys = None  # not (key, value) pairs / unhashable

    distinct: Optional[int] = None
    if seen_keys is not None and keys_sampled:
        distinct_sampled = len(seen_keys)
        if keys_sampled >= total_rows:
            distinct = distinct_sampled
        else:
            distinct = min(
                total_rows,
                max(
                    distinct_sampled,
                    distinct_sampled * total_rows // keys_sampled,
                ),
            )
    return RDDStats(
        total_rows=total_rows,
        approx_bytes=total_bytes,
        distinct_keys=distinct,
    )


# ----------------------------------------------------------------------
# decisions & report
# ----------------------------------------------------------------------


@dataclass
class JoinDecision:
    """One join-strategy choice, with the evidence that drove it."""

    op: str  # "join" | "natural_join" | "interpolation_join" | ...
    strategy: str  # "broadcast" | "shuffle"
    build_side: Optional[str]  # "left" | "right" | None for shuffle
    left_rows: int
    right_rows: int
    left_bytes: int
    right_bytes: int
    threshold_bytes: int
    reason: str
    adaptive: bool = True  # False when adaptive execution is disabled
    #: wall-clock seconds the chosen strategy actually took, filled in
    #: by the scheduler after execution
    measured_s: Optional[float] = None

    kind = "join"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "op": self.op,
            "strategy": self.strategy,
            "build_side": self.build_side,
            "left_rows": self.left_rows,
            "right_rows": self.right_rows,
            "left_bytes": self.left_bytes,
            "right_bytes": self.right_bytes,
            "threshold_bytes": self.threshold_bytes,
            "reason": self.reason,
            "adaptive": self.adaptive,
            "measured_s": self.measured_s,
        }


@dataclass
class ShuffleDecision:
    """One shuffle's tuning outcome: partition count and skew handling."""

    requested_partitions: Optional[int]  # None = caller left it to stats
    chosen_partitions: int
    output_partitions: int  # after skew splitting
    input_rows: int
    shuffled_pairs: int  # post-combine shuffle volume
    skewed_buckets: List[int]
    reason: str
    #: wall-clock seconds for the whole shuffle (map + exchange +
    #: reduce), filled in by the scheduler
    measured_s: Optional[float] = None

    kind = "shuffle"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "requested_partitions": self.requested_partitions,
            "chosen_partitions": self.chosen_partitions,
            "output_partitions": self.output_partitions,
            "input_rows": self.input_rows,
            "shuffled_pairs": self.shuffled_pairs,
            "skewed_buckets": list(self.skewed_buckets),
            "reason": self.reason,
            "measured_s": self.measured_s,
        }


@dataclass
class KernelDecision:
    """One operator's batch-vs-row execution choice.

    Recorded by the columnar execution path so EXPLAIN ANALYZE and the
    equivalence tests can assert which kernel actually ran: ``choice``
    is ``"batch"`` when the vectorized kernel handled the operator and
    ``"row-fallback"`` when it exploded to the row path (with the
    reason — unsupported operator, stray row elements, oversized build
    side, ...).
    """

    op: str  # "filter_equals" | "natural_join" | "groupby" | ...
    choice: str  # "batch" | "row-fallback"
    reason: str

    kind = "kernel"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "op": self.op,
            "choice": self.choice,
            "reason": self.reason,
        }


@dataclass
class DeltaDecision:
    """One standing-query refresh's delta-vs-replay choice.

    Recorded by the streaming layer (:mod:`repro.stream`) each time a
    feed advance refreshes a subscription: ``choice`` is ``"delta"``
    when only the newly appended rows were pushed through the plan
    (union-distributive path) and ``"replay"`` when a
    non-incrementalizable operator forced a scoped recompute at the
    new watermark — with the operator and reason, so tests and
    benchmarks can assert the incremental path actually ran.
    """

    op: str  # offending/root op, e.g. "natural_join"
    choice: str  # "delta" | "replay"
    reason: str

    kind = "delta"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "op": self.op,
            "choice": self.choice,
            "reason": self.reason,
        }


@dataclass
class RollupDecision:
    """One metric query's routing outcome: rollup or raw.

    Recorded by the metrics layer (:mod:`repro.metrics`) every time a
    measure query is answered: ``route`` is ``"rollup"`` when a
    materialized rollup table served the query (with its name and
    grain) and ``"raw"`` when it fell back to base-relation
    computation — with the reason (no registered rollup covers the
    measures, a non-decomposable aggregate needed an exact grain,
    ...), so EXPLAIN ANALYZE and the acceptance tests can assert which
    path actually answered.
    """

    route: str  # "rollup" | "raw"
    rollup: Optional[str]  # winning rollup name, None on raw
    requested_grain: Optional[float]  # query bucket seconds
    rollup_grain: Optional[float]  # winning rollup's bucket seconds
    candidates: int  # how many registered rollups could answer
    reason: str

    kind = "rollup"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "route": self.route,
            "rollup": self.rollup,
            "requested_grain": self.requested_grain,
            "rollup_grain": self.rollup_grain,
            "candidates": self.candidates,
            "reason": self.reason,
        }

    def __str__(self) -> str:
        target = self.rollup if self.route == "rollup" else "raw"
        return (
            f"rollup route -> {target} "
            f"({self.candidates} candidate(s); {self.reason})"
        )


class ExecutionReport:
    """Audit trail of every adaptive decision taken on a context.

    Appended to by the scheduler and the combination layer; read by
    tests and benchmarks to prove the optimizer fired (acceptance
    criterion: the broadcast strategy must be *selected*, not
    hardcoded). Accumulates until :meth:`clear`.

    When constructed with a :class:`~repro.obs.MetricsRegistry`
    (every :class:`~repro.rdd.context.SJContext` does this), each
    decision is also mirrored into the registry as labelled counters
    (``rdd.join.decisions{strategy=...}``,
    ``rdd.shuffle.decisions``,
    ``rdd.shuffle.pairs``), so the Prometheus dump carries the same
    evidence as the audit trail.
    """

    def __init__(self, metrics=None) -> None:
        self.decisions: List[Any] = []
        self.metrics = metrics
        #: latest derivation-cache counter snapshot (hits, misses,
        #: evictions, ...) — set by ScrubJaySession.execute after each
        #: cached plan run, so cache effectiveness lands in the same
        #: audit trail as the join/shuffle decisions instead of only
        #: in log lines.
        self.cache_stats: Dict[str, Any] = {}

    def add_timing(self, name: str, seconds: float) -> None:
        """Observe one measured span (``join.broadcast`` /
        ``join.shuffle`` / ``shuffle``) into the ``rdd.timing.*``
        histograms."""
        if self.metrics is not None:
            self.metrics.observe(f"rdd.timing.{name}", seconds)

    def add(self, decision: Any) -> None:
        self.decisions.append(decision)
        if self.metrics is not None:
            if decision.kind == "join":
                self.metrics.inc(
                    "rdd.join.decisions",
                    labels={"strategy": decision.strategy},
                )
            elif decision.kind == "shuffle":
                self.metrics.inc("rdd.shuffle.decisions")
                self.metrics.inc(
                    "rdd.shuffle.pairs", decision.shuffled_pairs
                )
                if decision.skewed_buckets:
                    self.metrics.inc(
                        "rdd.shuffle.skewed_buckets",
                        len(decision.skewed_buckets),
                    )
            elif decision.kind == "kernel":
                self.metrics.inc(
                    "core.kernel.decisions",
                    labels={"choice": decision.choice},
                )
            elif decision.kind == "delta":
                self.metrics.inc(
                    "stream.delta.decisions",
                    labels={"choice": decision.choice},
                )
            elif decision.kind == "rollup":
                self.metrics.inc(
                    "metrics.rollup.decisions",
                    labels={"route": decision.route},
                )

    def set_cache_stats(self, stats: Dict[str, Any]) -> None:
        self.cache_stats = dict(stats)
        if self.metrics is not None:
            # cumulative snapshot → gauges (re-publication must not
            # double count)
            self.metrics.set_gauges_from(stats, prefix="core.cache.")

    def clear(self) -> None:
        self.decisions.clear()
        self.cache_stats = {}

    def joins(self) -> List[JoinDecision]:
        return [d for d in self.decisions if d.kind == "join"]

    def shuffles(self) -> List[ShuffleDecision]:
        return [d for d in self.decisions if d.kind == "shuffle"]

    def kernels(self) -> List[KernelDecision]:
        return [d for d in self.decisions if d.kind == "kernel"]

    def deltas(self) -> List[DeltaDecision]:
        return [d for d in self.decisions if d.kind == "delta"]

    def rollups(self) -> List[RollupDecision]:
        return [d for d in self.decisions if d.kind == "rollup"]

    def broadcast_joins(self) -> List[JoinDecision]:
        return [d for d in self.joins() if d.strategy == "broadcast"]

    def shuffle_volume(self) -> int:
        """Total post-combine pairs moved through shuffles so far."""
        return sum(d.shuffled_pairs for d in self.shuffles())

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "decisions": [d.as_dict() for d in self.decisions]
        }
        if self.cache_stats:
            out["cache_stats"] = dict(self.cache_stats)
        return out

    def summary(self) -> str:
        lines = [f"ExecutionReport: {len(self.decisions)} decisions"]
        if self.cache_stats:
            cs = self.cache_stats
            lines.append(
                f"  derivation cache: {cs.get('hits', 0)} hits /"
                f" {cs.get('misses', 0)} misses,"
                f" {cs.get('evictions', 0)} evictions"
            )
        for d in self.decisions:
            if d.kind == "join":
                lines.append(
                    f"  join[{d.op}] -> {d.strategy}"
                    f"{' build=' + d.build_side if d.build_side else ''}"
                    f" (L {d.left_rows} rows/{d.left_bytes} B,"
                    f" R {d.right_rows} rows/{d.right_bytes} B,"
                    f" threshold {d.threshold_bytes} B): {d.reason}"
                )
            elif d.kind == "shuffle":
                skew = (
                    f", skewed buckets {d.skewed_buckets}"
                    if d.skewed_buckets
                    else ""
                )
                lines.append(
                    f"  shuffle {d.input_rows} rows ->"
                    f" {d.shuffled_pairs} pairs over"
                    f" {d.output_partitions} partitions"
                    f" (requested {d.requested_partitions},"
                    f" chosen {d.chosen_partitions}{skew}): {d.reason}"
                )
            elif d.kind == "kernel":
                lines.append(
                    f"  kernel[{d.op}] -> {d.choice}: {d.reason}"
                )
            elif d.kind == "delta":
                lines.append(
                    f"  delta[{d.op}] -> {d.choice}: {d.reason}"
                )
            elif d.kind == "rollup":
                lines.append(f"  {d}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.decisions)

    def __repr__(self) -> str:
        return f"ExecutionReport({len(self.decisions)} decisions)"


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------


class AdaptivePlanner:
    """Turns statistics into physical execution choices.

    Owned by the :class:`~repro.rdd.context.SJContext`; consulted by
    the scheduler at materialization time (after input stages ran, so
    decisions see *actual* sizes, like Spark AQE) and by the
    combination layer. Records everything it decides into ``report``.
    """

    def __init__(
        self,
        config: Optional[AdaptiveConfig] = None,
        report: Optional[ExecutionReport] = None,
    ) -> None:
        self.config = config or DEFAULT_ADAPTIVE_CONFIG
        # `is not None`, not truthiness: an empty report is falsy
        self.report = report if report is not None else ExecutionReport()

    # -- joins ---------------------------------------------------------

    def decide_join(
        self,
        left: RDDStats,
        right: RDDStats,
    ) -> JoinDecision:
        """Choose broadcast-hash vs shuffle for an equi-join.

        The smaller side is broadcast when it fits under both broadcast
        thresholds, otherwise the join shuffles.
        """
        cfg = self.config

        def decision(strategy, build_side, reason, adaptive=True):
            d = JoinDecision(
                op="join",
                strategy=strategy,
                build_side=build_side,
                left_rows=left.total_rows,
                right_rows=right.total_rows,
                left_bytes=left.approx_bytes,
                right_bytes=right.approx_bytes,
                threshold_bytes=cfg.broadcast_threshold_bytes,
                reason=reason,
                adaptive=adaptive,
            )
            self.report.add(d)
            return d

        if not cfg.enabled:
            return decision("shuffle", None, "adaptive-disabled", False)

        side, stats = min(
            (("left", left), ("right", right)),
            key=lambda s: (s[1].approx_bytes, s[1].total_rows),
        )
        if (
            stats.approx_bytes <= cfg.broadcast_threshold_bytes
            and stats.total_rows <= cfg.broadcast_threshold_rows
        ):
            return decision(
                "broadcast",
                side,
                f"{side} side ~{stats.approx_bytes} B"
                f" <= threshold {cfg.broadcast_threshold_bytes} B",
            )
        return decision(
            "shuffle",
            None,
            f"smallest side ~{stats.approx_bytes} B / {stats.total_rows}"
            f" rows exceeds broadcast thresholds"
            f" ({cfg.broadcast_threshold_bytes} B /"
            f" {cfg.broadcast_threshold_rows} rows)",
        )

    def decide_bin_broadcast(
        self, bin_side: RDDStats, op: str = "interpolation_join"
    ) -> JoinDecision:
        """Broadcast the bin side of a windowed join when it is small.

        The interpolation join shuffles both datasets into time bins;
        when the sensor-style (right) dataset, keyed as the
        ``(epoch, row)`` pairs it would ship, fits under the broadcast
        threshold, it goes whole to every task instead and the join
        runs no shuffle at all.
        """
        cfg = self.config
        if not cfg.enabled:
            d = JoinDecision(
                op=op, strategy="shuffle", build_side=None,
                left_rows=0, right_rows=bin_side.total_rows,
                left_bytes=0,
                right_bytes=bin_side.approx_bytes,
                threshold_bytes=cfg.broadcast_threshold_bytes,
                reason="adaptive-disabled", adaptive=False,
            )
            self.report.add(d)
            return d
        if (
            bin_side.approx_bytes <= cfg.broadcast_threshold_bytes
            and bin_side.total_rows <= cfg.broadcast_threshold_rows
        ):
            d = JoinDecision(
                op=op, strategy="broadcast", build_side="right",
                left_rows=0, right_rows=bin_side.total_rows,
                left_bytes=0, right_bytes=bin_side.approx_bytes,
                threshold_bytes=cfg.broadcast_threshold_bytes,
                reason=f"bin side ~{bin_side.approx_bytes} B"
                       f" <= threshold {cfg.broadcast_threshold_bytes} B",
            )
        else:
            d = JoinDecision(
                op=op, strategy="shuffle", build_side=None,
                left_rows=0, right_rows=bin_side.total_rows,
                left_bytes=0, right_bytes=bin_side.approx_bytes,
                threshold_bytes=cfg.broadcast_threshold_bytes,
                reason=f"bin side ~{bin_side.approx_bytes} B exceeds"
                       f" threshold {cfg.broadcast_threshold_bytes} B",
            )
        self.report.add(d)
        return d

    # -- shuffles ------------------------------------------------------

    def choose_reduce_partitions(
        self, input_rows: int, distinct_keys: Optional[int] = None
    ) -> int:
        """Reduce-partition count sized from input statistics.

        Targets ``target_partition_rows`` rows per reduce partition,
        clamped to the configured bounds and (when known) the distinct
        key count — more partitions than keys is pure overhead.
        """
        cfg = self.config
        n = -(-max(0, input_rows) // cfg.target_partition_rows) or 1
        if distinct_keys is not None:
            n = min(n, max(1, distinct_keys))
        return max(
            cfg.min_reduce_partitions, min(cfg.max_reduce_partitions, n)
        )

    def detect_skew(self, bucket_sizes: Sequence[int]) -> List[int]:
        """Indices of buckets holding disproportionate shuffle volume."""
        cfg = self.config
        total = sum(bucket_sizes)
        if not total or len(bucket_sizes) < 2:
            return []
        mean = total / len(bucket_sizes)
        return [
            b
            for b, size in enumerate(bucket_sizes)
            if size >= cfg.skew_min_pairs and size > cfg.skew_factor * mean
        ]

    def skew_splits(self, bucket_size: int, mean: float) -> int:
        """How many sub-buckets to split one skewed bucket into."""
        cfg = self.config
        m = -(-bucket_size // max(1, int(mean)))
        return max(2, min(cfg.skew_max_splits, m))
