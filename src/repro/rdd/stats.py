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
- :class:`Decision` and :class:`ExecutionReport` — the audit trail.
  Every physical choice made while answering a query (join strategy,
  shuffle partitioning, delta refresh, rollup route) is
  one :class:`Decision` record on the context's report, mirrored into
  the metrics registry, so tests, benchmarks and EXPLAIN ANALYZE can
  assert the optimizer actually fired (and why), rather than trusting
  it.

Statistics are *estimates*: sizes come from a per-partition row
sample, distinct-key counts from a sampled key census. They only steer
physical strategy choices — every strategy produces identical results
(asserted by the equivalence property tests), so a bad estimate can
cost time but never correctness.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "AdaptiveConfig",
    "AdaptivePlanner",
    "DECISION_SERIES",
    "Decision",
    "ExecutionReport",
    "RDDStats",
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


#: Each decision kind's registry mirror: ``(counter, label key, timing
#: histogram)``. The label keys are the historical names the registry
#: series carry (dashboards and the benchmark suite read them), so they
#: live here and nowhere else; the label value is the decision's
#: ``choice``. A kind without a label key counts unlabelled, one
#: without a histogram is never timed.
DECISION_SERIES: Dict[str, Tuple[str, Optional[str], Optional[str]]] = {
    "join": ("rdd.join.decisions", "strategy", "rdd.timing.join.{choice}"),
    "shuffle": ("rdd.shuffle.decisions", None, "rdd.timing.shuffle"),
    "delta": ("stream.delta.decisions", "choice", None),
    "rollup": ("metrics.rollup.decisions", "route", None),
    "plan": ("engine.plan.decisions", None, None),
}

#: decisions an :class:`ExecutionReport` holds; older ones drop off
#: while the registry counters keep the totals
REPORT_CAPACITY = 1024


@dataclass
class Decision:
    """One physical choice taken while answering a query, with the
    evidence that drove it.

    ``kind`` names the decision procedure, ``choice`` what it picked:

    - ``join`` (adaptive planner): ``broadcast`` | ``shuffle``;
    - ``shuffle`` (scheduler), how the partition count was chosen:
      ``explicit`` | ``stats`` | ``default-parallelism``;
    - ``delta`` (standing-query refresh): ``delta`` | ``replay``;
    - ``rollup`` (metric routing): ``rollup`` | ``raw``;
    - ``plan`` (derivation engine, when estimated rows decided between
      same-schema sequences): ``fewest-rows``.

    ``op`` is the operator it was taken for and ``reason`` says why.
    ``evidence`` holds only the numbers the choice was made on (empty
    when nothing was weighed, e.g. adaptive execution disabled);
    ``measured_s`` is the wall-clock the chosen strategy then took,
    when the scheduler timed it.
    """

    kind: str
    op: str
    choice: str
    reason: str
    evidence: Dict[str, Any] = field(default_factory=dict)
    measured_s: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON form: the fields, the choice once more under its
        kind's label key, and the evidence."""
        out: Dict[str, Any] = {
            "kind": self.kind, "op": self.op, "choice": self.choice,
        }
        label = DECISION_SERIES[self.kind][1]
        if label:
            out[label] = self.choice
        out["reason"] = self.reason
        out.update(self.evidence)
        out["measured_s"] = self.measured_s
        return out

    def __str__(self) -> str:
        evidence = ", ".join(f"{k}={v}" for k, v in self.evidence.items())
        return "".join([
            f"{self.kind}[{self.op}] -> {self.choice}",
            f" ({evidence})" if evidence else "",
            "" if self.measured_s is None
            else f" in {self.measured_s * 1e3:.1f}ms",
            f": {self.reason}",
        ])


class ExecutionReport:
    """Audit trail of the newest decisions taken on a context.

    Appended to by the scheduler, the combination layer, stream
    refresh and metric routing; read by tests,
    benchmarks and EXPLAIN ANALYZE to prove the optimizer fired (and
    why) rather than trusting it. It holds the newest
    :data:`REPORT_CAPACITY` decisions: a long-lived service records
    several per query.

    When constructed with a :class:`~repro.obs.MetricsRegistry`
    (every :class:`~repro.rdd.context.SJContext` does this), each
    decision is also mirrored into the registry through
    :data:`DECISION_SERIES` — plus a shuffle's ``rdd.shuffle.pairs``
    and ``rdd.shuffle.skewed_buckets`` — so the Prometheus dump carries
    the same evidence, and every total, as the audit trail.
    """

    def __init__(self, metrics=None) -> None:
        self.decisions: Deque[Decision] = deque(maxlen=REPORT_CAPACITY)
        #: decisions ever added: a mark taken before a run selects
        #: that run's decisions (:meth:`since`) however often the ring
        #: has wrapped
        self.recorded = 0
        self.metrics = metrics
        #: latest derivation-cache counter snapshot (hits, misses,
        #: evictions, ...) — set by ScrubJaySession.execute after each
        #: cached plan run, so cache effectiveness lands in the same
        #: audit trail as the join/shuffle decisions instead of only
        #: in log lines.
        self.cache_stats: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def add(self, decision: Decision) -> Decision:
        with self._lock:
            self.decisions.append(decision)
            self.recorded += 1
        if self.metrics is not None:
            counter, label, _ = DECISION_SERIES[decision.kind]
            self.metrics.inc(
                counter, labels={label: decision.choice} if label else None
            )
            if decision.kind == "shuffle":
                evidence = decision.evidence
                self.metrics.inc(
                    "rdd.shuffle.pairs", evidence["shuffled_pairs"]
                )
                if evidence["skewed_buckets"]:
                    self.metrics.inc(
                        "rdd.shuffle.skewed_buckets",
                        len(evidence["skewed_buckets"]),
                    )
        return decision

    def measured(self, decision: Decision, seconds: float) -> None:
        """Land the chosen strategy's wall-clock on ``decision`` and in
        its kind's ``rdd.timing.*`` histogram."""
        decision.measured_s = seconds
        timing = DECISION_SERIES[decision.kind][2]
        if self.metrics is not None and timing:
            self.metrics.observe(
                timing.format(choice=decision.choice), seconds
            )

    def set_cache_stats(self, stats: Dict[str, Any]) -> None:
        self.cache_stats = dict(stats)
        if self.metrics is not None:
            # cumulative snapshot → gauges (re-publication must not
            # double count)
            self.metrics.set_gauges_from(stats, prefix="core.cache.")

    def _held(self) -> List[Decision]:
        with self._lock:
            return list(self.decisions)

    def of(self, kind: str) -> List[Decision]:
        """The held decisions of one kind, oldest first."""
        return [d for d in self._held() if d.kind == kind]

    def since(self, mark: int) -> List[Decision]:
        """The held decisions added after :attr:`recorded` read
        ``mark``, oldest first."""
        with self._lock:
            held = list(self.decisions)
            n = self.recorded - mark
        return held[max(0, len(held) - n):]

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "decisions": [d.as_dict() for d in self._held()]
        }
        if self.cache_stats:
            out["cache_stats"] = dict(self.cache_stats)
        return out

    def summary(self) -> str:
        held = self._held()
        lines = [f"ExecutionReport: {len(held)} decisions"]
        if self.cache_stats:
            cs = self.cache_stats
            lines.append(
                f"  derivation cache: {cs.get('hits', 0)} hits /"
                f" {cs.get('misses', 0)} misses,"
                f" {cs.get('evictions', 0)} evictions"
            )
        lines.extend(f"  {d}" for d in held)
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
        op: str,
        sides: Sequence[Tuple[str, RDDStats]],
        name: Optional[str] = None,
    ) -> Decision:
        """Choose broadcast-hash vs shuffle for a join: broadcast the
        smallest of ``sides`` (``(side, stats)`` pairs — both sides of
        an equi-join, the index side of a windowed one) when it fits
        under both broadcast thresholds, else shuffle, and record it.
        The evidence is every side's rows and bytes, the thresholds,
        and the ``build_side`` broadcast; ``name`` labels the side in
        the reason (default: the side).
        """
        cfg = self.config
        if not cfg.enabled:
            return self.report.add(
                Decision("join", op, "shuffle", "adaptive-disabled")
            )
        evidence: Dict[str, Any] = {}
        for side, stats in sides:
            evidence[f"{side}_rows"] = stats.total_rows
            evidence[f"{side}_bytes"] = stats.approx_bytes
        evidence["threshold_bytes"] = cfg.broadcast_threshold_bytes
        evidence["threshold_rows"] = cfg.broadcast_threshold_rows
        side, stats = min(
            sides, key=lambda s: (s[1].approx_bytes, s[1].total_rows)
        )
        name = name or side
        if (
            stats.approx_bytes <= cfg.broadcast_threshold_bytes
            and stats.total_rows <= cfg.broadcast_threshold_rows
        ):
            evidence["build_side"] = side
            choice, reason = "broadcast", (
                f"{name} side ~{stats.approx_bytes} B"
                f" <= threshold {cfg.broadcast_threshold_bytes} B"
            )
        elif stats.approx_bytes > cfg.broadcast_threshold_bytes:
            choice, reason = "shuffle", (
                f"{name} side ~{stats.approx_bytes} B exceeds"
                f" threshold {cfg.broadcast_threshold_bytes} B"
            )
        else:
            choice, reason = "shuffle", (
                f"{name} side {stats.total_rows} rows exceeds"
                f" threshold {cfg.broadcast_threshold_rows} rows"
            )
        return self.report.add(Decision("join", op, choice, reason, evidence))

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
