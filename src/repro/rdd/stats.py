"""Adaptive planner and decision audit trail for the RDD engine.

The paper's Figure 3 shows ScrubJay's combinations are shuffle-bound:
joins pay for the exchange, not the map work. This module provides the
pieces that let the scheduler avoid those exchanges at run time, the
way Spark's adaptive query execution does:

- :class:`AdaptiveConfig` — the adaptive knob, the broadcast threshold
  in rows;
- :class:`AdaptivePlanner` — the decision procedure: broadcast-hash vs
  shuffle join selection;
- :class:`Decision` and :class:`ExecutionReport` — the audit trail.
  Every physical choice made while answering a query (join strategy,
  shuffle partitioning, delta refresh, rollup route) is
  one :class:`Decision` record on the context's report, mirrored into
  the metrics registry, so tests, benchmarks and EXPLAIN ANALYZE can
  assert the optimizer actually fired (and why), rather than trusting
  it.

A shuffle's reduce partition count is no decision of the planner's:
it belongs to the executor (see
:meth:`~repro.rdd.executors.Executor.reduce_partitions`).

Every decision is taken on exact row counts: partitions are lists held
in the driver, so a side's rows are the sum of their lengths and cost
nothing to read. They only steer physical strategy choices — every
strategy produces identical results (asserted by the equivalence
property tests), so a poor choice can cost time but never
correctness.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "AdaptiveConfig",
    "AdaptivePlanner",
    "DECISION_SERIES",
    "Decision",
    "ExecutionReport",
]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for row-count-driven execution.

    The join side with fewer rows is broadcast when it has at most
    ``broadcast_threshold_rows`` rows (16 384: 8 MiB at ~512 B per
    row). ``broadcast_threshold_rows=0`` forces the shuffle plan for
    non-empty sides.
    """

    #: broadcast the join side with fewer rows when it has at most this
    broadcast_threshold_rows: int = 16_384


DEFAULT_ADAPTIVE_CONFIG = AdaptiveConfig()


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
    - ``shuffle`` (scheduler), the executor's reduce-partition rule:
      ``one-bucket`` | ``cluster-parallelism``;
    - ``delta`` (standing-query refresh): ``delta`` | ``replay``;
    - ``rollup`` (metric routing): ``rollup`` | ``raw``;
    - ``plan`` (derivation engine, when estimated rows decided between
      same-schema sequences): ``fewest-rows``.

    ``op`` is the operator it was taken for and ``reason`` says why.
    ``evidence`` holds only the numbers the choice was made on (empty
    when nothing was weighed);
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
    — so the Prometheus dump carries
    the same evidence, and every total, as the audit trail.
    """

    def __init__(self, metrics=None) -> None:
        self.decisions: Deque[Decision] = deque(maxlen=REPORT_CAPACITY)
        #: decisions ever added: a mark taken before a run selects
        #: that run's decisions (:meth:`since`) however often the ring
        #: has wrapped
        self.recorded = 0
        self.metrics = metrics
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
                self.metrics.inc(
                    "rdd.shuffle.pairs", decision.evidence["shuffled_pairs"]
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
        return {"decisions": [d.as_dict() for d in self._held()]}

    def summary(self) -> str:
        held = self._held()
        lines = [f"ExecutionReport: {len(held)} decisions"]
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
    """Turns exact row counts into physical execution choices.

    Owned by the :class:`~repro.rdd.context.SJContext`; consulted by
    the scheduler at materialization time (after input stages ran, so
    decisions see *actual* rows, like Spark AQE) and by the
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

    def decide_join(
        self,
        op: str,
        sides: Sequence[Tuple[str, int]],
        name: Optional[str] = None,
    ) -> Decision:
        """Choose broadcast-hash vs shuffle for a join: broadcast the
        side with the fewest rows of ``sides`` (``(side, rows)`` pairs
        — both sides of an equi-join, the index side of a windowed
        one) when it has at most ``broadcast_threshold_rows`` rows,
        else shuffle, and record it. The evidence is every side's
        rows, the threshold, and the ``build_side`` broadcast;
        ``name`` labels the side in the reason (default: the side).
        """
        cfg = self.config
        evidence: Dict[str, Any] = {
            f"{side}_rows": rows for side, rows in sides
        }
        threshold = evidence["threshold_rows"] = cfg.broadcast_threshold_rows
        side, rows = min(sides, key=lambda s: s[1])
        name = name or side
        if rows <= threshold:
            evidence["build_side"] = side
            choice, reason = "broadcast", (
                f"{name} side {rows} rows <= threshold {threshold} rows"
            )
        else:
            choice, reason = "shuffle", (
                f"{name} side {rows} rows exceeds threshold"
                f" {threshold} rows"
            )
        return self.report.add(Decision("join", op, choice, reason, evidence))
