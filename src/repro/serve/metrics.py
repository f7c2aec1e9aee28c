"""Service observability: counters, gauges, and latency percentiles.

A serving layer is only operable if its health is measurable — the
admission controller's shed rate, the caches' hit rates, and the
latency distribution are what capacity planning reads. ``ServiceMetrics``
is the single thread-safe sink the :class:`~repro.serve.QueryService`
writes into; :meth:`ServiceMetrics.snapshot` returns an immutable,
JSON-able :class:`ServiceSnapshot` combining its own counters with the
plan- and result-cache stats.

Latencies are kept in a bounded reservoir (newest-wins ring) so a
long-running service's percentile cost stays O(reservoir), and qps is
reported both lifetime (completed / uptime) and over a recent sliding
window (robust to warm-up).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional


def percentile(sorted_values: List[float], p: float) -> Optional[float]:
    """Linearly interpolated percentile (``p`` in [0, 100]) of
    pre-sorted data.

    Interpolates between the two straddling order statistics (the
    same definition as ``statistics.quantiles`` with
    ``method='inclusive'``), replacing the old nearest-rank pick:
    nearest-rank made small samples degenerate — with one sample every
    percentile returned it but p95/p99 of two samples jumped straight
    to the max — and reported quantiles the data never contained
    biased high at every sample size.
    """
    if not sorted_values:
        return None
    if p <= 0:
        return sorted_values[0]
    if p >= 100:
        return sorted_values[-1]
    pos = p / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


@dataclass
class ServiceSnapshot:
    """One immutable, JSON-able observation of a running service."""

    uptime_s: float
    submitted: int
    completed: int
    failed: int
    shed: int
    timeouts: int
    cancelled: int
    retried: int
    in_flight: int
    queue_depth: int
    tenants: int
    qps: float           #: lifetime completed / uptime
    recent_qps: float    #: completions inside the sliding window
    latency_s: Dict[str, Optional[float]] = field(default_factory=dict)
    plan_cache: Dict[str, Any] = field(default_factory=dict)
    result_cache: Dict[str, Any] = field(default_factory=dict)
    #: per-shard snapshots plus fleet totals, populated only by a
    #: :class:`~repro.serve.sharded.ShardRouter` (empty otherwise)
    shards: Dict[str, Any] = field(default_factory=dict)
    #: streaming state — feed watermarks, standing-subscription count,
    #: delta/replay refresh counters (empty when nothing streams)
    streams: Dict[str, Any] = field(default_factory=dict)
    #: the session's TuningProfile snapshot — effective knob values
    #: with provenance (default | user-pinned) and version
    profile: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def summary(self) -> str:
        lat = self.latency_s

        def fmt(v: Optional[float]) -> str:
            return f"{v * 1000:.1f}ms" if v is not None else "-"

        return (
            f"ServiceMetrics: {self.completed}/{self.submitted} done, "
            f"{self.failed} failed, {self.shed} shed, "
            f"{self.timeouts} timed out | in-flight {self.in_flight}, "
            f"queued {self.queue_depth} | qps {self.qps:.1f} "
            f"(recent {self.recent_qps:.1f}) | "
            f"p50 {fmt(lat.get('p50'))} p95 {fmt(lat.get('p95'))} "
            f"p99 {fmt(lat.get('p99'))} | "
            f"plan-cache hit rate {self.plan_cache.get('hit_rate')} | "
            f"result-cache hit rate {self.result_cache.get('hit_rate')}"
        )


class ServiceMetrics:
    """Thread-safe metric sink for one QueryService.

    ``registry`` (a :class:`~repro.obs.MetricsRegistry`, normally the
    session context's) receives a mirror of every event as
    ``serve.*`` counters and a ``serve.latency_s`` histogram, so the
    service shows up in the same Prometheus dump as the engine and
    the RDD layer.
    """

    def __init__(
        self,
        reservoir: int = 4096,
        window_s: float = 30.0,
        clock=time.monotonic,
        registry=None,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._started = clock()
        self.registry = registry
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.timeouts = 0
        self.cancelled = 0
        self.retried = 0
        self._latencies: "deque[float]" = deque(maxlen=reservoir)
        self._window_s = window_s
        self._completions: "deque[float]" = deque()

    # ------------------------------------------------------------------
    # recording (called by the service)
    # ------------------------------------------------------------------

    def _count(self, event: str) -> None:
        """Bump counter ``event`` and its ``serve.<event>`` mirror."""
        with self._lock:
            setattr(self, event, getattr(self, event) + 1)
        self._mirror(event)

    def _mirror(self, event: str) -> None:
        if self.registry is not None:
            self.registry.inc(f"serve.{event}")

    def record_submitted(self) -> None:
        self._count("submitted")

    def record_shed(self) -> None:
        self._count("shed")

    def record_cancelled(self) -> None:
        self._count("cancelled")

    def record_timeout(self) -> None:
        self._count("timeouts")

    def record_retry(self) -> None:
        self._count("retried")

    def record_completed(self, latency_s: float) -> None:
        now = self._clock()
        with self._lock:
            self.completed += 1
            self._latencies.append(latency_s)
            self._completions.append(now)
            self._trim(now)
        self._mirror("completed")
        if self.registry is not None:
            self.registry.observe("serve.latency_s", latency_s)

    def record_failed(self, latency_s: Optional[float] = None) -> None:
        with self._lock:
            self.failed += 1
            if latency_s is not None:
                self._latencies.append(latency_s)
        self._mirror("failed")
        # Mirror the latency into the registry histogram too: the
        # snapshot percentiles above include failed-query latencies,
        # so the Prometheus-side serve.latency_s must as well or the
        # two views of the same service disagree.
        if self.registry is not None and latency_s is not None:
            self.registry.observe("serve.latency_s", latency_s)

    def _trim(self, now: float) -> None:
        horizon = now - self._window_s
        while self._completions and self._completions[0] < horizon:
            self._completions.popleft()

    # ------------------------------------------------------------------

    def snapshot(
        self,
        in_flight: int = 0,
        queue_depth: int = 0,
        tenants: int = 0,
        plan_cache: Optional[Dict[str, Any]] = None,
        result_cache: Optional[Dict[str, Any]] = None,
        streams: Optional[Dict[str, Any]] = None,
        profile: Optional[Dict[str, Any]] = None,
    ) -> ServiceSnapshot:
        now = self._clock()
        with self._lock:
            uptime = max(now - self._started, 1e-9)
            self._trim(now)
            lats = sorted(self._latencies)
            recent = len(self._completions)
            return ServiceSnapshot(
                uptime_s=uptime,
                submitted=self.submitted,
                completed=self.completed,
                failed=self.failed,
                shed=self.shed,
                timeouts=self.timeouts,
                cancelled=self.cancelled,
                retried=self.retried,
                in_flight=in_flight,
                queue_depth=queue_depth,
                tenants=tenants,
                qps=self.completed / uptime,
                recent_qps=recent / min(uptime, self._window_s),
                latency_s={
                    "p50": percentile(lats, 50),
                    "p95": percentile(lats, 95),
                    "p99": percentile(lats, 99),
                    "max": lats[-1] if lats else None,
                    "samples": float(len(lats)),
                },
                plan_cache=dict(plan_cache or {}),
                result_cache=dict(result_cache or {}),
                streams=dict(streams or {}),
                profile=dict(profile or {}),
            )
