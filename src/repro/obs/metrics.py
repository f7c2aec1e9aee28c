"""MetricsRegistry: process-safe counters, gauges, histograms.

One registry per :class:`~repro.rdd.context.SJContext` absorbs what
used to be ad-hoc counter dicts scattered across the codebase
(``ExecutionReport``, the serve layer's ``ServiceMetrics``): those
structures keep their APIs but mirror into
the registry, so one ``to_prometheus(registry)`` dump shows the whole
system.

Metric names are dotted lowercase (``rdd.stage.rows_out``); optional
labels are a frozen tuple of ``(key, value)`` pairs so a metric can be
split by e.g. operation or tenant without unbounded key invention at
call sites.

Tasks run in the driver, so every count lands in the driver's
registry directly; the registry is thread-safe for the service's
worker threads.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

Labels = Tuple[Tuple[str, str], ...]


def _labelkey(labels: Optional[Dict[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Histogram:
    """Streaming summary: count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
        }


class MetricsRegistry:
    """Thread-safe named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, Labels], float] = {}
        self._gauges: Dict[Tuple[str, Labels], float] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}

    # ------------------------------------------------------------------

    def inc(
        self,
        name: str,
        n: float = 1,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        key = (name, _labelkey(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + n

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        with self._lock:
            self._gauges[(name, _labelkey(labels))] = value

    def observe(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        key = (name, _labelkey(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.observe(value)

    # ------------------------------------------------------------------

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> float:
        with self._lock:
            return self._counters.get((name, _labelkey(labels)), 0)

    def gauge(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[float]:
        with self._lock:
            return self._gauges.get((name, _labelkey(labels)))

    def histogram_summary(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[Dict[str, Any]]:
        with self._lock:
            hist = self._histograms.get((name, _labelkey(labels)))
            return hist.summary() if hist is not None else None

    def series(self) -> Dict[str, List[Tuple[Tuple[str, Labels], Any]]]:
        """Everything, structured: per kind (``counters``, ``gauges``,
        ``histograms``) a sorted list of ``((name, labels), value)``,
        a histogram's value being its summary."""
        with self._lock:
            return {
                "counters": sorted(self._counters.items()),
                "gauges": sorted(self._gauges.items()),
                "histograms": [
                    (k, h.summary())
                    for k, h in sorted(self._histograms.items())
                ],
            }

    def snapshot(self) -> Dict[str, Any]:
        """Everything, as one nested plain dict (for JSON dumps and
        test assertions). Labelled series render their labels inline
        as ``name{k=v,...}``."""

        def fmt(key: Tuple[str, Labels]) -> str:
            name, labels = key
            if not labels:
                return name
            inner = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{inner}}}"

        return {
            kind: {fmt(k): v for k, v in items}
            for kind, items in self.series().items()
        }

    def merge_counts(
        self,
        counts: Dict[str, float],
        prefix: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Bulk-increment counters from a plain dict — the bridge for
        legacy ``stats()`` dicts (non-numeric and rate entries are
        skipped; counters must be monotonic)."""
        for k, v in counts.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                continue
            self.inc(f"{prefix}{k}" if prefix else k, v, labels)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
