"""repro.obs — structured tracing and metrics for every layer.

The derivation engine hides the *how* of a query; this package makes
the how observable without giving the abstraction up. It provides:

- :class:`Span` / :class:`Tracer` — hierarchical spans
  (query → solve → plan-node → stage → task) with attached counters
  (rows in/out, bytes shuffled, partitions, cache hits/misses,
  retries). A disabled tracer costs one attribute read per
  instrumentation point.
- :class:`MetricsRegistry` — process-safe counters, gauges, and
  histograms absorbing the ad-hoc counters previously scattered over
  ``ExecutionReport`` and ``ServiceMetrics``.
- exporters — span trees as JSON (:func:`to_json_tree`), as
  ``chrome://tracing`` event JSON (:func:`to_chrome_trace`), and the
  registry as a Prometheus-style text dump (:func:`to_prometheus`).

See DESIGN.md "Observability" for the span model and counter
taxonomy.
"""

from repro.obs.trace import NOOP_SPAN, NoopSpan, Span, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.export import (
    render_analyze,
    to_chrome_trace,
    to_json_tree,
    to_prometheus,
)

__all__ = [
    "Span",
    "Tracer",
    "NoopSpan",
    "NOOP_SPAN",
    "MetricsRegistry",
    "to_json_tree",
    "to_chrome_trace",
    "to_prometheus",
    "render_analyze",
]
