"""Exporters: span trees and metric registries in standard formats.

- :func:`to_json_tree` — a span tree as nested plain dicts (stable,
  test-friendly, ``json.dumps``-able).
- :func:`to_chrome_trace` — the ``chrome://tracing`` / Perfetto
  "Trace Event Format": a dict with a ``traceEvents`` list of
  complete ("ph": "X") events, timestamps in microseconds. Load the
  dumped JSON straight into a trace viewer.
- :func:`to_prometheus` — a :class:`MetricsRegistry` as the flat
  Prometheus text exposition format (counters, gauges, histogram
  summaries as ``_count``/``_sum``/``_min``/``_max`` series).
- :func:`render_analyze` — the EXPLAIN ANALYZE renderer: a plan-node
  span tree as the Figure-5-style indented text tree with per-node
  runtime stats appended to each line.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Union

from repro.obs.metrics import Labels, MetricsRegistry
from repro.obs.trace import Span


def to_json_tree(span: Span) -> Dict[str, Any]:
    """A span tree as one nested dict; see :meth:`Span.to_dict`."""
    return span.to_dict()


def to_chrome_trace(
    spans: Union[Span, Iterable[Span]],
    pid: int = 1,
) -> Dict[str, Any]:
    """Span tree(s) as Chrome Trace Event Format JSON (dict form).

    Each span becomes one complete event (``"ph": "X"``) with its
    counters and attributes in ``args``. Timestamps are the spans'
    ``perf_counter`` readings converted to integer microseconds —
    relative placement and durations are what a viewer shows, and
    those are exact. Every span sits on one thread lane: tasks run
    in the driver, on the thread that submitted their stage.
    """
    if isinstance(spans, Span):
        spans = [spans]
    events: List[Dict[str, Any]] = []
    for root in spans:
        for span in root.walk():
            args: Dict[str, Any] = {}
            if span.counters:
                args["counters"] = dict(span.counters)
            if span.attrs:
                args["attrs"] = {
                    k: v for k, v in span.attrs.items()
                    if isinstance(v, (str, int, float, bool, type(None)))
                }
            events.append({
                "name": span.name,
                "cat": span.kind or "span",
                "ph": "X",
                "ts": int(span.start * 1e6),
                "dur": max(0, int(span.duration * 1e6)),
                "pid": pid,
                "tid": 1,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(
    spans: Union[Span, Iterable[Span]], pid: int = 1
) -> str:
    """:func:`to_chrome_trace`, serialized — ready to write to a
    ``.json`` file and open in a viewer."""
    return json.dumps(to_chrome_trace(spans, pid))


# ----------------------------------------------------------------------


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    s = "".join(out)
    if s and s[0].isdigit():
        s = "_" + s
    return s


def _prom_series(name: str, labels: Labels) -> str:
    """One series in exposition form; label values are escaped
    (backslash, double quote, newline) as the format requires."""
    if not labels:
        return _prom_name(name)
    inner = ",".join(
        f'{_prom_name(k)}="{_prom_escape(v)}"' for k, v in labels
    )
    return f"{_prom_name(name)}{{{inner}}}"


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition format."""
    series = registry.series()
    lines: List[str] = []
    for kind in ("counters", "gauges"):
        for (name, labels), value in series[kind]:
            lines.append(f"{_prom_series(name, labels)} {value}")
    for (name, labels), summary in series["histograms"]:
        for suffix in ("count", "sum", "min", "max"):
            v = summary.get(suffix)
            if v is None:
                continue
            lines.append(
                f"{_prom_series(f'{name}_{suffix}', labels)} {v}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0 or unit == "GB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GB"


def _analyze_line(span: Span) -> str:
    stats: List[str] = []
    rows = span.counters.get("rows_out")
    if rows is not None:
        stats.append(f"rows={int(rows)}")
    stats.append(f"time={span.duration * 1e3:.1f}ms")
    scan_rows = span.counters.get("scan.rows_read")
    if scan_rows is not None:
        stats.append(f"scan.rows_read={int(scan_rows)}")
        skipped = span.counters.get("scan.segments_skipped")
        if skipped:
            stats.append(f"scan.segments_skipped={int(skipped)}")
        pruned = span.counters.get("scan.partitions_pruned")
        if pruned:
            stats.append(f"scan.partitions_pruned={int(pruned)}")
        nbytes = span.counters.get("scan.bytes_scanned")
        if nbytes:
            stats.append(f"scan.bytes_scanned={_fmt_bytes(nbytes)}")
    label = span.attrs.get("label", span.name)
    return f"{label}  [{'; '.join(stats)}]"


def render_analyze(root: Span) -> str:
    """An EXPLAIN ANALYZE text tree from a plan-node span tree.

    ``root`` is the ``"plan"`` span produced by
    ``DerivationPlan.execute(..., tracer=..., measure=True)``; each
    descendant of kind ``"plan-node"`` renders as one line, indented
    by depth, carrying its measured rows/time and scan counters.
    """
    lines: List[str] = []

    def visit(span: Span, depth: int) -> None:
        lines.append("  " * depth + _analyze_line(span))
        for c in span.children:
            if c.kind == "plan-node":
                visit(c, depth + 1)

    top = [c for c in root.children if c.kind == "plan-node"]
    if not top and root.kind == "plan-node":
        top = [root]
    for span in top:
        visit(span, 0)
    return "\n".join(lines)
