"""The benchmark's metric definitions and the per-layer arithmetic.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions: ``BENCHMARK.json`` lists exactly these,
the runner prints exactly these, and ``compare`` reads the bounds from
here. Every workload reports every metric; a layer the workload never
enters reports 0 (that zero is the "predicted no change" cell of the
interaction table in README.md).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

#: name, unit, better, bound: the worsening ``run.py compare`` counts
#: as a regression, and the run-to-run spread above which it answers
#: ``unresolved`` instead. On an unsteady host that is the honest
#: answer; BENCHMARK.json carries wider bounds for the timings, because
#: its driver rejects a benchmark whose own spread exceeds them (see
#: README.md).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.20),
    ("answer_p50_s", "s", "lower", 0.10),
    ("answer_p90_s", "s", "lower", 0.15),
    ("ops_per_s", "1/s", "higher", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.15),
]

#: ``disk_bytes_per_row`` repeats exactly, so its bound is tight. It and
#: ``fail_ratio`` (bound 0: any rise) are end-to-end quantities the
#: suite result carries beside the five above; BENCHMARK.json cannot
#: list them, because they are 0 on workloads without a store
DISK_BYTES_BOUND = 0.02

#: operation kind -> the per-kind median's metric name
KIND_METRICS: Dict[str, str] = {
    "natural_join": "session.ask_natural_join_p50_s",
    "interp_join": "session.ask_interp_join_p50_s",
    "freq": "session.ask_freq_p50_s",
    "heat": "session.ask_heat_p50_s",
    "selective": "session.ask_selective_p50_s",
    "slice": "session.ask_slice_p50_s",
    "full_metric": "session.ask_full_metric_p50_s",
    "hot_point": "serve.wire.client_hot_point_p50_s",
    "cold_point": "serve.wire.client_cold_point_p50_s",
    "aggregate": "serve.wire.client_aggregate_p50_s",
    "range_join": "serve.wire.client_range_join_p50_s",
    "advance": "serve.service.advance_p50_s",
    "rollup_read": "serve.service.rollup_read_p50_s",
    "window_read": "serve.service.window_read_p50_s",
}

#: ``<span name>_self_s``: mean self seconds per operation of the spans
#: with that name (see tracing.WRAP_TABLE)
SELF_SPANS = [
    "core.engine.solve", "core.pushdown.rewrite", "core.pipeline.execute",
    "rdd.materialize", "columnar.convert", "columnar.kernel",
    "sources.read", "store.scan", "store.append", "stream.advance",
    "stream.delta", "metrics.partials", "metrics.finalize",
    "metrics.rollup_answer", "metrics.rollup_refresh",
    "analysis.aggregate", "serve.sharded.merge", "serve.wire.dispatch",
    "serve.wire.encode", "serve.wire.decode",
]

_S, _C, _R = "s", "count", "ratio"

PER_LAYER: List[Tuple[str, str, str]] = (
    [(name, _S, "lower") for name in KIND_METRICS.values()]
    + [(span + "_self_s", _S, "lower") for span in SELF_SPANS]
    + [
        ("core.engine.solve_calls", _C, "lower"),
        ("rdd.shuffle_pairs", _C, "lower"),
        ("rdd.broadcast_join_ratio", _R, "higher"),
        ("columnar.batch_ratio", _R, "higher"),
        ("sources.rows_read", _C, "lower"),
        ("sources.bytes_scanned", "B", "lower"),
        ("sources.partitions_pruned", _C, "higher"),
        ("sources.segments_skipped", _C, "higher"),
        ("sources.rows_returned_ratio", _R, "higher"),
        ("sources.read_amplification", _R, "lower"),
        ("store.segments", _C, "lower"),
        ("store.files_written", _C, "lower"),
        ("store.disk_bytes_per_row", "B/row", "lower"),
        ("stream.delta_refresh_ratio", _R, "higher"),
        ("metrics.rollup_route_ratio", _R, "higher"),
        ("serve.service.queue_wait_s", _S, "lower"),
        ("serve.service.exec_s", _S, "lower"),
        ("serve.service.shed", _C, "lower"),
        ("serve.plan_cache.hit_ratio", _R, "higher"),
        ("serve.result_cache.hit_ratio", _R, "higher"),
        ("serve.result_cache.evictions", _C, "lower"),
        ("serve.sharded.shard_wait_s", _S, "lower"),
        ("serve.sharded.shard_requests", _C, "lower"),
        ("serve.sharded.pruned_ratio", _R, "higher"),
        ("serve.sharded.stale_retries", _C, "lower"),
        ("serve.sharded.failovers", _C, "lower"),
        ("serve.wire.socket_wait_s", _S, "lower"),
        ("serve.wire.bytes_per_row", "B/row", "lower"),
        ("trace.coverage_ratio", _R, "higher"),
        ("trace.overhead_ratio", _R, "lower"),
    ]
)

#: below this share of operation time landing in a named layer the
#: traced run fails: a layer nobody can attribute time to is a bug
MIN_COVERAGE = 0.9


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of unsorted values, q in [0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(
    latencies: Dict[str, List[float]],
    summary: Dict[str, Any],
    sums: Dict[str, float],
    delta: Dict[str, float],
    phase_ops: int,
    disk: Dict[str, float],
    wire_bytes: Tuple[int, int],
    untraced_p50: float,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced phase.

    ``latencies`` are the recorded operations' latencies by kind,
    ``summary`` is :func:`tracing.summarize` over their spans and
    ``sums`` the recorder's boundary sums: all three cover the recorded
    cycles only. ``delta`` is the growth of the workload's public
    counters over the whole phase of ``phase_ops`` operations (recorded
    or not — the program counts both), ``disk`` the store's
    bytes/files/rows/segments, ``wire_bytes`` (bytes, rows) of the
    sampled row replies, ``untraced_p50`` the unrecorded cycles' median
    latency."""
    ops = max(1, summary["ops"])
    spans = summary["by_span"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0)

    out: Dict[str, float] = {name: 0.0 for name, _u, _b in PER_LAYER}
    for kind, values in latencies.items():
        out[KIND_METRICS[kind]] = statistics.median(values)
    for name in SELF_SPANS:
        out[name + "_self_s"] = span(name, "self_s") / ops

    def d(key: str) -> float:
        return delta.get(key, 0.0)

    all_ops = max(1, phase_ops)

    out["core.engine.solve_calls"] = span("core.engine.solve", "calls") / ops
    out["rdd.shuffle_pairs"] = d("rdd.shuffle.pairs") / all_ops
    out["rdd.broadcast_join_ratio"] = _ratio(
        d("rdd.join.decisions{strategy=broadcast}"),
        d("rdd.join.decisions"),
    )
    out["columnar.batch_ratio"] = _ratio(
        d("core.kernel.decisions{choice=batch}"),
        d("core.kernel.decisions"),
    )
    out["sources.rows_read"] = d("scan.rows_read") / all_ops
    out["sources.bytes_scanned"] = d("scan.bytes_scanned") / all_ops
    out["sources.partitions_pruned"] = d("scan.partitions_pruned") / all_ops
    out["sources.segments_skipped"] = d("scan.segments_skipped") / all_ops
    out["sources.rows_returned_ratio"] = _ratio(
        sums.get("sources.rows_returned", 0.0) / ops,
        d("scan.rows_read") / all_ops,
    )
    out["sources.read_amplification"] = _ratio(
        d("scan.bytes_scanned") / all_ops, disk.get("bytes", 0.0)
    )
    out["store.segments"] = disk.get("segments", 0.0)
    out["store.files_written"] = disk.get("files_written", 0.0) / all_ops
    out["store.disk_bytes_per_row"] = _ratio(
        disk.get("bytes", 0.0), disk.get("rows", 0.0)
    )
    out["stream.delta_refresh_ratio"] = _ratio(
        d("stream.refresh_delta"),
        d("stream.refresh_delta") + d("stream.refresh_replay"),
    )
    out["metrics.rollup_route_ratio"] = _ratio(
        d("metrics.rollup.decisions{route=rollup}"),
        d("metrics.rollup.decisions"),
    )
    tickets = sums.get("serve.service.tickets", 0.0)
    out["serve.service.queue_wait_s"] = _ratio(
        sums.get("serve.service.queue_wait_s", 0.0), tickets
    )
    out["serve.service.exec_s"] = _ratio(
        sums.get("serve.service.exec_s", 0.0), tickets
    )
    out["serve.service.shed"] = d("serve.shed")
    for cache in ("plan_cache", "result_cache"):
        hits = d(f"serve.{cache}.hits")
        out[f"serve.{cache}.hit_ratio"] = _ratio(
            hits, hits + d(f"serve.{cache}.misses")
        )
    out["serve.result_cache.evictions"] = d("serve.result_cache.evictions")
    out["serve.sharded.shard_wait_s"] = span(
        "serve.sharded.shard_request", "total_s"
    ) / ops
    requests = d("serve.sharded.shard_requests")
    out["serve.sharded.shard_requests"] = requests / all_ops
    out["serve.sharded.pruned_ratio"] = _ratio(
        d("serve.sharded.pruned"), d("serve.sharded.pruned") + requests
    )
    out["serve.sharded.stale_retries"] = d("serve.sharded.stale_retries")
    out["serve.sharded.failovers"] = d("serve.sharded.failovers")
    out["serve.wire.socket_wait_s"] = span(
        "serve.wire.client_request", "self_s"
    ) / ops
    out["serve.wire.bytes_per_row"] = _ratio(*wire_bytes)
    out["trace.coverage_ratio"] = summary["coverage_ratio"]
    all_traced = [v for values in latencies.values() for v in values]
    out["trace.overhead_ratio"] = _ratio(
        statistics.median(all_traced) if all_traced else 0.0,
        untraced_p50,
    )
    return out
