"""Benchmark-side span recorder for the traced run.

The suite measures end-to-end numbers with nothing installed. A second,
traced run calls :func:`install` after set-up, which wraps the public
callables listed in :data:`WRAP_TABLE` (one row per layer boundary)
with a timing shim. Each call becomes a span: name, start, end, the
span that caused it and the operation it belongs to. Spans stay in
memory and are written as one Chrome-trace file when the run ends.

A layer's self time is its span's duration minus the durations of its
direct children; a child that ran on another thread (a service worker
answering a ticket, the wire handler answering a client) still counts,
because the parent was blocked on it for that interval.

Nothing under ``src/`` is edited and the program's own ``repro.obs``
tracer stays off: what is measured is the program as shipped plus one
Python call frame per wrapped boundary (``trace.overhead_ratio``).
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

#: (module, attribute path, span name[, calling module]).
#: ``Class.method`` paths are patched on the class, bare names in every
#: ``repro`` module that holds a reference — or, with a fourth element,
#: only in that calling module, so one function can be charged to the
#: layer that called it; ``*`` means every public function of the
#: module. The span name is ``<layer>.<boundary>``: the per-layer metric
#: ``<span name>_self_s`` is read straight off it.
WRAP_TABLE: List[Tuple[str, ...]] = [
    ("repro.core.engine", "DerivationEngine.solve", "core.engine.solve"),
    ("repro.core.pushdown", "push_down_plan", "core.pushdown.rewrite"),
    ("repro.core.pipeline", "DerivationPlan.execute",
     "core.pipeline.execute"),
    ("repro.rdd.plan", "Scheduler.materialize", "rdd.materialize"),
    ("repro.columnar.batch", "ColumnBatch.from_rows", "columnar.convert"),
    ("repro.columnar.batch", "ColumnBatch.to_rows", "columnar.convert"),
    ("repro.columnar.kernels", "*", "columnar.kernel"),
    # TableSource.read_partition only delegates to the _stats form
    ("repro.sources.table_source", "TableSource.read_partition_stats",
     "sources.read"),
    ("repro.sources.table_source",
     "TableSource.read_partition_batches_stats", "sources.read"),
    ("repro.sources.table_source", "TableSource.append_scan",
     "sources.read"),
    # Table.scan is a generator nothing on a query path calls; its
    # materializing forms are the boundaries
    ("repro.store.wide_column", "Table.scan_stats", "store.scan"),
    ("repro.store.wide_column", "Table.scan_batches", "store.scan"),
    ("repro.store.wide_column", "Table.read_segment_range", "store.scan"),
    ("repro.store.wide_column", "Table.partitions", "store.scan"),
    ("repro.store.wide_column", "Table.append_rows", "store.append"),
    ("repro.store.wide_column", "Table.flush", "store.append"),
    ("repro.stream.feed", "Feed.advance", "stream.advance"),
    ("repro.stream.delta", "DeltaPlan.execute_delta", "stream.delta"),
    ("repro.stream.delta", "DeltaPlan.execute_full", "stream.replay"),
    ("repro.metrics.compute", "metric_partials", "metrics.partials"),
    ("repro.metrics.compute", "merge_metric_partials", "metrics.finalize"),
    ("repro.metrics.compute", "finalize_metric", "metrics.finalize"),
    ("repro.metrics.rollup", "Rollup.answer", "metrics.rollup_answer"),
    ("repro.metrics.rollup", "Rollup.refresh", "metrics.rollup_refresh"),
    # the router's gather step first, then every other caller
    ("repro.analysis.aggregate", "merge_group_partials",
     "serve.sharded.merge", "repro.serve.sharded"),
    ("repro.analysis.aggregate", "finalize_group_partials",
     "serve.sharded.merge", "repro.serve.sharded"),
    ("repro.analysis.aggregate", "group_aggregate_partials",
     "analysis.aggregate"),
    ("repro.analysis.aggregate", "merge_group_partials",
     "analysis.aggregate"),
    ("repro.analysis.aggregate", "finalize_group_partials",
     "analysis.aggregate"),
    # QueryService.submit is not a span of its own: it returns before
    # the worker starts, so the span left open at ticket creation (one
    # of the three below, or wire.dispatch) is the one that blocks
    ("repro.serve.service", "QueryService.query", "serve.service.call"),
    ("repro.serve.service", "QueryService.aggregate",
     "serve.service.call"),
    ("repro.serve.service", "QueryService.advance",
     "serve.service.advance"),
    ("repro.serve.plan_cache", "PlanCache.get_or_solve",
     "serve.plan_cache.get"),
    ("repro.serve.result_cache", "ResultCache.get",
     "serve.result_cache.get"),
    ("repro.serve.result_cache", "ResultCache.put",
     "serve.result_cache.put"),
    ("repro.serve.wire", "encode_rows", "serve.wire.encode"),
    ("repro.serve.wire", "encode_groups", "serve.wire.encode"),
    ("repro.serve.wire", "decode_rows", "serve.wire.decode"),
    ("repro.serve.wire", "decode_groups", "serve.wire.decode"),
]


def _rows_in(result: Any) -> int:
    """Rows a source read handed back: a row list, batches, or either
    as the first element of a ``(data, stats)`` pair."""
    data = result[0] if isinstance(result, tuple) else result
    if data and hasattr(data[0], "num_rows"):
        return sum(batch.num_rows for batch in data)
    return len(data)


#: wrapped function name -> (sum name, count function over the call's
#: result): counts taken at the boundary where the work happens
BOUNDARY_COUNTS = {
    "read_partition_stats": ("sources.rows_returned", _rows_in),
    "read_partition_batches_stats": ("sources.rows_returned", _rows_in),
}

#: the layers self time is rolled up to, longest prefix first
LAYERS = (
    "core.engine", "core.pushdown", "core.pipeline", "rdd", "columnar",
    "sources", "store", "stream", "metrics", "analysis",
    "serve.service", "serve.sharded", "serve.wire",
    "serve.plan_cache", "serve.result_cache", "op",
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    return span_name


class Span:
    __slots__ = ("sid", "parent", "op", "name", "t0", "t1", "tid")

    def __init__(self, sid: int, parent: int, op: Optional[int],
                 name: str, t0: float, tid: int) -> None:
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.tid = tid


class Recorder:
    """Spans in memory, a thread-local parent stack, and sums taken at
    the same boundaries (queue wait, rows returned)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.sums: Dict[str, float] = defaultdict(float)
        self._tls = threading.local()
        self._ids = itertools.count(1)
        #: open spans another thread may adopt as parent, by span id
        self._handoff: Dict[int, Span] = {}
        self._originals: List[Tuple[Any, str, Any]] = []
        self._sums_lock = threading.Lock()

    def add(self, name: str, amount: float) -> None:
        with self._sums_lock:
            self.sums[name] += amount

    # -- span plumbing -------------------------------------------------

    def _stack(self) -> List[Span]:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def begin(self, name: str, parent: Optional[Span] = None,
              op: Optional[int] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            next(self._ids),
            parent.sid if parent is not None else 0,
            op if op is not None else (
                parent.op if parent is not None else None
            ),
            name, time.perf_counter(), threading.get_ident(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def operation(self, op: int, kind: str) -> Iterator[Span]:
        """The outermost span of one benchmark operation."""
        span = self.begin("op." + kind, op=op)
        try:
            yield span
        finally:
            self.end(span)

    # -- wrapping ------------------------------------------------------

    def _shim(self, func: Callable, name: str,
              leaf: bool = False) -> Callable:
        rec = self
        counted = BOUNDARY_COUNTS.get(getattr(func, "__name__", ""))

        def traced(*args: Any, **kwargs: Any) -> Any:
            tls = rec._tls
            # outside a recorded operation (an untraced cycle, set-up,
            # a background thread) the shim is one dict lookup
            if not tls.__dict__.get("stack") or tls.__dict__.get("mute"):
                return func(*args, **kwargs)
            span = rec.begin(name)
            if leaf:
                tls.mute = True
            try:
                result = func(*args, **kwargs)
            finally:
                if leaf:
                    tls.mute = False
                rec.end(span)
            if counted is not None:
                rec.add(counted[0], counted[1](result))
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def _patch_attr(self, owner: Any, attr: str, make: Callable) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _patch_function(self, module: Any, attr: str, make: Callable,
                        only_in: Optional[str] = None) -> None:
        """Module-level functions are bound by name wherever they were
        imported, so every ``repro`` module holding the original gets
        the shim (or just ``only_in``)."""
        original = getattr(module, attr)
        original = getattr(original, "__wrapped__", original)
        shim = make(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod is None or not mod_name.startswith("repro"):
                continue
            if only_in is not None and mod_name != only_in:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._originals.append((mod, key, original))
                    setattr(mod, key, shim)

    def install(self) -> None:
        """Wrap every boundary in :data:`WRAP_TABLE` plus the four
        hand-off points below. Call after set-up, so forked shard
        processes keep the unwrapped program."""
        for module_name, path, span_name, *caller in WRAP_TABLE:
            module = importlib.import_module(module_name)
            if caller:
                importlib.import_module(caller[0])

            def make(f: Callable, _n: str = span_name) -> Callable:
                return self._shim(f, _n)

            if path == "*":
                for attr, value in list(vars(module).items()):
                    if (
                        not attr.startswith("_")
                        and callable(value)
                        and getattr(value, "__module__", None)
                        == module_name
                        and not isinstance(value, type)
                    ):
                        self._patch_function(module, attr, make)
            elif "." in path:
                cls_name, attr = path.split(".", 1)
                self._patch_attr(getattr(module, cls_name), attr, make)
            else:
                self._patch_function(module, path, make, *caller)
        self._install_handoffs()

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    # -- thread hand-offs ----------------------------------------------
    #
    # Work changes thread twice on the way to an answer: the caller (or
    # the wire handler) creates a QueryTicket that a service worker
    # picks up, and a socket client's request is answered by a handler
    # thread. Parent links across those hops need four special shims.

    def _install_handoffs(self) -> None:
        from repro.serve import service as service_mod
        from repro.serve import sharded as sharded_mod
        from repro.serve import wire as wire_mod

        rec = self

        def ticket_init(orig: Callable) -> Callable:
            def init(self_: Any, *a: Any, **k: Any) -> None:
                orig(self_, *a, **k)
                # the innermost open span is the one that will block
                # on this ticket
                stack = rec._stack()
                self_._bench_parent = stack[-1] if stack else None
            return init

        def service_run(orig: Callable) -> Callable:
            # the one private boundary: the worker's per-ticket entry,
            # the only place the picked-up ticket is in hand
            def run(self_: Any, ticket: Any) -> None:
                parent = getattr(ticket, "_bench_parent", None)
                if parent is None:
                    return orig(self_, ticket)
                span = rec.begin("serve.service.exec", parent=parent)
                try:
                    return orig(self_, ticket)
                finally:
                    rec.end(span)
                    if ticket.started_at is not None \
                            and ticket.finished_at is not None:
                        rec.add(
                            "serve.service.queue_wait_s",
                            ticket.started_at - ticket.submitted_at,
                        )
                        rec.add(
                            "serve.service.exec_s",
                            ticket.finished_at - ticket.started_at,
                        )
                        rec.add("serve.service.tickets", 1)
            return run

        def client_request(orig: Callable) -> Callable:
            def request(self_: Any, req: Dict[str, Any]) -> Any:
                if not rec._stack() or getattr(rec._tls, "mute", False):
                    return orig(self_, req)
                span = rec.begin("serve.wire.client_request")
                rec._handoff[span.sid] = span
                try:
                    # an unknown key the server ignores; it names the
                    # span the handler thread's dispatch belongs under
                    return orig(self_, dict(req, _bench_span=span.sid))
                finally:
                    del rec._handoff[span.sid]
                    rec.end(span)
            return request

        def wire_dispatch(orig: Callable) -> Callable:
            def dispatch(service: Any, request: Dict[str, Any]) -> Any:
                parent = rec._handoff.get(request.get("_bench_span"))
                if parent is None:
                    return orig(service, request)
                span = rec.begin("serve.wire.dispatch", parent=parent)
                try:
                    return orig(service, request)
                finally:
                    rec.end(span)
            return dispatch

        def shard_request(orig: Callable) -> Callable:
            # a leaf: the client connection inside it talks to an
            # unwrapped shard process, so all of it is shard wait
            return rec._shim(orig, "serve.sharded.shard_request",
                             leaf=True)

        self._patch_attr(service_mod.QueryTicket, "__init__", ticket_init)
        self._patch_attr(service_mod.QueryService, "_run", service_run)
        self._patch_attr(wire_mod.QueryClient, "request", client_request)
        self._patch_function(wire_mod, "dispatch", wire_dispatch)
        self._patch_attr(sharded_mod.ShardHandle, "request", shard_request)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus its direct children's durations."""
    spans = list(spans)
    child_sum: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            child_sum[s.parent] += s.t1 - s.t0
    return {
        s.sid: max(0.0, (s.t1 - s.t0) - child_sum.get(s.sid, 0.0))
        for s in spans
    }


def summarize(spans: List[Span]) -> Dict[str, Any]:
    """Self time, total time and call count per (operation kind, span
    name), plus the coverage ratio: the share of operation time that
    landed in a named layer below the benchmark's own call."""
    own = self_times(spans)
    kind_of_op: Dict[int, str] = {}
    op_total = 0.0
    op_self = 0.0
    for s in spans:
        if s.name.startswith("op.") and s.op is not None:
            kind_of_op[s.op] = s.name[3:]
            op_total += s.t1 - s.t0
            op_self += own[s.sid]
    by_name: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    )
    by_kind: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for s in spans:
        kind = kind_of_op.get(s.op) if s.op is not None else None
        if kind is None:
            continue  # outside any operation (e.g. a late worker)
        row = by_name[s.name]
        row["self_s"] += own[s.sid]
        row["total_s"] += s.t1 - s.t0
        row["calls"] += 1
        by_kind[kind][layer_of(s.name)] += own[s.sid]
    return {
        "ops": len(kind_of_op),
        "op_total_s": op_total,
        "coverage_ratio": (
            1.0 - op_self / op_total if op_total > 0 else 0.0
        ),
        "by_span": {k: dict(v) for k, v in sorted(by_name.items())},
        "self_s_by_kind_layer": {
            k: dict(sorted(v.items())) for k, v in sorted(by_kind.items())
        },
    }


def write_chrome_trace(spans: List[Span], path: str,
                       limit: int = 150_000) -> int:
    """Trace Event Format ("X" complete events, microseconds); open in
    chrome://tracing or https://ui.perfetto.dev. Long runs keep the
    first ``limit`` spans so the file stays loadable."""
    origin = min((s.t0 for s in spans), default=0.0)
    kept = sorted(spans, key=lambda s: s.t0)[:limit]
    events = [
        {
            "name": s.name,
            "cat": layer_of(s.name),
            "ph": "X",
            "ts": round((s.t0 - origin) * 1e6, 1),
            "dur": round((s.t1 - s.t0) * 1e6, 1),
            "pid": 1,
            "tid": s.tid,
            "args": {"op": s.op, "sid": s.sid, "parent": s.parent},
        }
        for s in kept
    ]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return len(events)
