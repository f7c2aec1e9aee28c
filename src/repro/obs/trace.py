"""Hierarchical spans and the Tracer that produces them.

Design constraints, in order of importance:

1. **Off means free.** Every instrumentation point in the hot path
   (scheduler stages, executor tasks, plan nodes) guards on
   ``tracer.enabled`` or receives :data:`NOOP_SPAN`; a disabled
   tracer costs one attribute read and no allocation. The fig3
   overhead gate in ``benchmarks/harness.py --smoke`` enforces <5%.
2. **Thread-correct.** The "current span" stack is thread-local, so
   service worker threads tracing concurrent queries never splice
   each other's trees. Completed root spans land in one bounded,
   lock-guarded deque.
3. **Cross-process comparable.** Timestamps are ``time.perf_counter()``
   readings; on Linux that is CLOCK_MONOTONIC, which is system-wide,
   so spans recorded in a shard process and merged into the router's
   fleet trace (``ShardRouter.chrome_trace``) land on the same axis as
   the router's own spans.

Spans may also be recorded retroactively with explicit start/end
times — the serve layer uses this for queue-wait, which is over
before tracing of the query body begins.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One timed, named region with counters, attributes, children.

    ``kind`` is the coarse taxonomy exporters group by: ``"query"``,
    ``"solve"``, ``"plan-node"``, ``"stage"``, ``"task"``,
    ``"cache"``, or ``""`` for ad-hoc regions.
    """

    __slots__ = (
        "name", "kind", "attrs", "counters",
        "start", "end", "children", "status",
    )

    def __init__(
        self,
        name: str,
        kind: str = "",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.counters: Dict[str, float] = {}
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self.status: str = "ok"

    # -- counters / attributes -----------------------------------------

    def add(self, counter: str, n: float = 1) -> None:
        """Increment a counter attached to this span."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def set(self, key: str, value: Any) -> None:
        """Set an attribute (non-additive annotation) on this span."""
        self.attrs[key] = value

    # -- timing --------------------------------------------------------

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    # -- structure -----------------------------------------------------

    def child(
        self,
        name: str,
        kind: str = "",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> "Span":
        """Attach and return a new child span (caller times it)."""
        span = Span(name, kind, attrs)
        self.children.append(span)
        return span

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (depth-first) with this name, or None."""
        for c in self.children:
            if c.name == name:
                return c
            hit = c.find(name)
            if hit is not None:
                return hit
        return None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for c in self.children:
            yield from c.walk()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the JSON-tree exporter's unit)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, kind={self.kind!r}, "
            f"duration={self.duration:.6f}, "
            f"children={len(self.children)})"
        )


class NoopSpan:
    """The do-nothing span handed out by a disabled tracer.

    Mutating methods discard their arguments; structural reads return
    empty values. A single module-level instance (:data:`NOOP_SPAN`)
    is shared by everyone, so the disabled path allocates nothing.
    """

    __slots__ = ()

    name = ""
    kind = ""
    status = "ok"
    start = 0.0
    end = 0.0
    duration = 0.0

    @property
    def attrs(self) -> Dict[str, Any]:
        return {}

    @property
    def counters(self) -> Dict[str, float]:
        return {}

    @property
    def children(self) -> List[Span]:
        return []

    def add(self, counter: str, n: float = 1) -> None:
        pass

    def set(self, key: str, value: Any) -> None:
        pass

    def child(self, name: str, kind: str = "", attrs=None) -> "NoopSpan":
        return self

    def find(self, name: str) -> None:
        return None

    def walk(self):
        return iter(())

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def __repr__(self) -> str:
        return "NoopSpan()"


NOOP_SPAN = NoopSpan()


class Tracer:
    """Produces span trees; one per :class:`~repro.rdd.context.SJContext`.

    ``enabled`` is a plain mutable attribute: ``explain(analyze=True)``
    flips it on around one execution and restores it, and every layer
    holding a reference to the tracer (scheduler, engine, serve)
    observes the change because the object is shared, never copied.

    Completed *root* spans are kept in a bounded deque
    (``max_roots``); read them with :meth:`roots`, :meth:`last_root`.
    The current-span stack is thread-local.
    """

    def __init__(self, enabled: bool = True, max_roots: int = 64) -> None:
        self.enabled = enabled
        self._roots: "deque[Span]" = deque(maxlen=max_roots)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span stack ----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "",
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a span as a context manager.

        Nested calls on the same thread build the tree; the outermost
        span becomes a root and is retained. Disabled tracers yield
        the shared :data:`NOOP_SPAN` and record nothing.
        """
        if not self.enabled:
            yield NOOP_SPAN  # type: ignore[misc]
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, kind, attrs if attrs else None)
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is None:
                with self._lock:
                    self._roots.append(span)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        kind: str = "",
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-elapsed region retroactively.

        ``start``/``end`` are ``perf_counter`` readings. Attached
        under ``parent`` when given, else under the thread's current
        span, else retained as a root. Returns :data:`NOOP_SPAN` when
        disabled.
        """
        if not self.enabled:
            return NOOP_SPAN  # type: ignore[return-value]
        span = Span(name, kind, attrs if attrs else None)
        span.start = start
        span.end = end
        target = parent if parent is not None else self.current()
        if target is not None and not isinstance(target, NoopSpan):
            target.children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        return span

    # -- retained roots ------------------------------------------------

    def roots(self) -> List[Span]:
        """Completed root spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def last_root(self) -> Optional[Span]:
        with self._lock:
            return self._roots[-1] if self._roots else None

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()

    def __repr__(self) -> str:
        return f"Tracer(enabled={self.enabled}, roots={len(self._roots)})"
