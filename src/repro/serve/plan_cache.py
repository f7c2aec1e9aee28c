"""PlanCache: memoization of the derivation-engine search (§5.2).

The engine's schema-only search is fast relative to execution but far
from free — multi-dataset queries walk a combinatorial subset lattice
— and it is fully determined by (catalog schemas, dictionary version,
registered ops, normalized query). The serve layer therefore memoizes
whole solved plans under that semantic key (see
:mod:`repro.serve.keys`), so a repeated logical query skips the search
entirely.

Three properties matter under concurrent load:

- **single-flight**: when N clients miss on the same cold key at
  once, exactly one runs the search; the rest block on it and share
  the plan. Without this, a thundering herd of identical searches
  serializes on the engine lock and each pays full price.
- **negative caching**: :class:`~repro.errors.NoSolutionError` is as
  deterministic as a solution (same schemas, same bounds, same
  outcome), so "no solution" is cached too and re-raised on hit —
  a misconfigured client hammering an unsatisfiable query costs one
  search, not one per request.
- **invalidation by keying**: the key embeds the session state
  fingerprint, so registering/dropping a dataset or defining a new
  keyword naturally makes old entries unreachable. ``clear()`` exists
  for explicit flushes; the LRU bound garbage-collects unreachable
  generations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.pipeline import DerivationPlan
from repro.errors import NoSolutionError


def _copy_error(exc: BaseException) -> BaseException:
    """A detached equal of ``exc`` — no traceback, no shared state."""
    try:
        fresh = type(exc)(*exc.args)
        fresh.__dict__.update(exc.__dict__)
    except Exception:  # exotic __init__ signature: fall back to copy
        import copy

        fresh = copy.copy(exc)
    fresh.__traceback__ = None
    fresh.__cause__ = None
    fresh.__context__ = None
    return fresh


class PlanCache:
    """Bounded in-memory LRU of solved (or provably unsolvable) plans."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        # key -> ("plan", DerivationPlan) | ("error", NoSolutionError)
        self._entries: "OrderedDict[str, Tuple[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        # single-flight: key -> Event set once the solver finished
        self._inflight: Dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.negative_hits = 0

    # ------------------------------------------------------------------

    def get_or_solve(
        self,
        key: str,
        solver: Callable[[], DerivationPlan],
    ) -> DerivationPlan:
        """Return the cached plan for ``key``, running ``solver`` on a
        miss (at most once per key across concurrent callers).

        Re-raises a cached :class:`NoSolutionError` on negative hits.
        Solver errors other than ``NoSolutionError`` (e.g. malformed
        queries) are not cached.
        """
        while True:
            with self._lock:
                hit = self._entries.get(key)
                if hit is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    kind, payload = hit
                    if kind == "error":
                        self.negative_hits += 1
                        # Raise a fresh copy: re-raising one shared
                        # instance from many threads races on its
                        # __traceback__ and chains frames forever.
                        raise _copy_error(payload)
                    return payload
                waiter = self._inflight.get(key)
                if waiter is None:
                    # We are the solving thread for this key.
                    self._inflight[key] = threading.Event()
                    self.misses += 1
                    break
            # Another thread is already searching: wait and re-check.
            waiter.wait()

        try:
            plan = solver()
        except NoSolutionError as exc:
            # Cache a detached copy so the stored entry does not pin
            # the solver's stack frames via exc.__traceback__.
            self._store(key, ("error", _copy_error(exc)))
            raise
        except BaseException:
            # Non-deterministic/invalid failures: drop the in-flight
            # marker so the next caller retries the search.
            with self._lock:
                self._wake(key)
            raise
        else:
            self._store(key, ("plan", plan))
            return plan

    def _store(self, key: str, entry: Tuple[str, Any]) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._wake(key)

    def _wake(self, key: str) -> None:
        event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    # ------------------------------------------------------------------

    def peek(self, key: str) -> Optional[DerivationPlan]:
        """The cached plan, without recency bump or solve (None when
        absent or negative)."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is None or hit[0] != "plan":
                return None
            return hit[1]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "negative_hits": self.negative_hits,
                "evictions": self.evictions,
                "hit_rate": (self.hits / total) if total else None,
                "entries": len(self._entries),
            }
