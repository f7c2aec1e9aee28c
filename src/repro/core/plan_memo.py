"""The session's plan memo: memoization of the §5.2 search.

The engine's schema-only search is fast relative to execution but far
from free — multi-dataset queries walk a combinatorial subset lattice
— and it is fully determined by (catalog schemas, dictionary version,
registered ops, engine settings, normalized query). A session keeps
one :class:`PlanMemo` of whole solved plans keyed by :func:`plan_key`
(its ``state_fingerprint()`` and the normalized query), so a repeated
question skips the search on every answer route: ``sj.ask``, a metric
ask, a rollup and the serve tier.

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
- **invalidation**: the key embeds the session state fingerprint, so
  catalog and dictionary changes make old entries unreachable (the
  LRU bound reclaims them); an ``engine.*`` knob write calls
  ``clear()``, and a search in flight across it is not stored.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Tuple

from repro.core.pipeline import DerivationPlan
from repro.core.query import Query
from repro.errors import NoSolutionError
from repro.util.hashing import content_hash


def normalize_query(query: Query) -> Query:
    """Canonical field order: a query is a *set* of dimensions (paper
    §5.1), so domain/value order must not affect cache identity.
    Filters are a conjunction, so their order is canonicalized too;
    an empty filter tuple serializes to the pre-filter JSON form,
    keeping historical keys stable."""
    return Query(
        tuple(sorted(query.domains)),
        tuple(
            sorted(
                query.values,
                key=lambda t: (t.dimension, t.units or ""),
            )
        ),
        tuple(
            sorted(
                query.filters,
                key=lambda f: repr(f.to_json_dict()),
            )
        ),
        # metric terms: a measure set and per-dims are sets too; the
        # grain is already canonical (seconds). Plain queries carry
        # empty tuples and keep their historical keys.
        tuple(
            sorted(
                query.measures,
                key=lambda m: (m.dimension, m.how, m.window or 0.0),
            )
        ),
        tuple(sorted(query.per)),
        query.grain,
    )


def plan_key(state_fingerprint: str, query: Query) -> str:
    """Memo key of one search: state fingerprint + normalized query."""
    return content_hash({
        "state": state_fingerprint,
        "query": normalize_query(query).to_json_dict(),
    })


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


class PlanMemo:
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
        # bumped by clear(): a solve started before it is not stored
        self._generation = 0
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
                    generation = self._generation
                    break
            # Another thread is already searching: wait and re-check.
            waiter.wait()

        try:
            plan = solver()
        except NoSolutionError as exc:
            # Cache a detached copy so the stored entry does not pin
            # the solver's stack frames via exc.__traceback__.
            self._store(key, ("error", _copy_error(exc)), generation)
            raise
        except BaseException:
            # Non-deterministic/invalid failures: drop the in-flight
            # marker so the next caller retries the search.
            with self._lock:
                self._wake(key)
            raise
        else:
            self._store(key, ("plan", plan), generation)
            return plan

    def _store(
        self, key: str, entry: Tuple[str, Any], generation: int
    ) -> None:
        with self._lock:
            if generation == self._generation:
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

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._generation += 1

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
