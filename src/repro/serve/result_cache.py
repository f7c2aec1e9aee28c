"""ResultCache: a bounded, TTL'd in-memory cache of query results.

A repeated logical query should return without touching the executor
at all, and the entry must die the moment it can be stale. This cache
provides that:

- keyed **semantically** (:func:`repro.serve.keys.result_key`:
  plan fingerprint + session state fingerprint + catalog data
  version), so any register/drop/dictionary change orphans old
  entries;
- **TTL-bounded** — even a semantically valid entry expires after
  ``ttl`` seconds, putting a ceiling on staleness windows the version
  counters cannot see (e.g. an analyst re-running against wall-clock
  data feeds);
- **LRU-bounded** with hit/miss/eviction/expiration counters exposed
  through :meth:`stats` and the service's ``ServiceMetrics``.

All operations run under one lock: a read copies the entry reference
out before releasing it, so an eviction racing with that read can
never hand the caller a half-dropped entry.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.dataset import ScrubJayDataset
from repro.core.semantics import Schema


@dataclass(eq=False)
class ResultEntry:
    """One materialized result plus its bookkeeping.

    The rows are kept only in the form the entry was born with: typed
    ``rows`` (a local plan; replies encode them) or codec text
    ``wire`` (a router's shard gather; typed uses decode it). The
    other form is derived per call, never stored: a local plan's rows
    are mostly the catalog's own row dicts, so text would allocate the
    answer again, and a router keeping both would double every
    entry."""

    schema: Schema
    name: str
    rows: Optional[List[Dict[str, Any]]] = None
    wire: Optional[List[Dict[str, str]]] = None
    #: the dictionary ``wire`` decodes against
    dictionary: Any = None
    created_at: float = 0.0
    #: catalog dataset names the producing plan read (dependency
    #: tracking for invalidate_dataset); empty = unknown provenance
    datasets: tuple = ()

    def wire_rows(self, dictionary) -> List[Dict[str, str]]:
        """The rows as codec text."""
        if self.wire is not None:
            return self.wire
        # deferred: repro.serve.wire imports the service, which
        # imports this module
        from repro.serve import wire

        return wire.encode_rows(self.rows, self.schema, dictionary)

    def typed_rows(self) -> List[Dict[str, Any]]:
        if self.rows is not None:
            return self.rows
        from repro.serve import wire

        return wire.decode_rows(self.wire, self.schema, self.dictionary)

    def to_dataset(self, ctx) -> ScrubJayDataset:
        return ScrubJayDataset.from_rows(
            ctx, self.typed_rows(), self.schema, self.name
        )


class ResultCache:
    """Semantic LRU+TTL result cache.

    Parameters
    ----------
    max_entries:
        In-memory bound; least recently used entries evict first.
    ttl:
        Seconds an entry stays servable; ``None`` disables expiry.
    clock:
        Injectable monotonic clock for tests.
    """

    def __init__(
        self,
        max_entries: int = 128,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self._entries: "OrderedDict[str, ResultEntry]" = OrderedDict()
        #: dataset name -> keys of entries whose plan read it
        self._deps: Dict[str, set] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    # ------------------------------------------------------------------

    def _expired(self, entry: ResultEntry) -> bool:
        return (
            self.ttl is not None
            and self._clock() - entry.created_at > self.ttl
        )

    def get(self, key: str) -> Optional[ResultEntry]:
        """The live entry for ``key``, or None. Recency refresh is
        atomic with the read."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry):
                del self._entries[key]
                self._unindex(key, entry)
                self.expirations += 1
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def pin(
        self,
        result: Union[ScrubJayDataset, ResultEntry],
        datasets: Optional[List[str]] = None,
    ) -> ResultEntry:
        """Stamp ``result`` — a dataset, collected here (its one
        execution), or a router's gathered entry — as an entry not yet
        published under any key. ``datasets`` names the catalog inputs
        the producing plan read, so :meth:`invalidate_dataset` can
        evict exactly the dependents of an appended-to dataset."""
        entry = (
            result if isinstance(result, ResultEntry)
            else ResultEntry(result.schema, result.name,
                             rows=result.collect())
        )
        entry.created_at = self._clock()
        entry.datasets = tuple(datasets or ())
        return entry

    def put(
        self,
        key: str,
        dataset: Union[ScrubJayDataset, ResultEntry],
        datasets: Optional[List[str]] = None,
    ) -> ResultEntry:
        """Publish a result under ``key`` and return its pinned entry.
        ``dataset`` is a :class:`ResultEntry` from :meth:`pin`, stored
        as is, or a dataset, pinned here first; either way the rows
        are collected once and the entry serves them without
        re-running the plan."""
        entry = (
            dataset if isinstance(dataset, ResultEntry)
            else self.pin(dataset, datasets)
        )
        with self._lock:
            self._insert(key, entry)
        return entry

    def _insert(self, key: str, entry: ResultEntry) -> None:
        # caller holds self._lock
        old = self._entries.get(key)
        if old is not None:
            self._unindex(key, old)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        for name in entry.datasets:
            self._deps.setdefault(name, set()).add(key)
        while len(self._entries) > self.max_entries:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._unindex(evicted_key, evicted)
            self.evictions += 1

    def _unindex(self, key: str, entry: ResultEntry) -> None:
        # caller holds self._lock
        for name in entry.datasets:
            keys = self._deps.get(name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._deps[name]

    def invalidate_dataset(self, name: str) -> int:
        """Evict every entry whose producing plan read dataset
        ``name``; unrelated entries survive. The fix for the append
        story: before this, growing a dataset meant drop +
        re-register, which bumps ``catalog_version`` and orphans
        *every* tenant's cached results fleet-wide. A feed advance
        calls this instead — eviction scoped to actual dependents.
        Returns how many entries were dropped.
        """
        with self._lock:
            keys = list(self._deps.get(name, ()))
            for key in keys:
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self._unindex(key, entry)
            self.invalidations += len(keys)
        return len(keys)

    # ------------------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._deps.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
                "hit_rate": (self.hits / total) if total else None,
                "entries": len(self._entries),
                "ttl": self.ttl,
            }
