"""Opt-in, on-disk memoization of derivation results (paper §5.4).

Expensive derivation steps are cached in non-volatile storage keyed by
the *content fingerprint* of the plan subtree that produced them and
of the rows it read (:func:`data_key`), so two derivation sequences
sharing an expensive prefix over the same data compute it only once —
even across sessions and analysts — and changed data never hits a
stale entry. Because the cache can grow to deplete storage, it is
opt-in, bounded, and evicts entries with a least-recently-used (LRU)
policy.

Entries store the collected rows plus the dataset's schema and name;
on a hit the rows are re-parallelized into the live context.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional

logger = logging.getLogger("repro.core.cache")

from repro.core.dataset import ScrubJayDataset
from repro.core.semantics import Schema
from repro.rdd.context import SJContext
from repro.util.hashing import content_hash, stable_json


def data_key(
    fingerprint: str,
    catalog: Mapping[str, ScrubJayDataset],
    names: Iterable[str],
) -> str:
    """The disk-cache key of a result that ``fingerprint`` (a plan
    subtree's, or a serve result's) computed from the ``catalog``
    datasets ``names``: the fingerprint plus a digest of each input's
    schema and rows. An entry is found again exactly when the same
    computation meets the same data, in this session or a later one.

    Each dataset's digest is memoized on it for its current
    ``_data_version``, which a feed advance bumps after growing the
    dataset in place, so a warm hit does not re-read unchanged rows.
    """
    return content_hash({
        "key": fingerprint,
        "data": {n: _digest(catalog[n]) for n in names if n in catalog},
    })


def _digest(dataset: ScrubJayDataset) -> str:
    version = dataset._data_version
    memo = dataset._digest
    if memo is None or memo[0] != version:
        h = hashlib.sha256(stable_json(dataset.schema).encode("utf-8"))
        for row in dataset.collect():
            h.update(stable_json(row).encode("utf-8"))
        memo = dataset._digest = (version, h.hexdigest())
    return memo[1]


@dataclass
class CachedResult:
    """A materialized derivation result ready to re-enter a context.

    ``created_at_wall`` is an optional wall-clock creation stamp
    (``time.time()``); the serve layer's ResultCache uses it to
    enforce its TTL on entries promoted back from disk. Entries
    pickled before the field existed load without it — read it with
    ``getattr(..., "created_at_wall", None)``.
    """

    rows: List[Dict[str, Any]]
    schema_json: dict
    name: str
    created_at_wall: Optional[float] = None

    def to_dataset(self, ctx: SJContext) -> ScrubJayDataset:
        return ScrubJayDataset.from_rows(
            ctx, self.rows, Schema.from_json_dict(self.schema_json), self.name
        )


class DerivationCache:
    """Bounded on-disk LRU cache of derivation results, with an
    optional compressed long-term tier.

    The paper's conclusion sketches "a storage cache hierarchy ...
    where old entries may be compressed and stored in separate
    long-term storage devices"; passing ``cold_directory`` enables
    exactly that: entries evicted from the hot tier are gzip-compressed
    into the cold tier instead of deleted, a cold hit transparently
    decompresses and *promotes* the entry back to hot, and the cold
    tier itself is LRU-bounded by ``max_cold_entries``.

    Parameters
    ----------
    directory:
        Hot tier: uncompressed entry files (created if missing).
    max_entries:
        Hot-tier bound; least recently *used* entries evict first.
        Recency survives process restarts because access bumps the
        file's mtime.
    cold_directory:
        Optional cold tier for compressed demoted entries; omit it for
        the flat single-tier cache.
    max_cold_entries:
        Cold-tier bound; beyond it, the oldest compressed entries are
        deleted for good.
    """

    def __init__(
        self,
        directory: str,
        max_entries: int = 64,
        cold_directory: Optional[str] = None,
        max_cold_entries: int = 256,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_cold_entries <= 0:
            raise ValueError("max_cold_entries must be positive")
        self.directory = directory
        self.max_entries = max_entries
        self.cold_directory = cold_directory
        self.max_cold_entries = max_cold_entries
        os.makedirs(directory, exist_ok=True)
        if cold_directory is not None:
            os.makedirs(cold_directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.cold_hits = 0
        self.evictions = 0
        self.demotions = 0
        self.cold_evictions = 0
        # All public operations run under one re-entrant lock, so a
        # read's load + recency bump is atomic with respect to a
        # concurrent put's eviction pass: an entry can never be evicted
        # mid-read, and a freshly-read entry's mtime is already bumped
        # before any eviction sorts by recency.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"{fingerprint}.pkl")

    def _cold_path(self, fingerprint: str) -> str:
        assert self.cold_directory is not None
        return os.path.join(self.cold_directory, f"{fingerprint}.pkl.gz")

    def get(self, fingerprint: str) -> Optional[CachedResult]:
        """Fetch an entry, bumping its recency. None on miss.

        Checks the hot tier first, then the compressed cold tier;
        a cold hit re-promotes the entry to hot. The recency bump and
        the read happen atomically under the cache lock, so a
        concurrent ``put``'s eviction pass can neither remove the
        entry mid-read nor sort it by a stale timestamp.
        """
        with self._lock:
            path = self._path(fingerprint)
            if os.path.exists(path):
                # Touch *before* loading: once recency is refreshed,
                # even an eviction racing from another process sorts
                # this entry as newest.
                try:
                    os.utime(path, None)
                except OSError:
                    pass
                try:
                    with open(path, "rb") as f:
                        entry = pickle.load(f)
                except Exception as exc:
                    # A truncated or corrupt entry (e.g. half-written
                    # by a killed process) must not poison the cache
                    # permanently: evict the bad file, treat as miss.
                    self._evict_corrupt(path, exc)
                    self.misses += 1
                    return None
                self.hits += 1
                return entry
            entry = self._get_cold(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self.cold_hits += 1
            self._write_hot(fingerprint, entry)  # promote
            self._evict()
            return entry

    def _get_cold(self, fingerprint: str) -> Optional[CachedResult]:
        if self.cold_directory is None:
            return None
        import gzip

        cold = self._cold_path(fingerprint)
        if not os.path.exists(cold):
            return None
        try:
            with gzip.open(cold, "rb") as f:
                entry = pickle.load(f)
        except Exception as exc:
            self._evict_corrupt(cold, exc)
            return None
        try:
            os.remove(cold)  # it lives in the hot tier now
        except OSError:
            pass
        return entry

    @staticmethod
    def _evict_corrupt(path: str, exc: BaseException) -> None:
        logger.warning(
            "derivation cache: evicting unreadable entry %s (%s: %s)",
            path, type(exc).__name__, exc,
        )
        try:
            os.remove(path)
        except OSError:
            pass

    def _write_hot(self, fingerprint: str, entry: CachedResult) -> None:
        # Atomic publish: a process killed mid-write leaves only a tmp
        # file behind, never a truncated entry under the final name.
        path = self._path(fingerprint)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as f:
                pickle.dump(entry, f)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # pickling failed before replace
                try:
                    os.remove(tmp)
                except OSError:
                    pass

    def put(self, fingerprint: str, dataset: ScrubJayDataset) -> None:
        """Store a dataset's rows under the plan fingerprint."""
        entry = CachedResult(
            rows=dataset.collect(),
            schema_json=dataset.schema.to_json_dict(),
            name=dataset.name,
        )
        with self._lock:
            self._write_hot(fingerprint, entry)
            self._evict()

    def put_entry(self, fingerprint: str, entry: CachedResult) -> None:
        """Store an already-materialized :class:`CachedResult` — the
        write-through path used by the serve layer's in-memory
        ResultCache, which has the collected rows in hand already."""
        with self._lock:
            self._write_hot(fingerprint, entry)
            self._evict()

    def invalidate(self, fingerprint: str) -> None:
        """Drop an entry from both tiers (no-op when absent) — used by
        the serve layer when an entry expires by TTL, so the disk copy
        cannot resurrect it."""
        with self._lock:
            try:
                os.remove(self._path(fingerprint))
            except OSError:
                pass
            if self.cold_directory is not None:
                try:
                    os.remove(self._cold_path(fingerprint))
                except OSError:
                    pass

    def _evict(self) -> None:
        files = [
            os.path.join(self.directory, f)
            for f in os.listdir(self.directory)
            if f.endswith(".pkl")
        ]
        if len(files) <= self.max_entries:
            return
        files.sort(key=lambda p: self._mtime(p))
        for path in files[: len(files) - self.max_entries]:
            if self.cold_directory is not None:
                self._demote(path)
            try:
                os.remove(path)
                self.evictions += 1
            except OSError:
                pass
        self._evict_cold()

    @staticmethod
    def _mtime(path: str) -> float:
        try:
            return os.path.getmtime(path)
        except OSError:  # removed by a concurrent process: oldest
            return 0.0

    def _demote(self, hot_path: str) -> None:
        """Compress a hot entry into the cold tier."""
        import gzip

        fingerprint = os.path.basename(hot_path)[: -len(".pkl")]
        cold = self._cold_path(fingerprint)
        tmp = f"{cold}.tmp.{os.getpid()}"
        try:
            with open(hot_path, "rb") as src, gzip.open(tmp, "wb") as dst:
                dst.write(src.read())
            os.replace(tmp, cold)
            self.demotions += 1
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass

    def _evict_cold(self) -> None:
        if self.cold_directory is None:
            return
        files = [
            os.path.join(self.cold_directory, f)
            for f in os.listdir(self.cold_directory)
            if f.endswith(".pkl.gz")
        ]
        if len(files) <= self.max_cold_entries:
            return
        files.sort(key=lambda p: self._mtime(p))
        for path in files[: len(files) - self.max_cold_entries]:
            try:
                os.remove(path)
                self.cold_evictions += 1
            except OSError:
                pass

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction counters as one snapshot dict.

        Surfaced through ``ctx.report`` after plan execution and
        through the serve layer's ``ServiceMetrics`` — the
        machine-readable replacement for grepping log lines.
        """
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "cold_hits": self.cold_hits,
                "evictions": self.evictions,
                "demotions": self.demotions,
                "cold_evictions": self.cold_evictions,
                "hit_rate": (self.hits / total) if total else None,
                "entries": len(self),
                "cold_entries": self.cold_len(),
            }

    def __len__(self) -> int:
        return sum(
            1 for f in os.listdir(self.directory) if f.endswith(".pkl")
        )

    def cold_len(self) -> int:
        if self.cold_directory is None:
            return 0
        return sum(
            1 for f in os.listdir(self.cold_directory)
            if f.endswith(".pkl.gz")
        )

    def clear(self) -> None:
        with self._lock:
            for f in os.listdir(self.directory):
                if f.endswith(".pkl"):
                    try:
                        os.remove(os.path.join(self.directory, f))
                    except OSError:
                        pass
            if self.cold_directory is not None:
                for f in os.listdir(self.cold_directory):
                    if f.endswith(".pkl.gz"):
                        try:
                            os.remove(os.path.join(self.cold_directory, f))
                        except OSError:
                            pass
            self.hits = self.misses = self.cold_hits = 0
            self.evictions = self.demotions = self.cold_evictions = 0
