"""The DataSource protocol: partitioned, predicate-aware ingestion.

A *data source* is the scan-pipeline successor to the removed eager
``DataWrapper`` shims: instead of materializing the whole source as a
driver-side row list, it exposes

- ``schema()`` — the semantic annotation of the rows it produces;
- ``partitions()`` — cheap driver-side descriptors (store partition
  keys, CSV byte-ranges, SQL rowid ranges) that map 1:1 onto
  :class:`~repro.rdd.rdd.ScanRDD` partitions;
- ``read_partition(i, columns, predicate)`` — the worker-side read:
  decode only partition ``i``, project to ``columns`` and filter by
  ``predicate`` as close to the bytes as the format allows.

``prune(predicate)`` runs driver-side before tasks are launched and
returns a :class:`ScanSelection` — which partitions can possibly hold
matching rows. Sources that cannot prune return everything; pruning
must be conservative (never drop a partition that could match).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.semantics import Schema
from repro.sources.predicate import ColumnPredicate


@dataclass(frozen=True)
class ScanSelection:
    """Result of driver-side pruning: which partitions to scan."""

    #: indices into ``source.partitions()`` that survived pruning
    indices: Tuple[int, ...]
    #: total partitions before pruning
    total: int
    #: free-form evidence (e.g. {"pruned_by": "partition-key"})
    notes: Dict[str, Any] = field(default_factory=dict)

    @property
    def skipped(self) -> int:
        return self.total - len(self.indices)


class DataSource(ABC):
    """Partitioned lazy reader for one external dataset."""

    #: analyst-facing name; set by the ingest builder at registration
    name: str = "source"

    @abstractmethod
    def schema(self) -> Schema:
        """Semantic schema of the rows this source produces."""

    @abstractmethod
    def partitions(self) -> Sequence[Any]:
        """Driver-side partition descriptors (cheap; no data reads)."""

    @abstractmethod
    def read_partition(
        self,
        index: int,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[ColumnPredicate] = None,
    ) -> List[Dict[str, Any]]:
        """Read one partition worker-side, projected and filtered.

        ``columns=None`` means all schema fields. The predicate must be
        applied exactly (``predicate.matches`` row semantics) — callers
        rely on pushed scans returning identical rows to
        scan-then-filter.
        """

    # -- optional refinements ------------------------------------------

    def in_memory_rows(self) -> Optional[Sequence[Dict[str, Any]]]:
        """The committed rows, when they already live in this process,
        without a copy of each row (the engine counts them for its
        estimates, see ``engine.leaf_facts``); None otherwise."""
        return None

    def num_partitions(self) -> int:
        return len(self.partitions())

    def prune(self, predicate: Optional[ColumnPredicate]) -> ScanSelection:
        """Driver-side partition pruning; conservative by default."""
        total = self.num_partitions()
        return ScanSelection(tuple(range(total)), total)

    def read_partition_stats(
        self,
        index: int,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[ColumnPredicate] = None,
    ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """Like :meth:`read_partition`, plus physical-read statistics.

        The stats dict feeds the ``scan.*`` metrics:
        ``rows_read`` (rows examined out of storage, pre-predicate),
        ``bytes_scanned``, and optionally ``segments_read`` /
        ``segments_skipped``. The default wraps ``read_partition`` and
        can only report post-filter row counts — sources should
        override to report honest physical numbers.
        """
        rows = self.read_partition(index, columns, predicate)
        return rows, {"rows_read": len(rows), "bytes_scanned": 0}

    # -- append capability (streaming feeds) ---------------------------
    #
    # An *appendable* source exposes a monotonic integer offset over
    # its committed contents (bytes past the CSV header, sealed store
    # segments, pushed feed rows). ``append_scan(since, until)``
    # returns exactly the rows committed in ``[since, until)`` plus
    # the offset actually reached; offsets returned here are always
    # *committed record boundaries*, so re-scanning from a returned
    # offset never re-delivers or splits a row. Feeds build their
    # exactly-once-per-watermark guarantee on that property.

    def supports_append(self) -> bool:
        """Whether this source can be tailed as a growing feed."""
        return False

    def current_offset(self) -> int:
        """The committed end offset right now (monotonic integer)."""
        from repro.errors import FeedError

        raise FeedError(
            f"{type(self).__name__} ({self.name!r}) is not appendable"
        )

    def append_scan(
        self,
        since_offset: Optional[int] = None,
        until_offset: Optional[int] = None,
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Rows committed in ``[since_offset, until_offset)``.

        ``since_offset=None`` starts from the beginning of the data;
        ``until_offset=None`` reads to the current committed end.
        Returns ``(rows, new_offset)`` where ``new_offset`` is the
        committed boundary actually reached (pass it back as the next
        ``since_offset``). Raises
        :class:`~repro.errors.FeedRewoundError` when ``since_offset``
        lies beyond the source's current end (truncation/rewrite).
        """
        from repro.errors import FeedError

        raise FeedError(
            f"{type(self).__name__} ({self.name!r}) is not appendable"
        )

    def refresh(self) -> None:
        """Drop any cached layout so new appends become visible to
        ``partitions()``/``read_partition``. No-op by default."""

    def bounded(self, offset: int) -> "DataSource":
        """A frozen snapshot source over ``[0, offset)``.

        Used by feed-pinned execution (subscription refreshes, scoped
        replay) so an answer computed "at watermark *w*" never reads
        rows a concurrent writer appended past *w*. The default
        materializes the prefix through :meth:`append_scan` into a
        rows-backed snapshot; sources with a cheap native bound (CSV
        byte ranges) override.
        """
        from repro.sources.rows_source import RowsSource

        rows, _ = self.append_scan(None, offset)
        snap = RowsSource(rows, self.schema(), name=self.name)
        snap.name = self.name
        return snap

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def project_row(
    row: Dict[str, Any], columns: Optional[Sequence[str]]
) -> Dict[str, Any]:
    """Project a row to ``columns`` (None = keep everything)."""
    if columns is None:
        return row
    return {k: v for k, v in row.items() if k in columns}
