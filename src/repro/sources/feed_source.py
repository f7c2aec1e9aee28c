"""An in-process push endpoint as an appendable DataSource.

The streaming analogue of :class:`~repro.sources.rows_source.RowsSource`:
producers ``push()`` typed rows, consumers tail them through the
append capability (``current_offset``/``append_scan``), and the scan
machinery sees a *stable* partition layout — ``partitions()`` always
returns ``num_partitions_hint`` slices over the current committed
length, so plans keep their shape while the data grows monotonically
underneath them.

Offsets are row counts; every offset is trivially a committed record
boundary. The source stays picklable: a pickled copy freezes the row
list and leaves the lock behind.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.semantics import Schema
from repro.errors import FeedRewoundError
from repro.sources.base import DataSource
from repro.sources.predicate import ColumnPredicate
from repro.sources.rows_source import RowsSource


class FeedSource(DataSource):
    """Push rows in; tail them back out as a growing scan source."""

    def __init__(
        self,
        schema: Schema,
        name: str = "feed",
        num_partitions: int = 4,
        rows: Optional[Sequence[Dict[str, Any]]] = None,
    ) -> None:
        self._schema = schema
        self.name = name
        self.num_partitions_hint = max(1, num_partitions)
        self._rows: List[Dict[str, Any]] = [
            dict(r) for r in (rows or [])
        ]
        self._lock = threading.Lock()

    # a pickled copy is a frozen snapshot: the lock stays behind
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def schema(self) -> Schema:
        return self._schema

    # -- producer side -------------------------------------------------

    def push(self, rows: Sequence[Dict[str, Any]]) -> int:
        """Append rows; returns the new committed offset (row count)."""
        copied = [dict(r) for r in rows]
        with self._lock:
            self._rows.extend(copied)
            return len(self._rows)

    # -- scan side -----------------------------------------------------

    def in_memory_rows(self) -> Sequence[Dict[str, Any]]:
        # pushed rows are copies nobody mutates: a shallow snapshot
        with self._lock:
            return list(self._rows)

    def partitions(self) -> Sequence[Tuple[int, int]]:
        with self._lock:
            n = len(self._rows)
        k = self.num_partitions_hint
        step = -(-n // k) if n else 1
        return [
            (min(i * step, n), min((i + 1) * step, n)) for i in range(k)
        ]

    def read_partition(
        self,
        index: int,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[ColumnPredicate] = None,
    ) -> List[Dict[str, Any]]:
        rows, _ = self.read_partition_stats(index, columns, predicate)
        return rows

    def read_partition_stats(
        self,
        index: int,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[ColumnPredicate] = None,
    ):
        start, end = self.partitions()[index]
        with self._lock:
            chunk = [dict(r) for r in self._rows[start:end]]
        wanted = set(columns) if columns is not None else None
        out: List[Dict[str, Any]] = []
        for row in chunk:
            if predicate is not None and not predicate.matches(row):
                continue
            if wanted is not None:
                row = {k: v for k, v in row.items() if k in wanted}
                if not row:
                    continue
            out.append(row)
        return out, {"rows_read": len(chunk), "bytes_scanned": 0}

    # -- append capability ---------------------------------------------

    def supports_append(self) -> bool:
        return True

    def current_offset(self) -> int:
        with self._lock:
            return len(self._rows)

    def append_scan(
        self,
        since_offset: Optional[int] = None,
        until_offset: Optional[int] = None,
    ) -> Tuple[List[Dict[str, Any]], int]:
        lo = 0 if since_offset is None else since_offset
        with self._lock:
            n = len(self._rows)
            hi = n if until_offset is None else until_offset
            if lo > n or hi > n:
                raise FeedRewoundError(
                    f"{self.name}: tail offset {max(lo, hi)} is beyond "
                    f"the feed length {n}",
                    since_offset=lo, current_offset=n,
                )
            return [dict(r) for r in self._rows[lo:hi]], hi

    def bounded(self, offset: int) -> DataSource:
        rows, _ = self.append_scan(None, offset)
        snap = RowsSource(
            rows, self._schema, name=self.name,
            num_partitions=self.num_partitions_hint,
        )
        return snap
