"""In-memory rows as a DataSource (tests, generators, datagen feeds)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.semantics import Schema
from repro.sources.base import DataSource
from repro.sources.predicate import ColumnPredicate


class RowsSource(DataSource):
    """Serve an already-materialized row list in fixed-size slices.

    The slices play the role of storage partitions so that the scan
    machinery (pruning, per-partition reads, stats) behaves uniformly
    across sources; with in-memory data there is nothing physical to
    save, but predicates still shrink what crosses the
    executor boundary.
    """

    def __init__(
        self,
        rows: Sequence[Dict[str, Any]],
        schema: Schema,
        name: str = "rows",
        num_partitions: int = 4,
    ) -> None:
        self._rows = list(rows)
        self._schema = schema
        self.name = name
        n = max(1, min(num_partitions, max(1, len(self._rows))))
        size = -(-len(self._rows) // n) if self._rows else 1
        self._slices: List[Tuple[int, int]] = [
            (i, min(i + size, len(self._rows)))
            for i in range(0, max(1, len(self._rows)), size)
        ] or [(0, 0)]

    def schema(self) -> Schema:
        return self._schema

    def partitions(self) -> Sequence[Tuple[int, int]]:
        return self._slices

    def in_memory_rows(self) -> Sequence[Dict[str, Any]]:
        return self._rows

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
        start, end = self._slices[index]
        chunk = self._rows[start:end]
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
