"""Wide-column store tables as partition-pruned data sources.

Scan partitions map 1:1 onto the table's partition keys (the
Cassandra model: a partition is the unit of locality). Pruning happens
at two levels:

- **partition-key pruning** (driver-side, :meth:`TableSource.prune`):
  predicate terms over partition-key columns eliminate whole
  partitions before any task is launched;
- **zone-map pruning** (worker-side, inside ``Table.scan``): segments
  whose per-column min/max/null statistics rule out the partition key
  or the predicate are never opened; from a surviving segment the
  task unpickles its own partition's block and nothing else.

Rows already hold typed values (no codec); fields absent from the
schema and None values are dropped.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.semantics import Schema
from repro.sources.base import DataSource, ScanSelection
from repro.sources.predicate import ColumnPredicate
from repro.store.wide_column import WideColumnStore


class TableSource(DataSource):
    """Read one wide-column table, one scan partition per store
    partition key."""

    def __init__(
        self,
        store: WideColumnStore,
        keyspace: str,
        table: str,
        schema: Schema,
        name: Optional[str] = None,
    ) -> None:
        self.store = store
        self.keyspace = keyspace
        self.table_name = table
        self._schema = schema
        self.name = name or f"{keyspace}.{table}"
        self._keys: Optional[List[Tuple]] = None

    def schema(self) -> Schema:
        return self._schema

    def _table(self):
        return self.store.table(self.keyspace, self.table_name)

    # -- driver side ---------------------------------------------------

    def partitions(self) -> Sequence[Tuple]:
        if self._keys is None:
            self._keys = self._table().partitions()
        return self._keys

    def prune(self, predicate: Optional[ColumnPredicate]) -> ScanSelection:
        keys = self.partitions()
        if predicate is None:
            return ScanSelection(tuple(range(len(keys))), len(keys))
        key_cols = self._table().partition_key
        indices = tuple(
            i
            for i, key in enumerate(keys)
            if predicate.partition_may_match(key_cols, key)
        )
        return ScanSelection(
            indices, len(keys), {"pruned_by": "partition-key"}
        )

    # -- append capability (tailing sealed segments) -------------------

    def supports_append(self) -> bool:
        return True

    def refresh(self) -> None:
        """Forget the cached partition-key list so partitions sealed by
        an append become visible to planning."""
        self._keys = None

    def current_offset(self) -> int:
        """Sealed segment count — memtable rows are not feed-visible
        until :meth:`~repro.store.wide_column.Table.append_rows` (or a
        flush) seals them."""
        return self._table().segment_count()

    def append_scan(
        self,
        since_offset: Optional[int] = None,
        until_offset: Optional[int] = None,
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Rows of segments sealed in ``[since_offset, until_offset)``,
        filtered to schema fields like :meth:`read_partition_stats`."""
        from repro.errors import FeedRewoundError

        table = self._table()
        count = table.segment_count()
        lo = 0 if since_offset is None else since_offset
        hi = count if until_offset is None else until_offset
        if lo > count or hi > count:
            raise FeedRewoundError(
                f"{self.name}: tail offset {max(lo, hi)} is beyond the "
                f"sealed segment count {count} (segments lost?)",
                since_offset=lo, current_offset=count,
            )
        self._keys = None  # new segments may carry new partition keys
        fields = set(self._schema.fields())
        out: List[Dict[str, Any]] = []
        for record in table.read_segment_range(lo, hi):
            row = {
                k: v
                for k, v in record.items()
                if k in fields and v is not None
            }
            if row:
                out.append(row)
        return out, hi

    # -- worker side ---------------------------------------------------

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
        key = self.partitions()[index]
        fields = set(self._schema.fields())
        wanted = fields if columns is None else fields & set(columns)
        raw, stats = self._table().scan_stats(
            partition=key, columns=None, predicate=predicate
        )
        out: List[Dict[str, Any]] = []
        for record in raw:
            row = {
                k: v
                for k, v in record.items()
                if k in wanted and v is not None
            }
            if row:
                out.append(row)
        return out, stats
    # NB: projection happens here (after the schema-field filter), not
    # in Table.scan — predicate columns need not survive into the row.

    # anchor for the WRAP_TABLE row TableSource.read_partition_batches_stats
    def read_partition_batches_stats(self, *_args, **_kwargs):
        raise NotImplementedError("columnar reads were removed")
