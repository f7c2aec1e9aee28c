"""Wide-column store: keyspace / table / partition key / clustering key.

Mimics the slice of Cassandra's data model that HPC monitoring
ingestion uses (paper §7.1: "a distributed ingestion framework to
continuously collect LDMS data into a distributed NoSQL database
store"):

- a **partition key** (one or more columns) groups rows that are
  stored and scanned together — e.g. ``(node_id,)`` for node counters;
- **clustering columns** order rows inside a partition — e.g. the
  sample timestamp;
- writes append to a per-table **memtable**; ``flush()`` (or exceeding
  the memtable limit) writes an immutable, sorted **segment** file
  plus a **zone map** sidecar (per-column min/max/null-count and the
  partition keys present) used to skip segments at scan time;
- a segment is laid out by partition key — a header, one pickled row
  block per key, and a footer index ``{pkey: (offset, length)}`` — so
  a partition read seeks to its own block and decodes nothing else;
- ``scan()`` merge-reads segments plus the memtable, optionally
  restricted to one partition, projected to ``columns``, and filtered
  by a pushed-down ``predicate`` — segments whose zone map proves no
  row can match are never opened.

Values must be picklable; rows are plain dicts.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import shutil
import struct
from typing import (Any, BinaryIO, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from repro.errors import StoreError

#: zone maps list explicit partition keys up to this many per segment;
#: beyond it the list is dropped (the segment's own index still says
#: exactly which keys it holds, at the cost of opening it)
ZONE_PKEY_CAP = 1024

#: segment header: magic, then the byte offset of the footer index
#: (which runs to the end of the file). A plain pickle starts with
#: ``\x80``, so a file without the magic is a pre-index segment.
_SEGMENT_HEADER = struct.Struct("<8sQ")
_SEGMENT_MAGIC = b"SJSEG01\n"

#: what decoding a torn, vanished or foreign store file raises
_UNREADABLE = (OSError, EOFError, ValueError, struct.error,
               pickle.UnpicklingError)


def _replace_into(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` beside ``path`` and rename them into place, so
    a reader sees the old file or the whole new one, never a part.

    The store's one write path: a failed write or rename removes the
    partial file and raises :class:`StoreError`, leaving ``path`` as
    it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise StoreError(f"cannot write {path}: {exc}") from exc


def _unreadable(path: str, exc: BaseException) -> StoreError:
    return StoreError(f"store file {path} is torn or unreadable: {exc}")


def _read_index(
    f: BinaryIO,
) -> Tuple[Optional[Dict[Tuple, Tuple[int, int]]], int]:
    """The footer index ``{pkey: (offset, length)}`` of the segment
    open at ``f`` and the bytes read to get it (header + index);
    ``(None, 0)`` for a pre-index segment."""
    head = f.read(_SEGMENT_HEADER.size)
    if not head.startswith(_SEGMENT_MAGIC):
        return None, 0
    index_at = _SEGMENT_HEADER.unpack(head)[1]
    f.seek(index_at)
    index = pickle.load(f)
    return index, len(head) + f.tell() - index_at


def _zone_epoch(value: Any) -> Any:
    """Normalize orderable values (Timestamps → epoch) for min/max."""
    return getattr(value, "epoch", value)


def build_zone_map(rows: Sequence[Dict[str, Any]],
                   pkeys: Sequence[Tuple]) -> Dict[str, Any]:
    """Per-segment statistics: row count, partition keys, and for each
    column its min/max over non-null *finite* values, a null count, and
    a count of non-finite (NaN/±inf) values.

    A column absent from ``columns`` appears in *no* row; a column with
    ``min``/``max`` of None holds unorderable (or mixed-type) values
    and cannot be range-pruned. NaN and ±inf never fold into min/max —
    a single NaN would otherwise poison both bounds (every comparison
    with NaN is False, freezing min/max at whatever came before it) and
    let pruning skip segments whose NaN rows the row-level filter would
    keep. Conservative by construction — pruning built on these stats
    may only skip segments that provably cannot match.
    """
    columns: Dict[str, Dict[str, Any]] = {}
    unorderable: set = set()
    for row in rows:
        for col, value in row.items():
            stats = columns.setdefault(
                col, {"min": None, "max": None, "present": 0, "nans": 0}
            )
            if value is None:
                continue
            stats["present"] += 1
            if col in unorderable:
                continue
            v = _zone_epoch(value)
            try:
                finite = math.isfinite(v)
            except TypeError:
                finite = True  # non-numeric; orderability decided below
            if not finite:
                stats["nans"] += 1
                continue
            try:
                if stats["min"] is None or v < stats["min"]:
                    stats["min"] = v
                if stats["max"] is None or v > stats["max"]:
                    stats["max"] = v
            except TypeError:
                unorderable.add(col)
                stats["min"] = None
                stats["max"] = None
    n = len(rows)
    out_cols = {
        col: {
            "min": None if col in unorderable else stats["min"],
            "max": None if col in unorderable else stats["max"],
            "nulls": n - stats["present"],
            "nans": stats["nans"],
        }
        for col, stats in columns.items()
    }
    key_list = sorted(set(pkeys), key=repr)
    return {
        "rows": n,
        "pkeys": key_list if len(key_list) <= ZONE_PKEY_CAP else None,
        "columns": out_cols,
    }


class Table:
    """One wide-column table (created through :class:`WideColumnStore`)."""

    def __init__(
        self,
        directory: str,
        name: str,
        partition_key: Sequence[str],
        clustering: Sequence[str] = (),
        memtable_limit: int = 10_000,
    ) -> None:
        if not partition_key:
            raise StoreError(f"table {name!r} needs a partition key")
        self.directory = directory
        self.name = name
        self.partition_key = tuple(partition_key)
        self.clustering = tuple(clustering)
        self.memtable_limit = memtable_limit
        self._memtable: Dict[Tuple, List[dict]] = {}
        self._memtable_rows = 0
        #: parsed zone maps, {segment path: (segment stamp, zone)}
        self._zones: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _pkey(self, row: Dict[str, Any]) -> Tuple:
        try:
            return tuple(row[c] for c in self.partition_key)
        except KeyError as exc:
            raise StoreError(
                f"row missing partition key column {exc} for table "
                f"{self.name!r}"
            ) from None

    def _ckey(self, row: Dict[str, Any]) -> Tuple:
        return tuple(row.get(c) for c in self.clustering)

    def insert(self, row: Dict[str, Any]) -> None:
        """Append one row; flushes automatically at the memtable limit."""
        self._memtable.setdefault(self._pkey(row), []).append(dict(row))
        self._memtable_rows += 1
        if self._memtable_rows >= self.memtable_limit:
            self.flush()

    def insert_many(self, rows: Sequence[Dict[str, Any]]) -> None:
        for row in rows:
            self.insert(row)

    def flush(self) -> Optional[str]:
        """Seal the memtable as one immutable segment file: a header,
        one pickled block of clustering-sorted rows per partition key
        (keys in ``repr`` order) and a footer index ``{pkey: (offset,
        length)}``; plus its zone-map sidecar (``zones-NNNNNN.pkl``)
        stamped with the segment's mtime/length so staleness is
        detectable. Each file is written beside its name and renamed
        into place, so the sealed-segment count never includes a
        half-written segment.

        The segment's rename is the commit point. A failed segment
        write raises :class:`StoreError` and keeps the memtable, so a
        retried flush seals each row once. A failed sidecar write
        leaves a committed segment that is read on every scan until
        :meth:`ensure_zone_maps` backfills its sidecar."""
        if not self._memtable:
            return None
        seg_rows: List[dict] = []
        blocks: List[bytes] = []
        index: Dict[Tuple, Tuple[int, int]] = {}
        offset = _SEGMENT_HEADER.size
        for pkey in sorted(self._memtable, key=repr):
            part = sorted(self._memtable[pkey], key=self._ckey)
            seg_rows.extend(part)
            block = pickle.dumps(part)
            index[pkey] = (offset, len(block))
            offset += len(block)
            blocks.append(block)
        zone = build_zone_map(seg_rows, list(self._memtable))
        seg_id = len(self._segment_paths())
        path = os.path.join(self.directory, f"segment-{seg_id:06d}.pkl")
        _replace_into(path, [
            _SEGMENT_HEADER.pack(_SEGMENT_MAGIC, offset),
            *blocks,
            pickle.dumps(index),
        ])
        self._memtable.clear()
        self._memtable_rows = 0
        with contextlib.suppress(StoreError):
            self._write_zone(path, zone)
        return path

    def append_rows(
        self, rows: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Insert ``rows`` and seal them into new immutable segments.

        The streaming-ingestion write path: every call ends with the
        appended rows durably sealed (a ``flush`` even below the
        memtable limit), each new segment carrying its zone-map
        sidecar, and *no sealed segment rewritten* — ``flush`` only
        ever writes ``segment-{next_id}`` files. Returns the sealed
        segment paths and the table's new committed segment count (the
        feed offset for :class:`~repro.sources.table_source.TableSource`
        tailing).
        """
        before = self.segment_count()
        had_memtable = self._memtable_rows > 0
        self.insert_many(rows)
        if self._memtable:
            self.flush()
        paths = self._segment_paths()
        return {
            "sealed": paths[before:],
            "segment_count": len(paths),
            "rows": len(rows),
            # rows that were sitting in the memtable before this call
            # get sealed along with the append
            "flushed_memtable": had_memtable,
        }

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def segment_count(self) -> int:
        """Number of sealed segments (the append-feed offset)."""
        return len(self._segment_paths())

    def read_segment_range(
        self, lo: int, hi: int
    ) -> List[Dict[str, Any]]:
        """Rows of sealed segments ``[lo, hi)`` in segment order.

        Segment ids are allocated densely by ``flush`` (id = count at
        seal time), so the sorted path list indexes by id. The memtable
        is deliberately excluded: feed-visible data is sealed data.
        """
        paths = self._segment_paths()
        if lo < 0 or hi > len(paths):
            raise StoreError(
                f"segment range [{lo}, {hi}) outside sealed segments "
                f"[0, {len(paths)}) of table {self.name!r}"
            )
        out: List[Dict[str, Any]] = []
        for path in paths[lo:hi]:
            out.extend(self._read_segment(path)[0])
        return out

    def _read_segment(
        self, path: str, partition: Optional[Tuple] = None
    ) -> Tuple[Optional[List[Dict[str, Any]]], int]:
        """Rows of one sealed segment — every block in index order, or
        only ``partition``'s — and the bytes read to get them (header,
        index and the blocks decoded). Rows are None when the index
        holds no block for ``partition``: nothing was decoded.

        A file without the header is a pre-index segment, one pickled
        row list: read whole and filtered by key. A torn segment raises
        :class:`StoreError` naming it.
        """
        try:
            with open(path, "rb") as f:
                index, nbytes = _read_index(f)
                if index is None:
                    spans = [(0, -1)]
                elif partition is None:
                    spans = list(index.values())
                elif partition in index:
                    spans = [index[partition]]
                else:
                    return None, 0
                rows: List[Dict[str, Any]] = []
                for offset, length in spans:
                    f.seek(offset)
                    block = f.read(length)
                    nbytes += len(block)
                    rows.extend(pickle.loads(block))
        except _UNREADABLE as exc:
            raise _unreadable(path, exc) from exc
        if index is None and partition is not None:
            rows = [r for r in rows if self._pkey(r) == partition]
        return rows, nbytes

    def _segment_paths(self) -> List[str]:
        return sorted(
            os.path.join(self.directory, f)
            for f in os.listdir(self.directory)
            if f.startswith("segment-") and f.endswith(".pkl")
        )

    @staticmethod
    def _zone_path(segment_path: str) -> str:
        head, tail = os.path.split(segment_path)
        return os.path.join(head, "zones-" + tail[len("segment-"):])

    @staticmethod
    def _segment_stamp(segment_path: str) -> Optional[Dict[str, Any]]:
        try:
            st = os.stat(segment_path)
        except OSError:
            return None
        return {"mtime": st.st_mtime, "size": st.st_size}

    def _write_zone(self, segment_path: str, zone: Dict[str, Any]) -> None:
        zone = dict(zone, stamp=self._segment_stamp(segment_path))
        _replace_into(self._zone_path(segment_path), [pickle.dumps(zone)])

    def _load_zone(self, segment_path: str) -> Optional[Dict[str, Any]]:
        """The segment's zone map, or None when it has no sidecar the
        live segment file vouches for. A sidecar is parsed once per
        segment stamp; after that a lookup is one ``os.stat``."""
        stamp = self._segment_stamp(segment_path)
        cached = self._zones.get(segment_path)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        try:
            with open(self._zone_path(segment_path), "rb") as f:
                zone = pickle.load(f)
        except _UNREADABLE:
            return None  # no (readable) sidecar: never prune it
        # a sidecar surviving a segment rewrite must not be believed:
        # only trust it when its stamp matches the live segment file
        if zone.get("stamp") != stamp:
            return None
        self._zones[segment_path] = (stamp, zone)
        return zone

    def ensure_zone_maps(self) -> int:
        """Backfill missing or stale zone-map sidecars; returns how many
        segments were (re)scanned.

        Segments whose sidecar exists and matches the segment's current
        mtime/length are skipped without being read, so opening a table
        whose sidecars are all present touches no segment data.
        """
        rebuilt = 0
        for path in self._segment_paths():
            if self._load_zone(path) is not None:
                continue
            try:
                seg_rows, _ = self._read_segment(path)
            except StoreError:
                continue  # unreadable segment: leave unpruned
            pkeys = {self._pkey(row) for row in seg_rows}
            self._write_zone(path, build_zone_map(seg_rows, sorted(
                pkeys, key=repr)))
            rebuilt += 1
        return rebuilt

    def segment_zones(self) -> List[Tuple[str, Optional[Dict[str, Any]]]]:
        """(segment path, zone map or None) for every segment."""
        return [(p, self._load_zone(p)) for p in self._segment_paths()]

    def _segment_skippable(
        self,
        zone: Optional[Dict[str, Any]],
        partition: Optional[Tuple],
        predicate: Optional[Any],
    ) -> bool:
        """True when the zone map proves no segment row can match."""
        if zone is None:
            return False
        if partition is not None and zone.get("pkeys") is not None \
                and partition not in zone["pkeys"]:
            return True
        if predicate is not None:
            may = getattr(predicate, "segment_may_match", None)
            if may is not None and not may(zone):
                return True
        return False

    def scan(
        self,
        partition: Optional[Tuple] = None,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[Any] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Iterate rows (all, or one partition), clustering-ordered
        within each source.

        ``predicate`` is a row filter exposing ``matches(row)`` and
        (optionally) ``segment_may_match(zone)`` — typically a
        :class:`repro.sources.predicate.ColumnPredicate`. Segments the
        zone maps rule out are skipped without being read; ``columns``
        projects surviving rows.
        """
        stats: Dict[str, Any] = {}
        return self._scan_impl(partition, columns, predicate, stats)

    def scan_stats(
        self,
        partition: Optional[Tuple] = None,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[Any] = None,
    ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """Materializing :meth:`scan` that also reports read statistics:
        ``rows_read`` (rows examined after partition restriction,
        before the predicate), ``bytes_scanned`` (segment file bytes
        read: header, index and the blocks decoded), ``segments_read``
        and ``segments_skipped``."""
        stats: Dict[str, Any] = {}
        rows = list(self._scan_impl(partition, columns, predicate, stats))
        return rows, stats

    def _row_chunks(
        self,
        partition: Optional[Tuple],
        predicate: Optional[Any],
        stats: Dict[str, Any],
    ) -> Iterator[List[Dict[str, Any]]]:
        """The rows a scan examines, one list per surviving segment
        and then one for the memtable, filling in every statistic but
        ``rows_read``. A segment is skipped when its zone map rules it
        out or, exactly, when its index holds no block for
        ``partition``."""
        if partition is not None and not isinstance(partition, tuple):
            partition = (partition,)
        stats.update(
            rows_read=0, bytes_scanned=0, segments_read=0,
            segments_skipped=0,
        )
        for path in self._segment_paths():
            rows = None
            if not self._segment_skippable(
                self._load_zone(path), partition, predicate
            ):
                rows, nbytes = self._read_segment(path, partition)
            if rows is None:
                stats["segments_skipped"] += 1
                continue
            stats["segments_read"] += 1
            stats["bytes_scanned"] += nbytes
            yield rows
        if partition is None:
            parts = list(self._memtable.values())
        else:
            parts = [self._memtable.get(partition, [])]
        yield [
            row for rows in parts for row in sorted(rows, key=self._ckey)
        ]

    def _scan_impl(
        self,
        partition: Optional[Tuple],
        columns: Optional[Sequence[str]],
        predicate: Optional[Any],
        stats: Dict[str, Any],
    ) -> Iterator[Dict[str, Any]]:
        wanted = set(columns) if columns is not None else None

        def emit(row: Dict[str, Any]) -> Optional[Dict[str, Any]]:
            stats["rows_read"] += 1
            if predicate is not None and not predicate.matches(row):
                return None
            if wanted is None:
                return row
            projected = {k: v for k, v in row.items() if k in wanted}
            return projected or None

        for rows in self._row_chunks(partition, predicate, stats):
            for row in rows:
                out = emit(row)
                if out is not None:
                    yield out

    # anchor for the WRAP_TABLE row Table.scan_batches
    def scan_batches(self, *_args, **_kwargs):
        raise NotImplementedError("columnar scans were removed")

    def count(self) -> int:
        return sum(1 for _ in self.scan())

    def partitions(self) -> List[Tuple]:
        """Distinct partition keys across segments and memtable.

        Reads zone-map sidecars where available; for segments without
        one (or whose key list overflowed the cap) the segment's index
        — no row block is decoded."""
        seen = set()
        for path in self._segment_paths():
            zone = self._load_zone(path)
            if zone is not None and zone.get("pkeys") is not None:
                seen.update(zone["pkeys"])
                continue
            try:
                with open(path, "rb") as f:
                    keys, _ = _read_index(f)
            except _UNREADABLE as exc:
                raise _unreadable(path, exc) from exc
            if keys is None:  # pre-index segment: the keys are in the rows
                keys = map(self._pkey, self._read_segment(path)[0])
            seen.update(keys)
        seen.update(self._memtable)
        return sorted(seen, key=repr)


class WideColumnStore:
    """A directory of keyspaces, each a directory of tables."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._tables: Dict[Tuple[str, str], Table] = {}

    def _table_dir(self, keyspace: str, table: str) -> str:
        return os.path.join(self.root, keyspace, table)

    def create_table(
        self,
        keyspace: str,
        name: str,
        partition_key: Sequence[str],
        clustering: Sequence[str] = (),
        memtable_limit: int = 10_000,
    ) -> Table:
        key = (keyspace, name)
        if key in self._tables:
            raise StoreError(
                f"table {keyspace}.{name} already exists in this store"
            )
        meta_path = os.path.join(self._table_dir(keyspace, name), "meta.pkl")
        table = Table(
            self._table_dir(keyspace, name),
            name,
            partition_key,
            clustering,
            memtable_limit,
        )
        _replace_into(meta_path, [pickle.dumps({
            "partition_key": tuple(partition_key),
            "clustering": tuple(clustering),
        })])
        self._tables[key] = table
        return table

    def table(self, keyspace: str, name: str) -> Table:
        """Open a table, reading its metadata from disk if needed."""
        key = (keyspace, name)
        if key in self._tables:
            return self._tables[key]
        meta_path = os.path.join(self._table_dir(keyspace, name), "meta.pkl")
        if not os.path.exists(meta_path):
            raise StoreError(f"no table {keyspace}.{name} in this store")
        try:
            with open(meta_path, "rb") as f:
                meta = pickle.load(f)
        except _UNREADABLE as exc:
            raise _unreadable(meta_path, exc) from exc
        table = Table(
            self._table_dir(keyspace, name),
            name,
            meta["partition_key"],
            meta["clustering"],
        )
        table.ensure_zone_maps()
        self._tables[key] = table
        return table

    def drop_table(self, keyspace: str, name: str) -> None:
        """Forget the table and remove its directory. A scan already
        running over it fails; callers drop only what no reader can
        still reach."""
        directory = self._table_dir(keyspace, name)
        if not os.path.isdir(directory):
            raise StoreError(f"no table {keyspace}.{name} in this store")
        self._tables.pop((keyspace, name), None)
        try:
            shutil.rmtree(directory)
        except OSError as exc:
            raise StoreError(
                f"cannot drop table {keyspace}.{name}: {exc}"
            ) from exc

    def keyspaces(self) -> List[str]:
        return sorted(
            d
            for d in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, d))
        )

    def tables(self, keyspace: str) -> List[str]:
        ks_dir = os.path.join(self.root, keyspace)
        if not os.path.isdir(ks_dir):
            return []
        return sorted(
            d
            for d in os.listdir(ks_dir)
            if os.path.isdir(os.path.join(ks_dir, d))
        )

    def append_rows(
        self, keyspace: str, table: str, rows: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Append ``rows`` to a table, sealing them into fresh
        segments with zone-map sidecars (see
        :meth:`Table.append_rows`)."""
        return self.table(keyspace, table).append_rows(rows)

    def flush_all(self) -> None:
        for table in self._tables.values():
            table.flush()
