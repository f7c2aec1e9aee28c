"""CSV files as byte-range-partitioned data sources.

The driver reads the header line and the file size, then aligns naive
byte-range boundaries to true record starts with a single quote-parity
pass over the data region: a newline only ends a record when it falls
outside quoted cells, so boundaries never split a quoted field and
never sit ambiguously on a row boundary. Each scan partition owns the
half-open byte range between two aligned boundaries and is decoded
worker-side; readers seek straight to ``start`` (always a record
start) and parse quote-aware records until the range is exhausted.
Quoted cells containing embedded newlines are handled exactly — a
record spanning lines is accumulated until its quotes balance.
"""

from __future__ import annotations

import csv
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.dictionary import SemanticDictionary
from repro.core.semantics import Schema
from repro.errors import FeedRewoundError, SourceError
from repro.sources.base import DataSource
from repro.sources.predicate import ColumnPredicate
from repro.wrappers.codec import decoder


class CSVSource(DataSource):
    """Read a headered CSV file lazily, one byte range per partition."""

    def __init__(
        self,
        path: str,
        schema: Schema,
        dictionary: SemanticDictionary,
        name: Optional[str] = None,
        num_partitions: int = 4,
        end_offset: Optional[int] = None,
    ) -> None:
        self.path = path
        self._schema = schema
        self.dictionary = dictionary
        self.name = name or path
        self.num_partitions_hint = max(1, num_partitions)
        #: frozen byte bound for `bounded()` snapshots (None = live file)
        self.end_offset = end_offset
        self._layout: Optional[Tuple[List[str], int, int]] = None
        self._ranges: Optional[List[Tuple[int, int]]] = None

    def schema(self) -> Schema:
        return self._schema

    # -- driver side ---------------------------------------------------

    def _read_layout(self) -> Tuple[List[str], int, int]:
        """(header columns, data start offset, file size)."""
        if self._layout is not None:
            return self._layout
        try:
            size = os.path.getsize(self.path)
            with open(self.path, "rb") as f:
                header_line = f.readline()
                data_start = f.tell()
        except OSError as exc:
            raise SourceError(f"cannot read {self.path}: {exc}") from exc
        if self.end_offset is not None:
            size = min(size, self.end_offset)
        text = header_line.decode("utf-8").rstrip("\r\n")
        if not text:
            raise SourceError(f"{self.path}: empty CSV (no header)")
        header = next(csv.reader([text]))
        if not any(c in self._schema for c in header):
            raise SourceError(
                f"{self.path}: no CSV column matches the schema "
                f"fields {self._schema.fields()}"
            )
        self._layout = (header, data_start, size)
        return self._layout

    def partitions(self) -> Sequence[Tuple[int, int]]:
        if self._ranges is not None:
            return self._ranges
        _header, data_start, size = self._read_layout()
        span = max(0, size - data_start)
        n = self.num_partitions_hint
        if span == 0:
            self._ranges = [(data_start, data_start)]
            return self._ranges
        n = min(n, span)
        step = -(-span // n)
        naive = list(range(data_start + step, size, step))
        aligned = self._align_to_record_starts(naive, data_start, size)
        ranges: List[Tuple[int, int]] = []
        prev = data_start
        for bound in aligned + [size]:
            ranges.append((prev, bound))
            prev = bound
        self._ranges = ranges
        return self._ranges

    def _align_to_record_starts(
        self, targets: List[int], data_start: int, size: int
    ) -> List[int]:
        """Snap each naive boundary to the first true record start at or
        after it (one sequential quote-parity pass; boundaries beyond
        the last newline snap to end-of-file)."""
        if not targets:
            return []
        aligned: List[int] = []
        ti = 0
        parity = 0
        pos = data_start
        chunk_size = 1 << 16
        try:
            with open(self.path, "rb") as f:
                f.seek(data_start)
                while ti < len(targets) and pos < size:
                    chunk = f.read(chunk_size)
                    if not chunk:
                        break
                    if parity == 0 and b'"' not in chunk:
                        # quote-free chunk: every newline ends a record
                        while ti < len(targets):
                            scan_from = max(0, targets[ti] - pos - 1)
                            idx = chunk.find(b"\n", scan_from)
                            if idx < 0:
                                break
                            start = pos + idx + 1
                            while ti < len(targets) and \
                                    targets[ti] <= start:
                                aligned.append(start)
                                ti += 1
                    else:
                        for off, byte in enumerate(chunk):
                            if byte == 0x22:  # '"'
                                parity ^= 1
                            elif byte == 0x0A and parity == 0:
                                start = pos + off + 1
                                while ti < len(targets) and \
                                        targets[ti] <= start:
                                    aligned.append(start)
                                    ti += 1
                                if ti >= len(targets):
                                    break
                    pos += len(chunk)
        except OSError as exc:
            raise SourceError(f"cannot read {self.path}: {exc}") from exc
        aligned.extend(size for _ in range(len(targets) - ti))
        return aligned

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
        header, _data_start, _size = self._read_layout()
        start, end = self.partitions()[index]
        known = [c for c in header if c in self._schema]
        if columns is None:
            decoded_cols = known
        else:
            need = set(columns)
            if predicate is not None:
                need.update(predicate.columns())
            decoded_cols = [c for c in known if c in need]
        decoders = [
            (c, decoder(self._schema[c], self.dictionary))
            for c in decoded_cols
        ]
        wanted = None if columns is None else set(columns)

        out: List[Dict[str, Any]] = []
        rows_read = 0
        try:
            with open(self.path, "rb") as f:
                f.seek(start)  # aligned boundaries are record starts
                while f.tell() < end:
                    raw = f.readline()
                    if not raw:
                        break
                    # a quoted cell may span lines: keep reading until
                    # the record's quotes balance
                    while raw.count(b'"') % 2 == 1:
                        cont = f.readline()
                        if not cont:
                            break
                        raw += cont
                    text = raw.decode("utf-8")
                    if text.endswith("\n"):
                        text = text[:-1]
                    if text.endswith("\r"):
                        text = text[:-1]
                    if not text:
                        continue
                    fields = next(csv.reader([text]))
                    record = dict(zip(header, fields))
                    rows_read += 1
                    row: Dict[str, Any] = {}
                    for col, decode in decoders:
                        value = decode(record.get(col))
                        if value is not None:
                            row[col] = value
                    if not row:
                        continue
                    if predicate is not None and not predicate.matches(row):
                        continue
                    if wanted is not None:
                        row = {k: v for k, v in row.items() if k in wanted}
                        if not row:
                            continue
                    out.append(row)
                consumed = f.tell() - start
        except OSError as exc:
            raise SourceError(f"cannot read {self.path}: {exc}") from exc
        return out, {
            "rows_read": rows_read,
            "bytes_scanned": max(0, consumed),
        }

    # -- append capability (tailing a growing file) --------------------

    def supports_append(self) -> bool:
        return self.end_offset is None

    def refresh(self) -> None:
        """Forget cached layout/ranges so new appends are visible."""
        self._layout = None
        self._ranges = None

    def current_offset(self) -> int:
        """Byte offset just past the last *committed* record."""
        _rows, offset = self.append_scan(None, None)
        return offset

    def bounded(self, offset: int) -> "CSVSource":
        """A frozen byte-clamped view over ``[header, offset)`` — no
        materialization; partition ranges are computed inside the
        clamp. ``offset`` must be a committed record boundary (as
        returned by :meth:`append_scan`)."""
        snap = CSVSource(
            self.path, self._schema, self.dictionary, name=self.name,
            num_partitions=self.num_partitions_hint, end_offset=offset,
        )
        return snap

    def tail(
        self,
        since_offset: Optional[int] = None,
        until_offset: Optional[int] = None,
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Alias for :meth:`append_scan` — tail a growing CSV file."""
        return self.append_scan(since_offset, until_offset)

    def append_scan(
        self,
        since_offset: Optional[int] = None,
        until_offset: Optional[int] = None,
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Decode rows committed in ``[since_offset, until_offset)``.

        A record is *committed* only when it is newline-terminated with
        balanced quotes — a torn final line (a writer mid-append) or a
        quoted cell whose closing quote has not landed yet is left for
        the next scan and the returned offset stops before it, so no
        row is ever delivered twice or split across scans.
        """
        # re-stat fresh: the cached layout is for frozen scan planning
        self._layout = None
        self._ranges = None
        header, data_start, size = self._read_layout()
        start = data_start if since_offset is None else since_offset
        if start > size:
            raise FeedRewoundError(
                f"{self.path}: tail offset {start} is beyond the file "
                f"end {size} (file truncated or rewritten?)",
                since_offset=start, current_offset=size,
            )
        if until_offset is not None and until_offset > size:
            raise FeedRewoundError(
                f"{self.path}: requested bound {until_offset} is beyond "
                f"the file end {size}",
                since_offset=start, current_offset=size,
            )
        bound = size if until_offset is None else until_offset
        decoders = [
            (c, decoder(self._schema[c], self.dictionary))
            for c in header if c in self._schema
        ]
        out: List[Dict[str, Any]] = []
        committed = start
        try:
            with open(self.path, "rb") as f:
                f.seek(start)
                while f.tell() < bound:
                    raw = f.readline()
                    if not raw:
                        break
                    while raw.count(b'"') % 2 == 1:
                        cont = f.readline()
                        if not cont:
                            break
                        raw += cont
                    if raw.count(b'"') % 2 == 1 or \
                            not raw.endswith(b"\n"):
                        break  # torn record: writer not done yet
                    if f.tell() > bound:
                        break  # record straddles the requested bound
                    text = raw.decode("utf-8").rstrip("\r\n")
                    committed = f.tell()
                    if not text:
                        continue
                    fields = next(csv.reader([text]))
                    record = dict(zip(header, fields))
                    row: Dict[str, Any] = {}
                    for col, decode in decoders:
                        value = decode(record.get(col))
                        if value is not None:
                            row[col] = value
                    if row:
                        out.append(row)
        except OSError as exc:
            raise SourceError(f"cannot read {self.path}: {exc}") from exc
        return out, committed
