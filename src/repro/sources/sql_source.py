"""sqlite3 tables/queries as rowid-range-partitioned data sources.

Table mode splits the table's rowid span into contiguous key ranges —
one scan partition each, fetched worker-side with
``WHERE rowid >= ? AND rowid <= ?`` so no worker touches another's
rows and the driver never materializes the table. Query mode (an
arbitrary SELECT) cannot be key-partitioned and degrades to a single
partition.

Numeric predicate terms (on quantity/rate columns, where SQLite's
``CAST(col AS NUMERIC)`` agrees exactly with the codec's ``float``)
are additionally translated into a WHERE clause so filtering happens
inside the database; the Python predicate is always re-applied after
decoding, so the SQL clause is a pure superset optimization and can
never change results.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.dictionary import SemanticDictionary
from repro.core.semantics import Schema
from repro.errors import SourceError
from repro.sources.base import DataSource
from repro.sources.predicate import ColumnPredicate, EqTerm, RangeTerm
from repro.wrappers.codec import decoder


class SQLSource(DataSource):
    """Read a sqlite3 table (or SELECT) lazily by rowid key ranges."""

    def __init__(
        self,
        db_path: str,
        schema: Schema,
        dictionary: SemanticDictionary,
        table: Optional[str] = None,
        query: Optional[str] = None,
        name: Optional[str] = None,
        num_partitions: int = 4,
    ) -> None:
        if (table is None) == (query is None):
            raise SourceError("provide exactly one of table= or query=")
        self.db_path = db_path
        self._schema = schema
        self.dictionary = dictionary
        self.table = table
        self.query = query
        self.name = name or table or "sql"
        self.num_partitions_hint = max(1, num_partitions)
        self._columns: Optional[List[str]] = None
        self._ranges: Optional[List[Optional[Tuple[int, int]]]] = None

    def schema(self) -> Schema:
        return self._schema

    # -- driver side ---------------------------------------------------

    def _sql(self) -> str:
        return self.query or f'SELECT * FROM "{self.table}"'

    def _read_columns(self, conn: sqlite3.Connection) -> List[str]:
        if self._columns is None:
            cursor = conn.execute(self._sql())
            columns = [d[0] for d in cursor.description]
            cursor.close()
            known = [c for c in columns if c in self._schema]
            if not known:
                raise SourceError(
                    f"{self.db_path}: no column of {columns} matches "
                    f"the schema fields {self._schema.fields()}"
                )
            self._columns = columns
        return self._columns

    def partitions(self) -> Sequence[Optional[Tuple[int, int]]]:
        """Inclusive rowid ranges (or ``[None]`` when unsplittable)."""
        if self._ranges is not None:
            return self._ranges
        try:
            with sqlite3.connect(self.db_path) as conn:
                self._read_columns(conn)
                if self.table is None:
                    self._ranges = [None]
                    return self._ranges
                try:
                    lo, hi = conn.execute(
                        f'SELECT MIN(rowid), MAX(rowid) FROM "{self.table}"'
                    ).fetchone()
                except sqlite3.OperationalError:
                    self._ranges = [None]  # WITHOUT ROWID / virtual table
                    return self._ranges
        except sqlite3.Error as exc:
            raise SourceError(
                f"sqlite error reading {self.db_path}: {exc}"
            ) from exc
        if lo is None or hi is None:  # empty table
            self._ranges = [(0, -1)]
            return self._ranges
        span = hi - lo + 1
        n = min(self.num_partitions_hint, span)
        step = -(-span // n)
        self._ranges = [
            (s, min(s + step - 1, hi)) for s in range(lo, hi + 1, step)
        ]
        return self._ranges

    # -- predicate → SQL (superset only; Python re-filters) ------------

    def _where_clause(
        self, predicate: Optional[ColumnPredicate], known: Sequence[str]
    ) -> Tuple[str, List[Any]]:
        if predicate is None:
            return "", []
        clauses: List[str] = []
        params: List[Any] = []
        for term in predicate.terms:
            col = term.column
            if col not in known:
                continue
            kind = self.dictionary.unit(self._schema[col].units).kind
            if kind not in ("quantity", "rate"):
                continue  # only where CAST agrees exactly with float()
            ref = f'CAST("{col}" AS NUMERIC)'
            if isinstance(term, EqTerm):
                if isinstance(term.value, bool) or not isinstance(
                    term.value, (int, float)
                ):
                    continue
                clauses.append(f"{ref} = ?")
                params.append(float(term.value))
            elif isinstance(term, RangeTerm):
                if term.low is not None:
                    clauses.append(f"{ref} >= ?")
                    params.append(float(term.low))
                if term.high is not None:
                    clauses.append(f"{ref} < ?")
                    params.append(float(term.high))
        return (" AND ".join(clauses), params)

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
        rng = self.partitions()[index]
        out: List[Dict[str, Any]] = []
        rows_read = 0
        try:
            with sqlite3.connect(self.db_path) as conn:
                cols = self._read_columns(conn)
                known = [c for c in cols if c in self._schema]
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

                sql = self._sql()
                params: List[Any] = []
                if self.table is not None:  # arbitrary SELECTs can't
                    conditions: List[str] = []  # take extra WHEREs
                    if rng is not None:
                        conditions.append("rowid >= ? AND rowid <= ?")
                        params.extend(rng)
                    where, wparams = self._where_clause(predicate, known)
                    if where:
                        conditions.append(where)
                        params.extend(wparams)
                    if conditions:
                        sql = f"{sql} WHERE {' AND '.join(conditions)}"
                for record in conn.execute(sql, params):
                    named = dict(zip(cols, record))
                    rows_read += 1
                    row: Dict[str, Any] = {}
                    for col, decode in decoders:
                        raw = named[col]
                        value = decode(None if raw is None else str(raw))
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
        except sqlite3.Error as exc:
            raise SourceError(
                f"sqlite error reading {self.db_path}: {exc}"
            ) from exc
        return out, {"rows_read": rows_read, "bytes_scanned": 0}
