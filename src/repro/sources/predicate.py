"""Storage-column predicates: the language the scan layer understands.

A :class:`ColumnPredicate` is a conjunction of simple per-column terms
— equality (:class:`EqTerm`) and half-open ranges (:class:`RangeTerm`)
— over *storage column names*, not dimensions. The pushdown rewrite
(:mod:`repro.core.pushdown`) translates dimension-level filter
derivations into these terms; sources and the wide-column store only
ever see the translated form, so they stay ignorant of semantics.

Row semantics deliberately mirror the filter transformations they are
compiled from (``FilterEquals`` / ``FilterRange`` in
:mod:`repro.core.transformations`), so a pushed scan and a
scan-then-filter plan return identical rows:

- ``EqTerm``: keep rows where ``row.get(col) == value`` — a row
  *missing* the column matches only ``value is None``;
- ``RangeTerm``: keep rows where the column is present and
  ``low <= epoch(v) < high`` (datetime values compare by ``.epoch``);
  rows missing the column never match.

Zone-map pruning (:meth:`ColumnPredicate.segment_may_match`) answers
"could ANY row in this segment match?" from per-segment column
min/max/null statistics; it must never return False for a segment that
contains a matching row, so every uncertain case answers True.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple


def _epoch(value: Any) -> Any:
    """Normalize orderable values the way FilterRange does."""
    return getattr(value, "epoch", value)


@dataclass(frozen=True)
class EqTerm:
    """``column == value`` (missing column matches only value None)."""

    column: str
    value: Any

    op = "eq"

    def matches(self, row: Dict[str, Any]) -> bool:
        return row.get(self.column) == self.value

    def filter_rows(
        self, rows: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        column, value = self.column, self.value
        return [row for row in rows if row.get(column) == value]

    def to_json_dict(self) -> Dict[str, Any]:
        return {"op": "eq", "column": self.column, "value": self.value}


@dataclass(frozen=True)
class RangeTerm:
    """``low <= epoch(row[column]) < high``; missing column fails."""

    column: str
    low: Optional[float] = None
    high: Optional[float] = None

    op = "range"

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise ValueError("RangeTerm needs low and/or high")

    def matches(self, row: Dict[str, Any]) -> bool:
        if self.column not in row:
            return False
        v = _epoch(row[self.column])
        try:
            if self.low is not None and v < self.low:
                return False
            if self.high is not None and v >= self.high:
                return False
        except TypeError:
            return False  # unorderable stored value can never be in range
        return True

    def filter_rows(
        self, rows: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        column, low, high = self.column, self.low, self.high
        out = []
        for row in rows:
            if column not in row:
                continue
            v = row[column]
            v = getattr(v, "epoch", v)
            try:
                # written as rejections, not low <= v < high: a NaN
                # fails neither comparison and stays, as in matches
                if low is not None and v < low:
                    continue
                if high is not None and v >= high:
                    continue
            except TypeError:
                continue
            out.append(row)
        return out

    def to_json_dict(self) -> Dict[str, Any]:
        return {"op": "range", "column": self.column,
                "low": self.low, "high": self.high}


class ColumnPredicate:
    """An immutable conjunction of :class:`EqTerm`/:class:`RangeTerm`.

    ``matches(row)`` is the row-level truth and ``filter_rows(rows)``
    its bulk form (equal to filtering by ``matches``, order kept);
    ``segment_may_match`` and ``partition_may_match`` are the
    conservative pruning oracles used by the store and the sources.
    """

    def __init__(self, terms: Sequence[Any]) -> None:
        self.terms: Tuple[Any, ...] = tuple(terms)

    # -- construction --------------------------------------------------

    @staticmethod
    def equals(column: str, value: Any) -> "ColumnPredicate":
        return ColumnPredicate([EqTerm(column, value)])

    @staticmethod
    def range(
        column: str,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> "ColumnPredicate":
        return ColumnPredicate([RangeTerm(column, low, high)])

    def also(self, other: Optional["ColumnPredicate"]) -> "ColumnPredicate":
        """Conjunction with another predicate (None = no-op)."""
        if other is None or not other.terms:
            return self
        return ColumnPredicate(self.terms + other.terms)

    # -- row-level evaluation ------------------------------------------

    def matches(self, row: Dict[str, Any]) -> bool:
        return all(t.matches(row) for t in self.terms)

    def filter_rows(
        self, rows: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """The rows :meth:`matches` keeps, in order, one term at a
        time: equality terms first (cheap and selective), range terms
        over the survivors — each a single loop over a shrinking list
        instead of interpreting the whole conjunction per row."""
        if not self.terms:
            return list(rows)
        for t in sorted(self.terms, key=lambda t: t.op != "eq"):
            rows = t.filter_rows(rows)
        return rows

    def columns(self) -> List[str]:
        seen: List[str] = []
        for t in self.terms:
            if t.column not in seen:
                seen.append(t.column)
        return seen

    # -- pruning oracles -----------------------------------------------

    def segment_may_match(self, zone: Optional[Dict[str, Any]]) -> bool:
        """Could any row of a segment with zone stats ``zone`` match?

        ``zone`` is the per-segment sidecar written by ``Table.flush``:
        ``{"rows": n, "columns": {col: {"min", "max", "nulls", "nans"}}}``
        where min/max cover non-null finite values only. Unknown or
        missing statistics always answer True.
        """
        if not zone:
            return True
        rows = zone.get("rows", 0)
        cols = zone.get("columns") or {}
        for t in self.terms:
            stats = cols.get(t.column)
            if stats is None:
                # the column appears in no row of this segment: an Eq
                # against None still matches (missing == None), every
                # other term fails for all rows.
                if isinstance(t, EqTerm) and t.value is None:
                    continue
                return False
            nulls = stats.get("nulls", 0)
            if isinstance(t, EqTerm) and t.value is None:
                if nulls == 0 and rows > 0:
                    return False  # every row holds a non-null value
                continue
            if isinstance(t, RangeTerm) and nulls >= rows and rows > 0:
                return False  # present only as nulls — range never holds
            if stats.get("nans", 0):
                # NaN/±inf rows sit outside min/max: a NaN passes every
                # RangeTerm at row level (both bound comparisons are
                # False) and ±inf can equal an infinite EqTerm value,
                # so min/max pruning is unsound for this column.
                continue
            lo, hi = stats.get("min"), stats.get("max")
            if lo is None or hi is None:
                continue  # unorderable or untracked column: can't prune
            try:
                if isinstance(t, EqTerm):
                    v = _epoch(t.value)
                    if v < lo or v > hi:
                        return False
                else:
                    if t.low is not None and hi < t.low:
                        return False
                    if t.high is not None and lo >= t.high:
                        return False
            except TypeError:
                continue  # incomparable: stay conservative
        return True

    def partition_may_match(
        self, key_columns: Sequence[str], key: Tuple[Any, ...]
    ) -> bool:
        """Could rows of partition ``key`` (over ``key_columns``) match?"""
        for t in self.terms:
            if t.column not in key_columns:
                continue
            value = key[list(key_columns).index(t.column)]
            if not t.matches({t.column: value}):
                return False
        return True

    def any_partition_may_match(
        self,
        key_columns: Sequence[str],
        keys: Sequence[Tuple[Any, ...]],
    ) -> bool:
        """Could any of a *collection* of partitions match?

        The shard-routing oracle: a shard owning partition keys
        ``keys`` (over ``key_columns``) needs to see a query exactly
        when at least one of its partitions may hold a matching row.
        Conservative like the per-partition form — an empty key set
        means the shard provably holds no rows and is safely skipped,
        but any uncertain key answers True.
        """
        return any(
            self.partition_may_match(key_columns, key) for key in keys
        )

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> List[Dict[str, Any]]:
        return [t.to_json_dict() for t in self.terms]

    @staticmethod
    def from_json_dict(data: Sequence[Dict[str, Any]]) -> "ColumnPredicate":
        terms: List[Any] = []
        for d in data:
            if d.get("op") == "eq":
                terms.append(EqTerm(d["column"], d.get("value")))
            elif d.get("op") == "range":
                terms.append(RangeTerm(d["column"], d.get("low"),
                                       d.get("high")))
            else:
                raise ValueError(f"unknown predicate term {d!r}")
        return ColumnPredicate(terms)

    # -- dunder --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColumnPredicate) and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        parts = []
        for t in self.terms:
            if isinstance(t, EqTerm):
                parts.append(f"{t.column}=={t.value!r}")
            else:
                lo = "-inf" if t.low is None else repr(t.low)
                hi = "+inf" if t.high is None else repr(t.high)
                parts.append(f"{lo}<={t.column}<{hi}")
        return f"ColumnPredicate({' AND '.join(parts) or 'true'})"
