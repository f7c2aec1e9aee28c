"""Grouped aggregation and time-series extraction on datasets.

Implemented as RDD aggregations so they distribute like everything
else; results are small and returned driver-side. Rows are keyed in
one pass that drops a row whose value or group field is missing or
``None`` and, for a metric's grain, snaps its time to the bucket
there and then, so only per-bucket partials are shuffled.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.errors import SemanticError
from repro.core.dataset import ScrubJayDataset
from repro.units.temporal import Timestamp

def _percentile(values: Sequence[float], q: float) -> Any:
    """Linear-interpolation percentile (numpy's default method) over
    an unsorted sequence; None on empty input."""
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


#: built-in aggregators: name -> (zero, seq, finalize).
#: p50/p95 partials are tuples of the raw values (merge = concatenate)
#: — exact, but *not* re-aggregatable once finalized, which is why the
#: metrics layer treats them as non-decomposable for rollup routing.
_AGGREGATORS: Dict[str, Tuple[Any, Callable, Callable]] = {
    "mean": ((0.0, 0), lambda a, x: (a[0] + x, a[1] + 1),
             lambda a: a[0] / a[1] if a[1] else None),
    "sum": (0.0, lambda a, x: a + x, lambda a: a),
    "min": (None, lambda a, x: x if a is None or x < a else a, lambda a: a),
    "max": (None, lambda a, x: x if a is None or x > a else a, lambda a: a),
    "count": (0, lambda a, _x: a + 1, lambda a: a),
    "p50": ((), lambda a, x: a + (x,), lambda a: _percentile(a, 0.50)),
    "p95": ((), lambda a, x: a + (x,), lambda a: _percentile(a, 0.95)),
}

#: aggregators whose *finalized* values (or fixed-size partials) can be
#: re-aggregated from coarser pre-computed partials. p50/p95 are
#: excluded: their only exact partial is the full value list.
DECOMPOSABLE_AGGS = frozenset({"mean", "sum", "min", "max", "count"})


def key_rows(
    rows: Iterable[Dict[str, Any]],
    group_fields: Sequence[str],
    value_field: str,
    bucket: Optional[Callable[[float], float]] = None,
) -> List[Tuple[Tuple, Any]]:
    """``(group key, value)`` for every row whose value and group
    fields are all present and not ``None`` (``None`` is absent). With
    ``bucket`` the last group field is a time, keyed as the float
    ``bucket(epoch)``."""
    per = list(group_fields)
    tf = per.pop() if bucket is not None else None
    out = []
    for row in rows:
        v = row.get(value_field)
        key = tuple(map(row.get, per))
        if v is None or None in key:
            continue
        if tf is not None:
            t = row.get(tf)
            if t is None:
                continue
            key += (bucket(getattr(t, "epoch", t)),)
        out.append((key, v))
    return out


def group_aggregate_partials(
    dataset: ScrubJayDataset,
    group_fields: Sequence[str],
    value_field: str,
    how: str = "mean",
    grain=None,
) -> Dict[Tuple, Any]:
    """Per-dataset *unfinalized* aggregation state, mergeable across
    datasets.

    The distributable half of :func:`group_aggregate`: a sharded serve
    tier computes partials on each shard's slice, merges them with
    :func:`merge_group_partials`, and finalizes once driver-side with
    :func:`finalize_group_partials`. ``mean`` partials are
    ``(sum, count)`` tuples; the other aggregators' partials are their
    own values.

    With a :class:`~repro.core.query.Grain` the last group field is a
    time, snapped to ``grain.bucket(epoch)`` while each row is keyed:
    the map-side combine merges a bucket's rows before the shuffle,
    and the key crosses it as a plain ``(..., float bucket)`` tuple.
    Result keys end in the bucket-start ``Timestamp``, built once per
    group.
    """
    for f in list(group_fields) + [value_field]:
        if f not in dataset.schema:
            raise SemanticError(f"dataset has no field {f!r}")
    try:
        zero, seq, _finalize = _AGGREGATORS[how]
    except KeyError:
        raise ValueError(
            f"unknown aggregator {how!r}; expected one of "
            f"{sorted(_AGGREGATORS)}"
        ) from None
    gf = list(group_fields)
    if grain is not None and not gf:
        raise ValueError("a grain needs the time as the last group field")
    bucket = grain.bucket if grain is not None else None

    acc = dict(
        dataset.rdd.mapPartitions(
            lambda rows: key_rows(rows, gf, value_field, bucket)
        )
        .aggregateByKey(zero, seq, _merge_for(how))
        .collect()
    )
    if grain is None:
        return acc
    return {k[:-1] + (Timestamp(k[-1]),): v for k, v in acc.items()}


def merge_group_partials(
    acc: Dict[Tuple, Any], part: Dict[Tuple, Any], how: str
) -> Dict[Tuple, Any]:
    """Merge one partial-aggregation state into ``acc`` (in place)."""
    merge = _merge_for(how)
    for k, v in part.items():
        acc[k] = merge(acc[k], v) if k in acc else v
    return acc


def finalize_group_partials(
    acc: Dict[Tuple, Any], how: str
) -> Dict[Tuple, Any]:
    """Turn merged partial state into final aggregate values."""
    _zero, _seq, finalize = _AGGREGATORS[how]
    return {k: finalize(v) for k, v in acc.items()}


def group_aggregate(
    dataset: ScrubJayDataset,
    group_fields: Sequence[str],
    value_field: str,
    how: str = "mean",
) -> Dict[Tuple, Any]:
    """Aggregate ``value_field`` per distinct ``group_fields`` tuple.

    ``how`` is one of mean/sum/min/max/count/p50/p95. Rows missing any
    group or value field, or holding ``None`` there, are skipped.
    Returns ``{group_tuple: aggregate}``.
    """
    return finalize_group_partials(
        group_aggregate_partials(dataset, group_fields, value_field, how),
        how,
    )


def _merge_for(how: str) -> Callable:
    if how == "mean":
        return lambda a, b: (a[0] + b[0], a[1] + b[1])
    if how == "sum" or how == "count":
        return lambda a, b: a + b
    if how in ("p50", "p95"):
        # partials are value tuples; wire decode may hand back lists
        return lambda a, b: tuple(a) + tuple(b)
    if how == "min":
        return lambda a, b: b if a is None else (a if b is None or a < b else b)
    return lambda a, b: b if a is None else (a if b is None or a > b else b)


def time_series(
    dataset: ScrubJayDataset,
    group_fields: Sequence[str],
    time_field: str,
    value_field: str,
) -> Dict[Tuple, List[Tuple[float, Any]]]:
    """Per-group (epoch, value) series sorted by time — the shape the
    paper's Figure 4/6 plots are drawn from. Rows are keyed by
    :func:`key_rows`, so a row whose group, time or value field is
    missing or ``None`` is skipped."""
    for f in list(group_fields) + [time_field, value_field]:
        if f not in dataset.schema:
            raise SemanticError(f"dataset has no field {f!r}")
    fields = list(group_fields) + [time_field]

    def series_pairs(rows):
        return [
            (key[:-1], (key[-1], v))
            for key, v in key_rows(rows, fields, value_field, float)
        ]

    pairs = dataset.rdd.mapPartitions(series_pairs).groupByKey().collect()
    return {k: sorted(v) for k, v in pairs}
