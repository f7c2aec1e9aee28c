"""Metric evaluation: compile measure/grain terms onto a result
dataset.

A metric query's *base* relation is solved by the derivation engine
like any other query; this module does the measure half — resolve the
per/grain dimensions to result-schema fields, compute mergeable group
partials per measure keyed at the time grain from the first row
(:func:`metric_partials`), and finalize — applying trailing windows
over the bucketed series where a measure asks for one.
:func:`rebucket_partials` merges partials that are already bucketed
(a sharded fleet's gather) onto the grain.

Partials, not finalized values, cross every boundary (shards,
subscriptions, rollups); finalize happens exactly once, driver-side.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.analysis.aggregate import (
    _merge_for,
    finalize_group_partials,
    merge_group_partials,
)
from repro.core.query import Grain, Measure, Query
from repro.core.semantics import DOMAIN, Schema, VALUE
from repro.units.temporal import Timestamp


def resolve_domain_field(schema: Schema, dimension: str) -> str:
    """The single domain field carrying ``dimension`` in the result."""
    fields = schema.fields_for(dimension, DOMAIN)
    if len(fields) != 1:
        raise QueryError(
            f"metric dimension {dimension!r} needs exactly one domain "
            f"field in the answer schema, found {sorted(fields)}"
        )
    return fields[0]


def resolve_value_field(schema: Schema, dimension: str) -> str:
    """The single value field carrying ``dimension`` in the result."""
    fields = schema.fields_for(dimension, VALUE)
    if len(fields) != 1:
        raise QueryError(
            f"measure dimension {dimension!r} needs exactly one value "
            f"field in the answer schema, found {sorted(fields)}"
        )
    return fields[0]


def metric_group_fields(
    schema: Schema, query: Query
) -> Tuple[List[str], Optional[str]]:
    """``(group_fields, time_field)`` for a metric query against a
    result schema: per-dims resolved in query order, the grain's time
    field appended last (the group-tuple layout every metric path —
    raw, sharded, rollup — agrees on)."""
    gf = [resolve_domain_field(schema, d) for d in query.per]
    tfield = None
    if query.grain is not None:
        tfield = resolve_domain_field(schema, query.grain.dimension)
        gf.append(tfield)
    return gf, tfield


def rebucket_partials(
    partials: Dict[Tuple, Any],
    grain: Optional[Grain],
    how: str,
    bucket_index: int = -1,
) -> Dict[Tuple, Any]:
    """Snap the time component of each group key (position
    ``bucket_index``) to its grain bucket, merging partials that land
    in the same bucket. Identity when there is no grain. For partials
    that are already bucketed (a sharded gather); raw rows are keyed
    at the grain by :func:`metric_partials` instead."""
    if grain is None:
        return partials
    out: Dict[Tuple, Any] = {}
    merge = _merge_for(how)
    for key, val in partials.items():
        t = key[bucket_index]
        epoch = getattr(t, "epoch", t)
        bucketed = Timestamp(grain.bucket(epoch))
        nk = list(key)
        nk[bucket_index] = bucketed
        nk = tuple(nk)
        out[nk] = merge(out[nk], val) if nk in out else val
    return out


def metric_partials(
    dataset, query: Query
) -> Dict[str, Dict[Tuple, Any]]:
    """Per-measure mergeable partial states for a metric query over a
    result dataset: ``{measure_key: {(per..., bucket): partial}}``.

    Group keys are per-dim values in query order with the bucket-start
    :class:`Timestamp` last (when the query has a grain). Rows are
    keyed at the grain from the start, so nothing is re-bucketed.
    """
    from repro.analysis.aggregate import group_aggregate_partials

    schema = dataset.schema
    gf, _ = metric_group_fields(schema, query)
    return {
        m.key(): group_aggregate_partials(
            dataset, gf, resolve_value_field(schema, m.dimension),
            m.how, query.grain,
        )
        for m in query.measures
    }


def _windowed(
    partials: Dict[Tuple, Any],
    measure: Measure,
    grain: Grain,
) -> Dict[Tuple, Any]:
    """Finalized trailing-window values: at each bucket, the aggregate
    over every bucket of the same group within ``(t - window, t]``."""
    merge = _merge_for(measure.how)
    by_group: Dict[Tuple, List[Tuple[float, Any]]] = {}
    for key, val in partials.items():
        g, t = key[:-1], key[-1]
        epoch = getattr(t, "epoch", t)
        by_group.setdefault(g, []).append((epoch, val))
    out: Dict[Tuple, Any] = {}
    for g, series in by_group.items():
        series.sort(key=lambda p: p[0])
        times = [t for t, _ in series]
        for i, t in enumerate(times):
            acc = None
            # bucket times are unique per group: (t - window, t] is
            # the run from the first time past t - window up to i
            for _, val in series[bisect_right(times, t - measure.window):
                                 i + 1]:
                acc = val if acc is None else merge(acc, val)
            out[g + (Timestamp(t),)] = acc
    return finalize_group_partials(out, measure.how)


def finalize_metric(
    partials: Dict[str, Dict[Tuple, Any]], query: Query
) -> Dict[Tuple, Dict[str, Any]]:
    """Turn per-measure partial states into the metric answer's
    ``{group_tuple: {measure_key: value}}`` groups."""
    measures = {m.key(): m for m in query.measures}
    final: Dict[str, Dict[Tuple, Any]] = {}
    for mkey, part in partials.items():
        m = measures[mkey]
        if m.window is not None:
            if query.grain is None:
                raise QueryError(
                    f"windowed measure {m} needs a time grain"
                )
            final[mkey] = _windowed(part, m, query.grain)
        else:
            final[mkey] = finalize_group_partials(dict(part), m.how)
    groups: Dict[Tuple, Dict[str, Any]] = {}
    for mkey, values in final.items():
        for g, v in values.items():
            groups.setdefault(g, {})[mkey] = v
    return groups


def merge_metric_partials(
    acc: Dict[str, Dict[Tuple, Any]],
    part: Dict[str, Dict[Tuple, Any]],
    query: Query,
) -> Dict[str, Dict[Tuple, Any]]:
    """Merge one per-measure partial state into ``acc`` (in place)."""
    hows = {m.key(): m.how for m in query.measures}
    for mkey, values in part.items():
        merge_group_partials(
            acc.setdefault(mkey, {}), values, hows[mkey]
        )
    return acc


def sorted_keys(groups) -> List[Tuple]:
    """Group keys in key order (rack 2 before rack 10); ``repr`` order
    only when the keys are not mutually orderable."""
    try:
        return sorted(groups)
    except TypeError:
        return sorted(groups, key=repr)


@dataclass
class MetricAnswer:
    """The result of a metric query.

    ``groups`` maps ``(per-dim values..., bucket Timestamp)`` — the
    bucket present only when the query has a grain — to
    ``{measure_key: value}``. ``decision`` is the ``rollup``
    :class:`~repro.rdd.stats.Decision` that routed the query (a plain
    dict of its :meth:`~repro.rdd.stats.Decision.as_dict` over the
    wire).
    """

    query: Query
    groups: Dict[Tuple, Dict[str, Any]]
    decision: Any = None
    #: group-key layout: per-dims (in query order), then the grain
    group_dims: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.group_dims:
            dims = tuple(self.query.per)
            if self.query.grain is not None:
                dims += (self.query.grain.dimension,)
            self.group_dims = dims

    def measure_keys(self) -> List[str]:
        return [m.key() for m in self.query.measures]

    def rows(self) -> List[Dict[str, Any]]:
        """The groups as plain rows (group dims + measure columns),
        sorted by group key."""
        out = []
        for g in sorted_keys(self.groups):
            row = dict(zip(self.group_dims, g))
            row.update(self.groups[g])
            out.append(row)
        return out

    def series(self, measure_key: Optional[str] = None
               ) -> Dict[Tuple, List[Tuple[Any, Any]]]:
        """Per-group time series ``{per_tuple: [(bucket, value),
        ...]}`` for one measure (default: the only one)."""
        if measure_key is None:
            keys = self.measure_keys()
            if len(keys) != 1:
                raise QueryError(
                    f"answer has measures {keys}; pass measure_key"
                )
            measure_key = keys[0]
        if self.query.grain is None:
            raise QueryError("series() needs a grain")
        out: Dict[Tuple, List[Tuple[Any, Any]]] = {}
        for g, values in self.groups.items():
            if measure_key not in values:
                continue
            out.setdefault(g[:-1], []).append(
                (g[-1], values[measure_key])
            )
        for s in out.values():
            s.sort(key=lambda p: getattr(p[0], "epoch", p[0]))
        return out

    def __len__(self) -> int:
        return len(self.groups)
