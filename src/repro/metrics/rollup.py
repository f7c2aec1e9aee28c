"""Materialized rollups: pre-aggregated measure sets at a grain.

``session.rollup(name, query)`` takes a metric query and materializes
its answer — one wide row per (per-dims, time bucket) group — as an
in-memory table, registering it in the session catalog so the
engine's schema search sees it like any other dataset. The base
relation is an ordinary derivation plan; the measures are computed
over its result by :func:`~repro.metrics.compute.metric_partials`,
keyed at the rollup's grain.

Two states are kept per rollup:

- the **table**: finalized rows ``{group: row}``, published to whoever
  queries the rollup dataset directly;
- the **partial state**: unfinalized mergeable aggregation states per
  group (``mean`` → ``(sum, count)``), which is what lets the router
  re-aggregate a rollup to any coarser grain or per-dim subset
  *exactly* for decomposable measures, and what lets a feed delta fold
  in at O(delta) through :class:`~repro.stream.DeltaPlan`.

A delta refresh merges the delta's partials into the state, finalizes
only the groups they touched (a windowed measure's whole per-dims
series, since its trailing window reaches forward in time), replaces
those rows in the table and swaps the table into the catalog as one
change. A row dict is never mutated once published, so a dataset
captured before a refresh keeps its rows.

Routing (:meth:`Rollup.can_answer`): decomposable aggregates
(sum/count/min/max/mean) accept any query whose grain the rollup's
grain divides and whose per-dims are a subset; non-decomposable ones
(p50/p95) only ever route to the exact grain and per-dim set — anything
else falls back to raw.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.analysis.aggregate import (
    DECOMPOSABLE_AGGS,
    _merge_for,
)
from repro.core.dataset import ScrubJayDataset
from repro.core.query import Query
from repro.core.semantics import Schema, SemanticType, VALUE
from repro.metrics.compute import (
    finalize_metric,
    merge_metric_partials,
    metric_group_fields,
    metric_partials,
    resolve_value_field,
    sorted_keys,
)
from repro.rdd.stats import Decision
from repro.stream import DeltaPlan
from repro.units.temporal import Timestamp


def rows_from_state(
    state: Dict[str, Dict[Tuple, Any]],
    group_fields: List[str],
    query: Query,
) -> List[Dict[str, Any]]:
    """Finalized wide rows from a per-measure partial state."""
    final = finalize_metric(state, query)
    rows: List[Dict[str, Any]] = []
    for g in sorted_keys(final):
        row = dict(zip(group_fields, g))
        for mkey, val in final[g].items():
            if val is not None:
                row[mkey] = val
        rows.append(row)
    return rows


class Rollup:
    """One materialized rollup: its defining metric query, base plan,
    partial state, finalized table, and feed watermarks."""

    def __init__(self, session, name: str, query: Query) -> None:
        if not query.is_metric:
            raise QueryError(
                f"rollup {name!r} needs a metric query; add "
                ".measure(...) (and usually .per()/.grain())"
            )
        if query.grain is None:
            raise QueryError(
                f"rollup {name!r} needs a time grain; add .grain('1h')"
            )
        self.session = session
        self.name = name
        self.query = query
        #: per-measure partial state {measure_key: {group: partial}}
        self.state: Dict[str, Dict[Tuple, Any]] = {}
        #: the finalized table {group: row}; a row is replaced, never
        #: mutated, so a published dataset keeps the rows it was given
        self.table: Dict[Tuple, Dict[str, Any]] = {}
        self.watermarks: Dict[str, int] = {}
        self.refreshes = 0
        self.delta_refreshes = 0
        self._lock = threading.RLock()
        self.base_plan = session.plan(query)
        base = self.base_plan.derive_schema(
            session.schemas(), session.dictionary
        )
        self.group_fields, _ = metric_group_fields(base, query)
        # the table's schema: the group fields as the base relation
        # types them, then one value column per measure in its value
        # field's units (``count`` is in counts)
        fields = {f: base[f] for f in self.group_fields}
        for m in query.measures:
            src = base[resolve_value_field(base, m.dimension)]
            units = src.units
            if m.how == "count" and session.dictionary.has_unit("count"):
                units = "count"
            fields[m.key()] = SemanticType(VALUE, src.dimension, units)
        self.schema = Schema(fields)
        self._windowed = [
            m.key() for m in query.measures if m.window is not None
        ]
        self.delta_plan = DeltaPlan(self.base_plan)
        self.feed_names = tuple(
            n for n in self.base_plan.dataset_names()
            if n in session.feeds
        )

    # -- materialization ----------------------------------------------

    def materialize(self) -> "Rollup":
        """Compute the rollup at the current feed watermarks, finalize
        every group, and register the table in the catalog."""
        session = self.session
        with self._lock:
            marks = {
                n: session.feeds[n].watermark for n in self.feed_names
            }
            base = self.delta_plan.replay_at(session, marks)
            self.state = metric_partials(base, self.query)
            self.watermarks = marks
            self.table = self._finalize(self.state)
            self._publish()
        return self

    def _finalize(
        self, state: Dict[str, Dict[Tuple, Any]]
    ) -> Dict[Tuple, Dict[str, Any]]:
        """Fresh finalized rows for every group in ``state``."""
        gf = self.group_fields
        return {
            tuple(row[f] for f in gf): row
            for row in rows_from_state(state, gf, self.query)
        }

    def _touched(
        self, part: Dict[str, Dict[Tuple, Any]]
    ) -> Dict[str, Dict[Tuple, Any]]:
        """The standing state of just the groups a delta's partials
        ``part`` touched. A windowed measure's value at a bucket reads
        the buckets before it, so a touched per-dims series is taken
        whole."""
        keys = set()
        for groups in part.values():
            keys.update(groups)
        if self._windowed:
            series = {g[:-1] for g in keys}
            for mkey in self._windowed:
                keys.update(
                    g for g in self.state.get(mkey, ())
                    if g[:-1] in series
                )
        return {
            mkey: {g: groups[g] for g in keys if g in groups}
            for mkey, groups in self.state.items()
        }

    def _publish(self) -> None:
        """Swap the table into the catalog as one in-memory dataset
        (caller holds the lock)."""
        session = self.session
        session._replace(ScrubJayDataset.from_rows(
            session.ctx, self.table.values(), self.schema, self.name
        ))

    @property
    def dataset(self) -> ScrubJayDataset:
        return self.session.dataset(self.name)

    # -- routing -------------------------------------------------------

    def can_answer(self, query: Query) -> bool:
        """Can this rollup's stored state answer ``query`` exactly?"""
        rq = self.query
        if not query.is_metric:
            return False
        exact_grain = False
        if query.grain is not None:
            if not rq.grain.divides(query.grain):
                return False
            exact_grain = abs(
                rq.grain.seconds - query.grain.seconds
            ) < 1e-9
        if not set(query.per) <= set(rq.per):
            return False
        exact_per = set(query.per) == set(rq.per)
        available = {(m.dimension, m.how) for m in rq.measures}
        for m in query.measures:
            if (m.dimension, m.how) not in available:
                return False
            decomposable = m.how in DECOMPOSABLE_AGGS
            if m.window is not None and not decomposable:
                return False
            if not decomposable and not (exact_grain and exact_per):
                # p50/p95 cannot be re-aggregated from coarser
                # partials — exact-grain, exact-group reads only
                return False
        # filters must match; extra equality filters on per-dims are
        # fine (they restrict whole groups post-aggregation)
        if set(rq.filters) - set(query.filters):
            return False
        for f in set(query.filters) - set(rq.filters):
            if f.op != "eq" or f.dimension not in query.per:
                return False
        return True

    def answer(self, query: Query) -> Dict[Tuple, Dict[str, Any]]:
        """Answer a metric query from the partial state: project the
        group keys onto the query's per-dims, re-bucket to its grain,
        merge, and finalize."""
        with self._lock:
            per_idx = [self.query.per.index(d) for d in query.per]
            group_filters = [
                (query.per.index(f.dimension), f.value)
                for f in set(query.filters) - set(self.query.filters)
            ]
            parts: Dict[str, Dict[Tuple, Any]] = {}
            for m in query.measures:
                mkey = m.key()
                # the stored state is keyed by *this* rollup's measure
                # keys; match on (dimension, how) so e.g. a windowed
                # mean query reads the plain per-bucket mean partials
                # (windows apply at finalize, not in the state)
                src = {}
                for rm in self.query.measures:
                    if (rm.dimension, rm.how) == (m.dimension, m.how):
                        src = self.state.get(rm.key(), {})
                        break
                merge = _merge_for(m.how)
                projected: Dict[Tuple, Any] = {}
                for key, val in src.items():
                    per_vals, bucket = key[:-1], key[-1]
                    nk = tuple(per_vals[i] for i in per_idx)
                    if query.grain is not None:
                        epoch = getattr(bucket, "epoch", bucket)
                        nk = nk + (
                            Timestamp(query.grain.bucket(epoch)),
                        )
                    if any(nk[i] != v for i, v in group_filters):
                        continue
                    projected[nk] = (
                        merge(projected[nk], val)
                        if nk in projected else val
                    )
                parts[mkey] = projected
        return finalize_metric(parts, query)

    # -- freshness (the PR-8 incremental-refresh path) -----------------

    def refresh(self) -> Dict[str, Any]:
        """Bring the rollup to its feeds' current watermarks —
        incrementally (delta partials merged into the standing state)
        when the base plan is delta-safe, by scoped replay otherwise —
        then republish the table. A delta refresh finalizes only the
        groups the delta touched; a replay finalizes every group."""
        session = self.session
        with self._lock:
            base = dict(self.watermarks)
            targets = dict(base)
            changed = set()
            for n in self.feed_names:
                feed = session.feeds.get(n)
                if feed is None:
                    continue
                targets[n] = feed.watermark
                if targets[n] != base.get(n):
                    changed.add(n)
            if not changed:
                return {"name": self.name, "refreshed": False}
            mode, _ = self.delta_plan.classify(
                changed, getattr(session.ctx, "report", None)
            )
            if mode == "delta":
                result, _ = self.delta_plan.delta_between(
                    session, base, targets, changed
                )
                part = metric_partials(result, self.query)
                merge_metric_partials(self.state, part, self.query)
                self.table.update(self._finalize(self._touched(part)))
                self.delta_refreshes += 1
            else:
                result = self.delta_plan.replay_at(session, targets)
                self.state = metric_partials(result, self.query)
                self.table = self._finalize(self.state)
            self.watermarks = targets
            self.refreshes += 1
            self._publish()
            return {
                "name": self.name,
                "refreshed": True,
                "mode": mode,
                "watermarks": dict(targets),
            }

    def __repr__(self) -> str:
        return (
            f"Rollup({self.name!r}, grain={self.query.grain}, "
            f"per={list(self.query.per)}, "
            f"measures={[str(m) for m in self.query.measures]}, "
            f"groups={sum(len(v) for v in self.state.values())})"
        )


def choose_rollup(
    rollups: Dict[str, Rollup], query: Query, report=None
) -> Tuple[Optional[Rollup], Decision]:
    """Route a metric query: the **coarsest** registered rollup that
    can answer it exactly, or raw. Always returns the ``rollup``
    :class:`~repro.rdd.stats.Decision` explaining the choice, recorded
    on the ExecutionReport ``report`` when one is given."""
    eligible = [r for r in rollups.values() if r.can_answer(query)]
    if eligible:
        win = max(eligible, key=lambda r: r.query.grain.seconds)
        choice, name, grain = "rollup", win.name, win.query.grain.seconds
        reason = (
            f"coarsest of {len(eligible)} eligible rollup(s) "
            f"at grain {grain:g}s"
        )
    else:
        win, choice, name, grain = None, "raw", None, None
        if not rollups:
            reason = "no rollups registered"
        elif any(
            m.how not in DECOMPOSABLE_AGGS for m in query.measures
        ):
            reason = (
                "non-decomposable measure (p50/p95) needs an "
                "exact-grain, exact-group rollup; none registered"
            )
        else:
            reason = (
                "no registered rollup covers the requested "
                "measures/per/grain"
            )
    decision = Decision("rollup", "metric", choice, reason, {
        "rollup": name,
        "requested_grain": query.grain.seconds if query.grain else None,
        "rollup_grain": grain,
        "candidates": len(eligible),
    })
    if report is not None:
        report.add(decision)
    return win, decision
