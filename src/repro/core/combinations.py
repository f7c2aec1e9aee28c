"""Combinations: semantics-driven generalized joins (paper §4.3, §5.3).

A combination is possible iff the two datasets share a domain
dimension, and *all* shared domain dimensions must match to yield a
relation. The comparison per shared dimension follows its semantics:

- unordered/discrete dimensions (node ids, racks, applications) must
  match exactly → :class:`NaturalJoin`;
- a continuous ordered dimension (time) is compared with a distance
  metric, matching elements strictly within a window ``W`` and
  interpolating —
  → :class:`InterpolationJoin`, the paper's novel data-parallel
  algorithm.

Both combinations execute adaptively and build each output row straight
from its inputs. The natural join goes through
:meth:`~repro.rdd.rdd.RDD.adaptiveJoin` with its key and merge
functions: when one side has at most the broadcast threshold's rows
(exact counts of the materialized inputs) it is keyed into a hash map
that the other side probes row by row, merging each match on the spot;
otherwise both shuffle by key. The interpolation join likewise
broadcasts its right ("sensor") side when it is small instead of
shuffling both sides by exact key. Every choice lands in the context's
:class:`~repro.rdd.stats.ExecutionReport`, and all strategies are
result-equivalent (asserted by the property tests).

The interpolation join avoids the unscalable all-pairs distance
computation with a per-key time index: the right rows of one exact key
(every shared dimension but time) are sorted by time and split by the
extra right-side domains once, each attached field keeping its own
``None``-free samples; a left row selects each group's matches with
``bisect`` (the distance predicate still decides membership) and
aggregates them on the spot according to the value semantics —
interpolate continuous ordered values, pick the nearest otherwise. This
deviates from §5.3, which bins time so that the time comparison runs in
parallel: a time-only relation is refused, so an exact key always
exists and parallelism comes from the exact keys (one hot key is one
reduce task).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.dataset import ScrubJayDataset
from repro.core.derivation import Combination, register_derivation
from repro.core.dictionary import SemanticDictionary
from repro.core.semantics import Schema
from repro.errors import DerivationError


def shared_domain_dimensions(left: Schema, right: Schema) -> Set[str]:
    """Domain dimensions present on both sides — the join surface."""
    return left.domain_dimensions() & right.domain_dimensions()


def _single_domain_field(schema: Schema, dim: str) -> Optional[str]:
    fields = schema.fields_for(dim, "domain")
    return fields[0] if len(fields) == 1 else None


def _match_plan(
    left: Schema, right: Schema, dictionary: SemanticDictionary
) -> Optional[Dict[str, Tuple[str, str, bool]]]:
    """For every shared domain dimension, find the single field on each
    side and whether the dimension needs interpolation.

    Returns ``{dim: (left_field, right_field, interpolatable)}`` or
    None when any shared dimension is ambiguous (multiple fields) or
    its units disagree between the sides (the engine must insert a
    conversion first).
    """
    shared = shared_domain_dimensions(left, right)
    if not shared:
        return None
    plan: Dict[str, Tuple[str, str, bool]] = {}
    for dim in sorted(shared):
        lf = _single_domain_field(left, dim)
        rf = _single_domain_field(right, dim)
        if lf is None or rf is None:
            return None
        if left[lf].units != right[rf].units:
            return None
        if not dictionary.has_dimension(dim):
            return None
        plan[dim] = (lf, rf, dictionary.dimension(dim).interpolatable)
    return plan


def _merge_rename(
    left: Schema, right: Schema, drop: List[str]
) -> Dict[str, str]:
    """Output name for every kept right field (mirrors Schema.merge)."""
    out: Dict[str, str] = {}
    taken = set(left.fields())
    for f in right.fields():
        if f in drop:
            continue
        name = f
        while name in taken:
            name += "_r"
        out[f] = name
        taken.add(name)
    return out


def _exact_key(fields: List[str]):
    """A row's key on ``fields``: the one field's value (no tuple per
    row), else their tuple. A missing field reads as None."""
    if len(fields) == 1:
        field = fields[0]
        return lambda row: row.get(field)
    return lambda row: tuple([row.get(f) for f in fields])


@register_derivation
class NaturalJoin(Combination):
    """Exact-match join on all shared domain dimensions.

    Applicable when the two schemas share domain dimensions and none of
    them requires interpolation (all are discrete/unordered, so exact
    matching is the only valid comparison).
    """

    op_name = "natural_join"

    def __init__(self) -> None:
        pass

    def applies(
        self, left: Schema, right: Schema, dictionary: SemanticDictionary
    ) -> bool:
        plan = _match_plan(left, right, dictionary)
        if plan is None:
            return False
        return not any(interp for _, _, interp in plan.values())

    def derive_schema(
        self, left: Schema, right: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        plan = _match_plan(left, right, dictionary)
        if plan is None:
            raise DerivationError("natural_join: schemas share no "
                                  "unambiguous domain dimensions")
        drop = [rf for _, rf, _ in plan.values()]
        return left.merge(right, drop=drop)

    def apply(
        self,
        left: ScrubJayDataset,
        right: ScrubJayDataset,
        dictionary: SemanticDictionary,
    ) -> ScrubJayDataset:
        self._check(left, right, dictionary)
        plan = _match_plan(left.schema, right.schema, dictionary)
        assert plan is not None
        lfields = [lf for lf, _, _ in plan.values()]
        rfields = [rf for _, rf, _ in plan.values()]
        rename = _merge_rename(left.schema, right.schema, drop=rfields)
        attach = list(rename.items())  # (right field, output name)

        def merge(lrow: Dict[str, Any], rrow: Dict[str, Any]):
            out = dict(lrow)
            for f, name in attach:
                if f in rrow:
                    out[name] = rrow[f]
            return out

        joined = left.rdd.adaptiveJoin(
            right.rdd, lkey=_exact_key(lfields), rkey=_exact_key(rfields),
            combine=merge,
        )
        return ScrubJayDataset(
            joined,
            self.derive_schema(left.schema, right.schema, dictionary),
            name=f"({left.name} ⋈ {right.name})",
            provenance={"op": self.op_name,
                        "left": left.provenance,
                        "right": right.provenance},
        )


@register_derivation
class InterpolationJoin(Combination):
    """Windowed join over one continuous ordered shared dimension.

    Matches every left row against right rows whose continuous
    coordinate lies strictly within ``window`` seconds — the window is
    open, a pair at distance exactly W does not match — (after
    exact-matching all discrete shared dimensions), then attaches the
    right dataset's value fields to the left row: linearly interpolated
    at the left coordinate when the value's dimension is continuous and
    ordered, the nearest match otherwise. Right-side domain fields that
    are *not* shared (e.g. the rack location of a temperature sensor)
    partition the matches, yielding one output row per (left row ×
    extra-domain combination). Each exact key's time index is built on
    the driver (broadcast) or where the key lands after one shuffle; one
    matcher serves both, and left rows at one (key, time) share one
    window reading.

    The attached value does not depend on the order or partitioning of
    the right rows. A field that is missing or ``None`` is not a
    sample. Samples tied on one time stand for one reading: the mean of
    interpolatable values, otherwise the value whose ``repr`` sorts
    first. Of two readings equally near on either side, a
    non-interpolatable value takes the earlier.
    """

    op_name = "interpolation_join"

    #: default window (seconds), matching the paper's 2-minute facility
    #: sensor interval.
    DEFAULT_WINDOW = 120.0

    def __init__(self, window: float = DEFAULT_WINDOW) -> None:
        if window <= 0:
            raise DerivationError(f"window must be positive, got {window}")
        self.window = window

    # ------------------------------------------------------------------

    def _split_plan(self, left: Schema, right: Schema,
                    dictionary: SemanticDictionary):
        plan = _match_plan(left, right, dictionary)
        if plan is None:
            return None
        cont = [(d, lf, rf) for d, (lf, rf, i) in plan.items() if i]
        exact = [(d, lf, rf) for d, (lf, rf, i) in plan.items() if not i]
        if len(cont) != 1:
            return None
        # Require at least one shared *entity* dimension besides the
        # continuous one: relating datasets on time alone would draw
        # spurious relations between unrelated entities (every job to
        # every rack). This is why the paper's Figure 5 plan routes the
        # job log through the node-layout dataset before joining heat.
        if not exact:
            return None
        # Windowed comparison needs point coordinates on both sides.
        _, lf, rf = cont[0]
        if dictionary.unit(left[lf].units).kind != "datetime":
            return None
        # Raw cumulative counters reset at arbitrary intervals, so their
        # absolute values are meaningless on their own (paper §7.3) —
        # attaching them across a time window by nearest-match or
        # interpolation would relate meaningless magnitudes. They must
        # be turned into rates (derive_rate) before a windowed join.
        for f, sem in right.value_fields().items():
            if dictionary.has_unit(sem.units) and \
                    dictionary.unit(sem.units).kind == "count":
                return None
        return cont[0], exact

    def applies(
        self, left: Schema, right: Schema, dictionary: SemanticDictionary
    ) -> bool:
        return self._split_plan(left, right, dictionary) is not None

    def derive_schema(
        self, left: Schema, right: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        split = self._split_plan(left, right, dictionary)
        if split is None:
            raise DerivationError(
                "interpolation_join: schemas do not share exactly one "
                "interpolatable domain dimension"
            )
        (_, _, rdt), exact = split
        drop = [rdt] + [rf for _, _, rf in exact]
        return left.merge(right, drop=drop)

    def apply(
        self,
        left: ScrubJayDataset,
        right: ScrubJayDataset,
        dictionary: SemanticDictionary,
    ) -> ScrubJayDataset:
        self._check(left, right, dictionary)
        split = self._split_plan(left.schema, right.schema, dictionary)
        assert split is not None
        (_dim, ldt, rdt), exact = split
        lkey = _exact_key([lf for _, lf, _ in exact])
        rex = [rf for _, _, rf in exact]
        rkey = _exact_key(rex)
        window = self.window

        drop = [rdt] + rex
        rename = _merge_rename(left.schema, right.schema, drop=drop)

        # Right-side fields partitioning the matches (non-shared domains)
        # vs. fields to attach (values).
        r_extra_domains = [f for f in right.schema.domain_fields()
                           if f not in drop]
        extra_names = [rename[f] for f in r_extra_domains]
        #: (right field, output name, interpolate?) per attached value
        attached = [
            (f, rename[f], dictionary.has_dimension(sem.dimension)
             and dictionary.dimension(sem.dimension).interpolatable)
            for f, sem in right.schema.value_fields().items() if f not in drop
        ]

        # 1. key the right side once as (epoch, row); a row without a
        #    time coordinate can match nothing
        def key_right(row):
            t = row.get(rdt)
            return [] if t is None else [(t.epoch, row)]

        rkeyed = right.rdd.flatMap(key_right)

        # 2. one exact key's time index, split by the extra right-side
        #    domains: per group its columns, the times of all its rows
        #    (they decide membership) and per attached field the None-free
        #    (times, values), sharing the times when every row samples it
        def by_time(pairs) -> List[Tuple[Dict[str, Any], List[float], List]]:
            pairs.sort(key=itemgetter(0))
            groups: Dict[Tuple, List[Tuple[float, Dict[str, Any]]]] = {}
            for pair in pairs:
                groups.setdefault(
                    tuple([pair[1].get(f) for f in r_extra_domains]), []
                ).append(pair)
            index = []
            for gkey, group in groups.items():
                times = [t for t, _ in group]
                rrows = [r for _, r in group]
                fields = []
                for f, name, interpolate in attached:
                    vs = [r.get(f) for r in rrows]
                    fts = times
                    if None in vs:  # a missing or None field is no sample
                        fts = [t for t, v in zip(times, vs) if v is not None]
                        vs = [v for v in vs if v is not None]
                    if vs:
                        fields.append((name, interpolate, fts, vs))
                index.append((dict(zip(extra_names, gkey)), times, fields))
            return index

        # 3. one window reading of an index at a left time: an update
        #    per group with rows in the window, its values attached at lt
        def reading(index, lt) -> List[Dict[str, Any]]:
            updates = []
            for extra, times, fields in index:
                lo, hi = _open_window(times, lt, window)
                if lo == hi:
                    continue
                update = dict(extra)
                for name, interpolate, fts, vs in fields:
                    flo, fhi = (lo, hi) if fts is times \
                        else _open_window(fts, lt, window)
                    if flo < fhi:
                        update[name] = _attach_value(
                            fts, vs, flo, fhi, lt, interpolate)
                updates.append(update)
            return updates

        # 4. the one matcher: timed left rows of exact key ``ex`` share a
        #    reading per time via ``memo``; each output row is a new dict
        def match(ex, lrows, index, memo, out) -> None:
            for lrow in lrows:
                lt = lrow[ldt].epoch
                updates = memo.get((ex, lt))
                if updates is None:
                    updates = memo[ex, lt] = reading(index, lt)
                out.extend([{**lrow, **update} for update in updates])

        # Adaptive strategy choice, on the pairs that would be shipped
        # (persisted, so neither path computes them again): a small right
        # side goes whole to every task; else both shuffle by exact key.
        ctx = left.rdd.ctx
        decision = ctx.planner.decide_join(
            self.op_name, (("right", rkeyed.persist().count()),), "index"
        )
        if decision.choice == "broadcast":
            # 5a. broadcast path: a driver-built index per exact key
            by_key: Dict[Any, List[Tuple[float, Dict[str, Any]]]] = {}
            for pair in rkeyed.collect():
                by_key.setdefault(rkey(pair[1]), []).append(pair)
            rindex = {ex: by_time(pairs) for ex, pairs in by_key.items()}
            rkeyed.unpersist()  # the index is all the lineage keeps

            def probe(lrows) -> List[Dict[str, Any]]:
                out: List[Dict[str, Any]] = []
                memo: Dict[Tuple, List[Dict[str, Any]]] = {}  # per task
                for lrow in lrows:
                    ex = lkey(lrow)
                    index = rindex.get(ex)
                    if index and lrow.get(ldt) is not None:
                        match(ex, (lrow,), index, memo, out)
                return out

            joined = left.rdd.mapPartitions(probe)
        else:
            # 5b. shuffle path: timed left rows and right pairs ship once
            #     by exact key; each key's index is built where it lands
            def match_key(kv) -> List[Dict[str, Any]]:
                # right elements are (epoch, row) pairs, left ones rows; a
                # key lands in one task, so a memo per key is the task's
                ex, values = kv
                pairs = [v for v in values if type(v) is tuple]
                lrows = [v for v in values if type(v) is not tuple]
                out: List[Dict[str, Any]] = []
                if lrows and pairs:
                    match(ex, lrows, by_time(pairs), {}, out)
                return out

            joined = ctx.union([
                left.rdd.filter(lambda r: r.get(ldt) is not None).keyBy(lkey),
                rkeyed.keyBy(lambda pair: rkey(pair[1])),
            ]).groupByKey().flatMap(match_key)

        return ScrubJayDataset(
            joined,
            self.derive_schema(left.schema, right.schema, dictionary),
            name=f"({left.name} ⋈~ {right.name})",
            provenance={"op": self.op_name, "window": window,
                        "left": left.provenance,
                        "right": right.provenance},
        )


def _reading(tied: List[Any], interpolate: bool) -> Any:
    """One value for the samples tied on one time, whatever their
    order: the mean of interpolatable values, otherwise the value
    whose ``repr`` sorts first."""
    if len(tied) == 1:
        return tied[0]
    if not interpolate:
        return min(tied, key=repr)
    base = min(tied)
    return base + math.fsum(v - base for v in tied) / len(tied)


def _open_window(times: List[float], at: float, window: float):
    """Bounds ``(lo, hi)`` of the sorted ``times`` strictly within
    ``window`` of ``at``. The predicate decides membership; bisect only
    narrows where it is evaluated (the times within W are contiguous)."""
    lo = bisect_left(times, at - window)
    hi = bisect_right(times, at + window, lo)
    while lo < hi and not abs(at - times[lo]) < window:
        lo += 1
    while lo < hi and not abs(at - times[hi - 1]) < window:
        hi -= 1
    return lo, hi


def _attach_value(times: List[float], values: List[Any], lo: int, hi: int,
                  at: float, interpolate: bool) -> Any:
    """Collapse the time-sorted samples ``[lo, hi)`` to one value at ``at``.

    Continuous ordered values are linearly interpolated between the
    nearest readings below and above ``at`` (averaging readings that
    bracket the target, per the paper's temperature example); anything
    else — and one-sided matches — takes the nearest reading, the
    earlier one when two are equally near. One sample is its own value.
    """
    if hi - lo == 1:
        return values[lo]
    i = bisect_left(times, at, lo, hi)
    j = bisect_right(times, at, i, hi)
    if i < j:  # sampled at the coordinate itself
        return _reading(values[i:j], interpolate)
    if i > lo:
        t0 = times[i - 1]
        below = _reading(values[bisect_left(times, t0, lo, i):i], interpolate)
    if i < hi:
        t1 = times[i]
        above = _reading(values[i:bisect_right(times, t1, i, hi)], interpolate)
    if i == lo:
        return above
    if i == hi:
        return below
    if interpolate:
        return below + (above - below) * ((at - t0) / (t1 - t0))
    return below if at - t0 <= t1 - at else above
