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

Both combinations execute adaptively: the natural join goes through
:meth:`~repro.rdd.rdd.RDD.adaptiveJoin`, so the scheduler picks a
broadcast-hash plan when run-time statistics say one side fits under
the broadcast threshold (skipping the shuffle entirely) and falls back
to the shuffle cogroup plan otherwise; the interpolation join likewise
broadcasts its right ("sensor") side when it is small instead of
shuffling both sides into bins. Every choice lands in
the context's :class:`~repro.rdd.stats.ExecutionReport`, and all
strategies are result-equivalent (asserted by the property tests).

The interpolation join avoids the unscalable all-pairs distance
computation by binning at width ``2W``: a left row goes to its one
bin, a right row to the one or two bins its open window
``(t - W, t + W)`` touches — the paper's offset second binning, applied
to the right side only — so any two elements within ``W`` of each
other share exactly one bin. Inside a bin the right rows are sorted by
time once, a left row selects its matches with ``bisect`` (the distance
predicate still decides membership), and they are aggregated where
they are found according to the value semantics — interpolate
continuous ordered values, pick the nearest otherwise. This deviates
from §5.3's literal algorithm (both sides binned twice, candidate
pairs de-duplicated afterwards) and matches the same pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.columnar import ColumnBatch, kernels
from repro.core.dataset import ScrubJayDataset
from repro.core.derivation import Combination, register_derivation
from repro.core.dictionary import SemanticDictionary
from repro.core.semantics import Schema
from repro.errors import DerivationError
from repro.rdd.stats import JoinDecision


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

        def lkey(row: Dict[str, Any]):
            return tuple(row.get(f) for f in lfields)

        def rkey(row: Dict[str, Any]):
            return tuple(row.get(f) for f in rfields)

        def merge(kv) -> Dict[str, Any]:
            _key, (lrow, rrow) = kv
            out = dict(lrow)
            for f, v in rrow.items():
                if f in rename:
                    out[rename[f]] = v
            return out

        joined = (
            left.rdd.keyBy(lkey)
            .adaptiveJoin(right.rdd.keyBy(rkey))
            .map(merge)
        )
        return ScrubJayDataset(
            joined,
            self.derive_schema(left.schema, right.schema, dictionary),
            name=f"({left.name} ⋈ {right.name})",
            provenance={"op": self.op_name,
                        "left": left.provenance,
                        "right": right.provenance},
        )

    def apply_batched(
        self,
        left: ScrubJayDataset,
        right: ScrubJayDataset,
        dictionary: SemanticDictionary,
    ) -> Optional[ScrubJayDataset]:
        """Columnar broadcast hash join.

        The right side collects driver-side into one build batch whose
        encoded key columns feed a hash index; left batches probe it
        per partition. Declines (returns None, row-path fallback) when
        either input is row-shaped, the right side holds stray row
        elements, or the build side exceeds the broadcast row
        threshold — the adaptive shuffle join is the right tool there.
        """
        if not getattr(left, "batched", False) or \
                not getattr(right, "batched", False):
            return None
        self._check(left, right, dictionary)
        plan = _match_plan(left.schema, right.schema, dictionary)
        assert plan is not None
        lfields = [lf for lf, _, _ in plan.values()]
        rfields = [rf for _, rf, _ in plan.values()]
        rename = _merge_rename(left.schema, right.schema, drop=rfields)

        collected = right.rdd.collect()
        if any(not isinstance(b, ColumnBatch) for b in collected):
            return None
        ctx = left.ctx
        build = ColumnBatch.concat([b for b in collected if b.num_rows])
        if build.num_rows > ctx.adaptive.broadcast_threshold_rows:
            return None
        index = kernels.build_hash_index(build, rfields)
        report = getattr(ctx, "report", None)
        if report is not None:
            report.add(JoinDecision(
                op=self.op_name,
                strategy="broadcast",
                build_side="right",
                left_rows=0,
                right_rows=build.num_rows,
                left_bytes=0,
                right_bytes=build.approx_bytes(),
                threshold_bytes=ctx.adaptive.broadcast_threshold_bytes,
                reason="columnar hash join: build side under the"
                       " broadcast row threshold",
            ))

        def probe(items: List[Any]) -> List[Any]:
            out: List[Any] = []
            for item in items:
                if isinstance(item, ColumnBatch):
                    joined = kernels.hash_join_probe(
                        item, lfields, build, index, rename
                    )
                    if joined is not None:
                        out.append(joined)
                else:  # stray row element: merge the row way
                    key = tuple(item.get(f) for f in lfields)
                    for j in index.get(key, ()):
                        row = dict(item)
                        for f, v in build.row(j).items():
                            if f in rename:
                                row[rename[f]] = v
                        out.append(row)
            return out

        result = ScrubJayDataset(
            left.rdd.mapPartitions(probe),
            self.derive_schema(left.schema, right.schema, dictionary),
            name=f"({left.name} ⋈ {right.name})",
            provenance={"op": self.op_name,
                        "left": left.provenance,
                        "right": right.provenance},
        )
        result.batched = True
        return result


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
    extra-domain combination).

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
        lex = [lf for _, lf, _ in exact]
        rex = [rf for _, _, rf in exact]
        window = self.window

        drop = [rdt] + rex
        rename = _merge_rename(left.schema, right.schema, drop=drop)

        # Right-side fields partitioning the matches (non-shared domains)
        # vs. fields to attach (values).
        r_extra_domains = [
            f for f, sem in right.schema.domain_fields().items()
            if f not in drop
        ]
        r_values = [
            f for f, sem in right.schema.value_fields().items()
            if f not in drop
        ]
        extra_names = [rename[f] for f in r_extra_domains]
        #: (right field, output name, interpolate?) per attached value
        attached = [
            (f, rename[f],
             dictionary.has_dimension(right.schema[f].dimension)
             and dictionary.dimension(
                 right.schema[f].dimension).interpolatable)
            for f in r_values
        ]

        # ------------------------------------------------------------------
        # 1. key the right side once as (epoch, row); a row without a
        #    time coordinate can match nothing
        # ------------------------------------------------------------------
        def key_right(row):
            t = row.get(rdt)
            return [] if t is None else [(t.epoch, row)]

        rkeyed = right.rdd.flatMap(key_right)

        def by_time(pairs) -> Tuple[List[float], List[Dict[str, Any]]]:
            pairs.sort(key=itemgetter(0))
            return [t for t, _ in pairs], [r for _, r in pairs]

        # ------------------------------------------------------------------
        # 2. one left row against the time-sorted right rows of its
        #    exact key: select its window, split the matches by the
        #    extra right-side domains, attach each value at its coordinate
        # ------------------------------------------------------------------
        def attach(lrow, times, rrows) -> List[Dict[str, Any]]:
            lt = lrow[ldt].epoch
            # The predicate decides membership; bisect only narrows
            # where it is evaluated. lt -/+ W as rounded bound every
            # time within W, and the times within W are contiguous.
            lo = bisect_left(times, lt - window)
            hi = bisect_right(times, lt + window, lo)
            while lo < hi and not abs(lt - times[lo]) < window:
                lo += 1
            while lo < hi and not abs(lt - times[hi - 1]) < window:
                hi -= 1
            groups: Dict[Tuple, Tuple[List[float], List[Dict]]] = {}
            for i in range(lo, hi):
                rrow = rrows[i]
                gkey = tuple([rrow.get(f) for f in r_extra_domains])
                group = groups.get(gkey)
                if group is None:
                    group = groups[gkey] = ([], [])
                group[0].append(times[i])
                group[1].append(rrow)
            out = []
            for gkey, (ts, rs) in groups.items():
                new = dict(lrow)
                new.update(zip(extra_names, gkey))
                for f, name, interpolate in attached:
                    fts, vs = ts, [r.get(f) for r in rs]
                    if None in vs:  # a missing or None field is no sample
                        fts = [t for t, v in zip(ts, vs) if v is not None]
                        vs = [v for v in vs if v is not None]
                    if vs:
                        new[name] = _attach_value(fts, vs, lt, interpolate)
                out.append(new)
            return out

        # Adaptive strategy choice, taken on the pairs that would be
        # shipped (persisted, so neither path computes them again): a
        # small right side goes whole to every task and the left side
        # probes it in one narrow stage; otherwise both sides shuffle
        # once into bins of width 2W.
        ctx = left.rdd.ctx
        decision = ctx.planner.decide_bin_broadcast(
            rkeyed.persist().stats(), op=self.op_name
        )
        if decision.strategy == "broadcast":
            # ----------------------------------------------------------
            # 3a. broadcast path: driver-built index of the right side
            #     by exact key, probed once per left row
            # ----------------------------------------------------------
            by_key: Dict[Tuple, List[Tuple[float, Dict[str, Any]]]] = {}
            for pair in rkeyed.collect():
                ex = tuple([pair[1].get(f) for f in rex])
                by_key.setdefault(ex, []).append(pair)
            rindex = {ex: by_time(pairs) for ex, pairs in by_key.items()}
            rkeyed.unpersist()  # the index is all the lineage keeps

            def probe(lrows) -> List[Dict[str, Any]]:
                out: List[Dict[str, Any]] = []
                for lrow in lrows:
                    hit = rindex.get(tuple([lrow.get(f) for f in lex]))
                    if hit and lrow.get(ldt) is not None:
                        out.extend(attach(lrow, *hit))
                return out

            joined = left.rdd.mapPartitions(probe)
        else:
            # ----------------------------------------------------------
            # 3b. shuffle path: a left row goes to its one bin, a right
            #     pair to every bin its window (rt - W, rt + W) touches
            #     (one or two), so a pair of rows within W shares
            #     exactly one bin and is met there once
            # ----------------------------------------------------------
            width = 2.0 * window

            def bin_left(lrow):
                t = lrow.get(ldt)
                if t is None:
                    return []
                ex = tuple([lrow.get(f) for f in lex])
                return [((ex, math.floor(t.epoch / width)), lrow)]

            def bin_right(pair):
                rt, rrow = pair
                ex = tuple([rrow.get(f) for f in rex])
                first = math.floor((rt - window) / width)
                last = math.floor((rt + window) / width)
                return [((ex, b), pair) for b in range(first, last + 1)]

            def match_bin(kv) -> List[Dict[str, Any]]:
                # the right side's elements are the (epoch, row) pairs,
                # the left side's the rows themselves
                pairs = [v for v in kv[1] if type(v) is tuple]
                lrows = [v for v in kv[1] if type(v) is not tuple]
                if not lrows or not pairs:
                    return []
                times, rrows = by_time(pairs)
                return [new for lrow in lrows
                        for new in attach(lrow, times, rrows)]

            joined = ctx.union([
                left.rdd.flatMap(bin_left), rkeyed.flatMap(bin_right)
            ]).groupByKey().flatMap(match_bin)

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


def _attach_value(
    times: List[float], values: List[Any], at: float, interpolate: bool
) -> Any:
    """Collapse time-sorted samples to one value at ``at``.

    Continuous ordered values are linearly interpolated between the
    nearest readings below and above ``at`` (averaging readings that
    bracket the target, per the paper's temperature example); anything
    else — and one-sided matches — takes the nearest reading, the
    earlier one when two are equally near.
    """
    n = len(times)
    i = bisect_left(times, at)
    j = bisect_right(times, at, i)
    if i < j:  # sampled at the coordinate itself
        return _reading(values[i:j], interpolate)
    if i > 0:
        t0 = times[i - 1]
        below = _reading(values[bisect_left(times, t0, 0, i):i], interpolate)
    if i < n:
        t1 = times[i]
        above = _reading(values[i:bisect_right(times, t1, i)], interpolate)
    if i == 0:
        return above
    if i == n:
        return below
    if interpolate:
        return below + (above - below) * ((at - t0) / (t1 - t0))
    return below if at - t0 <= t1 - at else above
