"""The derivation engine (paper §5.2, Algorithm 1).

Finding a derivation sequence that satisfies a query is framed as a
constraint-satisfaction search whose variables are derivations and
datasets and whose sequence length is unbounded. Running real
derivations inside the search would be hopeless — a single combination
can take minutes on large data — so the engine searches over *schemas
only* (derivations expose schema-level ``applies``/``derive_schema``,
both near-constant time), prunes aggressively, prefers short
sequences (interpolation and aggregation lose precision, so fewer
steps means higher-precision results), and memoizes the
``CombineSet``/``CombinePair`` results it has already computed.

The search mirrors Algorithm 1:

1. compute the transformation closure of every catalog schema
   (bounded depth — the candidate datasets reachable by
   transformations alone);
2. if a queried domain dimension appears in no dataset, there is *no
   solution*: combinations and transformations can never infer new
   domain dimensions;
3. if a single dataset's closure satisfies the query, return the
   shortest such plan;
4. otherwise search subsets of datasets in increasing size (the
   "smallest set of datasets containing the queried dimensions,
   then add remaining datasets one at a time" loop), combining each
   subset with ``CombineSet`` — pairwise combinations through a
   sequence of transformations and a single combination per pair —
   and return the first (shortest) satisfying plan.

Both dedupe points (the closure and ``CombineSet``) keep one candidate
per schema fingerprint under one rule (:meth:`DerivationEngine._keep`):
fewer steps wins; on equal steps, the candidate with fewer estimated
rows wins, but only where the choice cannot change the answer: both
put the same datasets on each side of their interpolation joins (a
leaf may change sides only when that cannot change the rows, see
``_anchors``)
and every leaf is *keyed* (no two rows share a domain tuple, see
:class:`Estimate`); otherwise the first one seen stays. The estimate
propagates from *leaf facts* — row counts, distinct values per domain
dimension and explode spreads — which the session computes on the
first tie that needs them, only for datasets whose rows are already
in memory. Without facts (a store- or CSV-backed leaf, or no
``leaf_facts`` hook) the first candidate seen stays, as before.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field, replace
from typing import (
    Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence,
    Tuple,
)

from repro.errors import NoSolutionError, QueryError
from repro.core.combinations import (
    InterpolationJoin,
    NaturalJoin,
    _match_plan,
    _merge_rename,
)
from repro.core.derivation import (
    DerivationRegistry,
    GLOBAL_REGISTRY,
    Transformation,
)
from repro.core.dictionary import SemanticDictionary
from repro.core.dataset import ScrubJayDataset
from repro.core.pipeline import (
    CombineNode,
    DerivationPlan,
    LoadNode,
    PlanNode,
    TransformNode,
)
from repro.core.pushdown import push_down_plan
from repro.core.query import Query
from repro.core.semantics import DOMAIN, VALUE, Schema
from repro.core.transformations import (
    ConvertUnits,
    ExplodeContinuous,
    ExplodeDiscrete,
    FilterEquals,
    FilterRange,
)
from repro.rdd.rdd import SourceRDD
from repro.rdd.stats import Decision


@dataclass(frozen=True)
class EngineConfig:
    """Search-space bounds and data-alignment defaults.

    Frozen: nothing mutates an ``EngineConfig`` in place. Knob changes
    go through the session's :class:`~repro.config.TuningProfile`,
    which replaces ``engine.config`` wholesale (see DESIGN.md
    "Configuration").
    """

    #: transformation-closure depth per dataset before a combination
    max_transform_depth: int = 3
    #: transformation-closure depth applied after each combination
    post_combine_depth: int = 2
    #: candidates kept per dataset/subset (shortest first)
    max_candidates: int = 24
    #: maximum number of datasets combined to answer one query
    max_datasets: int = 4
    #: window (seconds) for engine-inserted interpolation joins
    interpolation_window: float = InterpolationJoin.DEFAULT_WINDOW
    #: sampling period (seconds) for engine-inserted continuous explodes
    explode_period: float = ExplodeContinuous.DEFAULT_PERIOD
    #: rewrite solved plans so filters collapse into the leaf scans
    pushdown: bool = True
    #: let the pushdown rewrite also prune scanned columns
    projection: bool = True


@dataclass(frozen=True)
class Estimate:
    """Estimated output size of a plan, propagated from leaf facts.

    ``ndv`` maps each domain dimension to its number of distinct
    values; ``spread`` maps each list field to its mean length and each
    timespan field to its mean duration in seconds (what an explode
    multiplies rows by); ``cost`` is the rows produced by every node of
    the plan, leaves included — the number the keep-rule compares.
    ``keyed`` is set on a leaf's facts only: no two of its rows share
    a domain tuple. Reordering a plan is only answer-preserving over
    keyed leaves — a duplicated row joined in before a grouping
    transform (``derive_heat``) merges into one group, joined in after
    it stays two rows — so an unkeyed leaf costs as unknown.
    """

    rows: float
    ndv: Mapping[str, float]
    spread: Mapping[str, float]
    cost: float
    keyed: bool = False


#: the facts of one leaf dataset, by name; None when unknown
LeafFacts = Callable[[str], Optional[Estimate]]

#: an estimate not yet derived (None means *unknown*)
_UNSET: Any = object()


@dataclass
class Candidate:
    """A reachable (schema, plan) pair during the search.

    ``inputs`` are the candidates the plan's root was built from (in
    plan order), so the estimate derives from theirs on first use and
    is memoized in ``est``; ``rejected`` holds the estimated costs of
    the same-schema candidates this one beat on cost.
    """

    schema: Schema
    plan: PlanNode
    steps: int
    inputs: Tuple["Candidate", ...] = field(
        default=(), repr=False, compare=False
    )
    est: Any = field(default=_UNSET, repr=False, compare=False)
    rejected: Tuple[float, ...] = field(default=(), compare=False)


def leaf_facts(
    dataset: ScrubJayDataset, dictionary: SemanticDictionary
) -> Optional[Estimate]:
    """``dataset``'s rows, ndv per domain dimension and explode
    spreads, or None (unknown) when its rows are not in memory.

    Memoized on the dataset for its ``_data_version``, so a feed
    advance makes the next call recount.
    """
    version = dataset._data_version
    memo = dataset._facts
    if memo is None or memo[0] != version:
        rows = _rows_in_memory(dataset)
        facts = (
            None if rows is None
            else _count_facts(rows, dataset.schema, dictionary)
        )
        memo = dataset._facts = (version, facts)
    return memo[1]


def _rows_in_memory(
    dataset: ScrubJayDataset,
) -> Optional[Sequence[Dict[str, Any]]]:
    """The rows, when they already live in this process, read without
    a scan or a copy (no source counter moves); else None."""
    source, rdd = dataset.source, dataset.rdd
    if source is not None:
        return source.in_memory_rows()
    parts = rdd._cached
    if parts is None and isinstance(rdd, SourceRDD):
        parts = rdd.partitions
    return None if parts is None else [r for p in parts for r in p.data]


def _count_facts(
    rows: Sequence[Dict[str, Any]],
    schema: Schema,
    dictionary: SemanticDictionary,
) -> Estimate:
    n = len(rows)
    ndv: Dict[str, float] = {}
    spread: Dict[str, float] = {}
    for f, sem in schema.items():
        kind = (
            dictionary.unit(sem.units).kind
            if dictionary.has_unit(sem.units) else None
        )
        if not sem.is_domain and kind not in ("list", "timespan"):
            continue
        values = [r[f] for r in rows if r.get(f) is not None]
        if kind == "list":
            spread[f] = sum(map(len, values)) / n if n else 0.0
            values = [e for v in values for e in v]
        elif kind == "timespan":
            spread[f] = (
                sum(v.duration for v in values) / n if n else 0.0
            )
        if sem.is_domain:
            try:
                distinct = len(set(values))
            except TypeError:  # unhashable values: ndv unknown
                continue
            ndv[sem.dimension] = max(ndv.get(sem.dimension, 0), distinct)
    return Estimate(n, ndv, spread, n, _keyed(rows, schema))


def _keyed(rows: Sequence[Dict[str, Any]], schema: Schema) -> bool:
    """True when no two of ``rows`` share a domain tuple."""
    fields = list(schema.domain_fields())

    def key(row: Dict[str, Any]) -> Tuple[Any, ...]:
        return tuple(
            tuple(v) if isinstance(v, list) else v
            for v in map(row.get, fields)
        )

    try:
        return len({key(r) for r in rows}) == len(rows)
    except TypeError:  # unhashable values: duplicates unknown
        return False


#: counter taxonomy for one solve (see DESIGN.md "Observability")
_ZERO_SOLVE_STATS: Dict[str, int] = {
    "candidates_explored": 0,  # distinct (schema, plan) pairs reached
    "candidates_pruned": 0,    # dropped by the max_candidates bound
    "instantiations": 0,       # transformation instances tried
    "pair_memo_hits": 0,       # CombinePair recipe memo hits
    "pair_memo_misses": 0,
    "subsets_examined": 0,     # dataset subsets walked by CombineSet
    "max_subset_size": 0,      # largest subset size reached
    "cost_ties": 0,            # same-schema ties decided by estimate
}


class DerivationEngine:
    """Plans derivation sequences satisfying queries over a catalog."""

    def __init__(
        self,
        dictionary: SemanticDictionary,
        registry: Optional[DerivationRegistry] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.dictionary = dictionary
        self.registry = registry or GLOBAL_REGISTRY
        self.config = config or EngineConfig()
        # Cross-query memoization (paper: cache CombinePair/CombineSet
        # results at runtime). Keyed by schema fingerprints, so results
        # persist across queries over the same catalog; configure()
        # clears it.
        self._pair_memo: Dict[Tuple[str, str], List[Tuple]] = {}
        # One search at a time per engine: the schema-only search is
        # pure-Python CPU work (the GIL serializes it anyway) and the
        # memo tables are not safe to grow from two threads at once.
        # Concurrent callers queue here only on misses of the
        # session's plan memo.
        self._solve_lock = threading.RLock()
        # Observability: the session wires the context's shared tracer
        # and registry in; per-solve search counters always accumulate
        # (plain int bumps, trivial next to schema derivation) and land
        # on the solve span / in the registry / in last_solve_stats.
        self.tracer = None
        self.metrics = None
        self._stats: Dict[str, int] = dict(_ZERO_SOLVE_STATS)
        #: counters from the most recent solve (explored, pruned,
        #: memo hits, subsets, ...) — read by EXPLAIN ANALYZE
        self.last_solve_stats: Dict[str, int] = {}
        #: leaf dataset name -> its facts (:func:`leaf_facts`), or None
        #: when unknown; the session wires it. Unset, ties keep the
        #: first candidate seen.
        self.leaf_facts: Optional[LeafFacts] = None
        #: where a tie decided by cost lands as a ``plan``
        #: :class:`~repro.rdd.stats.Decision` (the session wires the
        #: context's report)
        self.report = None
        # per solve: catalog datasets with an interpolatable domain
        # dimension or a value field (never movable across an
        # interpolation join), and the leaf facts asked for so far
        self._fixed: FrozenSet[str] = frozenset()
        self._facts: Dict[str, Optional[Estimate]] = {}

    def configure(self, config: EngineConfig) -> None:
        """Swap in new settings. The pair memo's recipes carry the old
        interpolation window, so they go with the old settings; the
        solve lock keeps an in-flight search from mixing the two."""
        with self._solve_lock:
            self.config = config
            self._pair_memo.clear()

    def _bump(self, key: str, n: int = 1) -> None:
        self._stats[key] += n

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def solve(
        self, catalog: Mapping[str, Schema], query: Query
    ) -> DerivationPlan:
        """Find the shortest derivation sequence satisfying ``query``.

        Among same-schema sequences of equal length that anchor their
        interpolation joins alike, the one with the fewest estimated
        rows is kept (see the module docstring); for each such tie in
        the answer's plan — at its root or in a sub-plan — a ``plan``
        decision with the winner's and each rejected candidate's
        estimate lands on ``self.report``.

        Raises :class:`~repro.errors.NoSolutionError` when no sequence
        exists within the configured search bounds.
        """
        with self._solve_lock:
            self._stats = dict(_ZERO_SOLVE_STATS)
            tracer = self.tracer
            try:
                if tracer is not None and tracer.enabled:
                    with tracer.span(
                        "solve", kind="solve", query=str(query)
                    ) as span:
                        try:
                            plan = self._solve(catalog, query)
                            span.set("plan_steps", plan.num_steps())
                            return plan
                        finally:
                            for k, v in self._stats.items():
                                span.add(k, v)
                return self._solve(catalog, query)
            finally:
                self.last_solve_stats = dict(self._stats)
                if self.metrics is not None:
                    self.metrics.inc("engine.solves")
                    counts = dict(self._stats)
                    # a high-water mark, not additive across solves
                    depth = counts.pop("max_subset_size", 0)
                    self.metrics.merge_counts(
                        counts, prefix="engine.solve."
                    )
                    self.metrics.set_gauge(
                        "engine.solve.max_subset_size", depth
                    )

    def _solve(
        self, catalog: Mapping[str, Schema], query: Query
    ) -> DerivationPlan:
        query.validate(self.dictionary)
        if not catalog:
            raise NoSolutionError("the catalog is empty")

        # Step 2 of the docstring: domain dimensions cannot be inferred.
        available_domains = set()
        for schema in catalog.values():
            available_domains |= schema.domain_dimensions()
        missing = [d for d in query.domains if d not in available_domains]
        if missing:
            raise NoSolutionError(
                f"no dataset contains queried domain dimension(s) "
                f"{missing}; derivations cannot infer new domain "
                f"dimensions"
            )

        self._fixed = frozenset(
            name for name, schema in catalog.items()
            if schema.value_fields() or any(
                self.dictionary.has_dimension(d)
                and self.dictionary.interpolatable(d)
                for d in schema.domain_dimensions()
            )
        )
        self._facts = {}
        closures = {
            name: self._closure(
                Candidate(schema, LoadNode(name), 0),
                self.config.max_transform_depth,
            )
            for name, schema in catalog.items()
        }

        # Single-dataset solutions (shortest first).
        best = self._best_satisfying(
            [c for cands in closures.values() for c in cands], query
        )
        if best is not None:
            return self._finalize(best, query, catalog)

        # Multi-dataset search: subsets in increasing size.
        names = sorted(catalog)
        set_memo: Dict[FrozenSet[str], List[Candidate]] = {
            frozenset([n]): cands for n, cands in closures.items()
        }
        max_k = min(len(names), self.config.max_datasets)
        for k in range(2, max_k + 1):
            satisfying: List[Candidate] = []
            for subset in itertools.combinations(names, k):
                fs = frozenset(subset)
                if not self._covers_domains(fs, catalog, query):
                    continue
                cands = self._combine_set(fs, set_memo)
                best = self._best_satisfying(cands, query)
                if best is not None:
                    satisfying.append(best)
            if satisfying:
                best = min(satisfying, key=lambda c: c.steps)
                return self._finalize(best, query, catalog)

        raise NoSolutionError(
            f"no derivation sequence satisfies {query} within "
            f"{max_k} datasets and depth "
            f"{self.config.max_transform_depth}"
        )

    def explain(
        self, catalog: Mapping[str, Schema], query: Query
    ) -> str:
        """Human-readable plan for a query (the Figure 5/7 rendering)."""
        return DerivationPlan(self.solve(catalog, query).root).describe()

    # ------------------------------------------------------------------
    # search pieces
    # ------------------------------------------------------------------

    def _covers_domains(
        self,
        subset: FrozenSet[str],
        catalog: Mapping[str, Schema],
        query: Query,
    ) -> bool:
        dims = set()
        for name in subset:
            dims |= catalog[name].domain_dimensions()
        return all(d in dims for d in query.domains)

    def _closure(self, seed: Candidate, depth: int) -> List[Candidate]:
        """All candidates reachable from ``seed`` by ≤ ``depth``
        transformations (BFS, deduplicated by schema fingerprint)."""
        seen: Dict[str, Candidate] = {seed.schema.fingerprint(): seed}
        frontier = [seed]
        for _level in range(depth):
            # a tie has equal steps, so it is always with a candidate
            # of this level: still in new_frontier, where it is replaced
            new_frontier: Dict[str, Candidate] = {}
            for cand in frontier:
                for inst in self._instantiations(cand.schema):
                    if not inst.applies(cand.schema, self.dictionary):
                        continue
                    out_schema = inst.derive_schema(
                        cand.schema, self.dictionary
                    )
                    fp = out_schema.fingerprint()
                    nxt = Candidate(
                        out_schema,
                        TransformNode(inst, cand.plan),
                        cand.steps + 1,
                        (cand,),
                    )
                    if fp in seen:
                        nxt = self._keep(seen[fp], nxt)
                        if nxt is seen[fp]:
                            continue
                    seen[fp] = new_frontier[fp] = nxt
            frontier = list(new_frontier.values())
            if not frontier:
                break
        self._bump("candidates_explored", len(seen))
        self._bump(
            "candidates_pruned",
            max(0, len(seen) - self.config.max_candidates),
        )
        out = sorted(seen.values(), key=lambda c: c.steps)
        return out[: self.config.max_candidates]

    def _instantiations(self, schema: Schema) -> List[Transformation]:
        """Applicable transformation instances for ``schema``, with
        engine configuration applied (explode period)."""
        out: List[Transformation] = []
        for cls in self.registry.transformations():
            for inst in cls.instantiations(schema, self.dictionary):
                if isinstance(inst, ExplodeContinuous):
                    inst = ExplodeContinuous(
                        inst.field, self.config.explode_period
                    )
                out.append(inst)
        self._bump("instantiations", len(out))
        return out

    def _combine_set(
        self,
        names: FrozenSet[str],
        memo: Dict[FrozenSet[str], List[Candidate]],
    ) -> List[Candidate]:
        """CombineSet of Algorithm 1, memoized on the dataset subset.

        Each recursive call combines one dataset with the combination
        of the rest; all removal choices are explored, and the
        candidate list is pruned to the shortest
        ``config.max_candidates`` plans.
        """
        if names in memo:
            return memo[names]
        self._bump("subsets_examined")
        if len(names) > self._stats["max_subset_size"]:
            self._stats["max_subset_size"] = len(names)
        results: Dict[str, Candidate] = {}
        for name in sorted(names):
            rest = names - {name}
            rest_cands = self._combine_set(rest, memo)
            single_cands = memo[frozenset([name])]
            for ca in rest_cands:
                for cb in single_cands:
                    for cand in self._combine_pair(ca, cb):
                        fp = cand.schema.fingerprint()
                        kept = results.get(fp)
                        results[fp] = (
                            cand if kept is None else self._keep(kept, cand)
                        )
        out = sorted(results.values(), key=lambda c: c.steps)
        out = out[: self.config.max_candidates]
        memo[names] = out
        return out

    def _combine_pair(
        self, ca: Candidate, cb: Candidate
    ) -> List[Candidate]:
        """CombinePair: all ways to combine two candidates with a
        single combination (both orders), each followed by a bounded
        post-combination transformation closure."""
        memo_key = (ca.schema.fingerprint(), cb.schema.fingerprint())
        recipes = self._pair_memo.get(memo_key)
        if recipes is not None:
            self._bump("pair_memo_hits")
        else:
            self._bump("pair_memo_misses")
            recipes = []
            combinations = [
                NaturalJoin(),
                InterpolationJoin(self.config.interpolation_window),
            ]
            for order in ("ab", "ba"):
                left, right = (
                    (ca.schema, cb.schema)
                    if order == "ab"
                    else (cb.schema, ca.schema)
                )
                for comb in combinations:
                    if comb.applies(left, right, self.dictionary):
                        recipes.append(
                            (order, comb,
                             comb.derive_schema(left, right, self.dictionary))
                        )
            self._pair_memo[memo_key] = recipes

        out: List[Candidate] = []
        for order, comb, out_schema in recipes:
            left, right = (ca, cb) if order == "ab" else (cb, ca)
            combined = Candidate(
                out_schema,
                CombineNode(comb, left.plan, right.plan),
                ca.steps + cb.steps + 1,
                (left, right),
            )
            out.extend(
                self._closure(combined, self.config.post_combine_depth)
            )
        return out

    # ------------------------------------------------------------------
    # the keep-rule and its estimate
    # ------------------------------------------------------------------

    def _keep(self, kept: Candidate, new: Candidate) -> Candidate:
        """Of two candidates with one schema fingerprint, the one to
        keep: fewer steps wins; on equal steps and equal anchor
        signatures, fewer estimated rows wins; otherwise (including an
        equal estimate, or an unknown one: a leaf not in memory or not
        keyed) ``kept``, the first one seen. Plans of one
        :func:`_shape` estimate alike, so they count no leaf facts."""
        if new.steps != kept.steps:
            return new if new.steps < kept.steps else kept
        if self.leaf_facts is None or \
                _shape(kept.plan) == _shape(new.plan) or \
                self._anchors(kept.plan) != self._anchors(new.plan):
            return kept
        a, b = self._estimate(kept), self._estimate(new)
        if a is None or b is None or a.cost == b.cost:
            return kept
        self._bump("cost_ties")
        win, lose, lose_cost = (
            (new, kept, a.cost) if b.cost < a.cost else (kept, new, b.cost)
        )
        return replace(
            win, rejected=win.rejected + lose.rejected + (lose_cost,)
        )

    def _anchors(
        self, node: PlanNode
    ) -> Tuple[Tuple[Tuple[str, ...], ...], ...]:
        """The anchor signature: for each interpolation join under
        ``node``, the datasets under its left (anchor) side and those
        under its right side, less the movable ones. Two plans with one
        schema but different signatures may answer with different rows,
        so cost never decides between them.

        The two sides of an interpolation join treat rows differently:
        each anchor row is answered, duplicates and None values
        included, while right rows tied on one (key, time) merge into
        one reading and a None value is no reading. Only a keyed leaf
        (:attr:`Estimate.keyed`) without a timed dimension and without
        value fields answers alike on either side; any other leaf, or
        one whose facts are unknown, stays in the signature — on its
        side: moving such a leaf into the right side, even from outside
        every interpolation join, changes the signature too."""
        out = []
        stack = [node]
        while stack:
            n = stack.pop()
            if isinstance(n, CombineNode) and \
                    isinstance(n.derivation, InterpolationJoin):
                out.append(tuple(
                    tuple(sorted(
                        name
                        for name in DerivationPlan(side).dataset_names()
                        if not self._movable(name)
                    ))
                    for side in (n.left, n.right)
                ))
            stack.extend(n.children())
        return tuple(sorted(out))

    def _movable(self, name: str) -> bool:
        if name in self._fixed:
            return False
        facts = self._leaf_facts(name)
        return facts is not None and facts.keyed

    def _leaf_facts(self, name: str) -> Optional[Estimate]:
        """``leaf_facts(name)``, asked once per solve."""
        if name not in self._facts:
            assert self.leaf_facts is not None
            self._facts[name] = self.leaf_facts(name)
        return self._facts[name]

    def _estimate(self, cand: Candidate) -> Optional[Estimate]:
        """``cand``'s estimate, derived from its inputs' on first use
        and memoized on it; None when any leaf's facts are unknown."""
        if cand.est is _UNSET:
            cand.est = self._derive_estimate(cand)
        return cand.est

    def _derive_estimate(self, cand: Candidate) -> Optional[Estimate]:
        plan = cand.plan
        if isinstance(plan, LoadNode):
            facts = self._leaf_facts(plan.dataset_name)
            return facts if facts is not None and facts.keyed else None
        ins = [self._estimate(c) for c in cand.inputs]
        if any(e is None for e in ins):
            return None
        if isinstance(plan, TransformNode):
            est = ins[0]
            rows = est.rows
            spread = dict(est.spread)
            inst = plan.derivation
            if isinstance(inst, (ExplodeDiscrete, ExplodeContinuous)):
                k = spread.pop(inst.field, None)
                if k is None:
                    return None
                if isinstance(inst, ExplodeContinuous):
                    k /= inst.period
                rows *= k
            return Estimate(
                rows,
                {d: min(v, rows) for d, v in est.ndv.items()},
                {f: v for f, v in spread.items() if f in cand.schema},
                est.cost + rows,
            )
        (ls, rs), (le, re) = cand.inputs, ins
        match = _match_plan(ls.schema, rs.schema, self.dictionary)
        assert match is not None
        if isinstance(plan.derivation, InterpolationJoin):
            rows = le.rows  # one output row per anchor row
        else:
            rows = le.rows * re.rows
            for dim in match:
                if dim not in le.ndv or dim not in re.ndv:
                    return None
                rows /= max(le.ndv[dim], re.ndv[dim], 1)
        ndv = dict(re.ndv)
        for d, v in le.ndv.items():
            ndv[d] = min(v, ndv.get(d, v))
        rename = _merge_rename(
            ls.schema, rs.schema, [rf for _, rf, _ in match.values()]
        )
        spread = dict(le.spread)
        spread.update(
            (rename[f], v) for f, v in re.spread.items() if f in rename
        )
        return Estimate(
            rows,
            {d: min(v, rows) for d, v in ndv.items()},
            spread,
            le.cost + re.cost + rows,
        )

    # ------------------------------------------------------------------
    # satisfaction
    # ------------------------------------------------------------------

    def _best_satisfying(
        self, candidates: List[Candidate], query: Query
    ) -> Optional[Candidate]:
        satisfying = [
            c for c in candidates if self._satisfies(c.schema, query)
        ]
        if not satisfying:
            return None
        return min(satisfying, key=lambda c: c.steps)

    def _satisfies(self, schema: Schema, query: Query) -> bool:
        dims = schema.domain_dimensions()
        if any(d not in dims for d in query.domains):
            return False
        for term in query.values:
            fields = schema.fields_for(term.dimension, VALUE)
            if not fields:
                return False
            if term.units is not None:
                ok = False
                for f in fields:
                    units = schema[f].units
                    if units == term.units or self._convertible(
                        units, term.units
                    ):
                        ok = True
                        break
                if not ok:
                    return False
        return True

    def _convertible(self, from_units: str, to_units: str) -> bool:
        try:
            self.dictionary.convert(1.0, from_units, to_units)
            return True
        except Exception:
            return False

    def _finalize(
        self,
        cand: Candidate,
        query: Query,
        catalog: Mapping[str, Schema],
    ) -> DerivationPlan:
        """Append unit conversions for value terms whose units were
        requested explicitly but differ (yet convert), resolve the
        query's dimension-level filters into field-level filter nodes,
        and run the pushdown rewrite so they collapse into the scans.
        Each tie cost decided in the chosen plan's lineage — at its
        root or in a sub-plan — is recorded as a ``plan`` decision."""
        if self.report is not None:
            for tied in _lineage(cand):
                if tied.rejected:
                    self.report.add(_plan_decision(tied, self._estimate(tied)))
        plan = cand.plan
        schema = cand.schema
        for term in query.values:
            if term.units is None:
                continue
            fields = schema.fields_for(term.dimension, VALUE)
            if any(schema[f].units == term.units for f in fields):
                continue
            for f in fields:
                if self._convertible(schema[f].units, term.units):
                    conv = ConvertUnits(f, term.units)
                    plan = TransformNode(conv, plan)
                    schema = conv.derive_schema(schema, self.dictionary)
                    break
            else:
                raise QueryError(
                    f"value dimension {term.dimension!r} found but no "
                    f"field converts to requested units {term.units!r}"
                )
        for flt in query.filters:
            field = self._resolve_filter_field(schema, flt.dimension)
            if flt.op == "eq":
                derivation: Transformation = FilterEquals(field, flt.value)
            else:
                derivation = FilterRange(field, flt.low, flt.high)
            plan = TransformNode(derivation, plan)
        out = DerivationPlan(plan)
        if self.config.pushdown:
            out = push_down_plan(
                out, dict(catalog), self.dictionary,
                projection=self.config.projection,
            )
        return out

    def _resolve_filter_field(self, schema: Schema, dimension: str) -> str:
        """The field a dimension-level filter restricts: the single
        domain field of the dimension when one exists, else its single
        value field. Ambiguity is an error — guessing which of two
        same-dimension fields the analyst meant would silently change
        the answer."""
        for semtype in (DOMAIN, VALUE):
            fields = schema.fields_for(dimension, semtype)
            if len(fields) == 1:
                return fields[0]
            if len(fields) > 1:
                raise QueryError(
                    f"filter on dimension {dimension!r} is ambiguous: "
                    f"fields {sorted(fields)} all carry it"
                )
        raise QueryError(
            f"filter dimension {dimension!r} does not appear in the "
            f"answer's schema"
        )


def _shape(node: PlanNode) -> str:
    """``node``'s operations with each natural join's inputs unordered.
    The estimate of a natural join is symmetric, so two plans of one
    shape estimate alike and their tie needs no leaf facts."""
    kids = [_shape(c) for c in node.children()]
    if isinstance(node, CombineNode) and \
            isinstance(node.derivation, NaturalJoin):
        kids.sort()
    return f"{node.label()}({','.join(kids)})"


def _lineage(cand: Candidate) -> List[Candidate]:
    """``cand`` and every candidate its plan was built from, root
    first."""
    out: List[Candidate] = []
    stack = [cand]
    while stack:
        c = stack.pop()
        out.append(c)
        stack.extend(reversed(c.inputs))
    return out


def _plan_decision(cand: Candidate, est: Estimate) -> Decision:
    return Decision(
        kind="plan",
        op="solve",
        choice="fewest-rows",
        reason=(
            f"{len(cand.rejected) + 1} same-schema {cand.steps}-step"
            " sequences anchored alike; kept the fewest estimated rows"
            f" for {cand.plan.label()}"
        ),
        evidence={
            "est_rows": round(est.cost),
            "rejected_est_rows": [round(c) for c in cand.rejected],
        },
    )
