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
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import NoSolutionError, QueryError
from repro.core.combinations import InterpolationJoin, NaturalJoin
from repro.core.derivation import (
    DerivationRegistry,
    GLOBAL_REGISTRY,
    Transformation,
)
from repro.core.dictionary import SemanticDictionary
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
    FilterEquals,
    FilterRange,
)


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


@dataclass
class Candidate:
    """A reachable (schema, plan) pair during the search."""

    schema: Schema
    plan: PlanNode
    steps: int


#: counter taxonomy for one solve (see DESIGN.md "Observability")
_ZERO_SOLVE_STATS: Dict[str, int] = {
    "candidates_explored": 0,  # distinct (schema, plan) pairs reached
    "candidates_pruned": 0,    # dropped by the max_candidates bound
    "instantiations": 0,       # transformation instances tried
    "pair_memo_hits": 0,       # CombinePair recipe memo hits
    "pair_memo_misses": 0,
    "subsets_examined": 0,     # dataset subsets walked by CombineSet
    "max_subset_size": 0,      # largest subset size reached
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
        # persist across queries over the same catalog.
        self._pair_memo: Dict[Tuple[str, str], List[Tuple]] = {}
        # One search at a time per engine: the schema-only search is
        # pure-Python CPU work (the GIL serializes it anyway) and the
        # memo tables are not safe to grow from two threads at once.
        # Concurrent callers — the serve-layer QueryService — queue
        # here only on plan-cache misses.
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

    def _bump(self, key: str, n: int = 1) -> None:
        self._stats[key] += n

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def solve(
        self, catalog: Mapping[str, Schema], query: Query
    ) -> DerivationPlan:
        """Find the shortest derivation sequence satisfying ``query``.

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
            new_frontier: List[Candidate] = []
            for cand in frontier:
                for inst in self._instantiations(cand.schema):
                    if not inst.applies(cand.schema, self.dictionary):
                        continue
                    out_schema = inst.derive_schema(
                        cand.schema, self.dictionary
                    )
                    fp = out_schema.fingerprint()
                    if fp in seen:
                        continue
                    nxt = Candidate(
                        out_schema,
                        TransformNode(inst, cand.plan),
                        cand.steps + 1,
                    )
                    seen[fp] = nxt
                    new_frontier.append(nxt)
            frontier = new_frontier
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
                        if fp not in results or cand.steps < results[fp].steps:
                            results[fp] = cand
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
            lp, rp = (
                (ca.plan, cb.plan) if order == "ab" else (cb.plan, ca.plan)
            )
            combined = Candidate(
                out_schema,
                CombineNode(comb, lp, rp),
                ca.steps + cb.steps + 1,
            )
            out.extend(
                self._closure(combined, self.config.post_combine_depth)
            )
        return out

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
        and run the pushdown rewrite so they collapse into the scans."""
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
