"""ScrubJaySession: the single entry point for performance analysts.

A session ties together everything the paper's Figure 2 shows around
the query API: the simulated data cluster (an
:class:`~repro.rdd.context.SJContext`), the active semantic
dictionary, the derivation registry (built-ins plus expert-provided
extensions), the catalog of registered datasets, and the derivation
engine.

Typical use::

    from repro import ScrubJaySession

    sj = ScrubJaySession()
    sj.register_rows(rows, schema, name="rack_temperatures")
    answer = (sj.query()
              .across("jobs", "racks")
              .values("applications", "heat")
              .ask())
    print(answer.plan.describe())   # the Figure-5-style graph
    answer.collect()                # the result rows

``sj.query()`` with no arguments returns a session-bound
:class:`~repro.core.query.QueryBuilder`; ``ask``/``execute`` return an
:class:`~repro.core.answer.Answer` bundling the result dataset, the
executed plan, and (when tracing is on) the root trace span.
``sj.explain(query, analyze=True)`` executes the plan and renders
per-node runtime statistics — EXPLAIN ANALYZE.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Type, Union

from repro.config import ServeConfig, TuningProfile
from repro.errors import ConfigError, ScrubJayError
from repro.core.answer import Answer
from repro.core.dataset import ScrubJayDataset
from repro.core.derivation import (
    Derivation,
    DerivationRegistry,
    GLOBAL_REGISTRY,
)
from repro.core.dictionary import SemanticDictionary, default_dictionary
from repro.core.engine import DerivationEngine, Estimate, leaf_facts
from repro.core.pipeline import DerivationPlan
from repro.core.query import Query, QueryBuilder, ValueSpec
from repro.core.semantics import Schema
from repro.obs.export import render_analyze
from repro.obs.trace import Tracer
from repro.util.hashing import content_hash

# Importing these modules registers ScrubJay's built-in derivations.
import repro.core.transformations  # noqa: F401
import repro.core.combinations  # noqa: F401
import repro.core.domain_derivations  # noqa: F401


class ScrubJaySession:
    """Catalog + dictionary + engine, in one handle."""

    def __init__(
        self,
        profile: Optional[TuningProfile] = None,
        *,
        ctx=None,
        dictionary: Optional[SemanticDictionary] = None,
        registry: Optional[DerivationRegistry] = None,
        executor=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """All scalar knobs live on the ``profile`` (a
        :class:`~repro.config.TuningProfile`) — engine search depths,
        adaptive-execution thresholds, executor kind, and serve-tier
        defaults::

            sj = ScrubJaySession(TuningProfile(
                executor_kind="simulated", num_workers=4,
            ))

        Rich objects stay keyword arguments: a ready-made ``ctx``
        (:class:`~repro.rdd.context.SJContext`), ``dictionary``,
        ``registry``, an :class:`~repro.rdd.Executor` *instance* as
        ``executor``, and an enabled :class:`~repro.obs.Tracer` as
        ``tracer``."""
        from repro.rdd.context import SJContext

        if profile is not None and not isinstance(profile, TuningProfile):
            raise TypeError(
                "ScrubJaySession's first argument is a TuningProfile, "
                f"not {type(profile).__name__}; pass a context as ctx="
            )
        self.profile = profile if profile is not None else TuningProfile()

        if ctx is not None and executor is not None:
            raise ScrubJayError("pass either ctx or executor, not both")
        if ctx is not None and tracer is not None:
            raise ScrubJayError(
                "pass either ctx or tracer, not both (a ready-made "
                "ctx carries its own tracer)"
            )
        self.ctx = ctx or SJContext(
            executor=executor or self.profile.get("executor.kind"),
            num_workers=self.profile.get("executor.num_workers"),
            adaptive=self.profile.adaptive_config(),
            tracer=tracer,
        )
        self.dictionary = dictionary or default_dictionary()
        # Copy the global registry so session-local expert derivations
        # do not leak between sessions.
        self.registry = (registry or GLOBAL_REGISTRY).copy()
        self.engine = DerivationEngine(
            self.dictionary, self.registry, self.profile.engine_config()
        )
        # The engine shares the context's tracer/registry object, so a
        # solve run by the serve layer or by EXPLAIN ANALYZE lands in
        # the same trace tree as the stages it leads to.
        self.engine.tracer = self.ctx.tracer
        self.engine.metrics = self.ctx.metrics
        # ties between same-schema sequences are costed from the facts
        # of in-memory catalog datasets, and land on the report
        self.engine.leaf_facts = self._leaf_facts
        self.engine.report = self.ctx.report
        self.catalog: Dict[str, ScrubJayDataset] = {}
        # Catalog mutation (register/drop) may race with in-flight
        # queries when the session backs a QueryService: the lock makes
        # each mutation atomic and the version counter lets serve-layer
        # caches detect that the *data* changed even when the schema
        # set (and hence state_fingerprint's schema part) did not —
        # e.g. drop + re-register of same-named, same-schema rows.
        self._catalog_lock = threading.RLock()
        self._catalog_version = 0
        # Streaming: datasets tailed as live feeds, plus a per-dataset
        # data version bumped by feed advances. Deliberately separate
        # from catalog_version — an append changes one dataset's rows,
        # not the catalog shape, so only caches keyed on that dataset
        # should churn (see repro.stream).
        self.feeds: Dict[str, Any] = {}
        self._data_versions: Dict[str, int] = {}
        # Materialized rollups (repro.metrics): name -> Rollup handle.
        # Each keeps its finalized table in memory and republishes it
        # with _replace on every refresh.
        self.rollups: Dict[str, Any] = {}
        # Knob writes to a live session take effect: the frozen
        # EngineConfig/AdaptiveConfig objects the hot paths
        # read are swapped wholesale on every knob change.
        self._profile_listener = self.profile.on_change(
            self._on_profile_change
        )

    def _on_profile_change(self, name: str, old: Any, new: Any) -> None:
        """Profile listener: re-derive the frozen config objects the
        engine and context read, so knob writes take effect
        on the next query. ``executor.*`` knobs are read once, when
        the session is built."""
        if name.startswith("adaptive."):
            cfg = self.profile.adaptive_config()
            self.ctx.adaptive = cfg
            self.ctx.planner.config = cfg
        elif name.startswith("engine."):
            self.engine.config = self.profile.engine_config()

    # ------------------------------------------------------------------
    # catalog management
    # ------------------------------------------------------------------

    def register(
        self, dataset: ScrubJayDataset, name: Optional[str] = None
    ) -> ScrubJayDataset:
        """Validate a dataset against the dictionary and add it to the
        catalog under ``name`` (defaults to the dataset's own name)."""
        name = name or dataset.name
        dataset.validate(self.dictionary)
        with self._catalog_lock:
            if name in self.catalog:
                raise ScrubJayError(f"dataset {name!r} already registered")
            dataset.name = name
            self.catalog[name] = dataset
            self._catalog_version += 1
        return dataset

    def register_rows(
        self,
        rows: List[Dict[str, Any]],
        schema: Schema,
        name: str,
        num_partitions: Optional[int] = None,
    ) -> ScrubJayDataset:
        """Wrap in-memory rows and register them in one step."""
        ds = ScrubJayDataset.from_rows(
            self.ctx, rows, schema, name, num_partitions
        )
        return self.register(ds)

    def ingest(self) -> "IngestBuilder":  # noqa: F821
        """Fluent ingestion of external data as a lazily scanned,
        partitioned dataset (the successor to the wrapper classes)::

            sj.ingest().csv("temps.csv", schema).register("temps")
            sj.ingest().sql("perf.db", schema, table="samples") \\
              .partitions(8).register("samples")

        Each chained call configures one :class:`~repro.sources.base.
        DataSource`; ``register(name)`` (or ``load()``) produces a
        dataset backed by a :class:`~repro.rdd.rdd.ScanRDD`, read
        partition by partition inside workers — and eligible for
        predicate/projection pushdown into the source.
        """
        from repro.sources.ingest import IngestBuilder

        return IngestBuilder(self)

    def drop(self, name: str) -> ScrubJayDataset:
        """Remove a dataset from the catalog (queries already running
        against a snapshot that includes it are unaffected)."""
        with self._catalog_lock:
            try:
                ds = self.catalog.pop(name)
            except KeyError:
                raise ScrubJayError(
                    f"no dataset named {name!r}"
                ) from None
            self._catalog_version += 1
            self.feeds.pop(name, None)
            self._data_versions.pop(name, None)
            return ds

    def _replace(self, dataset: ScrubJayDataset) -> None:
        """Put ``dataset`` in the catalog under its name, replacing any
        dataset of that name, as one catalog change: no reader ever
        finds the name missing (a rollup republishing its table)."""
        dataset.validate(self.dictionary)
        with self._catalog_lock:
            self.catalog[dataset.name] = dataset
            self._catalog_version += 1

    def dataset(self, name: str) -> ScrubJayDataset:
        with self._catalog_lock:
            try:
                return self.catalog[name]
            except KeyError:
                raise ScrubJayError(f"no dataset named {name!r}") from None

    def _leaf_facts(self, name: str) -> Optional[Estimate]:
        """The engine's leaf-facts hook (see :func:`leaf_facts`)."""
        with self._catalog_lock:
            ds = self.catalog.get(name)
        return None if ds is None else leaf_facts(ds, self.dictionary)

    def schemas(self) -> Dict[str, Schema]:
        with self._catalog_lock:
            return {
                name: ds.schema for name, ds in self.catalog.items()
            }

    def snapshot(self) -> Dict[str, ScrubJayDataset]:
        """A point-in-time copy of the catalog mapping, safe to
        execute against while other threads register/drop datasets."""
        with self._catalog_lock:
            return dict(self.catalog)

    @property
    def catalog_version(self) -> int:
        """Monotonic counter bumped by every register/drop."""
        return self._catalog_version

    # ------------------------------------------------------------------
    # streaming feeds (see repro.stream)
    # ------------------------------------------------------------------

    def feed(self, name: str) -> Any:
        """The :class:`~repro.stream.Feed` tailing dataset ``name``."""
        with self._catalog_lock:
            try:
                return self.feeds[name]
            except KeyError:
                raise ScrubJayError(
                    f"no feed named {name!r}; create one with "
                    "session.ingest()....tail(name)"
                ) from None

    def _register_feed(self, feed: Any) -> None:
        with self._catalog_lock:
            self.feeds[feed.name] = feed
            self._data_versions.setdefault(feed.name, 0)

    def data_version(self, name: str) -> int:
        """Monotonic per-dataset counter bumped by feed advances.

        0 for datasets that never advanced — so result keys computed
        before streaming existed stay byte-identical.
        """
        with self._catalog_lock:
            return self._data_versions.get(name, 0)

    def data_versions(self) -> Dict[str, int]:
        """The non-zero per-dataset data versions (see
        :meth:`data_version`)."""
        with self._catalog_lock:
            return {
                k: v for k, v in self._data_versions.items() if v
            }

    def _bump_data_version(self, name: str) -> int:
        with self._catalog_lock:
            self._data_versions[name] = \
                self._data_versions.get(name, 0) + 1
            return self._data_versions[name]

    def state_fingerprint(self) -> str:
        """Content hash of everything a *plan* depends on: the catalog
        schemas, the dictionary version, and the registered derivation
        ops. Two sessions (or the same session at two instants) with
        equal fingerprints produce plans with the same answer for
        identical queries — the serve-layer PlanCache keys on this.

        Note this deliberately excludes row contents: plans are
        schema-level. Rows only cost ties between same-schema
        sequences that answer alike, so a plan cached under older rows
        stays correct. Result caching additionally keys on
        :attr:`catalog_version` to track data changes.
        """
        with self._catalog_lock:
            schema_part = {
                name: ds.schema.to_json_dict()
                for name, ds in self.catalog.items()
            }
        return content_hash({
            "schemas": schema_part,
            "dictionary_version": self.dictionary.version,
            "ops": self.registry.op_names(),
        })

    # ------------------------------------------------------------------
    # semantics & derivations
    # ------------------------------------------------------------------

    def define_dimension(
        self, name: str, continuous: bool, ordered: bool,
        description: str = ""
    ):
        return self.dictionary.define_dimension(
            name, continuous, ordered, description
        )

    def define_unit(self, name: str, kind: str,
                    dimension: Optional[str] = None,
                    scale: float = 1.0, offset: float = 0.0):
        return self.dictionary.define_unit(
            name, kind, dimension, scale, offset
        )

    def register_derivation(
        self, cls: Type[Derivation]
    ) -> Type[Derivation]:
        """Register a session-local expert derivation class."""
        return self.registry.register(cls)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query(self) -> QueryBuilder:
        """A session-bound fluent
        :class:`~repro.core.query.QueryBuilder`::

            plan = sj.query().across("jobs", "racks").value("heat").plan()

        Metric queries add measure terminals::

            ans = (sj.query().measure("power", "p95")
                   .per("racks").grain("1h").ask())

        (The pre-1.0 two-argument form ``query(domains, values)`` was
        removed; use the builder, or :meth:`plan` with a built
        :class:`Query`.)
        """
        return QueryBuilder(self)

    def plan(self, query: Query) -> DerivationPlan:
        """Plan — but do not execute — a derivation sequence for a
        built :class:`Query`."""
        return self.engine.solve(self.schemas(), query)

    def _as_query(
        self,
        query: Union[Query, Sequence[str], None],
        values: Optional[Sequence[ValueSpec]],
        domains: Optional[Sequence[str]] = None,
    ) -> Query:
        """Normalize the accepted query spellings: a built ``Query``,
        an unbuilt :class:`QueryBuilder`, legacy positional
        ``(domains, values)``, or legacy ``domains=``/``values=``
        keywords."""
        if isinstance(query, QueryBuilder):
            return query.build()
        if isinstance(query, Query):
            return query
        if query is not None:
            return Query.of(query, values or ())
        return Query.of(domains or (), values or ())

    def explain(
        self,
        query: Union[Query, Sequence[str], None] = None,
        values: Optional[Sequence[ValueSpec]] = None,
        *,
        domains: Optional[Sequence[str]] = None,
        analyze: bool = False,
    ) -> str:
        """The Figure 5/7-style rendering of the plan for a query,
        followed by a ``plan`` decision for each part of it that
        estimated rows chose among same-schema sequences.

        With ``analyze=True`` this is EXPLAIN ANALYZE: the plan is
        *executed* (with per-node materialization) under a temporarily
        enabled tracer, and each node renders with its measured row
        count, approximate size and wall time, prefixed by one line
        per decision the run took (join
        strategy, shuffle partitioning, delta refresh, rollup route) and a
        summary of the engine's search. The
        resulting trace tree is also retained on ``ctx.tracer`` —
        ``ctx.tracer.last_root()`` returns it for programmatic use.
        """
        q = self._as_query(query, values, domains)
        if analyze:
            return self._explain_analyze(q)
        report = self.ctx.report
        mark = report.recorded
        tail = []
        if q.is_metric:
            from repro.metrics.rollup import choose_rollup

            _, decision = choose_rollup(self.rollups, q)
            tail.append(str(decision))
            q = q.base()
        plan = self.plan(q)
        costed = [str(d) for d in report.since(mark) if d.kind == "plan"]
        return "\n".join([plan.describe(), *costed, *tail])

    def _explain_analyze(self, q: Query) -> str:
        tracer = self.ctx.tracer
        was_enabled = tracer.enabled
        tracer.enabled = True
        report = self.ctx.report
        mark = report.recorded
        try:
            with tracer.span(
                "explain-analyze", kind="query", query=str(q)
            ) as root:
                if q.is_metric:
                    self._ask_metric(q, tracer=tracer, measure=True)
                else:
                    plan = self.engine.solve(self.schemas(), q)
                    plan.execute(
                        self.snapshot(),
                        self.dictionary,
                        tracer=tracer,
                        measure=True,
                    )
        finally:
            tracer.enabled = was_enabled
        lines = [f"EXPLAIN ANALYZE {q}"]
        # every decision this run took, one line each
        lines.extend(str(d) for d in report.since(mark))
        solve = root.find("solve")
        if solve is not None:
            c = solve.counters
            lines.append(
                f"solve: {solve.duration * 1e3:.1f}ms;"
                f" {int(c.get('candidates_explored', 0))} candidates"
                f" explored ({int(c.get('candidates_pruned', 0))}"
                f" pruned);"
                f" {int(c.get('subsets_examined', 0))} subsets;"
                f" pair-memo {int(c.get('pair_memo_hits', 0))} hits /"
                f" {int(c.get('pair_memo_misses', 0))} misses;"
                f" {int(c.get('cost_ties', 0))} cost ties"
            )
        lines.append(render_analyze(root))
        return "\n".join(lines)

    def execute(self, plan: DerivationPlan) -> Answer:
        """Execute a plan against the registered data.

        Runs against a point-in-time catalog snapshot, so concurrent
        ``register``/``drop`` calls cannot mutate the mapping mid-walk.
        Returns an :class:`Answer` (its unknown attributes delegate to
        the result dataset, so dataset-shaped call sites keep working).
        """
        tracer = self.ctx.tracer
        if tracer.enabled:
            with tracer.span("execute", kind="query") as root:
                dataset = self._run_plan(plan, tracer)
            return Answer(dataset, plan, root)
        return Answer(self._run_plan(plan, None), plan, None)

    def _run_plan(
        self, plan: DerivationPlan, tracer
    ) -> ScrubJayDataset:
        return plan.execute(self.snapshot(), self.dictionary, tracer=tracer)

    def ask(
        self,
        query: Union[Query, Sequence[str], None] = None,
        values: Optional[Sequence[ValueSpec]] = None,
        *,
        domains: Optional[Sequence[str]] = None,
    ) -> Answer:
        """Plan and execute in one call; accepts a built
        :class:`Query` or the legacy ``(domains, values)`` spelling.
        Returns an :class:`Answer` whose ``trace`` spans the solve and
        the execution when the session's tracer is enabled.
        """
        q = self._as_query(query, values, domains)
        tracer = self.ctx.tracer
        if q.is_metric:
            if tracer.enabled:
                with tracer.span(
                    "metric-query", kind="query", query=str(q)
                ):
                    return self._ask_metric(q, tracer=tracer)
            return self._ask_metric(q)
        if tracer.enabled:
            with tracer.span("query", kind="query", query=str(q)) as root:
                plan = self.engine.solve(self.schemas(), q)
                dataset = self._run_plan(plan, tracer)
            return Answer(dataset, plan, root)
        plan = self.engine.solve(self.schemas(), q)
        return Answer(self._run_plan(plan, None), plan, None)

    # ------------------------------------------------------------------
    # metric queries & materialized rollups (see repro.metrics)
    # ------------------------------------------------------------------

    def _ask_metric(
        self, q: Query, tracer=None, measure: bool = False
    ) -> "MetricAnswer":  # noqa: F821
        """Answer a metric query: route to the coarsest registered
        rollup that can answer it, else solve + execute the base
        relation and aggregate raw. The route lands on the
        ExecutionReport as a ``rollup``
        :class:`~repro.rdd.stats.Decision` either way."""
        from repro.metrics.compute import (
            MetricAnswer,
            finalize_metric,
            metric_partials,
        )
        from repro.metrics.rollup import choose_rollup

        q.validate(self.dictionary)
        report = getattr(self.ctx, "report", None)
        rollup, decision = choose_rollup(self.rollups, q, report)
        if rollup is not None:
            if tracer is not None and tracer.enabled:
                with tracer.span(
                    "rollup-read", kind="rollup", rollup=rollup.name
                ):
                    groups = rollup.answer(q)
            else:
                groups = rollup.answer(q)
            return MetricAnswer(q, groups, decision=decision)
        plan = self.engine.solve(self.schemas(), q.base())
        dataset = plan.execute(
            self.snapshot(), self.dictionary,
            tracer=tracer, measure=measure,
        )
        parts = metric_partials(dataset, q)
        return MetricAnswer(
            q, finalize_metric(parts, q), decision=decision
        )

    def rollup(self, name: str, query=None) -> "Rollup":  # noqa: F821
        """Materialize (or fetch) a named rollup.

        With a metric ``query`` (a built :class:`Query` or an unbuilt
        :class:`QueryBuilder`): pre-aggregate its measure set at its
        grain, register the finalized table in the catalog as an
        in-memory dataset, and route future metric queries through it::

            sj.rollup("rack_heat_hourly",
                      sj.query().measure("power", "mean")
                        .per("racks").grain("1h"))

        With no query: return the already-registered handle. Rollups
        refresh incrementally when a feed they read advances.
        """
        from repro.metrics.rollup import Rollup

        if query is None:
            try:
                return self.rollups[name]
            except KeyError:
                raise ScrubJayError(
                    f"no rollup named {name!r}"
                ) from None
        if isinstance(query, QueryBuilder):
            query = query.build()
        if name in self.rollups or name in self.catalog:
            raise ScrubJayError(f"dataset {name!r} already registered")
        handle = Rollup(self, name, query).materialize()
        self.rollups[name] = handle
        return handle

    def drop_rollup(self, name: str) -> "Rollup":  # noqa: F821
        """Unregister a rollup and drop its catalog dataset."""
        handle = self.rollups.pop(name, None)
        if handle is None:
            raise ScrubJayError(f"no rollup named {name!r}")
        try:
            self.drop(name)
        except ScrubJayError:
            pass
        return handle

    def _refresh_rollups(self, name: str) -> None:
        """Feed-advance hook: incrementally refresh every rollup whose
        base plan reads dataset ``name``."""
        for handle in list(self.rollups.values()):
            if name in handle.feed_names:
                handle.refresh()

    # ------------------------------------------------------------------
    # reproducible pipelines
    # ------------------------------------------------------------------

    def save_plan(self, plan: DerivationPlan, path: str) -> None:
        """Serialize a derivation sequence to a shareable JSON file."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(plan.to_json())

    def load_plan(self, path: str) -> DerivationPlan:
        """Re-instantiate a derivation sequence from JSON."""
        with open(path, "r", encoding="utf-8") as f:
            return DerivationPlan.from_json(f.read(), self.registry)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def serve(
        self,
        config: Optional[ServeConfig] = None,
        *,
        shards: Optional[int] = None,
        shard_on=None,
        replication: Optional[int] = None,
        shard_service=None,
        start_timeout: Optional[float] = None,
        clock=None,
        **knobs: Any,
    ) -> "QueryService":  # noqa: F821
        """Wrap this session in a concurrent multi-tenant
        :class:`~repro.serve.QueryService` (plan cache → engine →
        result cache → shared executor).

        Service settings come from ``config`` (a typed
        :class:`~repro.config.ServeConfig`; defaults to this session's
        profile ``serve.*`` section), optionally overridden by
        per-knob keywords — ``num_workers=``, ``result_ttl=``, ... —
        each validated at this call: an unknown or out-of-bounds knob
        raises :class:`~repro.errors.ConfigError` naming it, instead
        of failing deep inside the service. ``clock`` remains an
        object-valued keyword.

        ``shards=N`` scales the serve tier *out* instead: the session
        is fronted by a :class:`~repro.serve.sharded.ShardRouter` over
        N forked shard processes, with datasets named in ``shard_on``
        hash-partitioned across them and queries scatter-gathered with
        prune-aware routing — see :mod:`repro.serve.sharded`::

            svc = sj.serve(shards=4, shard_on={"samples": ["node"]},
                           replication=2)
        """
        cfg = (config or self.profile.serve_config()).with_overrides(
            **knobs
        )
        service_kwargs: Dict[str, Any] = {"config": cfg}
        if clock is not None:
            service_kwargs["clock"] = clock
        if shards is not None:
            from repro.serve.sharded import ShardRouter

            shard_kwargs = {
                k: v
                for k, v in {
                    "shard_on": shard_on,
                    "replication": replication,
                    "shard_service": shard_service,
                    "start_timeout": start_timeout,
                }.items()
                if v is not None
            }
            return ShardRouter(
                self, shards=shards, **shard_kwargs, **service_kwargs
            )
        for key, value in {
            "shard_on": shard_on,
            "replication": replication,
            "shard_service": shard_service,
            "start_timeout": start_timeout,
        }.items():
            if value is not None:
                raise ConfigError(
                    f"{key}= only applies to sharded serving; pass "
                    f"shards=N", knob=key,
                )
        from repro.serve import QueryService

        return QueryService(self, **service_kwargs)

    # ------------------------------------------------------------------

    def close(self) -> None:
        self.profile.remove_listener(self._profile_listener)
        self.ctx.stop()

    def __enter__(self) -> "ScrubJaySession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
