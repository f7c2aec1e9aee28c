"""QueryService: many concurrent clients, one shared session.

The pipeline each admitted query walks::

    admission (bounded, load-shedding)
        → per-tenant FIFO queues (round-robin fairness)
            → plan cache (memoized §5.2 search, single-flight)
                → derivation engine (cold search only)
            → result cache (semantic key + TTL/LRU)
                → shared SJContext executor (cold results only)

Design decisions, in the order they bite under load:

- **Admission control.** The queue is bounded (``max_queue``). A
  submit that finds it full is rejected *immediately* with
  :class:`~repro.errors.ServiceOverloadError` — shedding at the door
  keeps latency of admitted queries bounded and can never deadlock or
  accumulate unbounded memory. This is the standard
  fail-fast alternative to infinite queues.
- **Fairness.** Each tenant gets its own FIFO; workers take from
  tenants round-robin, so one chatty tenant cannot starve the rest —
  within a tenant, order is preserved.
- **Timeouts & cancellation.** A query's deadline covers queue wait +
  execution. Expired-in-queue tickets are never dispatched;
  cancellation is cooperative (a running query finishes its current
  stage but its late result is discarded in favor of the typed
  error).
- **Retries.** Only a sharded scatter that straddled replicated
  catalog churn (:class:`~repro.errors.ShardStaleReadError`) is
  re-planned and re-scattered, up to a fixed budget. Anything else a
  query raises is its answer: tasks run once, in the driver, and have
  no worker to lose.
- **One engine, many clients.** The schema-level search is serialized
  by the engine's own lock and de-duplicated by the plan cache's
  single-flight, so a thundering herd on a cold key pays exactly one
  search.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.aggregate import (
    finalize_group_partials,
    group_aggregate_partials,
)
from repro.config import ServeConfig
from repro.core.dataset import ScrubJayDataset
from repro.core.query import Query, QueryBuilder, ValueSpec
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ScrubJayError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    ShardStaleReadError,
    StaleRefreshError,
    SubscriptionError,
)
from repro.serve.keys import normalize_query, plan_key, result_key
from repro.serve.metrics import ServiceMetrics, ServiceSnapshot
from repro.serve.plan_cache import PlanCache
from repro.serve.result_cache import ResultCache, ResultEntry
from repro.serve.subscribe import Subscription
from repro.stream import DeltaPlan

#: tries a query gets when its sharded scatter keeps straddling
#: replicated catalog churn
_STALE_READ_ATTEMPTS = 8

_QUEUED = "queued"
_RUNNING = "running"
_DONE = "done"
_CANCELLED = "cancelled"

#: distinguishes "kwarg not passed" from an explicit None for the
#: nullable knobs (default_timeout, result_ttl)
_UNSET: Any = object()


@dataclass(frozen=True)
class AggregateSpec:
    """A grouped aggregation to apply to a query's result.

    Mirrors :func:`repro.analysis.aggregate.group_aggregate`:
    ``value_field`` aggregated per distinct ``group_by`` tuple with
    ``how`` (mean/sum/min/max/count), all over the *result* dataset's
    field names. Attached to a :class:`QueryTicket`, it makes the
    ticket deliver the small ``{group_tuple: value}`` dict instead of
    the dataset — which is what lets a sharded fleet answer it from
    per-shard partial aggregates instead of shipping rows.

    ``partial=True`` skips the finalize step and delivers the raw
    mergeable partials (``mean`` → ``(sum, count)`` tuples). That mode
    exists for the wire's scatter-gather: a shard answers with its
    partials and the router merges across shards before finalizing
    once.
    """

    group_by: Tuple[str, ...]
    value_field: str
    how: str = "mean"
    partial: bool = False

    def to_wire(self) -> Dict[str, Any]:
        """The request fields every aggregate-carrying wire op uses."""
        return {
            "group_by": list(self.group_by),
            "value_field": self.value_field,
            "how": self.how,
            "partial": self.partial,
        }

    @classmethod
    def from_wire(
        cls, request: Dict[str, Any]
    ) -> Optional["AggregateSpec"]:
        """The spec a wire request carries, or None when it has no
        ``group_by`` (the single decode point for every op)."""
        if not request.get("group_by"):
            return None
        return cls(
            tuple(request["group_by"]),
            str(request.get("value_field")),
            str(request.get("how", "mean")),
            bool(request.get("partial")),
        )

    @classmethod
    def for_metric_query(
        cls, schema, query: Query, partial: bool = False
    ) -> "AggregateSpec":
        """Build the spec from the measure API: a metric
        :class:`Query` with exactly one non-windowed measure, resolved
        against the plan's result ``schema`` (per-dims in query order,
        the grain's time field last — the layout every metric path
        agrees on)."""
        from repro.metrics.compute import (
            metric_group_fields,
            resolve_value_field,
        )

        if len(query.measures) != 1:
            raise ServiceError(
                "an aggregate needs exactly one measure; got "
                f"{[str(m) for m in query.measures]}"
            )
        m = query.measures[0]
        if m.window is not None:
            raise ServiceError(
                f"windowed measure {m} cannot fold incrementally; "
                "subscribe to the plain measure and window client-side"
            )
        gf, _ = metric_group_fields(schema, query)
        return cls(
            tuple(gf),
            resolve_value_field(schema, m.dimension),
            m.how,
            partial,
        )


def as_query(
    query,
    values: Sequence[ValueSpec] = (),
    filters: Sequence = (),
) -> Query:
    """Coerce the serve API's first argument into a :class:`Query`.

    Accepts a built :class:`Query`, an unbuilt
    :class:`~repro.core.query.QueryBuilder` (built here, so its typed
    validation errors surface at the call site), or the legacy
    ``(domains, values)`` positional pair.
    """
    if isinstance(query, QueryBuilder):
        if values or filters:
            raise ServiceError(
                "pass measures/values/filters on the builder itself, "
                "not alongside it"
            )
        return query.build()
    if isinstance(query, Query):
        if values or filters:
            raise ServiceError(
                "a Query already carries its values and filters; do "
                "not pass them separately"
            )
        return query
    return Query.of(query, values, filters)


class QueryTicket:
    """Future-like handle for one submitted query."""

    def __init__(
        self,
        tenant: str,
        query: Query,
        submitted_at: float,
        deadline: Optional[float],
        aggregate: Optional[AggregateSpec] = None,
        ctx=None,
    ) -> None:
        self.tenant = tenant
        self.query = query
        self.submitted_at = submitted_at
        self.deadline = deadline
        #: when set, the ticket delivers ``{group_tuple: value}``
        #: (see :class:`AggregateSpec`) instead of a dataset
        self.aggregate = aggregate
        self.state = _QUEUED
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: root trace span of this query's service-side processing
        #: (queue-wait, cache lookups, solve, execution) — None unless
        #: the session's tracer is enabled
        self.trace = None
        self._event = threading.Event()
        #: a ResultEntry (re-parallelized into ``ctx`` by
        #: :meth:`result`), or a {group_tuple: value} dict for
        #: aggregate tickets
        self._result: Optional[Any] = None
        self._ctx = ctx
        self._error: Optional[BaseException] = None
        #: result-dataset schema, populated for aggregate tickets so
        #: the wire layer can codec-encode group-key parts
        self.result_schema = None

    # -- completion (service side) -------------------------------------

    def _deliver(
        self,
        result: Optional[Any],
        error: Optional[BaseException],
        finished_at: float,
    ) -> None:
        self._result = result
        self._error = error
        self.finished_at = finished_at
        if self.state != _CANCELLED:
            self.state = _DONE
        self._event.set()

    # -- client side ---------------------------------------------------

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the query finishes; re-raise its error if it
        failed. ``timeout`` bounds only this wait, not the query.
        Returns the result dataset — or the ``{group_tuple: value}``
        dict for aggregate tickets."""
        out = self.entry(timeout)
        if isinstance(out, ResultEntry):
            return out.to_dataset(self._ctx)
        return out

    def entry(self, timeout: Optional[float] = None) -> Any:
        """:meth:`result` before a row answer becomes a dataset: the
        result-cache entry itself, which a wire reply sends as text."""
        if not self._event.wait(timeout):
            raise QueryTimeoutError(
                f"no result within {timeout}s (query still "
                f"{self.state}; the ticket remains valid)"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        if not self._event.wait(timeout):
            raise QueryTimeoutError(f"no outcome within {timeout}s")
        return self._error

    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def __repr__(self) -> str:
        return (
            f"QueryTicket(tenant={self.tenant!r}, state={self.state}, "
            f"query={self.query})"
        )


class QueryService:
    """Concurrent, cached, admission-controlled front-end over one
    :class:`~repro.session.ScrubJaySession`.

    Parameters
    ----------
    session:
        The shared session (catalog + dictionary + engine + context).
    num_workers:
        Service worker threads (concurrent queries in execution).
        Distinct from the executor's data-parallel workers: a service
        worker drives one query end-to-end; the session's executor
        pool parallelizes *within* each query.
    max_queue:
        Admission bound across all tenants; beyond it submissions shed
        with :class:`ServiceOverloadError`.
    default_timeout:
        Per-query deadline (seconds, queue wait + execution) applied
        when ``submit`` gets none. ``None`` = no deadline.
    plan_cache_entries / result_cache_entries / result_ttl:
        Cache bounds; see :class:`PlanCache` / :class:`ResultCache`.
    """

    def __init__(
        self,
        session,
        config: Optional[ServeConfig] = None,
        num_workers: Optional[int] = None,
        max_queue: Optional[int] = None,
        default_timeout: Optional[float] = _UNSET,
        plan_cache_entries: Optional[int] = None,
        result_cache_entries: Optional[int] = None,
        result_ttl: Optional[float] = _UNSET,
        metrics_window_s: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        # Settings resolve: explicit kwarg > typed ServeConfig > the
        # session profile's serve.* section. The kwargs stay so direct
        # QueryService construction keeps working; session.serve() now
        # passes a validated ServeConfig instead of loose kwargs.
        base = config
        if base is None:
            profile = getattr(session, "profile", None)
            base = (
                profile.serve_config()
                if profile is not None
                else ServeConfig()
            )
        overrides = {
            k: v
            for k, v in {
                "num_workers": num_workers,
                "max_queue": max_queue,
                "plan_cache_entries": plan_cache_entries,
                "result_cache_entries": result_cache_entries,
                "metrics_window_s": metrics_window_s,
            }.items()
            if v is not None
        }
        if default_timeout is not _UNSET:
            overrides["default_timeout"] = default_timeout
        if result_ttl is not _UNSET:
            overrides["result_ttl"] = result_ttl
        cfg = base.with_overrides(**overrides)
        self.config = cfg
        if cfg.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if cfg.max_queue <= 0:
            raise ValueError("max_queue must be positive")
        self.session = session
        self.default_timeout = cfg.default_timeout
        self.max_queue = cfg.max_queue
        self._clock = clock
        self.plan_cache = PlanCache(cfg.plan_cache_entries)
        self.result_cache = ResultCache(
            cfg.result_cache_entries, cfg.result_ttl, clock=clock
        )
        self.metrics = ServiceMetrics(
            window_s=cfg.metrics_window_s,
            clock=clock,
            registry=getattr(session.ctx, "metrics", None),
        )
        self._profile = getattr(session, "profile", None)

        self._subs: Dict[str, Subscription] = {}
        self._subs_lock = threading.Lock()
        self._sub_counter = 0
        self._stream_stats = {
            "refresh_delta": 0,
            "refresh_replay": 0,
            "refresh_rows": 0,
        }

        self._cond = threading.Condition()
        self._queues: Dict[str, "deque[QueryTicket]"] = {}
        self._rr: List[str] = []  # tenants with queued work, in turn order
        self._queued = 0
        self._in_flight = 0
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"sj-serve-{i}",
                daemon=True,
            )
            for i in range(cfg.num_workers)
        ]
        for w in self._workers:
            w.start()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------

    def submit(
        self,
        query,
        values: Sequence[ValueSpec] = (),
        tenant: str = "default",
        timeout: Optional[float] = None,
        filters: Sequence = (),
        aggregate: Optional[AggregateSpec] = None,
    ) -> QueryTicket:
        """Admit a query (or shed it) and return its ticket.

        ``query`` is a :class:`Query`, a
        :class:`~repro.core.query.QueryBuilder`, or the legacy domain
        list (with ``values``/``filters`` alongside). A metric query
        (``.measure()``/``.per()``/``.grain()``) delivers a
        :class:`~repro.metrics.MetricAnswer`; ``aggregate`` is
        rejected for those — the measures *are* the aggregation.
        """
        query = as_query(query, values, filters)
        if query.is_metric and aggregate is not None:
            raise ServiceError(
                "a metric query carries its own measures; drop the "
                "AggregateSpec"
            )
        now = self._clock()
        effective = self.default_timeout if timeout is None else timeout
        deadline = None if effective is None else now + effective
        ticket = QueryTicket(
            tenant, query, now, deadline, aggregate, self.session.ctx
        )
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self._queued >= self.max_queue:
                self.metrics.record_shed()
                raise ServiceOverloadError(
                    f"admission queue full ({self._queued}/"
                    f"{self.max_queue}); retry with backoff",
                    queue_depth=self._queued,
                    max_queue=self.max_queue,
                )
            q = self._queues.get(tenant)
            if q is None:
                q = self._queues[tenant] = deque()
            q.append(ticket)
            if tenant not in self._rr:
                self._rr.append(tenant)
            self._queued += 1
            self.metrics.record_submitted()
            self._cond.notify()
        return ticket

    def query(
        self,
        query,
        values: Sequence[ValueSpec] = (),
        tenant: str = "default",
        timeout: Optional[float] = None,
        filters: Sequence = (),
    ) -> Any:
        """Synchronous convenience: submit and wait for the result
        (a dataset, or a :class:`~repro.metrics.MetricAnswer` for a
        metric query)."""
        return self.submit(
            query, values, tenant, timeout, filters
        ).result()

    def aggregate(
        self,
        query,
        values: Sequence[ValueSpec] = (),
        group_by: Sequence[str] = (),
        value_field: Optional[str] = None,
        how: str = "mean",
        tenant: str = "default",
        timeout: Optional[float] = None,
        filters: Sequence = (),
    ) -> Any:
        """Answer an aggregation over a query's result.

        The measure-aware form passes a metric :class:`Query` (or
        builder) as ``query`` — measures/per/grain *are* the spec —
        and returns a :class:`~repro.metrics.MetricAnswer`. The
        field-level form names ``group_by``/``value_field``/``how``
        over the result schema and returns the small
        ``{group_tuple: value}`` dict.

        Either way it goes through the same admission/fairness/
        deadline pipeline as :meth:`query`; a sharded fleet answers
        from per-shard partial aggregates merged driver-side, so only
        group partials — never rows — cross the wire.
        """
        q = as_query(query, values, filters)
        if q.is_metric:
            if group_by or value_field is not None:
                raise ServiceError(
                    "a metric query carries its own measures; drop "
                    "group_by/value_field"
                )
            return self.submit(q, tenant=tenant,
                               timeout=timeout).result()
        if not group_by or value_field is None:
            raise ServiceError(
                "a plain aggregate needs group_by and value_field "
                "(or pass a metric query built with .measure())"
            )
        spec = AggregateSpec(tuple(group_by), value_field, how)
        return self.submit(
            q, tenant=tenant, timeout=timeout, aggregate=spec
        ).result()

    # ------------------------------------------------------------------
    # standing subscriptions (the streaming serve tier)
    # ------------------------------------------------------------------

    def _solve_serve_plan(self, nq: Query):
        """Solve a normalized query for the serve tier: the engine
        answers the base relation; a metric query's grain rides along
        as a ``bucket_time`` transform on top (row-local, so delta
        refreshes stay incremental and group keys land pre-bucketed).
        """
        session = self.session
        plan = session.engine.solve(session.schemas(), nq.base())
        if nq.is_metric and nq.grain is not None:
            from repro.core.pipeline import (
                DerivationPlan,
                TransformNode,
            )
            from repro.metrics.compute import metric_group_fields
            from repro.metrics.derive import BucketTime

            schema = plan.derive_schema(
                session.schemas(), session.dictionary
            )
            _, tfield = metric_group_fields(schema, nq)
            plan = DerivationPlan(TransformNode(
                BucketTime(tfield, nq.grain.seconds), plan.root
            ))
        return plan

    def subscribe(
        self,
        query,
        values: Sequence[ValueSpec] = (),
        tenant: str = "default",
        filters: Sequence = (),
        aggregate: Optional[AggregateSpec] = None,
        partial: bool = False,
    ) -> Subscription:
        """Install a standing query and return its
        :class:`~repro.serve.subscribe.Subscription`.

        The initial answer is computed synchronously against the
        plan's feed inputs pinned at their current watermarks. From
        then on, :meth:`advance` refreshes it — incrementally when
        the plan is delta-safe (see
        :class:`~repro.stream.DeltaPlan`), by scoped replay
        otherwise. ``aggregate`` keeps mergeable group partials
        instead of rows, so delta refreshes fold appends in at
        O(delta) regardless of history size. A metric ``query``
        (single non-windowed measure) derives its spec from the
        measures — the grain buckets inside the plan, so updates
        arrive keyed by ``(per-dims..., bucket)``. ``partial=True``
        keeps a metric subscription's groups as unfinalized mergeable
        partials.

        A :class:`~repro.serve.sharded.ShardRouter` runs this method
        unchanged: its session holds every row, so standing queries
        never reach its shards.
        """
        session = self.session
        query = as_query(query, values, filters)
        if query.is_metric and aggregate is not None:
            raise ServiceError(
                "a metric subscription derives its aggregate from "
                "the measures; drop the AggregateSpec"
            )
        nq = normalize_query(query)
        plan = self.plan_cache.get_or_solve(
            plan_key(session.state_fingerprint(), nq),
            lambda: self._solve_serve_plan(nq),
        )
        dplan = DeltaPlan(plan)
        feed_names = tuple(
            n for n in dplan.dataset_names() if n in session.feeds
        )
        if query.is_metric:
            aggregate = AggregateSpec.for_metric_query(
                plan.derive_schema(
                    session.schemas(), session.dictionary
                ),
                query,
                partial=partial,
            )
        marks = {
            n: session.feeds[n].watermark for n in feed_names
        }
        dataset = dplan.replay_at(session, marks)
        rows, partials = self._rows_or_partials(dataset, aggregate)
        with self._subs_lock:
            self._sub_counter += 1
            sub_id = f"sub-{self._sub_counter}"
            sub = Subscription(
                sub_id, tenant, query, plan, dplan, aggregate,
                feed_names, marks, dataset.schema,
                rows=rows, partials=partials,
            )
            self._subs[sub_id] = sub
        reg = self.metrics.registry
        if reg is not None:
            reg.inc("stream.subscribe")
        return sub

    def subscription(self, sub_id: str) -> Subscription:
        with self._subs_lock:
            sub = self._subs.get(sub_id)
        if sub is None:
            raise SubscriptionError(
                f"no subscription {sub_id!r}"
            )
        return sub

    def subscriptions(self) -> List[Subscription]:
        with self._subs_lock:
            return list(self._subs.values())

    def unsubscribe(self, sub_id: str) -> bool:
        with self._subs_lock:
            sub = self._subs.pop(sub_id, None)
        if sub is None:
            return False
        sub._close()
        reg = self.metrics.registry
        if reg is not None:
            reg.inc("stream.unsubscribe")
        return True

    def advance(
        self,
        name: str,
        rows: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Advance feed ``name`` (pushing ``rows`` first when given,
        otherwise tailing whatever its source committed), then keep
        the serve tier honest about it: hand the appended rows to
        :meth:`_fan_out_append`, scoped-evict the result-cache
        entries whose plans read the dataset
        (:meth:`ResultCache.invalidate_dataset` — unrelated tenants'
        entries survive) and synchronously refresh every dependent
        subscription to the new watermark."""
        session = self.session
        try:
            feed = session.feed(name)
        except ScrubJayError as exc:
            raise SubscriptionError(str(exc)) from exc
        adv = feed.push(rows) if rows is not None else feed.advance()
        evicted = refreshed = 0
        if adv.advanced:
            self._fan_out_append(name, adv.rows)
            evicted = self.result_cache.invalidate_dataset(name)
            with self._subs_lock:
                dependents = [
                    s for s in self._subs.values()
                    if name in s.feed_names and not s.closed
                ]
            for sub in dependents:
                if self._refresh_subscription(sub):
                    refreshed += 1
        return {
            "name": name,
            "since": adv.since,
            "watermark": adv.watermark,
            "rows_added": adv.rows_added,
            "evicted": evicted,
            "subscriptions_refreshed": refreshed,
        }

    def _refresh_subscription(self, sub: Subscription) -> bool:
        """Bring one subscription to its feeds' current watermarks;
        True when at least one commit happened.

        Runs under the subscription's refresh lock and loops: a feed
        advancing *mid-refresh* just means another round — every
        committed answer is internally consistent at its recorded
        watermarks, so the race costs a retry, never a mixed-
        watermark answer. A writer that outruns the refresher for 16
        straight rounds raises :class:`StaleRefreshError` rather than
        looping forever.
        """
        session = self.session
        reg = self.metrics.registry
        committed = False
        with sub._refresh_lock:
            for _ in range(16):
                if sub.closed:
                    return committed
                base = dict(sub.watermarks)
                targets = dict(base)
                changed = set()
                for n in sub.feed_names:
                    feed = session.feeds.get(n)
                    if feed is None:
                        continue
                    targets[n] = feed.watermark
                    if targets[n] != base.get(n):
                        changed.add(n)
                if not changed:
                    return committed
                mode, _ = sub.delta_plan.classify(
                    changed, getattr(session.ctx, "report", None)
                )
                if mode == "delta":
                    self._refresh_delta(sub, base, targets, changed)
                else:
                    self._refresh_replay(sub, targets)
                committed = True
                with self._subs_lock:
                    self._stream_stats["refresh_" + mode] += 1
                if reg is not None:
                    reg.inc("stream.refresh." + mode)
            raise StaleRefreshError(
                f"subscription {sub.sub_id!r} cannot catch up: its "
                "feeds kept advancing across 16 refresh rounds"
            )

    @staticmethod
    def _rows_or_partials(
        dataset: ScrubJayDataset, spec: Optional[AggregateSpec]
    ) -> Tuple[Optional[List[Dict[str, Any]]], Optional[Dict]]:
        """What a subscription keeps of an executed plan: its rows,
        or — when it aggregates — their mergeable group partials."""
        if spec is None:
            return dataset.collect(), None
        return None, group_aggregate_partials(
            dataset, list(spec.group_by), spec.value_field, spec.how
        )

    def _fan_out_append(
        self, name: str, rows: List[Dict[str, Any]]
    ) -> None:
        """Streaming hook: feed ``name`` just committed ``rows``. One
        process has nowhere to send them; a ShardRouter routes them to
        its shards."""

    def _refresh_delta(
        self,
        sub: Subscription,
        base: Dict[str, int],
        targets: Dict[str, int],
        changed,
    ) -> None:
        """Delta refresh: run the plan with each changed leaf bound
        to only the rows committed in ``[base, target)`` and every
        unchanged feed pinned at its old watermark, then union/merge
        into the standing answer."""
        session = self.session
        result, delta_rows = sub.delta_plan.delta_between(
            session, base, targets, changed
        )
        if delta_rows:
            with self._subs_lock:
                self._stream_stats["refresh_rows"] += delta_rows
            reg = getattr(session.ctx, "metrics", None)
            if reg is not None:
                reg.inc("stream.refresh.rows", delta_rows)
        rows, partials = self._rows_or_partials(result, sub.aggregate)
        sub._commit_delta(targets, rows=rows, partials=partials)

    def _refresh_replay(
        self, sub: Subscription, targets: Dict[str, int]
    ) -> None:
        """Scoped replay: full recompute with every feed input
        bounded at its target watermark, replacing the answer."""
        result = sub.delta_plan.replay_at(self.session, {
            n: targets[n] for n in sub.feed_names if n in targets
        })
        rows, partials = self._rows_or_partials(result, sub.aggregate)
        sub._commit_replace(targets, rows=rows, partials=partials)

    def cancel(self, ticket: QueryTicket) -> bool:
        """Cancel a still-queued ticket. Returns False once the query
        is running or finished (cancellation is cooperative)."""
        with self._cond:
            if ticket.state != _QUEUED:
                return False
            q = self._queues.get(ticket.tenant)
            if q is not None:
                try:
                    q.remove(ticket)
                    self._queued -= 1
                except ValueError:
                    return False
                if not q:
                    # The tenant has no queued work left: take it out
                    # of the turn order, or a worker would popleft()
                    # an empty deque and die.
                    try:
                        self._rr.remove(ticket.tenant)
                    except ValueError:
                        pass
            ticket.state = _CANCELLED
            self.metrics.record_cancelled()
        ticket._deliver(
            None,
            QueryCancelledError("cancelled before dispatch"),
            self._clock(),
        )
        return True

    # ------------------------------------------------------------------
    # catalog mutations — the wire ops call these, so a ShardRouter's
    # replicating overrides apply to remote clients too
    # ------------------------------------------------------------------

    def register_rows(
        self,
        rows: List[Dict[str, Any]],
        schema,
        name: str,
        num_partitions: Optional[int] = None,
        feed: bool = False,
    ) -> ScrubJayDataset:
        """Register ``rows`` as dataset ``name``; ``feed=True`` backs
        it with a push feed, so :meth:`advance` can grow it."""
        if not feed:
            return self.session.register_rows(
                rows, schema, name, num_partitions
            )
        builder = self.session.ingest().feed(schema, rows=rows)
        if num_partitions:
            builder = builder.partitions(num_partitions)
        return builder.tail(name).dataset

    def drop(self, name: str) -> ScrubJayDataset:
        return self.session.drop(name)

    def define_dimension(
        self, name: str, continuous: bool, ordered: bool,
        description: str = "",
    ):
        return self.session.define_dimension(
            name, continuous, ordered, description
        )

    def define_unit(
        self, name: str, kind: str, dimension: Optional[str] = None,
        scale: float = 1.0, offset: float = 0.0,
    ):
        return self.session.define_unit(
            name, kind, dimension, scale, offset
        )

    def invalidate(self) -> None:
        """Explicitly flush both caches (keying already isolates stale
        entries after catalog/dictionary changes; this reclaims them)."""
        self.plan_cache.clear()
        self.result_cache.clear()

    def snapshot(self) -> ServiceSnapshot:
        """Current :class:`ServiceSnapshot` (counters, gauges, qps,
        latency percentiles, both cache stat blocks)."""
        with self._cond:
            queued = self._queued
            in_flight = self._in_flight
            tenants = len(self._queues)
        return self.metrics.snapshot(
            in_flight=in_flight,
            queue_depth=queued,
            tenants=tenants,
            plan_cache=self.plan_cache.stats(),
            result_cache=self.result_cache.stats(),
            streams=self._streams_snapshot(),
            profile=(
                self._profile.snapshot()
                if self._profile is not None
                else {}
            ),
        )

    def _streams_snapshot(self) -> Dict[str, Any]:
        session = self.session
        with self._subs_lock:
            n_subs = len(self._subs)
            stats = dict(self._stream_stats)
        feeds = {
            name: {
                "watermark": feed.watermark,
                "rows_ingested": feed.rows_ingested,
                "data_version": session.data_version(name),
            }
            for name, feed in list(session.feeds.items())
        }
        if not feeds and not n_subs and not any(stats.values()):
            return {}
        return {
            "feeds": feeds,
            "subscriptions": n_subs,
            **stats,
        }

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop admitting; by default let workers drain queued work,
        otherwise fail queued tickets with :class:`ServiceClosedError`."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for q in self._queues.values():
                    while q:
                        t = q.popleft()
                        self._queued -= 1
                        t._deliver(
                            None,
                            ServiceClosedError("service closed"),
                            self._clock(),
                        )
                self._rr.clear()
            self._cond.notify_all()
        with self._subs_lock:
            subs = list(self._subs.values())
            self._subs.clear()
        for sub in subs:
            sub._close()
        for w in self._workers:
            w.join(timeout)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def _next_ticket(self) -> Optional[QueryTicket]:
        """Round-robin-fair blocking dequeue; None means shut down."""
        with self._cond:
            while True:
                while self._rr:
                    tenant = self._rr.pop(0)
                    q = self._queues.get(tenant)
                    if not q:
                        # Stale turn-order entry (e.g. every queued
                        # ticket was cancelled): drop it, keep looking.
                        continue
                    ticket = q.popleft()
                    self._queued -= 1
                    if q:  # tenant still has work: back of the turn order
                        self._rr.append(tenant)
                    ticket.state = _RUNNING
                    self._in_flight += 1
                    return ticket
                if self._closed:
                    return None
                self._cond.wait()

    def _worker_loop(self) -> None:
        while True:
            ticket = self._next_ticket()
            if ticket is None:
                return
            try:
                self._run(ticket)
            finally:
                with self._cond:
                    self._in_flight -= 1

    def _run(self, ticket: QueryTicket) -> None:
        now = self._clock()
        ticket.started_at = now
        if ticket.deadline is not None and now > ticket.deadline:
            # Expired while queued: never dispatched to the engine.
            self.metrics.record_timeout()
            ticket._deliver(
                None,
                QueryTimeoutError(
                    "deadline expired while queued "
                    f"(waited {now - ticket.submitted_at:.3f}s)"
                ),
                now,
            )
            return

        tracer = getattr(self.session.ctx, "tracer", None)
        traced = tracer is not None and tracer.enabled
        with (
            tracer.span("query", kind="query", tenant=ticket.tenant,
                        query=str(ticket.query))
            if traced else contextlib.nullcontext()
        ) as root:
            if traced:
                ticket.trace = root
                # Queue wait is already over; record it retroactively
                # on the span clock. The service clock is injectable
                # (tests), so only the *duration* crosses clocks.
                pc_now = time.perf_counter()
                wait = max(0.0, now - ticket.submitted_at)
                tracer.record("queue-wait", pc_now - wait, pc_now,
                              kind="queue", parent=root)
            try:
                result, error = self._answer(ticket), None
            except Exception as exc:  # defensive: never kill a worker
                result, error = None, exc
            if traced and error is not None:
                root.status = "error"
                root.set("error", type(error).__name__)

        finished = self._clock()
        latency = finished - ticket.submitted_at
        if (
            error is None
            and ticket.deadline is not None
            and finished > ticket.deadline
        ):
            # Finished, but past the deadline: the client contract is
            # the deadline, so deliver the typed timeout instead of a
            # result the caller may already have given up on.
            self.metrics.record_timeout()
            error, result = (
                QueryTimeoutError(
                    f"query exceeded its deadline ({latency:.3f}s)"
                ),
                None,
            )
        elif error is None:
            self.metrics.record_completed(latency)
        else:
            self.metrics.record_failed(latency)
        ticket._deliver(result, error, finished)

    # ------------------------------------------------------------------
    # the actual pipeline: plan cache → engine → result cache → executor
    # ------------------------------------------------------------------

    def _answer(self, ticket: QueryTicket) -> Any:
        attempts = 0
        while True:
            attempts += 1
            try:
                return self._answer_once(ticket)
            except ShardStaleReadError:
                # A scatter straddled replicated catalog churn; the
                # fleet settles as soon as the mutation finishes, so
                # re-plan and re-fan-out. The ramping backoff lets a
                # multi-shard replication complete instead of burning
                # the budget inside its window.
                if attempts >= _STALE_READ_ATTEMPTS:
                    raise
                self.metrics.record_retry()
                time.sleep(min(0.02 * attempts, 0.2))

    def _answer_once(self, ticket: QueryTicket) -> Any:
        session = self.session
        tracer = getattr(session.ctx, "tracer", None)
        traced = tracer is not None and tracer.enabled
        state = session.state_fingerprint()
        version = session.catalog_version
        nq = normalize_query(ticket.query)
        pkey = plan_key(state, nq)
        # the single-flight cache gives no hit/miss return channel;
        # whether *our* solver closure ran is exactly a cold miss
        solver_ran: List[bool] = []

        def solver():
            solver_ran.append(True)
            return self._solve_serve_plan(nq)

        if traced:
            with tracer.span("plan-cache", kind="cache") as ps:
                plan = self.plan_cache.get_or_solve(pkey, solver)
                ps.set("outcome", "miss" if solver_ran else "hit")
        else:
            plan = self.plan_cache.get_or_solve(pkey, solver)
        if ticket.query.is_metric:
            return self._metric_plan(plan, ticket, state, version)
        if ticket.aggregate is not None:
            return self._aggregate_plan(plan, ticket, state, version)
        return self._entry_for(plan, ticket, state, version)

    def _metric_plan(
        self,
        plan,
        ticket: QueryTicket,
        state: str,
        version: int,
    ) -> Any:
        """Answer a metric ticket: route to the coarsest registered
        rollup that covers it, else compute per-measure partials
        through the aggregate hook — the base service groups the
        cached result dataset driver-side; a ShardRouter's hook
        gathers per-shard partials instead — then re-bucket to the
        grain and finalize once.
        """
        from repro.metrics import MetricAnswer, choose_rollup
        from repro.metrics.compute import (
            finalize_metric,
            metric_group_fields,
            rebucket_partials,
            resolve_value_field,
        )

        session = self.session
        q = ticket.query
        rollup, decision = choose_rollup(
            getattr(session, "rollups", {}) or {}, q,
            getattr(session.ctx, "report", None),
        )
        if rollup is not None:
            ticket.result_schema = rollup.dataset.schema
            return MetricAnswer(q, rollup.answer(q), decision)
        schema = plan.derive_schema(
            session.schemas(), session.dictionary
        )
        gf, _ = metric_group_fields(schema, q)
        partials: Dict[str, Dict[Tuple, Any]] = {}
        for m in q.measures:
            spec = AggregateSpec(
                tuple(gf),
                resolve_value_field(schema, m.dimension),
                m.how,
                True,
            )
            # A shadow ticket carries the per-measure spec through
            # the hook; its base query is what shards see, so a
            # sharded fleet ships raw-time partials and the grain
            # snap below merges them into buckets driver-side.
            shadow = QueryTicket(
                ticket.tenant, q.base(), ticket.submitted_at,
                ticket.deadline, spec,
            )
            part = self._aggregate_plan(plan, shadow, state, version)
            ticket.result_schema = shadow.result_schema
            partials[m.key()] = rebucket_partials(
                part, q.grain, m.how
            )
        return MetricAnswer(q, finalize_metric(partials, q), decision)

    def _entry_for(
        self,
        plan,
        ticket: QueryTicket,
        state: str,
        version: int,
    ) -> ResultEntry:
        """Result-cache lookup around the execution hook."""
        session = self.session
        tracer = getattr(session.ctx, "tracer", None)
        traced = tracer is not None and tracer.enabled
        # Fold the plan's per-dataset feed versions into the key: a
        # feed advance re-keys exactly the queries reading that
        # dataset (zero churn for everyone else). Non-feed datasets
        # report version 0 and are omitted, keeping legacy keys
        # byte-identical.
        names = plan.dataset_names()
        dv = {
            n: session.data_version(n)
            for n in names
            if session.data_version(n)
        }
        rkey = result_key(plan.fingerprint(), state, version, dv)
        if traced:
            with tracer.span("result-cache", kind="cache") as rs:
                hit = self.result_cache.get(rkey)
                rs.set("outcome", "hit" if hit is not None else "miss")
        else:
            hit = self.result_cache.get(rkey)
        if hit is not None:
            return hit
        # Pin the rows driver-side — the plan's one execution. The
        # caller gets the pinned entry (what a hit returns), so nothing
        # downstream re-runs the lineage, and a cached entry never
        # holds a lazy RDD that outlives its inputs.
        entry = self.result_cache.pin(
            self._execute_plan(plan, ticket, state, version), names
        )
        # Publish only if the catalog did not move between keying and
        # execution — otherwise the rows were computed against a newer
        # catalog than the key claims, and an in-flight reader still
        # holding the old key would consume a mismatched result.
        if (
            session.catalog_version == version
            and session.state_fingerprint() == state
            and all(
                session.data_version(n) == dv.get(n, 0)
                for n in names
            )
        ):
            self.result_cache.put(rkey, entry)
        return entry

    # ------------------------------------------------------------------
    # execution hooks — a ShardRouter overrides these to scatter-gather
    # over its shard fleet instead of executing locally
    # ------------------------------------------------------------------

    def _execute_plan(
        self,
        plan,
        ticket: QueryTicket,
        state: str,
        version: int,
    ) -> Union[ScrubJayDataset, ResultEntry]:
        """Materialize one solved plan (cold result-cache path): a
        dataset to pin, or an already-gathered entry."""
        return self.session.execute(plan).dataset

    def _aggregate_plan(
        self,
        plan,
        ticket: QueryTicket,
        state: str,
        version: int,
    ) -> Dict[Tuple, Any]:
        """Answer an aggregate ticket from the solved plan. The base
        service materializes the result dataset (through the result
        cache, so repeated aggregates over one result reuse it) and
        groups driver-side."""
        spec = ticket.aggregate
        entry = self._entry_for(plan, ticket, state, version)
        ticket.result_schema = entry.schema
        partials = group_aggregate_partials(
            entry.to_dataset(self.session.ctx), list(spec.group_by),
            spec.value_field, spec.how,
        )
        if spec.partial:
            return partials
        return finalize_group_partials(partials, spec.how)

    def __repr__(self) -> str:
        with self._cond:
            return (
                f"QueryService(workers={len(self._workers)}, "
                f"queued={self._queued}, in_flight={self._in_flight}, "
                f"closed={self._closed})"
            )
