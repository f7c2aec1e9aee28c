"""Sharded scale-out serve tier: a shard-router front-end over a
fleet of single-owner :class:`~repro.serve.QueryService` processes.

One process per Python interpreter means one GIL and one memory
budget; past a point, a bigger serve box stops helping. This module
scales *out* instead: ``session.serve(shards=N)`` forks N shard
processes (times an optional replication factor), each running its
own full session + :class:`QueryService` + NDJSON
:class:`~repro.serve.wire.QueryServer`, and fronts them with a
:class:`ShardRouter` — a :class:`QueryService` subclass that keeps the
*stateless-per-row* layers (admission control, per-tenant fairness,
plan cache, result cache) and replaces only the execution hooks with
prune-aware scatter-gather over the fleet.

Placement and routing
---------------------
Datasets named in ``shard_on`` are hash-partitioned: each row goes to
shard ``portable_hash(key_tuple) % N`` over its ``shard_on`` columns
(the same process-stable :func:`~repro.rdd.shuffle.portable_hash` the
shuffle layer buckets by, in strict mode — a key type without a
portable hash is a routing error, not a silent misroute). Datasets
not named are replicated whole to every shard, so joins against small
lookup tables stay shard-local. The router records which key tuples
landed on which shard, and at query time reuses the pushdown layer's
:meth:`~repro.sources.predicate.ColumnPredicate.partition_may_match`
oracle: a solved plan's :class:`~repro.core.pipeline.ScanNode`
predicates are tested against each shard's key set, and shards that
provably cannot match are never dispatched to. An eq-filtered query
over a sharded dataset therefore touches exactly one shard — which is
what makes an N-shard fleet answer a prunable workload ~N× faster
even when shards share cores, since each dispatched shard scans 1/N
of the rows.

Two sharded datasets may be combined in one plan only when they are
sharded on the *same* columns (co-sharded); otherwise matching rows
would live on different shards and per-shard execution would silently
drop join matches, so the router raises
:class:`~repro.errors.ShardRoutingError` instead.

Consistency
-----------
Shard catalogs replicate from the router over the wire ops
(``register``/``drop``/``define_*``); every mutation and every shard
response carries the shard's ``catalog_version`` and
``state_fingerprint`` stamp. The router records the fleet's settled
stamp after each mutation; a scatter whose responses disagree with it
(a query fanned out mid-mutation) raises
:class:`~repro.errors.ShardStaleReadError`, which the base service
retry loop re-plans and re-scatters once the fleet settles. A shard
whose post-mutation fingerprint diverges from the router's session
(non-replicable state: session-local expert derivations, direct
dictionary edits) fails loudly with
:class:`~repro.errors.ShardStateError`.

Fault tolerance
---------------
``replication=R`` forks R processes per shard index; replica ``r>0``
of shard ``j`` holds exactly the rows of primary ``j``. A shard
request that fails at the transport level (dead process, refused or
reset connection) fails over to the next replica of the same index
before surfacing :class:`~repro.errors.ShardError`; per-shard deadline
budgets shrink as a sequential scatter progresses so one slow shard
cannot spend another's time.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.aggregate import (
    finalize_group_partials,
    merge_group_partials,
)
from repro.core.pipeline import LoadNode, ScanNode
from repro.core.semantics import Schema
from repro.errors import (
    QueryTimeoutError,
    ShardError,
    ShardRoutingError,
    ShardStaleReadError,
    ShardStateError,
    StaleRefreshError,
)
from repro.rdd.shuffle import portable_hash
from repro.serve.result_cache import ResultEntry
from repro.serve.service import AggregateSpec, QueryService, QueryTicket
from repro.serve.subscribe import Subscription
from repro.serve.wire import (
    InProcessClient,
    QueryClient,
    StampedAnswer,
    WireError,
    encode_rows,
)

__all__ = [
    "ShardConfig",
    "ShardHandle",
    "ShardPlacement",
    "ShardRouter",
]


# ----------------------------------------------------------------------
# shard process
# ----------------------------------------------------------------------


@dataclass
class ShardConfig:
    """Everything a shard process needs to build its service.

    A shard's session runs its tasks on a serial executor. ``fault``
    (a kwargs dict for
    :class:`~repro.rdd.executors.FaultInjectingExecutor`) wraps it in
    deterministic task kills — the chaos knob the resilience tests
    turn.
    """

    fault: Optional[Dict[str, Any]] = None
    service_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: router-session TuningProfile state (engine/adaptive knobs only,
    #: as a :meth:`~repro.config.TuningProfile.to_json_dict` dict) the
    #: shard session is built with, so the fleet plans consistently
    profile: Optional[Dict[str, Any]] = None


def _shard_profile_state(session) -> Optional[Dict[str, Any]]:
    """The slice of the router session's profile a shard inherits.

    Planner-facing knobs (``engine.*``, ``adaptive.*``) travel: a
    shard that broadcast where the router would shuffle gives the
    fleet inconsistent per-shard plans and timings. Everything else
    stays shard-local — a shard's executor is always serial
    (:class:`ShardConfig`), ``session.cache_dir`` must not collide with
    the router's on-disk cache, and serve knobs arrive via
    ``service_kwargs``. The slice is taken once, at fork time: a knob
    set on the router afterwards stays router-local.
    """
    profile = getattr(session, "profile", None)
    if profile is None:
        return None
    state = profile.to_json_dict()

    def keep(name: str) -> bool:
        return name.startswith(("engine.", "adaptive."))

    state["values"] = {
        n: v for n, v in state["values"].items() if keep(n)
    }
    return state


def _shard_main(conn, config: ShardConfig) -> None:
    """Entry point of one shard process: fresh session, one service,
    one wire server; report the bound address, then park until told to
    stop (or until the parent end of the pipe disappears)."""
    # Imported here, not at module top: the parent imports this module
    # through repro.serve, and a lazy import keeps the fork cheap and
    # cycle-free.
    from repro.config import TuningProfile
    from repro.rdd.executors import FaultInjectingExecutor, SerialExecutor
    from repro.serve.wire import QueryServer
    from repro.session import ScrubJaySession

    server = None
    session = None
    service = None
    try:
        profile = (
            TuningProfile.from_json_dict(config.profile)
            if config.profile
            else TuningProfile()
        )
        executor = (
            FaultInjectingExecutor(SerialExecutor(), **config.fault)
            if config.fault
            else None
        )
        session = ScrubJaySession(profile, executor=executor)
        service = QueryService(session, **config.service_kwargs)
        server = QueryServer(service).start()
        conn.send(("ready", server.address))
        while True:
            msg = conn.recv()
            if msg == "stop":
                break
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception as exc:  # startup failure: tell the parent why
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            if server is not None:
                server.close()
            if service is not None:
                service.close(drain=False, timeout=1.0)
            if session is not None:
                session.close()
        except Exception:
            pass


class ShardHandle(InProcessClient):
    """One shard process seen from the router: the forked process, the
    control pipe, and a persistent wire connection (lazily opened,
    dropped on transport failure so the next use reconnects).

    It is a wire client — the router drives a shard through the typed
    method per op it inherits (``query``, ``register_rows``,
    ``subscribe``, ...); only :meth:`request` is its own."""

    def __init__(self, index: int, replica: int, config: ShardConfig) -> None:
        self.index = index
        self.replica = replica
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        # Not a daemon: multiprocessing SIGTERMs daemonic children at
        # router exit, before their service and server close. Orphan
        # safety comes from the pipe instead — _shard_main parks on
        # conn.recv() and tears everything down on EOFError the moment
        # the router process (and with it this parent pipe end) goes
        # away.
        self.process = ctx.Process(
            target=_shard_main,
            args=(child, config),
            name=f"sj-shard-{index}r{replica}",
            daemon=False,
        )
        self.process.start()
        child.close()
        self.address: Optional[Tuple[str, int]] = None
        self._client: Optional[QueryClient] = None
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"shard{self.index}" + (
            f"r{self.replica}" if self.replica else ""
        )

    def wait_ready(self, timeout: float = 30.0) -> None:
        if not self._conn.poll(timeout):
            raise ShardError(
                f"{self.name} did not report ready within {timeout}s",
                shard=self.index,
            )
        kind, payload = self._conn.recv()
        if kind != "ready":
            raise ShardError(
                f"{self.name} failed to start: {payload}",
                shard=self.index,
            )
        self.address = payload

    def request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """One wire round-trip. Transport failures (dead process,
        refused/reset/closed connection) surface as :class:`ShardError`
        after invalidating the cached connection."""
        if not self.process.is_alive():
            self._drop_client()
            raise ShardError(
                f"{self.name} process is dead", shard=self.index
            )
        with self._lock:
            try:
                if self._client is None:
                    host, port = self.address  # type: ignore[misc]
                    self._client = QueryClient(host, port)
                return self._client.request(req)
            except OSError as exc:
                self._drop_client_locked()
                raise ShardError(
                    f"{self.name} transport failure: {exc}",
                    shard=self.index,
                ) from exc
            except WireError as exc:
                if exc.error == "ConnectionClosed":
                    self._drop_client_locked()
                    raise ShardError(
                        f"{self.name} closed the connection",
                        shard=self.index,
                    ) from exc
                raise

    def _ok(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """A shard's ``ok: false`` reply keeps its error class and
        says which shard it came from."""
        try:
            return super()._ok(req)
        except WireError as exc:
            raise WireError(
                exc.error, f"shard {self.index}: {exc.remote_message}"
            ) from exc

    def _drop_client_locked(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except Exception:
                pass
            self._client = None

    def _drop_client(self) -> None:
        with self._lock:
            self._drop_client_locked()

    def kill(self) -> None:
        """Hard-kill the shard process (test hook for failover)."""
        self._drop_client()
        if self.process.is_alive():
            self.process.kill()
            self.process.join(5.0)

    def stop(self, timeout: float = 5.0) -> None:
        self._drop_client()
        try:
            self._conn.send("stop")
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        try:
            self._conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------


class ShardPlacement:
    """Hash placement plus the routing table it implies.

    For each sharded dataset the placement remembers, per shard, the
    set of distinct key tuples that landed there — the collection the
    predicate oracle
    (:meth:`~repro.sources.predicate.ColumnPredicate.any_partition_may_match`)
    is asked about at routing time.
    """

    def __init__(
        self,
        num_shards: int,
        shard_on: Optional[Dict[str, Sequence[str]]] = None,
    ) -> None:
        self.num_shards = num_shards
        self.shard_on: Dict[str, Tuple[str, ...]] = {
            name: tuple(cols) for name, cols in (shard_on or {}).items()
        }
        #: dataset -> per-shard sets of key tuples
        self.keys: Dict[str, List[Set[Tuple[Any, ...]]]] = {}

    def is_sharded(self, name: str) -> bool:
        return name in self.shard_on

    def split(
        self, name: str, rows: Sequence[Dict[str, Any]]
    ) -> List[List[Dict[str, Any]]]:
        """Partition ``rows`` into per-shard lists (strict portable
        hashing) and record the routing table for ``name``."""
        cols = self.shard_on[name]
        parts: List[List[Dict[str, Any]]] = [
            [] for _ in range(self.num_shards)
        ]
        keys: List[Set[Tuple[Any, ...]]] = [
            set() for _ in range(self.num_shards)
        ]
        for row in rows:
            key = tuple(row.get(c) for c in cols)
            j = portable_hash(key, strict=True) % self.num_shards
            parts[j].append(row)
            keys[j].add(key)
        self.keys[name] = keys
        return parts

    def append(
        self, name: str, rows: Sequence[Dict[str, Any]]
    ) -> List[List[Dict[str, Any]]]:
        """Split *appended* rows per shard and extend ``name``'s
        routing table in place — sealed placements never rewrite, new
        key tuples just join their shard's key set (so the predicate
        oracle keeps pruning correctly as a feed grows)."""
        cols = self.shard_on[name]
        parts: List[List[Dict[str, Any]]] = [
            [] for _ in range(self.num_shards)
        ]
        keys = self.keys.setdefault(
            name, [set() for _ in range(self.num_shards)]
        )
        for row in rows:
            key = tuple(row.get(c) for c in cols)
            j = portable_hash(key, strict=True) % self.num_shards
            parts[j].append(row)
            keys[j].add(key)
        return parts

    def forget(self, name: str) -> None:
        self.keys.pop(name, None)

    def may_match(self, name: str, predicate) -> Set[int]:
        """Shards that could hold rows of ``name`` matching
        ``predicate`` (all of them for a None/empty predicate)."""
        if predicate is None or not predicate:
            return set(range(self.num_shards))
        cols = self.shard_on[name]
        keys = self.keys.get(name)
        if keys is None:  # not yet split: no pruning information
            return set(range(self.num_shards))
        return {
            j
            for j in range(self.num_shards)
            if predicate.any_partition_may_match(cols, keys[j])
        }


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------


def _plan_leaves(plan) -> List[Any]:
    """The Load/Scan leaves of a solved plan, in tree order."""
    out: List[Any] = []
    stack = [plan.root]
    while stack:
        node = stack.pop()
        if isinstance(node, (LoadNode, ScanNode)):
            out.append(node)
        for child in node.children():
            stack.append(child)
    return out


class ShardRouter(QueryService):
    """A :class:`QueryService` whose execution hooks scatter-gather
    over a fleet of shard processes.

    Everything north of execution is inherited unchanged: admission
    control, per-tenant round-robin fairness, deadlines, the plan
    cache (the §5.2 search runs once, router-side) and the result
    cache (keyed on the router session's fingerprints) — and, for
    standing queries, the whole subscribe/advance/refresh skeleton.
    Only the hooks differ, each written as wire-client calls on the
    shards (a :class:`ShardHandle` is a client). ``_execute_plan`` /
    ``_aggregate_plan``: the solved plan's scan predicates pick the
    shards that may hold matching rows, each target answers the
    original query over its slice, and the router merges — row
    concatenation for datasets, partial-aggregate merge
    (:func:`~repro.analysis.aggregate.merge_group_partials`) for
    grouped aggregates, so rows never cross the wire for aggregate
    tickets. ``_initial_answer`` / ``_fan_out_append`` /
    ``_refresh_round`` / ``_release_subscription``: subscribe on,
    append to, re-gather from and unsubscribe from every shard.

    Parameters (beyond :class:`QueryService`'s)
    -------------------------------------------
    shards:
        Number of primary shard processes.
    shard_on:
        ``{dataset_name: [key columns]}`` — datasets to hash-partition
        across the fleet. Unlisted datasets replicate whole to every
        shard.
    replication:
        Processes per shard index; replicas beyond the first are exact
        mirrors used for transport-level failover.
    shard_fault:
        Task-kill schedule for each shard's serial executor (kwargs of
        a FaultInjectingExecutor — see :class:`ShardConfig`).
    shard_service:
        Extra kwargs for each shard-side :class:`QueryService`.
    """

    def __init__(
        self,
        session,
        shards: int,
        shard_on: Optional[Dict[str, Sequence[str]]] = None,
        replication: int = 1,
        shard_fault: Optional[Dict[str, Any]] = None,
        shard_service: Optional[Dict[str, Any]] = None,
        start_timeout: float = 60.0,
        **kwargs: Any,
    ) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        self.num_shards = shards
        self.replication = replication
        self.placement = ShardPlacement(shards, shard_on)
        config = ShardConfig(
            fault=shard_fault,
            service_kwargs=dict(shard_service or {}),
            profile=_shard_profile_state(session),
        )
        # Fork the fleet *before* the base class starts router worker
        # threads — forking a process with fewer live threads is the
        # safe order, and no query can arrive before __init__ returns.
        self._fleet: List[List[ShardHandle]] = [
            [ShardHandle(j, r, config) for r in range(replication)]
            for j in range(shards)
        ]
        for replicas in self._fleet:
            for handle in replicas:
                handle.wait_ready(start_timeout)
        self._fleet_lock = threading.RLock()
        self._fleet_stamp: Optional[Tuple[int, str]] = None
        self._rr_cursor = 0  # round-robin cursor for unprunable dispatch
        #: (feed name, shard index) -> the shard's feed watermark after
        #: the router's last fan-out; the updates-gather verifies shard
        #: answers against this bookkeeping
        self._feed_marks: Dict[Tuple[str, int], int] = {}
        #: router sub_id -> per-shard subscription bookkeeping
        self._router_subs: Dict[str, Dict[str, Any]] = {}
        self._routing = {
            "scattered": 0,       # queries fanned out
            "shard_requests": 0,  # per-shard query/aggregate requests
            "pruned": 0,          # shard dispatches skipped by routing
            "failovers": 0,       # replica rescues after primary loss
            "stale_retries": 0,   # scatters that straddled churn
        }
        try:
            super().__init__(session, **kwargs)
        except BaseException:
            self._stop_fleet()
            raise
        try:
            self._seed_fleet()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # talking to shards: every exchange is a wire-client method call on
    # a ShardHandle
    # ------------------------------------------------------------------

    def _each_handle(self):
        return (h for replicas in self._fleet for h in replicas)

    def _live_handles(self, replicas: List[ShardHandle]) -> List[ShardHandle]:
        """The still-running processes of one shard index. A process
        that died cannot rejoin (it missed replicated mutations), so
        replication writes skip it — but a shard index with *no*
        live process left is a hard error: a mutation that silently
        skipped a whole shard would corrupt every later answer."""
        live = [h for h in replicas if h.process.is_alive()]
        if not live:
            raise ShardError(
                f"shard {replicas[0].index} has no live process left "
                f"(replication={len(replicas)})",
                shard=replicas[0].index,
            )
        return live

    def _mutate(
        self,
        call: Callable[[ShardHandle], Dict[str, Any]],
        shard: Optional[int] = None,
    ) -> List[Tuple[ShardHandle, Dict[str, Any]]]:
        """Replicate one mutation — a client method call — to every
        live process of ``shard`` (of the whole fleet when None); the
        caller holds the fleet lock. A process that refuses it no
        longer mirrors the router: :class:`ShardStateError`. Returns
        each process with its answer."""
        done = []
        for replicas in (
            self._fleet if shard is None else [self._fleet[shard]]
        ):
            for handle in self._live_handles(replicas):
                try:
                    done.append((handle, call(handle)))
                except WireError as exc:
                    raise ShardStateError(
                        f"replication to {handle.name} failed: {exc}"
                    ) from exc
        return done

    def _ask_shard(
        self, j: int, call: Callable[[ShardHandle], Any]
    ) -> Any:
        """``call`` shard ``j``, failing over replica by replica on
        transport loss."""
        last: Optional[ShardError] = None
        for attempt, handle in enumerate(self._fleet[j]):
            try:
                answer = call(handle)
            except ShardError as exc:
                last = exc
                continue
            if attempt > 0:
                with self._fleet_lock:
                    self._routing["failovers"] += 1
                if self.metrics.registry is not None:
                    self.metrics.registry.inc("serve.shard.failovers")
            return answer
        raise ShardError(
            f"shard {j} unreachable on all {len(self._fleet[j])} "
            f"replicas: {last}",
            shard=j,
        )

    # ------------------------------------------------------------------
    # replication: seeding and mutations
    # ------------------------------------------------------------------

    def _seed_fleet(self) -> None:
        """Replicate the router session's current catalog to every
        shard process and record the settled fleet stamp."""
        with self._fleet_lock:
            for name, dataset in self.session.snapshot().items():
                self._replicate_dataset(name, dataset)
            self._refresh_fleet_stamp()

    def _wire_slices(
        self, name: str, rows: List[Dict[str, Any]], schema: Schema, split
    ) -> List[List[Dict[str, str]]]:
        """``rows`` as codec text, one list per shard index: a sharded
        dataset's go through ``split`` (the placement's ``split`` or
        ``append``), a replicated dataset's are encoded once and sent
        whole to every shard."""
        dictionary = self.session.dictionary
        if self.placement.is_sharded(name):
            return [
                encode_rows(part, schema, dictionary)
                for part in split(name, rows)
            ]
        return [encode_rows(rows, schema, dictionary)] * self.num_shards

    def _replicate_dataset(self, name: str, dataset) -> None:
        schema = dataset.schema
        # Live dataset: the shard backs it with a push feed so the
        # router's advance fan-out can grow it in place.
        feed = name in self.session.feeds
        slices = self._wire_slices(
            name, dataset.collect(), schema, self.placement.split
        )
        for j, wire_rows in enumerate(slices):
            for _, out in self._mutate(
                lambda shard: shard.register_rows(
                    wire_rows, schema, name, None, feed=feed
                ),
                j,
            ):
                if "watermark" in out:
                    self._feed_marks[(name, j)] = out["watermark"]

    def _refresh_fleet_stamp(self) -> None:
        """Sync every process and require one agreed-on stamp whose
        state fingerprint matches the router session's."""
        stamps = {
            (out["catalog_version"], out["state"])
            for _, out in self._mutate(lambda shard: shard.sync())
        }
        if len(stamps) != 1:
            raise ShardStateError(
                f"fleet did not converge after replication: {stamps}"
            )
        stamp = stamps.pop()
        local = self.session.state_fingerprint()
        if stamp[1] != local:
            raise ShardStateError(
                "shard state fingerprint diverged from the router's "
                f"({stamp[1][:12]}… != {local[:12]}…); state that does "
                "not replicate (session-local derivations, direct "
                "dictionary edits) cannot back a sharded fleet"
            )
        self._fleet_stamp = stamp

    # -- mutation surface (apply locally, replicate, re-stamp) ---------

    def register_rows(
        self,
        rows: List[Dict[str, Any]],
        schema: Schema,
        name: str,
        num_partitions: Optional[int] = None,
        feed: bool = False,
        shard_on: Optional[Sequence[str]] = None,
    ):
        """Register a dataset on the router session *and* across the
        fleet. ``shard_on`` hash-partitions it; omitted, it replicates
        whole."""
        with self._fleet_lock:
            ds = super().register_rows(
                rows, schema, name, num_partitions, feed
            )
            if shard_on is not None:
                self.placement.shard_on[name] = tuple(shard_on)
            self._replicate_dataset(name, ds)
            self._refresh_fleet_stamp()
            return ds

    def drop(self, name: str):
        """Drop a dataset on the router session and across the fleet."""
        with self._fleet_lock:
            ds = self.session.drop(name)
            self.placement.forget(name)
            self._mutate(lambda shard: shard.drop(name))
            self._refresh_fleet_stamp()
            return ds

    def define_dimension(
        self,
        name: str,
        continuous: bool,
        ordered: bool,
        description: str = "",
    ):
        with self._fleet_lock:
            out = self.session.define_dimension(
                name, continuous, ordered, description
            )
            self._mutate(lambda shard: shard.define_dimension(
                name, continuous, ordered, description
            ))
            self._refresh_fleet_stamp()
            return out

    def define_unit(
        self,
        name: str,
        kind: str,
        dimension: Optional[str] = None,
        scale: float = 1.0,
        offset: float = 0.0,
    ):
        with self._fleet_lock:
            out = self.session.define_unit(
                name, kind, dimension, scale, offset
            )
            self._mutate(lambda shard: shard.define_unit(
                name, kind, dimension, scale, offset
            ))
            self._refresh_fleet_stamp()
            return out

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _route(self, plan) -> List[int]:
        """Target shard indices for one solved plan."""
        leaves = _plan_leaves(plan)
        sharded: Dict[str, Any] = {}
        for node in leaves:
            name = node.dataset_name
            if not self.placement.is_sharded(name):
                continue
            pred = node.predicate if isinstance(node, ScanNode) else None
            if name in sharded:
                # Same dataset scanned twice (self-join): both scans
                # must be satisfiable, so the predicates AND at the
                # routing level — intersection below handles it.
                sharded[name + f"#{id(node)}"] = (name, pred)
            else:
                sharded[name] = (name, pred)
        if not sharded:
            # Replicated-only plan: any one shard answers it whole.
            with self._fleet_lock:
                self._rr_cursor = (self._rr_cursor + 1) % self.num_shards
                return [self._rr_cursor]
        shard_cols = {
            self.placement.shard_on[name]
            for name, _ in sharded.values()
        }
        if len(shard_cols) > 1:
            raise ShardRoutingError(
                "plan combines datasets sharded on different keys "
                f"({sorted(shard_cols)}); co-shard them or replicate "
                "one side"
            )
        targets: Optional[Set[int]] = None
        for name, pred in sharded.values():
            s = self.placement.may_match(name, pred)
            targets = s if targets is None else (targets & s)
        assert targets is not None
        if not targets:
            # Provably-empty answer; one shard still computes the
            # correctly-shaped empty result.
            with self._fleet_lock:
                self._rr_cursor = (self._rr_cursor + 1) % self.num_shards
                return [self._rr_cursor]
        return sorted(targets)

    # ------------------------------------------------------------------
    # scatter-gather
    # ------------------------------------------------------------------

    def _scatter(
        self,
        plan,
        ticket: QueryTicket,
        ask: Callable[[ShardHandle, Optional[float]], StampedAnswer],
    ) -> List[StampedAnswer]:
        """``ask(shard, timeout)`` each of the plan's target shards in
        turn, enforcing per-shard deadline budgets and fleet-stamp
        consistency."""
        with self._fleet_lock:
            expected = self._fleet_stamp
        targets = self._route(plan)
        with self._fleet_lock:
            self._routing["scattered"] += 1
            self._routing["shard_requests"] += len(targets)
            self._routing["pruned"] += self.num_shards - len(targets)
        if self.metrics.registry is not None:
            self.metrics.registry.inc("serve.shard.requests", len(targets))
            self.metrics.registry.inc(
                "serve.shard.pruned", self.num_shards - len(targets)
            )
        answers = []
        for j in targets:
            budget = None
            if ticket.deadline is not None:
                budget = ticket.deadline - self._clock()
                if budget <= 0:
                    raise QueryTimeoutError(
                        "deadline expired mid-scatter "
                        f"(shard {j} of {targets})"
                    )
            answer = self._ask_shard(j, lambda shard: ask(shard, budget))
            stamp = (
                answer.stamp["catalog_version"], answer.stamp["state"]
            )
            if expected is not None and stamp != expected:
                with self._fleet_lock:
                    self._routing["stale_retries"] += 1
                raise ShardStaleReadError(
                    f"shard {j} answered at stamp {stamp}, fleet "
                    f"expected {expected} (catalog churn mid-scatter)",
                    shard=j,
                )
            answers.append(answer)
        return answers

    # -- execution hooks -----------------------------------------------

    def _execute_plan(
        self,
        plan,
        ticket: QueryTicket,
        state: str,
        version: int,
    ) -> ResultEntry:
        """Gather the target shards' row replies as codec text, in
        target order: row queries need no router-side merge, so the
        text is concatenated undecoded and forwarded as is."""
        q = ticket.query
        answers = self._scatter(
            plan, ticket,
            lambda shard, timeout: shard.query(
                q.domains, q.values, ticket.tenant, timeout,
                None, q.filters,
            ),
        )
        schema, name = answers[0][1], answers[0].name or "result"
        text: List[Dict[str, str]] = []
        for answer in answers:
            if answer[1] != schema:
                raise ShardStateError(
                    "shards answered one query with different result "
                    "schemas — fleet state has diverged"
                )
            text.extend(answer[0])
        return ResultEntry(
            schema, name, wire=text, dictionary=self.session.dictionary
        )

    def _aggregate_plan(
        self,
        plan,
        ticket: QueryTicket,
        state: str,
        version: int,
    ) -> Dict[Tuple, Any]:
        q, spec = ticket.query, ticket.aggregate
        assert spec is not None
        answers = self._scatter(
            plan, ticket,
            # shards always answer with mergeable partials; the
            # router merges across shards and finalizes once
            lambda shard, timeout: shard.aggregate(
                q.domains, q.values, spec.group_by, spec.value_field,
                spec.how, ticket.tenant, timeout, q.filters,
                partial=True, dictionary=self.session.dictionary,
            ),
        )
        merged: Dict[Tuple, Any] = {}
        for partials, schema in answers:
            merge_group_partials(merged, partials, spec.how)
            ticket.result_schema = schema
        if spec.partial:
            return merged
        return finalize_group_partials(merged, spec.how)

    # ------------------------------------------------------------------
    # streaming hooks: feed fan-out and scatter-gather subscriptions.
    # The fleet lock serializes subscribe, advance and refresh, so they
    # can never interleave into a mixed-watermark answer.
    # ------------------------------------------------------------------

    def subscribe(
        self,
        query,
        values: Sequence[Any] = (),
        tenant: str = "default",
        filters: Sequence = (),
        aggregate: Optional[AggregateSpec] = None,
        partial: bool = False,
    ) -> Subscription:
        """Standing query over the fleet: subscribe on *every* shard
        (future appends may hash new key tuples anywhere, so routing
        cannot prune standing queries) and keep the merged answer
        router-side — row concatenation for datasets, partial-
        aggregate merge for grouped aggregates. Shard refreshes run
        shard-local (delta where their plans allow); the router only
        re-gathers and re-merges. A metric ``query`` ships its full
        JSON to the shards, so each buckets its own plan and derives
        the same spec."""
        with self._fleet_lock:
            return super().subscribe(
                query, values, tenant, filters, aggregate, partial
            )

    def advance(
        self,
        name: str,
        rows: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Advance feed ``name`` fleet-wide: grow the router session's
        feed, route the appended rows to their owning shards (hash
        placement for sharded datasets — extending the routing table
        in place — whole-row replication otherwise), then refresh
        dependent standing subscriptions by re-gathering shard
        answers."""
        with self._fleet_lock:
            return super().advance(name, rows)

    def _merged(
        self, book: Dict[str, Any], aggregate: Optional[AggregateSpec]
    ) -> Tuple[Optional[List[Dict[str, Any]]], Optional[Dict]]:
        """``(rows, partials)`` of a fleet subscription, merged from
        the per-shard answers its book holds."""
        parts = book["parts"]
        if aggregate is None:
            return [r for j in sorted(parts) for r in parts[j]], None
        merged: Dict[Tuple, Any] = {}
        for part in parts.values():
            merge_group_partials(merged, part, aggregate.how)
        return None, merged

    def _initial_answer(
        self, sub_id, tenant, query, dplan, aggregate, marks
    ):
        # shards keep mergeable partials; the router keeps the
        # finalizing spec (a metric query's shards derive theirs)
        spec = {} if aggregate is None else aggregate.as_partial().to_wire()
        book: Dict[str, Any] = {
            "shard_subs": {}, "versions": {}, "parts": {},
        }
        schema = None
        for j in range(self.num_shards):
            # Primary only: a subscription is stateful server-side,
            # so its updates must keep hitting the same process.
            first = self._fleet[j][0].subscribe(
                query=query, tenant=tenant,
                dictionary=self.session.dictionary, **spec,
            )
            book["shard_subs"][j] = first["sub_id"]
            book["versions"][j] = first["version"]
            book["parts"][j] = first[
                "rows" if aggregate is None else "groups"
            ]
            schema = schema or first["schema"]
        self._router_subs[sub_id] = book
        return (schema, *self._merged(book, aggregate))

    def _release_subscription(self, sub: Subscription) -> None:
        with self._fleet_lock:
            book = self._router_subs.pop(sub.sub_id)
            for j, shard_sub in book["shard_subs"].items():
                try:
                    self._fleet[j][0].unsubscribe(shard_sub)
                except (ShardError, WireError):
                    pass  # best-effort: the shard GCs on close

    def _fan_out_append(
        self, name: str, rows: List[Dict[str, Any]]
    ) -> None:
        """Route appended feed rows to the fleet and record each
        shard's post-append watermark."""
        slices = self._wire_slices(
            name, rows, self.session.dataset(name).schema,
            self.placement.append,
        )
        for j, wire_rows in enumerate(slices):
            marks = {
                int(out["watermark"])
                for _, out in self._mutate(
                    lambda shard: shard.advance(name, wire_rows), j
                )
            }
            if len(marks) != 1:
                raise ShardStateError(
                    f"replicas of shard {j} disagree on the feed "
                    f"watermark of {name!r}: {sorted(marks)}"
                )
            self._feed_marks[(name, j)] = marks.pop()

    def _refresh_round(
        self, sub: Subscription, base, targets, changed
    ) -> str:
        """Scatter-gather refresh: pull each shard's standing answer
        forward (``updates`` since the version the router last saw)
        and re-merge. Every shard answer's watermarks must match the
        router's fan-out bookkeeping — a shard that advanced outside
        the router (or hasn't settled) is retried briefly, then
        surfaces :class:`StaleRefreshError`, mirroring the
        ShardStaleReadError contract of the query path."""
        book = self._router_subs[sub.sub_id]
        modes: List[str] = []
        for j, shard_sub in book["shard_subs"].items():
            for attempt in range(4):
                upd = self._fleet[j][0].updates(
                    shard_sub, book["versions"][j],
                    dictionary=self.session.dictionary,
                )
                settled = all(
                    upd["watermarks"].get(n)
                    == self._feed_marks.get((n, j))
                    for n in sub.feed_names
                    if (n, j) in self._feed_marks
                )
                if settled:
                    break
                self._routing["stale_retries"] += 1
                time.sleep(0.01 * (attempt + 1))
            else:
                raise StaleRefreshError(
                    f"shard {j} never settled at the router's "
                    f"watermarks for subscription {sub.sub_id!r}"
                )
            book["versions"][j] = upd["version"]
            if upd["changed"]:
                modes.append(str(upd["refresh_mode"]))
                book["parts"][j] = upd[
                    "rows" if sub.aggregate is None else "groups"
                ]
        mode = (
            "delta"
            if modes and all(m == "delta" for m in modes)
            else "replay"
        )
        rows, partials = self._merged(book, sub.aggregate)
        sub._commit_replace(
            targets, rows=rows, partials=partials, mode=mode
        )
        return mode

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def snapshot(self):
        """The router's own snapshot plus a ``shards`` block: one
        sub-snapshot per shard process, fleet-wide totals, and the
        routing counters (dispatched/pruned/failovers)."""
        snap = super().snapshot()
        per_shard: Dict[str, Any] = {}
        fleet = {"completed": 0, "failed": 0, "submitted": 0, "shed": 0}
        for handle in self._each_handle():
            try:
                m = handle.metrics()
            except WireError as exc:
                m = {"alive": False, "error": exc.remote_message}
            except ShardError as exc:
                m = {"alive": False, "error": str(exc)}
            per_shard[handle.name] = m
            for k in fleet:
                fleet[k] += int(m.get(k, 0) or 0)
        with self._fleet_lock:
            routing = dict(self._routing)
        snap.shards = {
            "num_shards": self.num_shards,
            "replication": self.replication,
            "per_shard": per_shard,
            "fleet": fleet,
            "routing": routing,
        }
        return snap

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome-trace export of the whole fleet: the router's spans
        on pid 1 and each shard process's spans on its own pid lane."""
        from repro.obs.export import to_chrome_trace

        tracer = getattr(self.session.ctx, "tracer", None)
        roots = tracer.roots() if tracer is not None else []
        out = to_chrome_trace(roots)
        events = out["traceEvents"]
        events.append({
            "name": "process_name", "ph": "M", "pid": 1,
            "args": {"name": "shard-router"},
        })
        for handle in self._each_handle():
            pid = 2 + handle.index * self.replication + handle.replica
            try:
                trace = handle.trace()
            except (ShardError, WireError):
                continue
            for ev in trace.get("traceEvents", []):
                ev = dict(ev, pid=pid)
                events.append(ev)
            label = f"shard {handle.index}"
            if handle.replica:
                label += f" replica {handle.replica}"
            events.append({
                "name": "process_name", "ph": "M", "pid": pid,
                "args": {"name": label},
            })
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _stop_fleet(self) -> None:
        for handle in self._each_handle():
            try:
                handle.stop()
            except Exception:
                pass

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        super().close(drain=drain, timeout=timeout)
        self._stop_fleet()

    def __repr__(self) -> str:
        return (
            f"ShardRouter(shards={self.num_shards}, "
            f"replication={self.replication}, "
            f"sharded_datasets={sorted(self.placement.shard_on)})"
        )
