"""Sharded serve tier: scatter-gather equivalence, prune-aware
routing, replication failover, churn consistency, and observability.

Every test here holds the same invariant from a different angle: a
query answered by ``session.serve(shards=N)`` must be indistinguishable
(same row multiset, same aggregates) from the single-process
:class:`QueryService` answer — under every shard executor, while the
catalog churns, and while processes die.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro import ScrubJaySession
from repro.core.query import FilterTerm
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.serve import (
    QueryService,
    ShardError,
    ShardRouter,
    ShardRoutingError,
    ShardStaleReadError,
)

from tests.serve.conftest import (
    HOT_DOMAINS,
    HOT_VALUES,
    JOIN_DOMAINS,
    JOIN_VALUES,
    make_session,
    row_multiset,
)

ROWS, KEYS = 160, 8


def _eq(key):
    return (FilterTerm("compute nodes", "eq", value=key),)


@pytest.fixture()
def reference():
    """Single-process ground truth over the same catalog."""
    sj = make_session(rows=ROWS, keys=KEYS)
    svc = QueryService(sj, num_workers=1)
    yield svc
    svc.close()
    sj.close()


def make_router(**kwargs):
    sj = make_session(rows=ROWS, keys=KEYS)
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("shard_on", {"samples": ["node"]})
    kwargs.setdefault("num_workers", 1)
    router = ShardRouter(sj, **kwargs)
    return sj, router


@pytest.fixture()
def fleet():
    sj, router = make_router()
    yield router
    router.close()
    sj.close()


# ----------------------------------------------------------------------
# scatter-gather equivalence
# ----------------------------------------------------------------------


def test_sharded_answers_match_single_process(reference):
    sj, router = make_router()
    try:
        for domains, values in ((JOIN_DOMAINS, JOIN_VALUES),
                                (HOT_DOMAINS, HOT_VALUES)):
            want = row_multiset(reference.query(domains, values).collect())
            got = row_multiset(router.query(domains, values).collect())
            assert got == want
        for k in range(0, KEYS, 3):
            want = row_multiset(
                reference.query(
                    JOIN_DOMAINS, JOIN_VALUES, filters=_eq(k)
                ).collect()
            )
            got = row_multiset(
                router.query(
                    JOIN_DOMAINS, JOIN_VALUES, filters=_eq(k)
                ).collect()
            )
            assert got == want
    finally:
        router.close()
        sj.close()


def test_aggregate_merges_partials_to_single_process_answer(
    reference, fleet
):
    want = reference.aggregate(
        JOIN_DOMAINS, JOIN_VALUES, group_by=["node"],
        value_field="metric_b", how="mean",
    )
    got = fleet.aggregate(
        JOIN_DOMAINS, JOIN_VALUES, group_by=["node"],
        value_field="metric_b", how="mean",
    )
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert math.isclose(got[k], v, rel_tol=1e-9)
    for how in ("sum", "count", "min", "max"):
        w = reference.aggregate(
            HOT_DOMAINS, HOT_VALUES, group_by=["node"],
            value_field="metric_b", how=how,
        )
        g = fleet.aggregate(
            HOT_DOMAINS, HOT_VALUES, group_by=["node"],
            value_field="metric_b", how=how,
        )
        assert g.keys() == w.keys()
        for k in w:
            assert math.isclose(g[k], w[k], rel_tol=1e-9)


# ----------------------------------------------------------------------
# prune-aware routing
# ----------------------------------------------------------------------


def test_eq_filter_prunes_to_owning_shard(fleet):
    for k in range(KEYS):
        fleet.query(HOT_DOMAINS, HOT_VALUES)  # replicated only
    before = dict(fleet.snapshot().shards["routing"])
    for k in range(KEYS):
        fleet.query(JOIN_DOMAINS, JOIN_VALUES, filters=_eq(k))
    after = dict(fleet.snapshot().shards["routing"])
    scattered = after["scattered"] - before["scattered"]
    dispatched = after["shard_requests"] - before["shard_requests"]
    pruned = after["pruned"] - before["pruned"]
    assert scattered == KEYS
    # every eq-filtered query went to exactly its one owning shard
    assert dispatched == KEYS
    assert pruned == KEYS  # the other shard skipped each time


def test_unfiltered_query_fans_out_to_all_shards(fleet):
    before = dict(fleet.snapshot().shards["routing"])
    fleet.query(JOIN_DOMAINS, JOIN_VALUES)
    after = dict(fleet.snapshot().shards["routing"])
    assert after["scattered"] - before["scattered"] == 1
    assert (
        after["shard_requests"] - before["shard_requests"]
        == fleet.num_shards
    )
    assert after["pruned"] == before["pruned"]


def test_replicated_only_plan_goes_to_one_shard(fleet):
    # "lookup" is replicated to every shard, so any single shard can
    # answer; the router must not fan out
    before = dict(fleet.snapshot().shards["routing"])
    for _ in range(4):
        fleet.query(HOT_DOMAINS, HOT_VALUES)
    after = dict(fleet.snapshot().shards["routing"])
    # first call hits the result cache path after it's answered once,
    # so count scatters rather than assuming 4
    scattered = after["scattered"] - before["scattered"]
    dispatched = after["shard_requests"] - before["shard_requests"]
    assert dispatched == scattered  # exactly one shard per scatter


def test_datasets_sharded_on_different_columns_refuse_to_join():
    sj = make_session(rows=ROWS, keys=KEYS)
    router = ShardRouter(
        sj, shards=2, num_workers=1,
        shard_on={"samples": ["node"], "lookup": ["metric_b"]},
    )
    try:
        with pytest.raises(ShardRoutingError):
            router.query(JOIN_DOMAINS, JOIN_VALUES).collect()
    finally:
        router.close()
        sj.close()


# ----------------------------------------------------------------------
# catalog churn and consistency
# ----------------------------------------------------------------------


def test_catalog_churn_mid_flight(fleet):
    _, right = keyed_tables(ROWS, num_keys=KEYS)
    want = row_multiset(fleet.query(HOT_DOMAINS, HOT_VALUES).collect())
    filtered_want = {
        k: row_multiset(
            fleet.query(
                JOIN_DOMAINS, JOIN_VALUES, filters=_eq(k)
            ).collect()
        )
        for k in range(KEYS)
    }
    errors = []

    def churn():
        # register/drop an *auxiliary* dataset: each round bumps the
        # catalog version and re-replicates mid-flight, while the
        # queried datasets stay solvable throughout
        try:
            for _ in range(6):
                fleet.register_rows(
                    right, KEYED_RIGHT_SCHEMA, name="extra"
                )
                fleet.drop("extra")
        except Exception as exc:  # surfaced below
            errors.append(exc)

    t = threading.Thread(target=churn)
    t.start()
    try:
        for i in range(24):
            k = i % KEYS
            got = row_multiset(
                fleet.query(
                    JOIN_DOMAINS, JOIN_VALUES, filters=_eq(k)
                ).collect()
            )
            assert got == filtered_want[k]
    finally:
        t.join()
    assert not errors
    assert (
        row_multiset(fleet.query(HOT_DOMAINS, HOT_VALUES).collect())
        == want
    )


def test_out_of_band_shard_mutation_surfaces_stale_read(fleet):
    # mutate one shard behind the router's back — register an extra
    # dataset the queries never touch, so the shard still answers but
    # its stamp diverges from the fleet's. The router must refuse to
    # mix epochs rather than silently merge divergent answers.
    rogue, _ = keyed_tables(16, num_keys=2)
    fleet._fleet[0][0].register_rows(
        rogue, KEYED_LEFT_SCHEMA, "rogue", fleet.session.dictionary
    )
    with pytest.raises(ShardStaleReadError):
        # unfiltered -> touches both shards -> sees the divergence
        fleet.query(JOIN_DOMAINS, JOIN_VALUES).collect()
    assert fleet.snapshot().shards["routing"]["stale_retries"] > 0


def test_register_with_shard_on_routes_new_dataset(fleet):
    left, _ = keyed_tables(64, num_keys=4)
    fleet.register_rows(
        left, KEYED_LEFT_SCHEMA, name="samples2", shard_on=["node"]
    )
    assert fleet.placement.is_sharded("samples2")
    before = dict(fleet.snapshot().shards["routing"])
    got = fleet.query(
        ["compute nodes"], ["power"], filters=_eq(1)
    ).collect()
    after = dict(fleet.snapshot().shards["routing"])
    assert after["pruned"] > before["pruned"]
    assert got  # rows actually came back for the owned key
    fleet.drop("samples2")


# ----------------------------------------------------------------------
# fault tolerance
# ----------------------------------------------------------------------


def test_replica_failover_after_primary_kill(reference):
    sj, router = make_router(replication=2, result_cache_entries=1)
    try:
        router._fleet[0][0].kill()
        for k in range(KEYS):
            want = row_multiset(
                reference.query(
                    JOIN_DOMAINS, JOIN_VALUES, filters=_eq(k)
                ).collect()
            )
            got = row_multiset(
                router.query(
                    JOIN_DOMAINS, JOIN_VALUES, filters=_eq(k)
                ).collect()
            )
            assert got == want
        routing = router.snapshot().shards["routing"]
        assert routing["failovers"] > 0
    finally:
        router.close()
        sj.close()


def test_mutations_skip_dead_replica_but_not_dead_shard(reference):
    sj, router = make_router(replication=2, result_cache_entries=1)
    try:
        router._fleet[0][0].kill()
        _, right = keyed_tables(ROWS, num_keys=KEYS)
        router.drop("lookup")
        router.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
        want = row_multiset(
            reference.query(HOT_DOMAINS, HOT_VALUES).collect()
        )
        got = row_multiset(
            router.query(HOT_DOMAINS, HOT_VALUES).collect()
        )
        assert got == want
        # now kill the surviving replica: the whole shard is gone and
        # mutations must fail loudly instead of skipping it
        router._fleet[0][1].kill()
        with pytest.raises(ShardError):
            router.drop("lookup")
    finally:
        router.close()
        sj.close()


def test_total_shard_loss_is_a_hard_error():
    sj, router = make_router(result_cache_entries=1)
    try:
        for handle in router._fleet[0]:
            handle.kill()
        with pytest.raises(Exception) as excinfo:
            router.query(JOIN_DOMAINS, JOIN_VALUES).collect()
        assert "shard" in str(excinfo.value).lower()
    finally:
        router.close()
        sj.close()


def test_fault_injecting_shard_executor_still_correct(reference):
    sj, router = make_router(
        shard_fault={"seed": 7, "kill_tasks_per_stage": 1},
    )
    try:
        for k in range(0, KEYS, 2):
            want = row_multiset(
                reference.query(
                    JOIN_DOMAINS, JOIN_VALUES, filters=_eq(k)
                ).collect()
            )
            got = row_multiset(
                router.query(
                    JOIN_DOMAINS, JOIN_VALUES, filters=_eq(k)
                ).collect()
            )
            assert got == want
    finally:
        router.close()
        sj.close()


# ----------------------------------------------------------------------
# observability and entry points
# ----------------------------------------------------------------------


def test_snapshot_has_per_shard_and_fleet_blocks(fleet):
    fleet.query(JOIN_DOMAINS, JOIN_VALUES)
    snap = fleet.snapshot()
    shards = snap.shards
    assert shards["num_shards"] == 2
    assert shards["replication"] == 1
    assert set(shards["per_shard"]) == {"shard0", "shard1"}
    for m in shards["per_shard"].values():
        assert m.get("completed", 0) >= 0
    assert shards["fleet"]["completed"] >= 2  # both shards answered
    assert set(shards["routing"]) == {
        "scattered", "shard_requests", "pruned", "failovers",
        "stale_retries",
    }
    assert shards["fleet"]["completed"] == sum(
        m.get("completed", 0) for m in shards["per_shard"].values()
    )


def test_chrome_trace_has_router_and_shard_lanes(fleet):
    fleet.query(JOIN_DOMAINS, JOIN_VALUES)
    trace = fleet.chrome_trace()
    names = {
        (ev["pid"], ev["args"]["name"])
        for ev in trace["traceEvents"]
        if ev.get("ph") == "M" and ev.get("name") == "process_name"
    }
    assert (1, "shard-router") in names
    shard_lanes = {n for _, n in names if n.startswith("shard ")}
    assert {"shard 0", "shard 1"} <= shard_lanes
    # every shard lane sits on its own pid, distinct from the router's
    shard_pids = {
        pid for pid, n in names if n.startswith("shard ")
    }
    assert len(shard_pids) == 2 and 1 not in shard_pids


def test_session_serve_entry_point():
    sj = make_session(rows=64, keys=4)
    try:
        plain = sj.serve(num_workers=1)
        assert isinstance(plain, QueryService)
        assert not isinstance(plain, ShardRouter)
        plain.close()
        router = sj.serve(
            shards=2, shard_on={"samples": ["node"]}, num_workers=1
        )
        assert isinstance(router, ShardRouter)
        assert router.num_shards == 2
        rows = router.query(HOT_DOMAINS, HOT_VALUES).collect()
        assert rows
        router.close()
    finally:
        sj.close()


def test_shards_inherit_router_planner_knobs_at_fork():
    """User-pinned engine/adaptive knobs travel in the fork config, so
    a shard plans like the router from its very first query; a knob
    set on the router afterwards stays router-local."""
    sj = make_session(rows=48, keys=4, projection=False,
                      broadcast_threshold=1 << 10)
    router = sj.serve(shards=2, num_workers=1)
    try:
        sj.profile.set("adaptive.broadcast_threshold_bytes", 1 << 12)
        for handle in router._each_handle():
            knobs = handle.metrics()["profile"]["knobs"]
            assert knobs["engine.projection"]["value"] is False
            assert knobs["adaptive.broadcast_threshold_bytes"] == {
                "value": 1 << 10, "provenance": "user-pinned",
            }
    finally:
        router.close()
        sj.close()


def test_router_rejects_bad_fleet_shapes():
    sj = ScrubJaySession()
    try:
        with pytest.raises(ValueError):
            ShardRouter(sj, shards=0)
        with pytest.raises(ValueError):
            ShardRouter(sj, shards=2, replication=0)
    finally:
        sj.close()
