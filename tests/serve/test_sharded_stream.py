"""Sharded streaming: feed fan-out, routed appends, and the router's
standing queries must be indistinguishable from the single-process
answer — 1 shard or 4, sharded or replicated feeds, with appends
landing mid-stream. Standing queries live in the router's session;
shards only ever receive the appended rows."""

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
from repro.serve import AggregateSpec, QueryService, ShardRouter
from repro.serve.sharded import ShardHandle

from tests.serve.conftest import (
    JOIN_DOMAINS,
    JOIN_VALUES,
    row_multiset,
)

ROWS, KEYS = 80, 8


def delta_rows(start, n):
    return [
        {
            "node": (start + i) % KEYS,
            "sample": 10_000 + start + i,
            "metric_a": float(start + i),
        }
        for i in range(n)
    ]


def make_feed_session():
    sj = ScrubJaySession()
    left, right = keyed_tables(ROWS, num_keys=KEYS)
    sj.ingest().feed(KEYED_LEFT_SCHEMA, rows=left).tail("samples")
    sj.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
    return sj


def make_stream_router(shards, sharded=True):
    sj = make_feed_session()
    router = ShardRouter(
        sj,
        shards=shards,
        shard_on={"samples": ["node"]} if sharded else {},
        num_workers=1,
    )
    return sj, router


@pytest.fixture()
def reference():
    sj = make_feed_session()
    svc = QueryService(sj, num_workers=1)
    yield svc, sj
    svc.close()
    sj.close()


def _settled_reference(reference, batches):
    svc, sj = reference
    for start, n in batches:
        svc.advance("samples", rows=delta_rows(start, n))
    return row_multiset(sj.ask(JOIN_DOMAINS, JOIN_VALUES).collect())


# ----------------------------------------------------------------------
# shard-count equivalence, including feed advance
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 4])
def test_subscription_matches_single_process(reference, shards):
    batches = [(0, 7), (7, 9)]
    want = _settled_reference(reference, batches)
    sj, router = make_stream_router(shards)
    try:
        sub = router.subscribe(JOIN_DOMAINS, JOIN_VALUES)
        for start, n in batches:
            out = router.advance("samples", rows=delta_rows(start, n))
            assert out["rows_added"] == n
            assert out["subscriptions_refreshed"] == 1
        upd = sub.current()
        assert row_multiset(upd.rows) == want
        assert upd.watermarks == {"samples": ROWS + 16}
        # shard-local refreshes ran the delta path end to end
        assert upd.refresh_mode == "delta"
        assert sub.delta_refreshes == len(batches)
    finally:
        router.close()
        sj.close()


@pytest.mark.parametrize("sharded", [True, False])
def test_plain_queries_see_routed_appends(reference, sharded):
    batches = [(0, 11)]
    want = _settled_reference(reference, batches)
    sj, router = make_stream_router(2, sharded=sharded)
    try:
        router.advance("samples", rows=delta_rows(0, 11))
        got = router.query(JOIN_DOMAINS, JOIN_VALUES).collect()
        assert row_multiset(got) == want
    finally:
        router.close()
        sj.close()


def test_prune_stays_correct_after_appends(reference):
    ref_svc, ref_sj = reference
    sj, router = make_stream_router(4)
    try:
        router.advance("samples", rows=delta_rows(0, 13))
        ref_svc.advance("samples", rows=delta_rows(0, 13))
        for key in range(KEYS):
            filters = (FilterTerm("compute nodes", "eq", value=key),)
            want = row_multiset(
                ref_svc.query(
                    JOIN_DOMAINS, JOIN_VALUES, filters=filters
                ).collect()
            )
            got = row_multiset(
                router.query(
                    JOIN_DOMAINS, JOIN_VALUES, filters=filters
                ).collect()
            )
            assert got == want
    finally:
        router.close()
        sj.close()


# ----------------------------------------------------------------------
# aggregates over the fleet
# ----------------------------------------------------------------------


def test_aggregate_subscription_finalizes_router_side(reference):
    ref_svc, ref_sj = reference
    spec = AggregateSpec(
        group_by=("node",), value_field="metric_b", how="mean"
    )
    ref_sub = ref_svc.subscribe(
        JOIN_DOMAINS, JOIN_VALUES, aggregate=spec
    )
    sj, router = make_stream_router(4)
    try:
        sub = router.subscribe(JOIN_DOMAINS, JOIN_VALUES, aggregate=spec)
        ref_svc.advance("samples", rows=delta_rows(0, 10))
        router.advance("samples", rows=delta_rows(0, 10))
        want = ref_sub.current().groups
        got = sub.current().groups
        assert got.keys() == want.keys()
        for k in want:
            assert math.isclose(got[k], want[k], rel_tol=1e-9)
    finally:
        router.close()
        sj.close()


# ----------------------------------------------------------------------
# concurrency and lifecycle
# ----------------------------------------------------------------------


def test_concurrent_advances_serialize_cleanly(reference):
    total, batch = 24, 4
    want = _settled_reference(
        reference,
        [(s, batch) for s in range(0, total, batch)],
    )
    sj, router = make_stream_router(2)
    try:
        sub = router.subscribe(JOIN_DOMAINS, JOIN_VALUES)
        errors = []

        def writer(offset):
            try:
                for start in range(offset, total, batch * 2):
                    router.advance(
                        "samples", rows=delta_rows(start, batch)
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(o,))
            for o in (0, batch)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        upd = sub.current()
        assert upd.watermarks == {"samples": ROWS + total}
        assert row_multiset(upd.rows) == want
    finally:
        router.close()
        sj.close()


def test_unsubscribe_tears_down_shard_subscriptions(reference):
    sj, router = make_stream_router(2)
    try:
        sub = router.subscribe(JOIN_DOMAINS, JOIN_VALUES)
        assert router.subscriptions() == [sub]
        assert router.unsubscribe(sub.sub_id) is True
        assert router.subscriptions() == [] and sub.closed
        assert router.unsubscribe(sub.sub_id) is False
        # advancing afterwards refreshes nothing and loses nothing
        out = router.advance("samples", rows=delta_rows(0, 3))
        assert out["subscriptions_refreshed"] == 0
        got = router.query(JOIN_DOMAINS, JOIN_VALUES).collect()
        assert len(got) == ROWS + 3
    finally:
        router.close()
        sj.close()


def test_router_never_subscribes_on_its_shards(monkeypatch):
    """Row, aggregate and metric subscriptions send the shards no
    ``subscribe``/``updates``/``unsubscribe`` op; each router advance
    sends exactly one ``advance`` op per live shard process."""
    sj, router = make_stream_router(2)
    sent = []
    request = ShardHandle.request

    def spy(handle, req):
        sent.append((handle.name, req["op"]))
        return request(handle, req)

    monkeypatch.setattr(ShardHandle, "request", spy)
    try:
        spec = AggregateSpec(("node",), "metric_b", "mean")
        metric = (sj.query().measure("power", "sum")
                  .per("compute nodes").build())
        subs = [
            router.subscribe(JOIN_DOMAINS, JOIN_VALUES),
            router.subscribe(JOIN_DOMAINS, JOIN_VALUES, aggregate=spec),
            router.subscribe(metric),
        ]
        assert sent == []
        per_process = sorted(
            (h.name, "advance") for h in router._each_handle()
        )
        for start in (0, 5):
            out = router.advance("samples", rows=delta_rows(start, 5))
            assert out["subscriptions_refreshed"] == len(subs)
            assert sorted(sent) == per_process
            sent.clear()
        for sub in subs:
            assert router.unsubscribe(sub.sub_id) is True
        assert sent == []
        assert all(sub.current().refresh_mode == "delta" for sub in subs)
    finally:
        router.close()
        sj.close()
