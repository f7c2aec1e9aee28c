"""Standing-query subscriptions: initial answers, delta refreshes,
executor equivalence, aggregates, long-polling, and the
no-mixed-watermark rule under a concurrent writer."""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro import ScrubJaySession, TuningProfile
from repro.analysis.aggregate import (
    finalize_group_partials,
    group_aggregate_partials,
)
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.serve import (
    AggregateSpec,
    InProcessClient,
    QueryClient,
    QueryServer,
    QueryService,
    SubscriptionError,
)

from tests.serve.conftest import (
    JOIN_DOMAINS,
    JOIN_VALUES,
    row_multiset,
)

ROWS, KEYS = 120, 8


def delta_rows(start, n, keys=KEYS):
    return [
        {
            "node": (start + i) % keys,
            "sample": 10_000 + start + i,
            "metric_a": float(start + i),
        }
        for i in range(n)
    ]


def make_feed_session(executor="serial", **kwargs):
    sj = ScrubJaySession(TuningProfile(executor_kind=executor, **kwargs))
    left, right = keyed_tables(ROWS, num_keys=KEYS)
    sj.ingest().feed(KEYED_LEFT_SCHEMA, rows=left).tail("samples")
    sj.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
    return sj


@pytest.fixture()
def feed_service():
    sj = make_feed_session()
    svc = QueryService(sj, num_workers=2, max_queue=16)
    yield svc, sj
    svc.close()
    sj.close()


def _fresh_answer(sj):
    return sj.ask(JOIN_DOMAINS, JOIN_VALUES).collect()


# ----------------------------------------------------------------------
# lifecycle and the initial answer
# ----------------------------------------------------------------------


def test_subscribe_initial_answer_matches_query(feed_service):
    svc, sj = feed_service
    sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    upd = sub.current()
    assert upd.version == 1
    assert upd.refresh_mode == "initial"
    assert upd.watermarks == {"samples": ROWS}
    assert row_multiset(upd.rows) == row_multiset(_fresh_answer(sj))
    assert svc.subscription(sub.sub_id) is sub
    assert sub in svc.subscriptions()


def test_unsubscribe_closes_and_forgets(feed_service):
    svc, _sj = feed_service
    sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    assert svc.unsubscribe(sub.sub_id) is True
    assert svc.unsubscribe(sub.sub_id) is False
    assert sub.closed
    with pytest.raises(SubscriptionError):
        svc.subscription(sub.sub_id)
    with pytest.raises(SubscriptionError):
        sub.require_open()


def test_advance_unknown_feed_is_typed(feed_service):
    svc, _sj = feed_service
    with pytest.raises(SubscriptionError):
        svc.advance("lookup")  # registered, but not a feed
    with pytest.raises(SubscriptionError):
        svc.advance("nothere")


# ----------------------------------------------------------------------
# refreshes
# ----------------------------------------------------------------------


def test_advance_refreshes_incrementally(feed_service):
    svc, sj = feed_service
    sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    out = svc.advance("samples", rows=delta_rows(0, 6))
    assert out["rows_added"] == 6
    assert out["watermark"] == ROWS + 6
    assert out["subscriptions_refreshed"] == 1
    upd = sub.current()
    assert upd.version == 2
    assert upd.refresh_mode == "delta"
    assert upd.watermarks == {"samples": ROWS + 6}
    assert sub.delta_refreshes == 1 and sub.replay_refreshes == 0
    assert row_multiset(upd.rows) == row_multiset(_fresh_answer(sj))


def test_empty_advance_refreshes_nothing(feed_service):
    svc, _sj = feed_service
    sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    out = svc.advance("samples")
    assert out["rows_added"] == 0
    assert out["subscriptions_refreshed"] == 0
    assert sub.current().version == 1


def test_repeated_advances_stay_exact(feed_service):
    svc, sj = feed_service
    sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    for batch in range(4):
        svc.advance("samples", rows=delta_rows(batch * 5, 5))
    upd = sub.current()
    assert upd.version == 5
    assert sub.delta_refreshes == 4
    assert row_multiset(upd.rows) == row_multiset(_fresh_answer(sj))


def test_streams_snapshot_reports_feed_state(feed_service):
    svc, _sj = feed_service
    sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    svc.advance("samples", rows=delta_rows(0, 5))
    streams = svc.snapshot().streams
    assert streams["subscriptions"] == 1
    assert streams["refresh_delta"] == 1
    assert streams["refresh_rows"] >= 5
    feed_state = streams["feeds"]["samples"]
    assert feed_state["watermark"] == ROWS + 5
    assert feed_state["data_version"] == 1
    assert sub.current().watermarks["samples"] == ROWS + 5


# ----------------------------------------------------------------------
# executor equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("executor", ["serial", "simulated"])
def test_subscription_answers_equivalent_across_executors(executor):
    kwargs = {"num_workers": 2} if executor != "serial" else {}
    sj = make_feed_session(executor=executor, **kwargs)
    svc = QueryService(sj, num_workers=1)
    try:
        sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
        svc.advance("samples", rows=delta_rows(0, 7))
        svc.advance("samples", rows=delta_rows(7, 7))
        upd = sub.current()
        # ground truth computed on a separate serial session over the
        # identical final row set
        ref = make_feed_session()
        try:
            ref.feed("samples").push(delta_rows(0, 7))
            ref.feed("samples").push(delta_rows(7, 7))
            want = row_multiset(_fresh_answer(ref))
        finally:
            ref.close()
        assert row_multiset(upd.rows) == want
        assert upd.refresh_mode == "delta"
    finally:
        svc.close()
        sj.close()


# ----------------------------------------------------------------------
# aggregate subscriptions
# ----------------------------------------------------------------------


def test_aggregate_subscription_merges_partials(feed_service):
    svc, sj = feed_service
    spec = AggregateSpec(
        group_by=("node",), value_field="metric_b", how="mean"
    )
    sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES, aggregate=spec)
    svc.advance("samples", rows=delta_rows(0, 9))
    got = sub.current().groups
    want = finalize_group_partials(
        group_aggregate_partials(
            sj.ask(JOIN_DOMAINS, JOIN_VALUES).dataset,
            ["node"], "metric_b", "mean",
        ),
        "mean",
    )
    assert got.keys() == want.keys()
    for k in want:
        assert math.isclose(got[k], want[k], rel_tol=1e-9)


# ----------------------------------------------------------------------
# updates / long-poll
# ----------------------------------------------------------------------


def test_updates_unchanged_omits_data(feed_service):
    svc, _sj = feed_service
    sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    upd = sub.updates(since_version=sub.version)
    assert upd.changed is False
    assert upd.rows is None and upd.groups is None
    # a stale since_version returns the data immediately
    upd = sub.updates(since_version=0)
    assert upd.changed is True and upd.rows


def test_updates_long_poll_wakes_on_advance(feed_service):
    svc, _sj = feed_service
    sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    seen = sub.version

    def later():
        time.sleep(0.05)
        svc.advance("samples", rows=delta_rows(0, 3))

    t = threading.Thread(target=later)
    t.start()
    try:
        upd = sub.updates(since_version=seen, timeout=10.0)
    finally:
        t.join()
    assert upd.changed is True
    assert upd.version > seen
    assert len(upd.rows) == ROWS + 3


# ----------------------------------------------------------------------
# the no-mixed-watermark rule under a concurrent writer
# ----------------------------------------------------------------------


def test_concurrent_advances_never_mix_watermarks(feed_service):
    svc, sj = feed_service
    sub = svc.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    total, batch = 40, 4
    errors = []

    def writer(offset):
        try:
            for start in range(offset, total, batch * 2):
                svc.advance("samples", rows=delta_rows(start, batch))
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(o,))
        for o in (0, batch)
    ]
    for t in threads:
        t.start()
    # reads under concurrent refreshes are internally consistent: the
    # row count of a join answer must always equal the recorded
    # samples watermark (every sample joins exactly one lookup row)
    deadline = time.monotonic() + 30.0
    while any(t.is_alive() for t in threads):
        upd = sub.current()
        assert len(upd.rows) == upd.watermarks["samples"]
        assert time.monotonic() < deadline
    for t in threads:
        t.join()
    assert not errors
    svc.advance("samples")  # settle
    upd = sub.current()
    assert upd.watermarks == {"samples": ROWS + total}
    assert row_multiset(upd.rows) == row_multiset(_fresh_answer(sj))


# ----------------------------------------------------------------------
# the wire: subscribe/updates/advance/unsubscribe ops
# ----------------------------------------------------------------------


def test_wire_subscription_round_trip(feed_service):
    svc, sj = feed_service
    with QueryServer(svc) as server:
        host, port = server.address
        with QueryClient(host, port) as client:
            sub = client.subscribe(
                JOIN_DOMAINS, JOIN_VALUES, dictionary=sj.dictionary
            )
            assert row_multiset(sub["rows"]) == \
                row_multiset(_fresh_answer(sj))

            # nothing new yet: changed=False, no payload
            upd = client.updates(
                sub["sub_id"], since_version=sub["version"],
                dictionary=sj.dictionary,
            )
            assert upd["changed"] is False and upd["rows"] is None

            adv = client.advance(
                "samples", rows=delta_rows(0, 5),
                schema=KEYED_LEFT_SCHEMA, dictionary=sj.dictionary,
            )
            assert adv["rows_added"] == 5
            assert adv["subscriptions_refreshed"] == 1

            upd = client.updates(
                sub["sub_id"], since_version=sub["version"],
                dictionary=sj.dictionary,
            )
            assert upd["changed"] is True
            assert upd["refresh_mode"] == "delta"
            assert row_multiset(upd["rows"]) == \
                row_multiset(_fresh_answer(sj))
            assert client.unsubscribe(sub["sub_id"]) is True
            assert client.unsubscribe(sub["sub_id"]) is False


def test_wire_aggregate_subscription(feed_service):
    svc, sj = feed_service
    local = InProcessClient(svc)
    sub = local.subscribe(
        JOIN_DOMAINS, JOIN_VALUES,
        group_by=["node"], value_field="metric_b", how="mean",
        dictionary=sj.dictionary,
    )
    local.advance(
        "samples", rows=delta_rows(0, 6),
        schema=KEYED_LEFT_SCHEMA, dictionary=sj.dictionary,
    )
    upd = local.updates(
        sub["sub_id"], since_version=sub["version"],
        dictionary=sj.dictionary,
    )
    want = finalize_group_partials(
        group_aggregate_partials(
            sj.ask(JOIN_DOMAINS, JOIN_VALUES).dataset,
            ["node"], "metric_b", "mean",
        ),
        "mean",
    )
    assert upd["groups"].keys() == want.keys()
    for k in want:
        assert math.isclose(upd["groups"][k], want[k], rel_tol=1e-9)


def test_wire_register_feed_creates_live_dataset(feed_service):
    svc, sj = feed_service
    local = InProcessClient(svc)
    left, _ = keyed_tables(20, num_keys=4)
    out = local.register_rows(
        left, KEYED_LEFT_SCHEMA, "wire_feed", sj.dictionary, feed=True
    )
    assert out["watermark"] == 20
    assert "wire_feed" in sj.feeds
    adv = local.advance(
        "wire_feed", rows=delta_rows(0, 3, keys=4),
        schema=KEYED_LEFT_SCHEMA, dictionary=sj.dictionary,
    )
    assert adv["watermark"] == 23
