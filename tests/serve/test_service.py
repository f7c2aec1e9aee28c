"""QueryService: concurrent correctness, fairness, shedding, deadlines,
retries — the acceptance surface of the serve subsystem."""

from __future__ import annotations

import threading
import time

import pytest

from repro import ScrubJaySession
from repro.errors import (
    NoSolutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ServiceClosedError,
    ServiceOverloadError,
    TransientTaskError,
)
from repro.rdd.executors import FaultInjectingExecutor, make_executor
from repro.serve import QueryService

from tests.serve.conftest import (
    HOT_DOMAINS,
    HOT_VALUES,
    JOIN_DOMAINS,
    JOIN_VALUES,
    make_session,
    row_multiset,
)

#: the mixed workload all equivalence tests run: hot single-dataset
#: projections interleaved with the cold two-dataset join
WORKLOAD = [
    (HOT_DOMAINS, HOT_VALUES),
    (JOIN_DOMAINS, JOIN_VALUES),
    (HOT_DOMAINS, HOT_VALUES),
    (JOIN_DOMAINS, JOIN_VALUES),
    (["compute nodes"], ["power"]),
]


def _serial_answers(session):
    """Ground truth: the same workload answered one query at a time
    directly through the session (no service, no caches)."""
    out = []
    for domains, values in WORKLOAD:
        out.append(
            row_multiset(session.ask(domains, values).collect())
        )
    return out


def _concurrent_answers(service, num_clients=8):
    """Each client thread runs the whole workload; returns per-client
    lists of multisets plus any exceptions."""
    results = [None] * num_clients
    errors = []

    def client(i):
        try:
            answers = []
            for domains, values in WORKLOAD:
                ds = service.query(
                    domains, values, tenant=f"tenant-{i % 3}"
                )
                answers.append(row_multiset(ds.collect()))
            results[i] = answers
        except Exception as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(num_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


@pytest.mark.parametrize("executor", ["serial", "simulated"])
def test_concurrent_equals_serial(executor):
    baseline_session = make_session(executor="serial")
    expected = _serial_answers(baseline_session)
    baseline_session.close()

    session = make_session(executor=executor)
    try:
        with QueryService(session, num_workers=4, max_queue=64) as svc:
            results, errors = _concurrent_answers(svc, num_clients=8)
            assert errors == []
            for client_answers in results:
                assert client_answers == expected
            snap = svc.snapshot()
            assert snap.completed == 8 * len(WORKLOAD)
            assert snap.failed == 0 and snap.shed == 0
            # repeated queries must have hit the caches
            assert snap.plan_cache["hits"] > 0
            assert snap.result_cache["hits"] > 0
    finally:
        session.close()


def test_concurrent_equals_serial_under_faults():
    baseline_session = make_session(executor="serial")
    expected = _serial_answers(baseline_session)
    baseline_session.close()

    inner = make_executor("serial")
    injector = FaultInjectingExecutor(
        inner, seed=7, kill_tasks_per_stage=1, faults_per_task=1
    )
    session = ScrubJaySession(ctx=None, executor=injector)
    from repro.datagen.synthetic import (
        KEYED_LEFT_SCHEMA,
        KEYED_RIGHT_SCHEMA,
        keyed_tables,
    )

    left, right = keyed_tables(200, num_keys=16)
    session.register_rows(left, KEYED_LEFT_SCHEMA, name="samples")
    session.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
    try:
        with QueryService(session, num_workers=3, max_queue=64) as svc:
            results, errors = _concurrent_answers(svc, num_clients=6)
            assert errors == []
            for client_answers in results:
                assert client_answers == expected
    finally:
        session.close()


def test_overload_sheds_with_typed_error(serve_session):
    release = threading.Event()
    original_execute = serve_session.execute

    def slow_execute(plan):
        release.wait(10.0)
        return original_execute(plan)

    serve_session.execute = slow_execute
    svc = QueryService(serve_session, num_workers=1, max_queue=2)
    try:
        # Admission stops somewhere between max_queue (worker not yet
        # dispatched) and max_queue + num_workers (worker already
        # holding one) tickets — but it MUST stop, with the typed
        # error, instead of queueing without bound.
        tickets = []
        first_shed = None
        for _ in range(10):
            try:
                tickets.append(svc.submit(HOT_DOMAINS, HOT_VALUES))
            except ServiceOverloadError as exc:
                first_shed = exc
                break
        assert first_shed is not None
        assert first_shed.max_queue == 2
        assert 2 <= len(tickets) <= 3
        # while saturated, every further submit sheds too
        for _ in range(4):
            with pytest.raises(ServiceOverloadError):
                svc.submit(HOT_DOMAINS, HOT_VALUES)
        release.set()
        for t in tickets:
            t.result(timeout=10.0)  # admitted work still completes
        snap = svc.snapshot()
        assert snap.shed == 5
        assert snap.completed == len(tickets)
        assert snap.failed == 0
    finally:
        release.set()
        svc.close()


def test_queued_deadline_expires_without_dispatch(serve_session):
    release = threading.Event()
    original_execute = serve_session.execute
    executed = []

    def slow_execute(plan):
        executed.append(plan)
        release.wait(5.0)
        return original_execute(plan)

    serve_session.execute = slow_execute
    svc = QueryService(serve_session, num_workers=1, max_queue=8)
    try:
        blocker = svc.submit(HOT_DOMAINS, HOT_VALUES)
        doomed = svc.submit(
            ["compute nodes"], ["power"], timeout=0.05
        )
        time.sleep(0.2)  # let the deadline lapse while queued
        release.set()
        blocker.result(timeout=10.0)
        with pytest.raises(QueryTimeoutError):
            doomed.result(timeout=10.0)
        assert svc.snapshot().timeouts == 1
        # the doomed query never reached the engine/executor
        assert len(executed) == 1
    finally:
        release.set()
        svc.close()


def test_cancel_queued_ticket(serve_session):
    release = threading.Event()
    original_execute = serve_session.execute
    serve_session.execute = lambda plan: (
        release.wait(5.0),
        original_execute(plan),
    )[1]
    svc = QueryService(serve_session, num_workers=1, max_queue=8)
    try:
        blocker = svc.submit(HOT_DOMAINS, HOT_VALUES)
        queued = svc.submit(["compute nodes"], ["power"])
        assert svc.cancel(queued) is True
        assert svc.cancel(queued) is False  # already cancelled
        release.set()
        blocker.result(timeout=10.0)
        with pytest.raises(QueryCancelledError):
            queued.result(timeout=1.0)
        assert queued.state == "cancelled"
        assert svc.snapshot().cancelled == 1
        # a running/finished ticket cannot be cancelled
        assert svc.cancel(blocker) is False
    finally:
        release.set()
        svc.close()


def test_cancel_last_queued_ticket_does_not_kill_workers(serve_session):
    """Regression: cancelling a tenant's only queued ticket used to
    leave the tenant in the round-robin order with an empty deque; the
    next dequeue then popleft()'d the empty deque, the IndexError
    killed the worker thread, and every later submission hung."""
    release = threading.Event()
    original_execute = serve_session.execute
    serve_session.execute = lambda plan: (
        release.wait(5.0),
        original_execute(plan),
    )[1]
    svc = QueryService(serve_session, num_workers=1, max_queue=8)
    try:
        blocker = svc.submit(HOT_DOMAINS, HOT_VALUES, tenant="a")
        doomed = svc.submit(
            ["compute nodes"], ["power"], tenant="b"
        )
        assert svc.cancel(doomed) is True
        # tenant "b" now has no queued work; this submit from a third
        # tenant must still be dispatched by the (sole) worker
        survivor = svc.submit(HOT_DOMAINS, HOT_VALUES, tenant="c")
        release.set()
        blocker.result(timeout=10.0)
        assert survivor.result(timeout=10.0).count() > 0
        # repeat the pattern: every worker must still be alive
        again = svc.submit(["compute nodes"], ["power"], tenant="b")
        assert svc.cancel(again) is True
        assert svc.query(HOT_DOMAINS, HOT_VALUES, tenant="d").count() > 0
    finally:
        release.set()
        svc.close()


def test_tenant_fairness_round_robin(serve_session):
    """One chatty tenant enqueues a burst; a second tenant's single
    query must not wait behind the whole burst."""
    original_execute = serve_session.execute
    gate = threading.Event()
    serve_session.execute = lambda plan: (
        gate.wait(10.0),
        original_execute(plan),
    )[1]
    svc = QueryService(serve_session, num_workers=1, max_queue=64)
    try:
        # the single worker picks this up and blocks inside execute,
        # so everything submitted below queues deterministically
        hold = svc.submit(HOT_DOMAINS, HOT_VALUES, tenant="noisy")
        deadline = time.monotonic() + 5.0
        while hold.state == "queued" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert hold.state == "running"

        burst = [
            svc.submit(["compute nodes"], ["power"], tenant="noisy")
            for _ in range(5)
        ]
        single = svc.submit(HOT_DOMAINS, HOT_VALUES, tenant="quiet")
        gate.set()
        for t in burst + [single, hold]:
            t.result(timeout=20.0)

        # one worker → completion order is dispatch order; with
        # round-robin the quiet tenant is served after at most one
        # more noisy query, never behind the whole burst
        queued = [("quiet", single)] + [
            (f"noisy-{i}", t) for i, t in enumerate(burst)
        ]
        names = [
            n for n, _ in sorted(queued, key=lambda p: p[1].finished_at)
        ]
        assert names.index("quiet") <= 1, names
    finally:
        gate.set()
        svc.close()


def test_transient_failures_retried_fatal_not(serve_session):
    svc = QueryService(
        serve_session, num_workers=1, max_queue=8, max_query_attempts=3
    )
    original_execute = serve_session.execute
    attempts = {"n": 0}

    def flaky_execute(plan):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise TransientTaskError("injected pool wobble")
        return original_execute(plan)

    serve_session.execute = flaky_execute
    try:
        ds = svc.query(HOT_DOMAINS, HOT_VALUES)
        assert ds.count() > 0
        assert attempts["n"] == 3
        snap = svc.snapshot()
        assert snap.retried == 2
        assert snap.completed == 1 and snap.failed == 0

        # a NoSolutionError is deterministic: no retry, one failure
        with pytest.raises(NoSolutionError):
            svc.query(["racks"], ["power"])
        assert svc.snapshot().failed == 1
    finally:
        svc.close()


def test_closed_service_rejects(serve_session):
    svc = QueryService(serve_session, num_workers=1)
    svc.close()
    with pytest.raises(ServiceClosedError):
        svc.submit(HOT_DOMAINS, HOT_VALUES)


def test_close_without_drain_fails_queued(serve_session):
    release = threading.Event()
    original_execute = serve_session.execute
    serve_session.execute = lambda plan: (
        release.wait(5.0),
        original_execute(plan),
    )[1]
    svc = QueryService(serve_session, num_workers=1, max_queue=8)
    running = svc.submit(HOT_DOMAINS, HOT_VALUES)
    queued = svc.submit(["compute nodes"], ["power"])
    closer = threading.Thread(
        target=svc.close, kwargs={"drain": False}
    )
    time.sleep(0.1)
    closer.start()
    time.sleep(0.1)
    release.set()
    closer.join(10.0)
    running.result(timeout=10.0)  # in-flight work still completes
    with pytest.raises(ServiceClosedError):
        queued.result(timeout=1.0)


def test_invalidation_after_data_change(serve_session):
    """Drop + re-register the same name with the same schema but
    different rows: the state fingerprint (schemas) is unchanged, so
    the *plan* may be reused — but the cached *result* must not be."""
    from repro.datagen.synthetic import KEYED_LEFT_SCHEMA, keyed_tables

    svc = QueryService(serve_session, num_workers=2)
    try:
        first = svc.query(JOIN_DOMAINS, JOIN_VALUES)
        assert first.count() == 200
        plan_hits_before = svc.snapshot().plan_cache["hits"]

        smaller, _ = keyed_tables(100, num_keys=16)
        serve_session.drop("samples")
        serve_session.register_rows(
            smaller, KEYED_LEFT_SCHEMA, name="samples"
        )
        second = svc.query(JOIN_DOMAINS, JOIN_VALUES)
        assert second.count() == 100  # fresh data, not the stale entry

        snap = svc.snapshot()
        # the schema set was unchanged, so the plan cache may serve
        # the memoized plan even though the result was recomputed
        assert snap.plan_cache["hits"] == plan_hits_before + 1
        assert snap.result_cache["misses"] >= 2
    finally:
        svc.close()


def test_result_not_published_when_catalog_moves_mid_query(serve_session):
    """Regression: a register/drop between keying and execution used to
    cache rows computed against the *new* catalog under the *old*
    version's result key, feeding a stale-keyed reader wrong data."""
    from repro.datagen.synthetic import KEYED_LEFT_SCHEMA, keyed_tables

    svc = QueryService(serve_session, num_workers=1, max_queue=8)
    original_execute = serve_session.execute
    raced = {"done": False}

    def racing_execute(plan):
        result = original_execute(plan)
        if not raced["done"]:
            raced["done"] = True
            smaller, _ = keyed_tables(100, num_keys=16)
            serve_session.drop("samples")
            serve_session.register_rows(
                smaller, KEYED_LEFT_SCHEMA, name="samples"
            )
        return result

    serve_session.execute = racing_execute
    try:
        svc.query(JOIN_DOMAINS, JOIN_VALUES)
        # the catalog moved mid-query: the result must not have been
        # published under the pre-race key
        assert svc.snapshot().result_cache["entries"] == 0
        # and the next run (stable catalog) caches normally again
        assert svc.query(JOIN_DOMAINS, JOIN_VALUES).count() == 100
        assert svc.snapshot().result_cache["entries"] == 1
    finally:
        svc.close()


def test_session_serve_entry_point(serve_session):
    with serve_session.serve(num_workers=1) as svc:
        assert svc.query(HOT_DOMAINS, HOT_VALUES).count() > 0
