"""PlanMemo: memoized search, single-flight, negative caching, LRU."""

from __future__ import annotations

import threading

import pytest

from repro.core.query import Query
from repro.errors import NoSolutionError
from repro.core.plan_memo import PlanMemo, plan_key

from tests.serve.conftest import JOIN_DOMAINS, JOIN_VALUES


def _solver_counter(session, query):
    calls = {"n": 0}

    def solve():
        calls["n"] += 1
        return session.engine.solve(session.schemas(), query)

    return solve, calls


def test_hit_skips_search_and_counts(serve_session):
    cache = PlanMemo()
    q = Query.of(JOIN_DOMAINS, JOIN_VALUES)
    key = plan_key(serve_session.state_fingerprint(), q)
    solve, calls = _solver_counter(serve_session, q)

    p1 = cache.get_or_solve(key, solve)
    p2 = cache.get_or_solve(key, solve)
    assert calls["n"] == 1
    assert p1 is p2
    s = cache.stats()
    assert s["hits"] == 1 and s["misses"] == 1 and s["entries"] == 1


def test_single_flight_under_concurrency(serve_session):
    cache = PlanMemo()
    q = Query.of(JOIN_DOMAINS, JOIN_VALUES)
    key = plan_key(serve_session.state_fingerprint(), q)

    calls = {"n": 0}
    gate = threading.Barrier(9)  # 8 workers + main

    def slow_solve():
        calls["n"] += 1
        return serve_session.engine.solve(serve_session.schemas(), q)

    plans = []
    errors = []

    def worker():
        gate.wait()
        try:
            plans.append(cache.get_or_solve(key, slow_solve))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    gate.wait()
    for t in threads:
        t.join()
    assert not errors
    assert calls["n"] == 1  # exactly one search for 8 concurrent misses
    assert len({id(p) for p in plans}) == 1


def test_negative_caching(serve_session):
    cache = PlanMemo()
    # power exists, but 'racks' appears in no registered dataset
    q = Query.of(["racks"], ["power"])
    key = plan_key(serve_session.state_fingerprint(), q)
    solve, calls = _solver_counter(serve_session, q)

    with pytest.raises(NoSolutionError):
        cache.get_or_solve(key, solve)
    with pytest.raises(NoSolutionError):
        cache.get_or_solve(key, solve)
    assert calls["n"] == 1
    assert cache.stats()["negative_hits"] == 1


def test_negative_hits_raise_detached_copies(serve_session):
    """Regression: negative hits used to re-raise the one cached
    exception instance, so concurrent raisers raced on its shared
    __traceback__ and chained each other's frames."""
    cache = PlanMemo()
    q = Query.of(["racks"], ["power"])
    key = plan_key(serve_session.state_fingerprint(), q)
    solve, _ = _solver_counter(serve_session, q)

    with pytest.raises(NoSolutionError):
        cache.get_or_solve(key, solve)

    raised = []
    for _ in range(2):
        try:
            cache.get_or_solve(key, solve)
        except NoSolutionError as exc:
            raised.append(exc)
    assert len(raised) == 2
    assert raised[0] is not raised[1]  # fresh copy per hit
    assert raised[0].args == raised[1].args
    # the stored entry pins neither a traceback nor chained frames
    stored = cache._entries[key][1]
    assert stored not in raised
    assert stored.__traceback__ is None


def test_unexpected_solver_error_not_cached(serve_session):
    cache = PlanMemo()
    boom = {"n": 0}

    def bad_solver():
        boom["n"] += 1
        raise RuntimeError("flaky")

    with pytest.raises(RuntimeError):
        cache.get_or_solve("k", bad_solver)
    with pytest.raises(RuntimeError):
        cache.get_or_solve("k", bad_solver)
    assert boom["n"] == 2  # retried, not memoized


def test_lru_eviction():
    cache = PlanMemo(max_entries=2)
    mk = lambda i: (lambda: i)  # noqa: E731 - plans can be any object here
    cache.get_or_solve("a", mk(1))
    cache.get_or_solve("b", mk(2))
    cache.get_or_solve("a", mk(99))  # refresh a
    cache.get_or_solve("c", mk(3))  # evicts b, not a
    assert list(cache._entries) == ["a", "c"]
    assert cache.stats()["evictions"] == 1


def test_a_solve_in_flight_across_clear_is_not_stored():
    cache = PlanMemo()

    def solver():
        cache.clear()  # an engine knob write lands mid-search
        return "old"

    assert cache.get_or_solve("k", solver) == "old"
    assert cache.get_or_solve("k", lambda: "new") == "new"


def test_state_change_means_new_key(serve_session):
    q = Query.of(JOIN_DOMAINS, JOIN_VALUES)
    k1 = plan_key(serve_session.state_fingerprint(), q)
    serve_session.register_rows(
        [{"node": 0, "metric_b": 2.0}],
        serve_session.dataset("lookup").schema,
        name="another",
    )
    k2 = plan_key(serve_session.state_fingerprint(), q)
    assert k1 != k2
