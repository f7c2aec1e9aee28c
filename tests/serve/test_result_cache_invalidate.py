"""Scoped result-cache invalidation: a feed advance evicts exactly the
entries whose plans read the appended dataset — unrelated tenants'
entries survive (the regression the old drop/re-register path failed:
it bumped catalog_version and orphaned everything)."""

from __future__ import annotations

import pytest

from repro import ScrubJaySession
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.serve import QueryService, ResultCache

from tests.serve.conftest import (
    HOT_DOMAINS,
    HOT_VALUES,
    JOIN_DOMAINS,
    JOIN_VALUES,
    row_multiset,
)


# ----------------------------------------------------------------------
# unit level
# ----------------------------------------------------------------------


def test_invalidate_evicts_only_dependents(serve_session):
    cache = ResultCache(max_entries=8)
    ds = serve_session.dataset("samples")
    other = serve_session.dataset("lookup")
    cache.put("k-join", ds, datasets=["samples", "lookup"])
    cache.put("k-hot", other, datasets=["lookup"])
    cache.put("k-untagged", other)  # legacy entry, no dependency info

    assert cache.invalidate_dataset("samples") == 1
    assert cache.get("k-join") is None
    # unrelated entries survive
    survivor = cache.get("k-hot")
    assert survivor is not None
    assert row_multiset(survivor.typed_rows()) == row_multiset(other.collect())
    assert cache.get("k-untagged") is not None
    assert cache.stats()["invalidations"] == 1


def test_invalidate_unknown_dataset_is_free(serve_session):
    cache = ResultCache()
    cache.put("k", serve_session.dataset("samples"), datasets=["samples"])
    assert cache.invalidate_dataset("nothere") == 0
    assert cache.get("k") is not None


def test_eviction_cleans_the_dependency_index(serve_session):
    cache = ResultCache(max_entries=1)
    ds = serve_session.dataset("samples")
    cache.put("k1", ds, datasets=["samples"])
    cache.put("k2", ds, datasets=["samples"])  # LRU-evicts k1
    # invalidation only counts the surviving dependent
    assert cache.invalidate_dataset("samples") == 1


def test_reput_under_same_key_replaces_dependencies(serve_session):
    cache = ResultCache(max_entries=4)
    ds = serve_session.dataset("samples")
    cache.put("k", ds, datasets=["samples"])
    cache.put("k", ds, datasets=["lookup"])
    assert cache.invalidate_dataset("samples") == 0
    assert cache.invalidate_dataset("lookup") == 1


# ----------------------------------------------------------------------
# service level: the advance path
# ----------------------------------------------------------------------


@pytest.fixture()
def feed_service():
    sj = ScrubJaySession()
    left, right = keyed_tables(100, num_keys=8)
    sj.ingest().feed(KEYED_LEFT_SCHEMA, rows=left).tail("samples")
    sj.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
    svc = QueryService(sj, num_workers=1)
    yield svc, sj
    svc.close()
    sj.close()


def test_advance_evicts_dependents_and_spares_the_rest(feed_service):
    svc, sj = feed_service
    # warm two cached answers: one reads the feed, one does not
    svc.query(JOIN_DOMAINS, JOIN_VALUES)
    svc.query(HOT_DOMAINS, HOT_VALUES)
    base_hits = svc.result_cache.stats()["hits"]

    out = svc.advance("samples", rows=[
        {"node": 1, "sample": 10_000, "metric_a": 1.0}
    ])
    assert out["evicted"] == 1  # the join answer, nothing else

    # the unrelated entry still serves from cache...
    svc.query(HOT_DOMAINS, HOT_VALUES)
    assert svc.result_cache.stats()["hits"] == base_hits + 1

    # ...and the dependent entry recomputes to the fresh answer
    recomputed = svc.query(JOIN_DOMAINS, JOIN_VALUES)
    assert row_multiset(recomputed.collect()) == row_multiset(
        sj.ask(JOIN_DOMAINS, JOIN_VALUES).collect()
    )


# ----------------------------------------------------------------------
# staleness: an answer counts the rows registered when it is asked
# ----------------------------------------------------------------------

EXTRA = {"node": 1, "sample": 99_999, "metric_a": 7.0}


def samples(n):
    return keyed_tables(n, num_keys=8)[0]


def feed_session(n=40):
    """``n`` samples as a push feed plus a ``lookup`` table that every
    sample joins."""
    sj = ScrubJaySession()
    _, right = keyed_tables(n, num_keys=8)
    sj.ingest().feed(KEYED_LEFT_SCHEMA, rows=samples(n)).tail("samples")
    sj.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
    return sj


def session_ask(sj, svc):
    return sj.ask(JOIN_DOMAINS, JOIN_VALUES).count()


def service_query(sj, svc):
    return svc.query(JOIN_DOMAINS, JOIN_VALUES).count()


def push(sj, svc):
    sj.feed("samples").push([dict(EXTRA)])


def advance(sj, svc):
    svc.advance("samples", rows=[dict(EXTRA)])


def reregister(sj, svc):
    # same name, same schema, other rows
    sj.drop("samples")
    sj.register_rows(samples(10), KEYED_LEFT_SCHEMA, name="samples")


@pytest.mark.parametrize("ask, change, after", [
    pytest.param(session_ask, push, 41, id="ask-after-feed-push"),
    pytest.param(session_ask, reregister, 10,
                 id="ask-after-drop-and-reregister"),
    pytest.param(service_query, advance, 41, id="service-after-advance"),
    pytest.param(service_query, reregister, 10,
                 id="service-after-drop-and-reregister"),
])
def test_answers_count_the_current_rows(ask, change, after):
    sj = feed_session()
    svc = QueryService(sj, num_workers=1)
    try:
        assert ask(sj, svc) == 40
        assert ask(sj, svc) == 40  # a repeat (a service cache hit) too
        change(sj, svc)
        assert ask(sj, svc) == after
    finally:
        svc.close()
        sj.close()


@pytest.mark.parametrize("ask", [
    pytest.param(session_ask, id="new-session"),
    pytest.param(service_query, id="restarted-service"),
])
def test_fresh_session_and_service_see_their_own_rows(ask):
    def serve_once(n):
        with feed_session(n) as sj:
            svc = QueryService(sj, num_workers=1)
            try:
                return ask(sj, svc), ask(sj, svc)
            finally:
                svc.close()

    assert serve_once(40) == (40, 40)
    assert serve_once(5) == (5, 5)
    assert serve_once(40) == (40, 40)
