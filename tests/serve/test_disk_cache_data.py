"""The disk caches (the derivation cache and the result cache's
write-through tier, both under ``session.cache_dir``) key each entry by
the data it was computed from: changed rows never come back stale, and
identical rows still hit, within a session and across sessions."""

from __future__ import annotations

import pytest

from repro import ScrubJaySession, TuningProfile
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.serve import QueryService

from tests.serve.conftest import JOIN_DOMAINS, JOIN_VALUES

KEYS = 8


def samples(n):
    left, _ = keyed_tables(n, num_keys=KEYS)
    return left


def extra_row():
    return {"node": 1, "sample": 99_999, "metric_a": 7.0}


def make_session(cache_dir, n=40):
    """``samples`` as an ``n``-row push feed plus a ``lookup`` table
    that every sample joins."""
    sj = ScrubJaySession(TuningProfile(cache_dir=str(cache_dir)))
    _, right = keyed_tables(n, num_keys=KEYS)
    sj.ingest().feed(KEYED_LEFT_SCHEMA, rows=samples(n)).tail("samples")
    sj.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
    return sj


def ask(sj):
    return sj.ask(JOIN_DOMAINS, JOIN_VALUES).count()


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


def test_ask_after_feed_push_sees_the_new_row(cache_dir):
    sj = make_session(cache_dir)
    try:
        assert ask(sj) == 40
        sj.feed("samples").push([extra_row()])
        assert ask(sj) == 41
    finally:
        sj.close()


def test_ask_after_drop_and_reregister_sees_the_new_rows(cache_dir):
    sj = make_session(cache_dir)
    try:
        assert ask(sj) == 40
        sj.drop("samples")
        sj.register_rows(samples(10), KEYED_LEFT_SCHEMA, name="samples")
        assert ask(sj) == 10
    finally:
        sj.close()


def test_new_session_on_the_same_cache_dir_sees_its_own_rows(cache_dir):
    with make_session(cache_dir) as sj:
        assert ask(sj) == 40
    with make_session(cache_dir, n=5) as sj:
        assert ask(sj) == 5
    # identical rows in a third session still reuse the entries
    with make_session(cache_dir) as sj:
        hits = sj.cache.hits
        assert ask(sj) == 40
        assert sj.cache.hits > hits


def test_service_query_after_advance_sees_the_new_row(cache_dir):
    sj = make_session(cache_dir)
    svc = QueryService(sj, num_workers=1)
    try:
        assert svc.query(JOIN_DOMAINS, JOIN_VALUES).count() == 40
        svc.advance("samples", rows=[extra_row()])
        assert svc.query(JOIN_DOMAINS, JOIN_VALUES).count() == 41
    finally:
        svc.close()
        sj.close()


def test_restarted_service_sees_its_own_rows(cache_dir):
    def serve_once(n):
        sj = make_session(cache_dir, n=n)
        svc = QueryService(sj, num_workers=1)
        try:
            count = svc.query(JOIN_DOMAINS, JOIN_VALUES).count()
            return count, svc.result_cache.stats()["backing_hits"]
        finally:
            svc.close()
            sj.close()

    assert serve_once(40) == (40, 0)
    assert serve_once(5) == (5, 0)
    # identical rows warm-start from the disk tier
    assert serve_once(40) == (40, 1)
