"""ResultCache: TTL, LRU accounting, counters."""

from __future__ import annotations

from repro.serve import ResultCache

from tests.serve.conftest import row_multiset


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, s: float) -> None:
        self.now += s


def _dataset(session, name="samples"):
    return session.dataset(name)


def test_round_trip(serve_session):
    cache = ResultCache(max_entries=4)
    ds = _dataset(serve_session)
    cache.put("k", ds)
    out = cache.get("k")
    assert out is not None
    assert row_multiset(out.typed_rows()) == row_multiset(ds.collect())
    assert out.schema == ds.schema
    s = cache.stats()
    assert s["hits"] == 1 and s["misses"] == 0


def test_miss_counts(serve_session):
    cache = ResultCache()
    assert cache.get("absent") is None
    assert cache.stats()["misses"] == 1


def test_ttl_expiry(serve_session):
    clock = FakeClock()
    cache = ResultCache(ttl=10.0, clock=clock)
    cache.put("k", _dataset(serve_session))
    clock.advance(5.0)
    assert cache.get("k") is not None
    clock.advance(6.0)  # 11s old now
    assert cache.get("k") is None
    s = cache.stats()
    assert s["expirations"] == 1
    assert s["entries"] == 0


def test_lru_bound_and_recency_refresh(serve_session):
    cache = ResultCache(max_entries=2)
    ds = _dataset(serve_session)
    cache.put("a", ds)
    cache.put("b", ds)
    assert cache.get("a") is not None  # refresh a
    cache.put("c", ds)  # evicts b (least recently used), not a
    assert cache.get("a") is not None
    assert cache.get("b") is None
    assert cache.stats()["evictions"] == 1
