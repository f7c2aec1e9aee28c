"""ResultCache: TTL, LRU accounting, counters, disk write-through."""

from __future__ import annotations

from repro.core.cache import DerivationCache
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


def test_write_through_and_warm_start(serve_session, tmp_path):
    disk = DerivationCache(str(tmp_path / "cache"), max_entries=8)
    warm = ResultCache(backing=disk)
    ds = _dataset(serve_session)
    warm.put("k", ds)
    assert len(disk) == 1  # write-through happened

    # A fresh in-memory tier (service restart) warms from disk.
    cold = ResultCache(backing=disk)
    out = cold.get("k")
    assert out is not None
    assert cold.stats()["backing_hits"] == 1
    # and the entry was promoted into memory
    assert cold.stats()["entries"] == 1


def test_ttl_not_defeated_by_backing(serve_session, tmp_path):
    """Regression: an entry that expired in memory used to be re-read
    from the write-through disk tier and re-promoted with a fresh
    created_at, serving the stale result forever."""
    clock = FakeClock()
    disk = DerivationCache(str(tmp_path / "cache"), max_entries=8)
    cache = ResultCache(ttl=10.0, backing=disk, clock=clock, wall_clock=clock)
    cache.put("k", _dataset(serve_session))
    clock.advance(11.0)
    assert cache.get("k") is None
    # the disk copy was invalidated too: still a miss, forever
    assert cache.get("k") is None
    assert len(disk) == 0
    assert cache.stats()["backing_hits"] == 0


def test_ttl_enforced_on_promotion_across_restart(serve_session, tmp_path):
    """A restarted service warming from disk must honor the entry's
    true age, not restart its TTL at promotion time."""
    clock = FakeClock()
    disk = DerivationCache(str(tmp_path / "cache"), max_entries=8)
    warm = ResultCache(ttl=10.0, backing=disk, clock=clock, wall_clock=clock)
    warm.put("k", _dataset(serve_session))

    clock.advance(6.0)
    fresh = ResultCache(ttl=10.0, backing=disk, clock=clock, wall_clock=clock)
    # 6s old: promoted with 4s of TTL left
    assert fresh.get("k") is not None
    clock.advance(5.0)  # 11s old in total — past the ceiling
    assert fresh.get("k") is None

    # an entry already past the TTL on disk is never served at all
    warm.put("k2", _dataset(serve_session))
    clock.advance(11.0)
    late = ResultCache(ttl=10.0, backing=disk, clock=clock, wall_clock=clock)
    assert late.get("k2") is None
    assert late.stats()["backing_hits"] == 0
    assert late.stats()["expirations"] == 1


def test_stampless_backing_entry_expired_when_ttl_set(
    serve_session, tmp_path
):
    """Legacy disk entries with no creation stamp have unknown age:
    with a TTL configured they must be treated as expired, and without
    one they stay servable."""
    from repro.core.cache import CachedResult

    disk = DerivationCache(str(tmp_path / "cache"), max_entries=8)
    ds = _dataset(serve_session)
    disk.put_entry(
        "k",
        CachedResult(
            rows=ds.collect(),
            schema_json=ds.schema.to_json_dict(),
            name=ds.name,
        ),
    )
    bounded = ResultCache(ttl=10.0, backing=disk)
    assert bounded.get("k") is None
    assert bounded.stats()["expirations"] == 1

    disk.put_entry(
        "j",
        CachedResult(
            rows=ds.collect(),
            schema_json=ds.schema.to_json_dict(),
            name=ds.name,
        ),
    )
    unbounded = ResultCache(backing=disk)
    assert unbounded.get("j") is not None


def test_derivation_cache_counters_exposed(tmp_path, serve_session):
    disk = DerivationCache(str(tmp_path / "c"), max_entries=2)
    ds = _dataset(serve_session)
    for i in range(4):
        disk.put(f"fp{i}", ds)
    s = disk.stats()
    assert s["evictions"] == 2
    assert s["entries"] == 2
    assert disk.get("fp3") is not None
    assert disk.stats()["hits"] == 1
    assert disk.get("fp0") is None  # evicted
    assert disk.stats()["misses"] == 1
