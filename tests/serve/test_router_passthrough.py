"""A router forwards its shards' row text: a client sees the same
bytes a single process sends, and the router process does no row
codec work for a cold answer or a result-cache hit.

The catalog carries every kind of cell the codec has to round-trip: a
Timestamp column, identifier keys, ``None`` cells, NaN floats, and
sparse rows that lack a value field altogether.
"""

from __future__ import annotations

import json

import pytest

from repro import QueryClient, QueryServer, ScrubJaySession
from repro.core.query import FilterTerm
from repro.datagen.synthetic import (
    KEYED_RIGHT_SCHEMA,
    TIMED_LEFT_SCHEMA,
    keyed_tables,
    timed_tables,
)
from repro.serve import ShardRouter, sharded, wire

from tests.serve.conftest import row_multiset

NODES = 6
POINT = (["compute nodes", "time"], ["power"])
JOIN = (["compute nodes", "time"], ["power", "temperature"])


def _between(lo: float, hi: float) -> FilterTerm:
    return FilterTerm("time", "range", None, lo, hi)


def _eq(node: int) -> FilterTerm:
    return FilterTerm("compute nodes", "eq", value=node)


#: (query, filters) the two fleets must answer byte for byte alike
QUESTIONS = {
    "range_join": (JOIN, (_between(3.5, 9.5),)),
    "point": (POINT, (_eq(2), _between(1.5, 12.5))),
    "sparse_rows": (POINT, (_eq(1),)),
}


def _session() -> ScrubJaySession:
    samples, _ = timed_tables(NODES * 16, num_keys=NODES, seed=3)
    for i, row in enumerate(samples):
        if i % 5 == 0:
            row["metric_a"] = float("nan")
        elif i % 7 == 0:
            row["metric_a"] = None
        elif i % 4 == 0:
            del row["metric_a"]  # a sparse row
    _, lookup = keyed_tables(1, num_keys=NODES, seed=4)
    lookup[0]["metric_b"] = float("nan")
    lookup[1]["metric_b"] = None
    sj = ScrubJaySession()
    sj.register_rows(samples, TIMED_LEFT_SCHEMA, "samples")
    sj.register_rows(lookup, KEYED_RIGHT_SCHEMA, "lookup")
    return sj


class _Served:
    """A service behind a socket server and one client."""

    def __init__(self, svc) -> None:
        self.svc = svc
        self.server = QueryServer(svc).start()
        self.client = QueryClient(*self.server.address)

    def ask(self, name: str):
        (domains, values), filters = QUESTIONS[name]
        return self.client.query(domains, values, filters=filters)

    def close(self) -> None:
        self.client.close()
        self.server.close()
        self.svc.close()


@pytest.fixture()
def fleets():
    """(2-shard router, single process) over equal catalogs."""
    one, two = _session(), _session()
    single = _Served(one.serve(num_workers=1))
    router = _Served(
        two.serve(shards=2, shard_on={"samples": ["node"]}, num_workers=1)
    )
    assert isinstance(router.svc, ShardRouter)
    yield router, single
    router.close()
    single.close()
    one.close()
    two.close()


@pytest.fixture()
def codec_calls(monkeypatch):
    """Row encode/decode calls made in this process from here on (the
    shard processes were forked before, so theirs do not count)."""
    calls = {"encode_rows": 0, "decode_rows": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        fn = counting(name, getattr(wire, name))
        monkeypatch.setattr(wire, name, fn)
        if hasattr(sharded, name):
            monkeypatch.setattr(sharded, name, fn)
    return calls


def _raw(answer):
    """A reply's row text, one JSON line per row, order-insensitive."""
    return sorted(json.dumps(row) for row in answer[0])


@pytest.mark.parametrize("question", sorted(QUESTIONS))
def test_router_reply_bytes_equal_single_process(fleets, question):
    router, single = fleets
    want = single.ask(question)
    got = router.ask(question)
    assert want[0], "a question that selects nothing proves nothing"
    assert _raw(got) == _raw(want)
    assert got[1] == want[1] and got.name == want.name
    dictionary = router.svc.session.dictionary
    assert row_multiset(
        wire.decode_rows(got[0], got[1], dictionary)
    ) == row_multiset(wire.decode_rows(want[0], want[1], dictionary))


def test_catalog_cells_survive_the_trip(fleets):
    router, _ = fleets
    rows = []
    for question in QUESTIONS:
        answer = router.ask(question)
        rows += wire.decode_rows(
            answer[0], answer[1], router.svc.session.dictionary
        )
    power = [row.get("metric_a", "absent") for row in rows]
    assert any(v != v for v in power if isinstance(v, float))  # NaN
    assert "absent" in power  # sparse rows stay sparse
    assert any(row.get("metric_b") is None for row in rows)
    assert type(rows[0]["time"]).__name__ == "Timestamp"


def test_router_does_no_row_codec_work(fleets, codec_calls):
    router, _ = fleets
    cache = router.svc.result_cache
    for question in QUESTIONS:
        cold = router.ask(question)
        hits = cache.stats()["hits"]
        hot = router.ask(question)
        assert cache.stats()["hits"] == hits + 1
        assert hot[0] == cold[0]
    assert codec_calls == {"encode_rows": 0, "decode_rows": 0}
