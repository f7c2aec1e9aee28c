"""The wire surface, op by op: the same client over a single-process
:class:`QueryService` and over a 2-shard :class:`ShardRouter` must
decode to the same answers, every op the dispatcher's handler table
lists has a client method and a line in the protocol docstring, and
the request/response key sets of protocol v2 stay what they are."""

from __future__ import annotations

import math

import pytest

from repro import Schema, ScrubJaySession
from repro.core.semantics import domain, value
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.serve import (
    InProcessClient,
    QueryService,
    ShardRouter,
    UnsupportedOpError,
)
from repro.serve import wire
from repro.serve.wire import PROTOCOL_VERSION, SUPPORTED_OPS, WireError

from tests.metrics.conftest import (
    RACK_POWER_SCHEMA,
    assert_groups_equal,
    power_rows,
)
from tests.serve.conftest import JOIN_DOMAINS, JOIN_VALUES, row_multiset

ROWS, KEYS = 64, 8


class Recording(InProcessClient):
    """An in-process client that notes each ok exchange's key sets."""

    def __init__(self, service: QueryService) -> None:
        super().__init__(service)
        self.seen = []

    def request(self, req):
        resp = super().request(req)
        if resp.get("ok"):
            self.seen.append(
                (req["op"], tuple(sorted(req)), tuple(sorted(resp)))
            )
        return resp


def _session() -> ScrubJaySession:
    sj = ScrubJaySession()
    left, right = keyed_tables(ROWS, num_keys=KEYS)
    sj.ingest().feed(KEYED_LEFT_SCHEMA, rows=left).tail("samples")
    sj.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
    sj.ingest().feed(RACK_POWER_SCHEMA, rows=power_rows()) \
        .tail("rack_power")
    return sj


@pytest.fixture(scope="module")
def sides():
    """``[(client, session)]``: a plain service, then a 2-shard router,
    over equal catalogs. Scenarios run on both in lockstep, so feed
    state stays equal too."""
    plain_sj, fleet_sj = _session(), _session()
    plain = QueryService(plain_sj, num_workers=1)
    fleet = ShardRouter(
        fleet_sj, shards=2, num_workers=1,
        shard_on={"samples": ["node"], "rack_power": ["rack"]},
    )
    yield [(Recording(plain), plain_sj), (Recording(fleet), fleet_sj)]
    fleet.close()
    plain.close()
    fleet_sj.close()
    plain_sj.close()


def _delta(start, n):
    return [
        {"node": (start + i) % KEYS, "sample": 10_000 + start + i,
         "metric_a": float(start + i)}
        for i in range(n)
    ]


def _groups_close(got, want):
    """Group dicts equal up to float summation order (a fleet sums
    per-shard partials); mean partials are ``(sum, count)`` tuples."""
    assert got.keys() == want.keys()
    for k in want:
        g = got[k] if isinstance(got[k], tuple) else (got[k],)
        w = want[k] if isinstance(want[k], tuple) else (want[k],)
        assert len(g) == len(w)
        assert all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(g, w))


def _same(a, b):
    assert a == b


def _metric_query(sj):
    return (sj.query().measure("power", "mean").per("racks")
            .grain("1h").build())


def _sub_view(sub):
    return (
        sub["version"], sub["watermarks"], sub["changed"],
        sub["refresh_mode"], sub["schema"],
        None if sub["rows"] is None else row_multiset(sub["rows"]),
    )


#: humidity is a value dimension no dataset of :func:`_session` has, so
#: a humidity question is answered by the rows registered for it or not
#: at all
HUMID_SCHEMA = Schema({
    "node": domain("compute nodes", "identifier"),
    "rh": value("humidity", "relative humidity percent"),
})
HUMID_ROWS = [{"node": i % 2, "rh": 40.0 + i} for i in range(6)]


def _ask(c, sj, dimension):
    rows, schema = c.query(
        ["compute nodes"], [dimension], dictionary=sj.dictionary
    )
    return row_multiset(rows), schema


def _ask_new(c, sj, schema, rows, dimension):
    """Register ``rows``, ask the ``dimension`` question only they
    answer, and drop them again: a mutation that skipped the shards
    fails the question on a fleet."""
    stamp = c.register_rows(rows, schema, "asked", sj.dictionary)
    answer = _ask(c, sj, dimension)
    c.drop("asked")
    return stamp, answer


# -- one scenario per op: (client, session) -> a comparable answer -----


def _register(c, sj):
    left, _ = keyed_tables(8, num_keys=2)
    live = c.register_rows(
        left, KEYED_LEFT_SCHEMA, "extra_feed", sj.dictionary, feed=True
    )
    c.drop("extra_feed")
    return live, _ask_new(c, sj, HUMID_SCHEMA, HUMID_ROWS, "humidity")


def _drop(c, sj):
    c.register_rows(HUMID_ROWS, HUMID_SCHEMA, "doomed", sj.dictionary)
    before = _ask(c, sj, "humidity")
    stamp = c.drop("doomed")
    with pytest.raises(WireError) as err:
        _ask(c, sj, "humidity")
    assert err.value.error == "NoSolutionError"
    return before, stamp


def _define_dimension(c, sj):
    stamp = c.define_dimension(
        "wire surface dim", False, True, "a test dimension"
    )
    schema = Schema({
        "node": domain("compute nodes", "identifier"),
        "tag": value("wire surface dim", "label"),
    })
    rows = [{"node": i % 2, "tag": f"t{i}"} for i in range(6)]
    return stamp["state"], _ask_new(c, sj, schema, rows, "wire surface dim")


def _define_unit(c, sj):
    stamp = c.define_unit("wire surface unit", "label")
    schema = Schema({
        "node": domain("compute nodes", "identifier"),
        "rh": value("humidity", "wire surface unit"),
    })
    rows = [{"node": i % 2, "rh": f"level {i}"} for i in range(6)]
    return stamp["state"], _ask_new(c, sj, schema, rows, "humidity")


def _aggregate(c, sj):
    args = dict(group_by=["node"], value_field="metric_b",
                dictionary=sj.dictionary)
    final, schema = c.aggregate(JOIN_DOMAINS, JOIN_VALUES, **args)
    partial, _ = c.aggregate(
        JOIN_DOMAINS, JOIN_VALUES, partial=True, **args
    )
    return final, partial, schema


def _aggregate_same(a, b):
    _groups_close(a[0], b[0])
    _groups_close(a[1], b[1])
    assert a[2] == b[2]


def _subscribe(c, sj):
    rows = c.subscribe(JOIN_DOMAINS, JOIN_VALUES, dictionary=sj.dictionary)
    groups = c.subscribe(
        JOIN_DOMAINS, JOIN_VALUES, group_by=["node"],
        value_field="metric_b", how="sum", dictionary=sj.dictionary,
    )
    measure = c.subscribe(query=_metric_query(sj), dictionary=sj.dictionary)
    for sub in (rows, groups, measure):
        assert c.unsubscribe(sub["sub_id"]) is True
    return _sub_view(rows), groups["groups"], measure["groups"]


def _subscribe_same(a, b):
    assert a[0] == b[0]
    _groups_close(a[1], b[1])
    _groups_close(a[2], b[2])


def _updates(c, sj):
    sub = c.subscribe(JOIN_DOMAINS, JOIN_VALUES, dictionary=sj.dictionary)
    idle = c.updates(sub["sub_id"], sub["version"])
    c.advance("samples", _delta(100, 5), KEYED_LEFT_SCHEMA, sj.dictionary)
    moved = c.updates(
        sub["sub_id"], sub["version"], dictionary=sj.dictionary
    )
    c.unsubscribe(sub["sub_id"])
    assert moved["changed"] and not idle["changed"]
    return _sub_view(idle), _sub_view(moved)


def _unsubscribe(c, sj):
    sub = c.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    return c.unsubscribe(sub["sub_id"]), c.unsubscribe(sub["sub_id"])


def _advance(c, sj):
    sub = c.subscribe(JOIN_DOMAINS, JOIN_VALUES)
    out = c.advance(
        "samples", _delta(200, 6), KEYED_LEFT_SCHEMA, sj.dictionary
    )
    c.unsubscribe(sub["sub_id"])
    assert out["subscriptions_refreshed"] == 1
    out.pop("evicted")  # depends on what each side happened to cache
    return out


def _query(c, sj):
    rows, schema = c.query(
        JOIN_DOMAINS, JOIN_VALUES, dictionary=sj.dictionary
    )
    return row_multiset(rows), schema


#: op -> (scenario, how two sides' answers must compare)
SCENARIOS = {
    "hello": (lambda c, sj: c.hello(), _same),
    "ping": (lambda c, sj: c.ping(), _same),
    # numbers differ by the moment; the snapshot's shape must not (a
    # router adds its ``shards`` block)
    "metrics": (lambda c, sj: sorted(set(c.metrics()) - {"shards"}), _same),
    "sync": (lambda c, sj: c.sync(), _same),
    "trace": (lambda c, sj: sorted(c.trace()), _same),
    "register": (_register, _same),
    "drop": (_drop, _same),
    "define_dimension": (_define_dimension, _same),
    "define_unit": (_define_unit, _same),
    "query": (_query, _same),
    "explain": (lambda c, sj: c.explain(JOIN_DOMAINS, JOIN_VALUES), _same),
    "aggregate": (_aggregate, _aggregate_same),
    "metric": (
        lambda c, sj: c.metric(
            _metric_query(sj), dictionary=sj.dictionary
        ).groups,
        assert_groups_equal,
    ),
    "subscribe": (_subscribe, _subscribe_same),
    "updates": (_updates, _same),
    "unsubscribe": (_unsubscribe, _same),
    "advance": (_advance, _same),
}

_STAMP = ("catalog_version", "state")
_SUB = ("changed", "refresh_mode", "schema", "sub_id", "version",
        "watermarks")
_QUESTION = ("domains", "filters", "values")

#: protocol v2 as the client speaks it: for each op, every key set a
#: request may have and every key set an ok reply may have (``ok``
#: itself left out), each sorted
WIRE_KEYS = {
    "hello": ([("version",)], [("version",)]),
    "ping": ([()], [("pong",)]),
    "metrics": ([()], [("metrics",)]),
    "sync": ([()], [_STAMP]),
    "trace": ([()], [("trace",)]),
    "register": (
        [("name", "partitions", "rows", "schema"),
         ("feed", "name", "partitions", "rows", "schema")],
        [_STAMP, ("catalog_version", "feed", "state", "watermark")],
    ),
    "drop": ([("name",)], [_STAMP]),
    "define_dimension": (
        [("continuous", "description", "name", "ordered")], [_STAMP],
    ),
    "define_unit": (
        [("dimension", "kind", "name", "offset", "scale")], [_STAMP],
    ),
    "query": (
        [tuple(sorted(_QUESTION + ("tenant", "timeout")))],
        [tuple(sorted(_STAMP + ("name", "row_count", "rows", "schema")))],
    ),
    "explain": ([_QUESTION], [("operations", "plan", "steps")]),
    "aggregate": (
        [tuple(sorted(_QUESTION + (
            "group_by", "how", "partial", "tenant", "timeout",
            "value_field")))],
        [tuple(sorted(_STAMP + (
            "group_count", "groups", "partial", "schema")))],
    ),
    "metric": (
        [("query", "tenant", "timeout")],
        [tuple(sorted(_STAMP + (
            "decision", "group_count", "group_dims", "group_fields",
            "groups", "measures", "schema")))],
    ),
    "subscribe": (
        [tuple(sorted(_QUESTION + ("tenant",))),
         tuple(sorted(_QUESTION + (
             "group_by", "how", "partial", "tenant", "value_field"))),
         ("partial", "query", "tenant")],
        [tuple(sorted(_STAMP + _SUB + ("row_count", "rows"))),
         tuple(sorted(_STAMP + _SUB + (
             "group_by", "group_count", "groups", "how", "partial")))],
    ),
    "updates": (
        [("since_version", "sub_id", "timeout")],
        [tuple(sorted(_STAMP + _SUB)),
         tuple(sorted(_STAMP + _SUB + ("row_count", "rows"))),
         tuple(sorted(_STAMP + _SUB + (
             "group_by", "group_count", "groups", "how", "partial")))],
    ),
    "unsubscribe": ([("sub_id",)], [("removed",)]),
    "advance": (
        [("name",), ("name", "rows")],
        [tuple(sorted(_STAMP + (
            "evicted", "name", "rows_added", "since",
            "subscriptions_refreshed", "watermark")))],
    ),
}


@pytest.mark.parametrize("op", SUPPORTED_OPS)
def test_service_and_fleet_answer_alike(sides, op):
    scenario, same = SCENARIOS[op]
    (plain, plain_sj), (fleet, fleet_sj) = sides
    same(scenario(fleet, fleet_sj), scenario(plain, plain_sj))
    spoken = set()
    for client in (plain, fleet):
        for seen_op, request, reply in client.seen:
            spoken.add(seen_op)
            requests, replies = WIRE_KEYS[seen_op]
            assert tuple(k for k in request if k != "op") in requests
            assert "ok" in reply, (seen_op, reply)
            assert tuple(k for k in reply if k != "ok") in replies
        client.seen.clear()
    assert op in spoken


def test_one_op_list():
    """The handler table is the list: the advertised tuple, the
    scenarios above, the client's methods and the module docstring's
    request catalogue all cover exactly it."""
    assert SUPPORTED_OPS == tuple(wire._HANDLERS)
    assert set(SCENARIOS) == set(WIRE_KEYS) == set(SUPPORTED_OPS)
    assert PROTOCOL_VERSION == 2
    for op in SUPPORTED_OPS:
        method = {"register": "register_rows"}.get(op, op)
        assert callable(getattr(InProcessClient, method)), op
        assert f'{{"op": "{op}"' in wire.__doc__, op
    documented = {
        line.split('"')[3] for line in wire.__doc__.splitlines()
        if line.strip().startswith('{"op": ')
    }
    assert documented == set(SUPPORTED_OPS)


def test_unknown_op_lists_everything_supported(sides):
    for client, _ in sides:
        resp = client.request({"op": "selfdestruct", "_bench_span": 7})
        assert resp == {
            "ok": False,
            "error": "UnsupportedOpError",
            "message": resp["message"],
            "op": "selfdestruct",
            "supported": list(SUPPORTED_OPS),
        }
        assert all(op in resp["message"] for op in SUPPORTED_OPS)
        with pytest.raises(UnsupportedOpError) as err:
            wire._raise_on_error(resp)
        assert err.value.supported == SUPPORTED_OPS
        # a known op ignores request keys it does not read
        assert client.request({"op": "ping", "_bench_span": 7}) == {
            "ok": True, "pong": True,
        }
        client.seen.clear()
