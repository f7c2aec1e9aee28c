"""Wire layer: NDJSON protocol over sockets and in-process, error
mapping, codec round-trip."""

from __future__ import annotations

import json
import socket

import pytest

from repro.serve import (
    InProcessClient,
    QueryClient,
    QueryServer,
    QueryService,
    WireError,
    decode_rows,
    encode_rows,
)

from tests.serve.conftest import (
    HOT_DOMAINS,
    HOT_VALUES,
    JOIN_DOMAINS,
    JOIN_VALUES,
    make_session,
    row_multiset,
)


@pytest.fixture()
def service(serve_session):
    svc = QueryService(serve_session, num_workers=2, max_queue=16)
    yield svc
    svc.close()


@pytest.fixture()
def server(service):
    with QueryServer(service) as srv:
        yield srv


def test_in_process_matches_socket(service, server, serve_session):
    host, port = server.address
    with QueryClient(host, port) as remote:
        local = InProcessClient(service)
        r_rows, r_schema = remote.query(JOIN_DOMAINS, JOIN_VALUES)
        l_rows, l_schema = local.query(JOIN_DOMAINS, JOIN_VALUES)
        assert r_schema == l_schema
        assert row_multiset(r_rows) == row_multiset(l_rows)
        assert len(r_rows) == 200


def test_codec_round_trip(service, server, serve_session):
    host, port = server.address
    with QueryClient(host, port) as client:
        rows, schema = client.query(
            HOT_DOMAINS, HOT_VALUES, dictionary=serve_session.dictionary
        )
        direct = serve_session.ask(HOT_DOMAINS, HOT_VALUES).collect()
        assert row_multiset(rows) == row_multiset(direct)
        # typed: identifiers decode to int, quantities to float
        assert isinstance(rows[0]["node"], int)
        assert isinstance(rows[0]["metric_b"], float)


def test_encode_decode_inverse(serve_session):
    ds = serve_session.dataset("samples")
    rows = ds.collect()
    enc = encode_rows(rows, ds.schema, serve_session.dictionary)
    assert all(isinstance(v, str) for r in enc for v in r.values())
    dec = decode_rows(enc, ds.schema, serve_session.dictionary)
    assert row_multiset(dec) == row_multiset(rows)


def test_explain_and_ping_and_metrics(service, server):
    host, port = server.address
    with QueryClient(host, port) as client:
        assert client.ping() is True
        ex = client.explain(JOIN_DOMAINS, JOIN_VALUES)
        assert "Load[" in ex["plan"]
        assert ex["steps"] >= 1
        client.query(HOT_DOMAINS, HOT_VALUES)
        m = client.metrics()
        assert m["completed"] >= 1
        assert "plan_cache" in m and "latency_s" in m
        assert "derivation_cache" not in m


def test_error_mapping_no_solution(service, server):
    host, port = server.address
    with QueryClient(host, port) as client:
        with pytest.raises(WireError) as exc_info:
            client.query(["racks"], ["power"])
        assert exc_info.value.error == "NoSolutionError"


def test_overload_maps_to_typed_wire_error(serve_session):
    import threading

    from repro.errors import ServiceOverloadError

    release = threading.Event()
    original = serve_session.execute
    serve_session.execute = lambda plan: (
        release.wait(10.0),
        original(plan),
    )[1]
    svc = QueryService(serve_session, num_workers=1, max_queue=1)
    try:
        # occupy the single worker, then fill the queue to the brim
        import time as _time

        blocker = svc.submit(HOT_DOMAINS, HOT_VALUES)
        deadline = _time.monotonic() + 5.0
        while blocker.state == "queued" and _time.monotonic() < deadline:
            _time.sleep(0.01)
        assert blocker.state == "running"
        tickets = [blocker]
        for _ in range(5):
            try:
                tickets.append(svc.submit(HOT_DOMAINS, HOT_VALUES))
            except ServiceOverloadError:
                break
        assert len(tickets) == 2  # worker busy + queue of 1 full

        with QueryServer(svc) as server:
            host, port = server.address
            with QueryClient(host, port) as client:
                # the socket path reports the same typed error name
                with pytest.raises(WireError) as exc_info:
                    client.query(HOT_DOMAINS, HOT_VALUES)
                assert exc_info.value.error == "ServiceOverloadError"
        release.set()
        for t in tickets:
            t.result(timeout=10.0)
    finally:
        release.set()
        svc.close()


def test_malformed_lines_do_not_kill_connection(service, server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as sock:
        f = sock.makefile("rwb")
        f.write(b"this is not json\n")
        f.flush()
        resp = json.loads(f.readline())
        assert resp["ok"] is False and resp["error"] == "ProtocolError"
        # connection survives: a valid request still works
        f.write(json.dumps({"op": "ping"}).encode() + b"\n")
        f.flush()
        assert json.loads(f.readline())["ok"] is True


def _oversized_line_is_refused(address, bound):
    """One line past ``bound`` gets the typed error, then EOF; a line
    of exactly ``bound`` bytes is still read (and is merely bad JSON)."""
    with socket.create_connection(address, timeout=10) as sock:
        f = sock.makefile("rwb")
        f.write(b"x" * bound + b"\n")
        f.flush()
        resp = json.loads(f.readline())
        assert resp["error"] == "ProtocolError"
        assert "malformed" in resp["message"]
        f.write(b"x" * (bound + 1) + b"\n" + b'{"op": "ping"}\n')
        f.flush()
        resp = json.loads(f.readline())
        assert resp["ok"] is False and resp["error"] == "ProtocolError"
        assert f"exceeds {bound} bytes" in resp["message"]
        assert f.readline() == b""  # closed: the ping was never read


def test_oversized_line_is_refused_by_server_and_shard(
    serve_session, monkeypatch
):
    from repro.serve import ShardRouter, wire

    # the real bound has room for a fleet register line; shrunk here
    # (before the shards fork, so they inherit it) to keep this fast
    assert wire.MAX_LINE_BYTES >= 64 * 1024 * 1024
    bound = 4096
    monkeypatch.setattr(wire, "MAX_LINE_BYTES", bound)
    svc = QueryService(serve_session, num_workers=1)
    try:
        with QueryServer(svc) as server:
            _oversized_line_is_refused(server.address, bound)
            with QueryClient(*server.address) as client:
                assert client.ping() is True  # the server lives on
    finally:
        svc.close()
    # few enough rows that each shard's register line fits the bound
    sj = make_session(rows=8, keys=4)
    router = ShardRouter(
        sj, shards=2, shard_on={"samples": ["node"]}, num_workers=1
    )
    try:
        shard = router._fleet[0][0]
        _oversized_line_is_refused(shard.address, bound)
        rows = router.query(HOT_DOMAINS, HOT_VALUES).collect()
        assert len(rows) == 4  # the shard lives on
    finally:
        router.close()
        sj.close()


def test_unknown_op(service):
    local = InProcessClient(service)
    resp = local.request({"op": "selfdestruct"})
    assert resp["ok"] is False and resp["error"] == "UnsupportedOpError"
    assert resp["op"] == "selfdestruct"
    assert "query" in resp["supported"]
