"""Thin wire layer: line-delimited JSON over TCP, stdlib only.

One request per line, one JSON response per line — the simplest
protocol that lets ``examples/`` run a real client/server demo and
that a load generator can hammer from many sockets. The same request
dispatcher backs an :class:`InProcessClient`, so tests and embedded
callers speak the exact protocol without a socket.

Requests (``op`` selects the action; one line per op the server
speaks, kept in step with the dispatcher's handler table by a test)::

    {"op": "hello",  "version": 2}
    {"op": "ping"}
    {"op": "metrics"}
    {"op": "sync"}
    {"op": "trace"}
    {"op": "register", "name": "...", "schema": {...}, "rows": [...],
     "partitions": 4, "feed": false}
    {"op": "drop", "name": "..."}
    {"op": "define_dimension", "name": "...", "continuous": true,
     "ordered": true, "description": "..."}
    {"op": "define_unit", "name": "...", "kind": "...",
     "dimension": "...", "scale": 1.0, "offset": 0.0}
    {"op": "query",  "domains": [...], "values": [...],
     "filters": [...], "tenant": "...", "timeout": 1.5}
    {"op": "explain","domains": [...], "values": [...],
     "filters": [...]}
    {"op": "aggregate", "domains": [...], "values": [...],
     "filters": [...], "group_by": [...], "value_field": "...",
     "how": "mean", "partial": false, "tenant": "...", "timeout": 1.5}
    {"op": "metric", "query": {...}, "tenant": "...", "timeout": 1.5}
    {"op": "subscribe", "domains": [...], "values": [...],
     "filters": [...], "tenant": "...", "group_by": [...],
     "value_field": "...", "how": "mean", "partial": false}
    {"op": "subscribe", "query": {...}, "tenant": "...",
     "partial": false}
    {"op": "updates", "sub_id": "...", "since_version": 3,
     "timeout": 1.5}
    {"op": "unsubscribe", "sub_id": "..."}
    {"op": "advance", "name": "...", "rows": [...]}

A value is a dimension name or a ``[dimension, units]`` pair; a
``query`` object is :meth:`Query.to_json_dict`. Keys a handler does
not read are ignored.

The ``hello`` handshake pins the protocol version: a client opening a
connection announces its :data:`PROTOCOL_VERSION`, and a server on a
different version answers with a typed ``ProtocolVersionError`` naming
both versions — so a mixed-version router/shard fleet fails with one
clear message instead of a mid-query decode error. ``register``/
``drop``/``define_*``/``sync`` are the replication surface the sharded
serve tier (:mod:`repro.serve.sharded`) drives its catalog fan-out
with; their responses echo the server session's ``catalog_version``
and ``state`` fingerprint so the replicator can verify convergence.

Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": "<type name>", "message": "..."}`` — the
error type name round-trips the server-side exception class so
clients can tell a shed (``ServiceOverloadError``) from a timeout
from a planning failure and react accordingly (back off, give up,
fix the query). A malformed line answers ``ProtocolError`` and the
connection lives on; a line longer than :data:`MAX_LINE_BYTES` answers
``ProtocolError`` and the server closes the connection.

Row values are text-encoded with the semantic codec
(:mod:`repro.wrappers.codec`) — the schema rides along, so a client
holding a compatible dictionary can decode typed values back.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.query import FilterTerm, Query, ValueTerm
from repro.core.semantics import Schema
from repro.errors import (
    ProtocolVersionError,
    ScrubJayError,
    ServiceError,
    UnsupportedOpError,
    WrapperError,
)
from repro.serve.service import AggregateSpec, QueryService
from repro.wrappers.codec import decoder, encoder

#: NDJSON protocol version. Bump on any incompatible change to the
#: request/response shapes; the ``hello`` handshake compares versions
#: exactly (no negotiation — the fleet is deployed as one unit). The
#: streaming ops (``subscribe``/``updates``/``unsubscribe``/
#: ``advance``) are *additive*, so they ride on v2: an older v2 server
#: answers them with a typed ``UnsupportedOpError`` naming the op and
#: its supported set, which clients surface as
#: :class:`~repro.errors.UnsupportedOpError` — graceful degradation
#: instead of a handshake break.
PROTOCOL_VERSION = 2

#: Longest request line a server reads, in bytes. The line-delimited
#: protocol has no length prefix, so without a bound one connection
#: could make the server buffer without limit. It is a constant, not a
#: knob: the largest legitimate lines are the fleet's own ``register``
#: requests (a whole dataset slice as codec text, ~100 B/row), and
#: this leaves room for millions of rows per slice.
MAX_LINE_BYTES = 256 * 1024 * 1024


# ----------------------------------------------------------------------
# row / group codec
# ----------------------------------------------------------------------


def encode_rows(
    rows: List[Dict[str, Any]], schema: Schema, dictionary
) -> List[Dict[str, str]]:
    """Text-encode typed row values for JSON transport."""
    encoders: Dict[str, Callable[[Any], str]] = {}
    out = []
    for row in rows:
        enc: Dict[str, str] = {}
        for field, value in row.items():
            try:
                encode = encoders[field]
            except KeyError:
                # bound once per column per reply; rows are sparse, so
                # a column is first met at whichever row carries it
                encode = encoders[field] = (
                    encoder(schema[field], dictionary)
                    if field in schema else str
                )
            enc[field] = encode(value)
        out.append(enc)
    return out


def decode_rows(
    rows: List[Dict[str, str]], schema: Schema, dictionary
) -> List[Dict[str, Any]]:
    """Invert :func:`encode_rows` given a compatible dictionary."""
    decoders: Dict[str, Optional[Callable[[str], Any]]] = {}
    out = []
    for row in rows:
        dec: Dict[str, Any] = {}
        for field, text in row.items():
            try:
                decode = decoders[field]
            except KeyError:
                decode = decoders[field] = (
                    decoder(schema[field], dictionary)
                    if field in schema else None
                )
            # only strings rode the codec; JSON-native values (a
            # client pushing plain ints/floats without a dictionary)
            # pass through untouched
            if decode is not None and isinstance(text, str):
                dec[field] = decode(text)
            else:
                dec[field] = text
        out.append(dec)
    return out


def encode_groups(
    groups: Dict[tuple, Any],
    group_by: Sequence[str],
    schema: Schema,
    dictionary,
) -> List[List[Any]]:
    """Wire form of a ``{group_tuple: value}`` aggregate: each entry is
    ``[[key parts (codec text)...], value]``. Key parts ride through
    the semantic codec (the group fields are result-schema fields);
    values must be JSON-native (numbers / ``[sum, count]`` partials)."""
    encoders = [
        encoder(schema[field], dictionary) if field in schema else str
        for field in group_by
    ]
    out: List[List[Any]] = []
    for key, value in groups.items():
        enc_key = [
            None if part is None else encode(part)
            for encode, part in zip(encoders, key)
        ]
        if isinstance(value, tuple):
            value = list(value)
        out.append([enc_key, value])
    return out


def decode_groups(
    groups: Sequence[Sequence[Any]],
    group_by: Sequence[str],
    schema: Schema,
    dictionary,
    partial_how: Optional[str] = None,
) -> Dict[tuple, Any]:
    """Invert :func:`encode_groups`. ``partial_how`` names the
    aggregator when the values are *unfinalized* partials (``mean``
    partials come back as 2-lists and must become tuples again)."""
    decoders = [
        decoder(schema[field], dictionary) if field in schema else None
        for field in group_by
    ]
    # mean partials are (sum, count); p50/p95 partials are the raw
    # sample tuples — both ride JSON as lists
    retuple = partial_how in ("mean", "p50", "p95")
    out: Dict[tuple, Any] = {}
    for enc_key, value in groups:
        key = tuple(
            part if part is None or decode is None else decode(part)
            for decode, part in zip(decoders, enc_key)
        )
        if retuple and isinstance(value, list):
            value = tuple(value)
        out[key] = value
    return out


# ----------------------------------------------------------------------
# shared dispatch (socket handler + in-process handle)
# ----------------------------------------------------------------------


def _sub_payload(service: QueryService, sub, upd) -> Dict[str, Any]:
    """Wire form of one :class:`~repro.serve.subscribe.
    SubscriptionUpdate` (rows/groups ride the semantic codec; an
    unchanged long-poll answer carries no data)."""
    body: Dict[str, Any] = {
        "sub_id": upd.sub_id,
        "version": upd.version,
        "watermarks": dict(upd.watermarks),
        "changed": bool(upd.changed),
        "refresh_mode": upd.refresh_mode,
        "schema": (
            sub.schema.to_json_dict() if sub.schema is not None else None
        ),
    }
    if not upd.changed:
        return body
    if upd.groups is not None:
        spec = sub.aggregate
        body["groups"] = encode_groups(
            upd.groups, list(spec.group_by), sub.schema,
            service.session.dictionary,
        )
        body["group_by"] = list(spec.group_by)
        body["how"] = spec.how
        body["partial"] = bool(spec.partial)
        body["group_count"] = len(upd.groups)
    elif upd.rows is not None:
        body["rows"] = encode_rows(
            upd.rows, sub.schema, service.session.dictionary
        )
        body["row_count"] = len(upd.rows)
    return body


def _state_stamp(service: QueryService) -> Dict[str, Any]:
    """The catalog consistency stamp replication and scatter-gather
    verify against."""
    return {
        "catalog_version": service.session.catalog_version,
        "state": service.session.state_fingerprint(),
    }


def _request_query(request: Dict[str, Any]) -> Query:
    """The question a ``query``/``explain``/``aggregate``/``subscribe``
    request asks. JSON arrays arrive as lists; ``Query.of`` unpacks a
    ``[dimension, units]`` list like the pair it was sent as."""
    return Query.of(
        request.get("domains") or [],
        request.get("values") or [],
        tuple(
            FilterTerm.from_json_dict(f)
            for f in request.get("filters") or ()
        ),
    )


# -- one handler per op: (service, request) -> the reply's fields ------

_Msg = Dict[str, Any]


def _op_hello(service: QueryService, request: _Msg) -> _Msg:
    remote = request.get("version")
    if remote != PROTOCOL_VERSION:
        raise ProtocolVersionError(
            f"client speaks wire protocol v{remote}, server "
            f"speaks v{PROTOCOL_VERSION}; upgrade the older "
            f"side of the connection",
            local=PROTOCOL_VERSION,
            remote=int(remote or 0),
        )
    return {"version": PROTOCOL_VERSION}


def _op_ping(service: QueryService, request: _Msg) -> _Msg:
    return {"pong": True}


def _op_metrics(service: QueryService, request: _Msg) -> _Msg:
    return {"metrics": service.snapshot().as_dict()}


def _op_sync(service: QueryService, request: _Msg) -> _Msg:
    return _state_stamp(service)


def _op_trace(service: QueryService, request: _Msg) -> _Msg:
    from repro.obs.export import to_chrome_trace

    tracer = getattr(service.session.ctx, "tracer", None)
    roots = tracer.roots() if tracer is not None else []
    return {"trace": to_chrome_trace(roots)}


def _op_register(service: QueryService, request: _Msg) -> _Msg:
    schema = Schema.from_json_dict(request["schema"])
    rows = decode_rows(
        request.get("rows") or [], schema, service.session.dictionary
    )
    name, feed = request["name"], bool(request.get("feed"))
    # A live dataset is backed by a push feed, so later `advance` ops
    # can grow it in place (the sharded router's feed fan-out path).
    service.register_rows(
        rows, schema, name, request.get("partitions"), feed=feed
    )
    if feed:
        return {
            "feed": True,
            "watermark": service.session.feed(name).watermark,
            **_state_stamp(service),
        }
    return _state_stamp(service)


def _op_drop(service: QueryService, request: _Msg) -> _Msg:
    service.drop(request["name"])
    return _state_stamp(service)


def _op_define_dimension(service: QueryService, request: _Msg) -> _Msg:
    service.define_dimension(
        request["name"],
        bool(request.get("continuous")),
        bool(request.get("ordered")),
        request.get("description", ""),
    )
    return _state_stamp(service)


def _op_define_unit(service: QueryService, request: _Msg) -> _Msg:
    service.define_unit(
        request["name"],
        request["kind"],
        request.get("dimension"),
        request.get("scale", 1.0),
        request.get("offset", 0.0),
    )
    return _state_stamp(service)


def _op_query(service: QueryService, request: _Msg) -> _Msg:
    # a router's entry is its shards' text, forwarded undecoded; a
    # local entry is encoded here, with no dataset or collect between
    entry = service.submit(
        _request_query(request),
        tenant=str(request.get("tenant", "default")),
        timeout=request.get("timeout"),
    ).entry()
    rows = entry.wire_rows(service.session.dictionary)
    return {
        "name": entry.name,
        "schema": entry.schema.to_json_dict(),
        "rows": rows,
        "row_count": len(rows),
        **_state_stamp(service),
    }


def _op_explain(service: QueryService, request: _Msg) -> _Msg:
    plan = service.session.plan(_request_query(request))
    return {
        "plan": plan.describe(),
        "operations": plan.operations(),
        "steps": plan.num_steps(),
    }


def _op_aggregate(service: QueryService, request: _Msg) -> _Msg:
    query = _request_query(request)
    # ``partial`` (part of the spec) is how a shard serves the router:
    # it answers with unfinalized mergeable partials
    spec = AggregateSpec.from_wire(request)
    if spec is None:
        raise ServiceError("aggregate needs group_by (and value_field)")
    ticket = service.submit(
        query,
        tenant=str(request.get("tenant", "default")),
        timeout=request.get("timeout"),
        aggregate=spec,
    )
    groups = ticket.result()
    schema = ticket.result_schema
    return {
        "schema": schema.to_json_dict(),
        "groups": encode_groups(
            groups, list(spec.group_by), schema,
            service.session.dictionary,
        ),
        "group_count": len(groups),
        "partial": spec.partial,
        **_state_stamp(service),
    }


def _op_metric(service: QueryService, request: _Msg) -> _Msg:
    from repro.metrics.compute import metric_group_fields

    q = Query.from_json_dict(request["query"])
    ticket = service.submit(
        q,
        tenant=str(request.get("tenant", "default")),
        timeout=request.get("timeout"),
    )
    ans = ticket.result()
    schema = ticket.result_schema
    gf, _ = metric_group_fields(schema, q)
    decision = ans.decision
    return {
        "schema": schema.to_json_dict(),
        "groups": encode_groups(
            ans.groups, gf, schema, service.session.dictionary
        ),
        "group_fields": list(gf),
        "group_dims": list(ans.group_dims),
        "measures": ans.measure_keys(),
        "group_count": len(ans.groups),
        "decision": (
            decision.as_dict() if decision is not None else None
        ),
        **_state_stamp(service),
    }


def _op_subscribe(service: QueryService, request: _Msg) -> _Msg:
    if request.get("query"):
        # full-Query form (metric subscriptions): the server
        # rebuilds the bucketed plan and derives the spec
        # from the measures; ``partial`` keeps its groups
        # mergeable
        query, spec = Query.from_json_dict(request["query"]), None
    else:
        query = _request_query(request)
        spec = AggregateSpec.from_wire(request)
    sub = service.subscribe(
        query,
        tenant=str(request.get("tenant", "default")),
        aggregate=spec,
        partial=bool(request.get("partial")),
    )
    return {
        **_sub_payload(service, sub, sub.current()),
        **_state_stamp(service),
    }


def _op_updates(service: QueryService, request: _Msg) -> _Msg:
    sub = service.subscription(request["sub_id"])
    upd = sub.updates(
        int(request.get("since_version", 0)),
        timeout=request.get("timeout"),
    )
    return {**_sub_payload(service, sub, upd), **_state_stamp(service)}


def _op_unsubscribe(service: QueryService, request: _Msg) -> _Msg:
    return {"removed": service.unsubscribe(request["sub_id"])}


def _op_advance(service: QueryService, request: _Msg) -> _Msg:
    name = request["name"]
    rows = request.get("rows")
    if rows is not None:
        rows = decode_rows(
            rows, service.session.dataset(name).schema,
            service.session.dictionary,
        )
    return {**service.advance(name, rows=rows), **_state_stamp(service)}


#: op name -> handler: the one list of what this server speaks. The
#: streaming ops and ``metric`` are additive on v2 (see
#: :data:`PROTOCOL_VERSION`).
_HANDLERS: Dict[str, Callable[[QueryService, _Msg], _Msg]] = {
    "hello": _op_hello,
    "ping": _op_ping,
    "metrics": _op_metrics,
    "sync": _op_sync,
    "trace": _op_trace,
    "register": _op_register,
    "drop": _op_drop,
    "define_dimension": _op_define_dimension,
    "define_unit": _op_define_unit,
    "query": _op_query,
    "explain": _op_explain,
    "aggregate": _op_aggregate,
    "metric": _op_metric,
    "subscribe": _op_subscribe,
    "updates": _op_updates,
    "unsubscribe": _op_unsubscribe,
    "advance": _op_advance,
}

#: every op this dispatcher understands (advertised in the typed
#: unknown-op error so a client can see what the server speaks)
SUPPORTED_OPS = tuple(_HANDLERS)


def dispatch(service: QueryService, request: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one wire request against a service; never raises — all
    failures become typed error responses. Request keys a handler does
    not read are ignored."""
    try:
        op = request.get("op")
        v = request.get("v")
        if v is not None and v != PROTOCOL_VERSION:
            raise ProtocolVersionError(
                f"request speaks wire protocol v{v}, server speaks "
                f"v{PROTOCOL_VERSION}; upgrade the older side",
                local=PROTOCOL_VERSION,
                remote=int(v),
            )
        handler = _HANDLERS.get(op) if isinstance(op, str) else None
        if handler is None:
            raise UnsupportedOpError(
                f"unknown op {op!r}; this server supports: "
                + ", ".join(SUPPORTED_OPS),
                op=op,
                supported=SUPPORTED_OPS,
            )
        return {"ok": True, **handler(service, request)}
    except (ScrubJayError, WrapperError) as exc:
        resp = {
            "ok": False,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        if isinstance(exc, ProtocolVersionError):
            resp["local"] = exc.local
            resp["remote"] = exc.remote
        elif isinstance(exc, UnsupportedOpError):
            resp["op"] = exc.op
            resp["supported"] = list(exc.supported)
        return resp
    except Exception as exc:  # malformed requests must not kill a conn
        return {
            "ok": False,
            "error": "InternalError",
            "message": f"{type(exc).__name__}: {exc}",
        }


class WireError(ServiceError):
    """Client-side surfacing of an ``ok: false`` response."""

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error
        self.remote_message = message


def _raise_on_error(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        err = str(response.get("error", "UnknownError"))
        msg = str(response.get("message", ""))
        if err == "UnsupportedOpError" or (
            # A pre-streaming v2 server answers unknown ops with a
            # generic ProtocolError; map it to the same typed error so
            # callers degrade gracefully against old fleets too.
            err == "ProtocolError" and msg.startswith("unknown op")
        ):
            raise UnsupportedOpError(
                msg,
                op=response.get("op"),
                supported=response.get("supported") or (),
            )
        raise WireError(err, msg)
    return response


def _question(
    domains: Sequence[str], values: Sequence[Any], filters: Sequence
) -> Dict[str, Any]:
    """The request fields that ask a question (the client half of
    :func:`_request_query`). A value is a dimension name, a
    ``(dimension, units)`` pair or a
    :class:`~repro.core.query.ValueTerm`, so a caller holding a
    :class:`Query` passes its parts straight through."""
    wire_values: List[Any] = []
    for v in values:
        if isinstance(v, ValueTerm):
            v = [v.dimension, v.units] if v.units else v.dimension
        wire_values.append(v)
    return {
        "domains": list(domains),
        "values": wire_values,
        "filters": [f.to_json_dict() for f in filters],
    }


def _stamp(resp: Dict[str, Any], **answer: Any) -> Dict[str, Any]:
    """``answer`` plus the consistency stamp its reply carried."""
    return {
        **answer,
        "catalog_version": resp["catalog_version"],
        "state": resp["state"],
    }


class StampedAnswer(tuple):
    """What ``query``/``aggregate`` return: the ``(rows | groups,
    schema)`` pair, carrying the reply's consistency :attr:`stamp` and
    dataset :attr:`name` for a router that must check every shard
    answered at the same epoch."""

    stamp: Dict[str, Any]
    name: Optional[str]

    def __new__(cls, resp: Dict[str, Any], data: Any, schema: Schema):
        self = super().__new__(cls, (data, schema))
        self.stamp = _stamp(resp)
        self.name = resp.get("name")
        return self


# ----------------------------------------------------------------------
# in-process handle
# ----------------------------------------------------------------------


class InProcessClient:
    """The wire protocol without the wire: same requests/responses,
    dispatched directly against a local service. Useful for embedding
    and for protocol tests that should not depend on sockets.

    One typed method per op; every transport (:class:`QueryClient`'s
    socket, a :class:`~repro.serve.sharded.ShardHandle`'s shard
    process) only supplies :meth:`request`. Replies that carry the
    server's consistency stamp hand it on (see :func:`_stamp`).
    """

    def __init__(self, service: QueryService) -> None:
        self.service = service

    def request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        return dispatch(self.service, req)

    def _ok(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """One round-trip whose reply must be ``ok``; anything else
        raises the typed error it names."""
        return _raise_on_error(self.request(req))

    def ping(self) -> bool:
        return bool(self._ok({"op": "ping"}).get("pong"))

    def hello(self) -> int:
        """Version handshake. Returns the server's protocol version;
        raises a typed :class:`ProtocolVersionError` on mismatch."""
        resp = self.request({"op": "hello", "version": PROTOCOL_VERSION})
        if not resp.get("ok"):
            if resp.get("error") == "ProtocolVersionError":
                raise ProtocolVersionError(
                    str(resp.get("message", "protocol version mismatch")),
                    local=PROTOCOL_VERSION,
                    remote=int(resp.get("local", 0)),
                )
            _raise_on_error(resp)
        return int(resp["version"])

    def metrics(self) -> Dict[str, Any]:
        return self._ok({"op": "metrics"})["metrics"]

    def sync(self) -> Dict[str, Any]:
        """The server session's current consistency stamp."""
        return _stamp(self._ok({"op": "sync"}))

    def trace(self) -> Dict[str, Any]:
        """The server's span tree as Chrome Trace Event Format JSON."""
        return self._ok({"op": "trace"})["trace"]

    def register_rows(
        self,
        rows: List[Dict[str, Any]],
        schema: Schema,
        name: str,
        dictionary,
        partitions: Optional[int] = None,
        feed: bool = False,
    ) -> Dict[str, Any]:
        """Register in-memory rows on the server (replication op).
        ``feed=True`` registers them as a *live* dataset backed by a
        push feed, so later :meth:`advance` calls can grow it.
        ``dictionary=None`` sends ``rows`` as they are — already codec
        text, encoded once by a caller registering them on many
        servers. Returns the server's post-mutation consistency stamp
        (plus the feed ``watermark``)."""
        if dictionary is not None:
            rows = encode_rows(rows, schema, dictionary)
        req: Dict[str, Any] = {
            "op": "register",
            "name": name,
            "schema": schema.to_json_dict(),
            "rows": rows,
            "partitions": partitions,
        }
        if feed:
            req["feed"] = True
        resp = self._ok(req)
        if "watermark" in resp:
            return _stamp(resp, watermark=resp["watermark"])
        return _stamp(resp)

    def drop(self, name: str) -> Dict[str, Any]:
        return _stamp(self._ok({"op": "drop", "name": name}))

    def define_dimension(
        self,
        name: str,
        continuous: bool,
        ordered: bool,
        description: str = "",
    ) -> Dict[str, Any]:
        return _stamp(self._ok({
            "op": "define_dimension",
            "name": name,
            "continuous": continuous,
            "ordered": ordered,
            "description": description,
        }))

    def define_unit(
        self,
        name: str,
        kind: str,
        dimension: Optional[str] = None,
        scale: float = 1.0,
        offset: float = 0.0,
    ) -> Dict[str, Any]:
        return _stamp(self._ok({
            "op": "define_unit",
            "name": name,
            "kind": kind,
            "dimension": dimension,
            "scale": scale,
            "offset": offset,
        }))

    def aggregate(
        self,
        domains: Sequence[str],
        values: Sequence[Any],
        group_by: Sequence[str],
        value_field: str,
        how: str = "mean",
        tenant: str = "default",
        timeout: Optional[float] = None,
        filters: Sequence = (),
        partial: bool = False,
        dictionary=None,
    ) -> Tuple[Dict[tuple, Any], Schema]:
        """Grouped aggregate over the wire. With a ``dictionary`` the
        group keys come back as typed tuples; without one they stay
        codec text (same contract as :meth:`query`)."""
        resp = self._ok({
            "op": "aggregate",
            **_question(domains, values, filters),
            **AggregateSpec(
                tuple(group_by), value_field, how, partial
            ).to_wire(),
            "tenant": tenant,
            "timeout": timeout,
        })
        schema = Schema.from_json_dict(resp["schema"])
        groups: Any = resp["groups"]
        if dictionary is not None:
            groups = decode_groups(
                groups, list(group_by), schema, dictionary,
                partial_how=how if partial else None,
            )
        return StampedAnswer(resp, groups, schema)

    def metric(
        self,
        query,
        tenant: str = "default",
        timeout: Optional[float] = None,
        dictionary=None,
    ):
        """Measure query over the wire (additive v2 op — an old
        server answers :class:`~repro.errors.UnsupportedOpError`).

        ``query`` is a metric :class:`Query` (or an unbuilt builder).
        Returns a :class:`~repro.metrics.MetricAnswer`; with a
        ``dictionary`` the group-key parts come back typed, without
        one they stay codec text. The routing decision rides along as
        a plain dict on ``answer.decision``.
        """
        if not isinstance(query, Query):
            query = query.build()
        resp = self._ok({
            "op": "metric",
            "query": query.to_json_dict(),
            "tenant": tenant,
            "timeout": timeout,
        })
        from repro.metrics.compute import MetricAnswer

        schema = Schema.from_json_dict(resp["schema"])
        gf = list(resp.get("group_fields") or [])
        if dictionary is not None:
            groups = decode_groups(
                resp["groups"], gf, schema, dictionary
            )
        else:
            groups = {
                tuple(key): value for key, value in resp["groups"]
            }
        return MetricAnswer(
            query, groups, resp.get("decision"),
            tuple(resp.get("group_dims") or ()),
        )

    def explain(
        self,
        domains: Sequence[str],
        values: Sequence[Any],
        filters: Sequence = (),
    ) -> Dict[str, Any]:
        return self._ok({
            "op": "explain", **_question(domains, values, filters),
        })

    def query(
        self,
        domains: Sequence[str],
        values: Sequence[Any],
        tenant: str = "default",
        timeout: Optional[float] = None,
        dictionary=None,
        filters: Sequence = (),
    ) -> Tuple[List[Dict[str, Any]], Schema]:
        resp = self._ok({
            "op": "query",
            **_question(domains, values, filters),
            "tenant": tenant,
            "timeout": timeout,
        })
        schema = Schema.from_json_dict(resp["schema"])
        rows = resp["rows"]
        if dictionary is not None:
            rows = decode_rows(rows, schema, dictionary)
        return StampedAnswer(resp, rows, schema)

    # -- streaming ops (additive on v2; an old server answers these
    # -- with UnsupportedOpError) --------------------------------------

    def _decode_sub(
        self, resp: Dict[str, Any], dictionary
    ) -> Dict[str, Any]:
        out = {
            "sub_id": resp["sub_id"],
            "version": resp["version"],
            "watermarks": dict(resp.get("watermarks") or {}),
            "changed": bool(resp.get("changed")),
            "refresh_mode": resp.get("refresh_mode"),
            "schema": None,
            "rows": None,
            "groups": None,
        }
        schema = None
        if resp.get("schema") is not None:
            schema = Schema.from_json_dict(resp["schema"])
            out["schema"] = schema
        if resp.get("groups") is not None:
            groups: Any = resp["groups"]
            if dictionary is not None and schema is not None:
                groups = decode_groups(
                    groups, list(resp.get("group_by") or []),
                    schema, dictionary,
                    partial_how=(
                        resp.get("how") if resp.get("partial") else None
                    ),
                )
            out["groups"] = groups
        elif resp.get("rows") is not None:
            rows: Any = resp["rows"]
            if dictionary is not None and schema is not None:
                rows = decode_rows(rows, schema, dictionary)
            out["rows"] = rows
        return out

    def subscribe(
        self,
        domains: Sequence[str] = (),
        values: Sequence[Any] = (),
        tenant: str = "default",
        filters: Sequence = (),
        group_by: Optional[Sequence[str]] = None,
        value_field: Optional[str] = None,
        how: str = "mean",
        partial: bool = False,
        dictionary=None,
        query: Optional[Query] = None,
    ) -> Dict[str, Any]:
        """Install a standing query; returns its initial answer plus
        the ``sub_id`` to poll :meth:`updates` with. Pass a metric
        ``query`` to subscribe to a measure — the server derives the
        grouping from the measures and buckets by the grain. Any other
        ``query`` stands for its domains, values and filters."""
        if query is not None and not query.is_metric:
            domains, values, filters = (
                query.domains, query.values, query.filters
            )
            query = None
        if query is not None:
            req: Dict[str, Any] = {
                "op": "subscribe",
                "query": query.to_json_dict(),
                "tenant": tenant,
                "partial": partial,
            }
        else:
            req = {
                "op": "subscribe",
                **_question(domains, values, filters),
                "tenant": tenant,
            }
            if group_by:
                req.update(AggregateSpec(
                    tuple(group_by), str(value_field), how, partial
                ).to_wire())
        resp = self._ok(req)
        return self._decode_sub(resp, dictionary)

    def updates(
        self,
        sub_id: str,
        since_version: int = 0,
        timeout: Optional[float] = None,
        dictionary=None,
    ) -> Dict[str, Any]:
        """The subscription's answer if it changed past
        ``since_version`` (``changed: False`` otherwise); ``timeout``
        long-polls server-side for the change."""
        resp = self._ok({
            "op": "updates",
            "sub_id": sub_id,
            "since_version": since_version,
            "timeout": timeout,
        })
        return self._decode_sub(resp, dictionary)

    def unsubscribe(self, sub_id: str) -> bool:
        resp = self._ok({
            "op": "unsubscribe", "sub_id": sub_id,
        })
        return bool(resp.get("removed"))

    def advance(
        self,
        name: str,
        rows: Optional[List[Dict[str, Any]]] = None,
        schema: Optional[Schema] = None,
        dictionary=None,
    ) -> Dict[str, Any]:
        """Advance feed ``name`` on the server (pushing ``rows``
        first when given; they ride the codec, so pass the feed's
        ``schema`` and a compatible ``dictionary``)."""
        req: Dict[str, Any] = {"op": "advance", "name": name}
        if rows is not None:
            if schema is not None and dictionary is not None:
                rows = encode_rows(rows, schema, dictionary)
            req["rows"] = rows
        resp = self._ok(req)
        return {
            "name": resp["name"],
            "since": resp["since"],
            "watermark": resp["watermark"],
            "rows_added": resp["rows_added"],
            "evicted": resp["evicted"],
            "subscriptions_refreshed": resp["subscriptions_refreshed"],
        }

    def close(self) -> None:  # symmetry with QueryClient
        pass

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# socket server
# ----------------------------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # one connection, many requests
        service = self.server.service  # type: ignore[attr-defined]
        while True:
            raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not raw:
                return
            if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
                # Discard the rest of the line a chunk at a time, so
                # the sender has finished writing and reads the reply
                # instead of a reset; then drop the connection.
                while raw and not raw.endswith(b"\n"):
                    raw = self.rfile.readline(1 << 16)
                self._reply({
                    "ok": False,
                    "error": "ProtocolError",
                    "message": (
                        "request line exceeds "
                        f"{MAX_LINE_BYTES} bytes; closing connection"
                    ),
                })
                return
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                response = {
                    "ok": False,
                    "error": "ProtocolError",
                    "message": f"malformed request line: {exc}",
                }
            else:
                response = dispatch(service, request)
            if not self._reply(response):
                return

    def _reply(self, response: Dict[str, Any]) -> bool:
        """Write one response line; False once the peer is gone."""
        try:
            self.wfile.write(
                (json.dumps(response) + "\n").encode("utf-8")
            )
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return False
        return True


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class QueryServer:
    """Line-delimited-JSON TCP front-end for a :class:`QueryService`.

    Binds immediately (``port=0`` picks a free port — read
    :attr:`address`); ``start()`` serves on a background thread.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._server = _TCPServer((host, port), _Handler)
        self._server.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address  # type: ignore[return-value]

    def start(self) -> "QueryServer":
        if self._thread is None:
            # close() waits out one poll: 0.05 s, not the default 0.5
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="sj-serve-wire",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()


class QueryClient(InProcessClient):
    """Socket client speaking the NDJSON protocol.

    Inherits the convenience surface (``query``/``explain``/
    ``metrics``/``ping``) from :class:`InProcessClient`; only
    :meth:`request` differs — it crosses the wire.

    Opening a connection performs the ``hello`` handshake and raises
    :class:`~repro.errors.ProtocolVersionError` against a server on a
    different protocol version (``handshake=False`` skips it, for
    protocol tests that need to speak raw).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        handshake: bool = True,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._lock = threading.Lock()  # one request/response at a time
        if handshake:
            try:
                self.hello()
            except BaseException:
                self.close()
                raise

    def request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        payload = (json.dumps(req) + "\n").encode("utf-8")
        with self._lock:
            self._sock.sendall(payload)
            line = self._rfile.readline()
        if not line:
            raise WireError("ConnectionClosed", "server closed the stream")
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()
