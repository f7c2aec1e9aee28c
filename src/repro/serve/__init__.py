"""repro.serve — a concurrent, cached, multi-tenant query service.

Turns a single-caller :class:`~repro.session.ScrubJaySession` into a
server: many clients multiplex over one shared catalog, dictionary,
engine, and executor, with repeated logical queries answered from
semantic plan/result caches instead of re-running the §5.2 search and
the data-parallel execution.

Layers (see DESIGN.md "The serve subsystem")::

    admission → per-tenant FIFO → plan cache → engine
                                → result cache → executor

Quick start::

    from repro import ScrubJaySession

    sj = ScrubJaySession()
    sj.register_rows(rows, schema, name="temps")
    with sj.serve(num_workers=4, max_queue=32) as svc:
        ticket = svc.submit(domains=["time"], values=["temperature"],
                            tenant="alice")
        result = ticket.result()
        print(svc.snapshot().summary())

or over a socket (stdlib line-delimited JSON)::

    from repro.serve import QueryServer, QueryClient

    with QueryServer(svc) as server:
        host, port = server.address
        with QueryClient(host, port) as client:
            rows, schema = client.query(["time"], ["temperature"])
"""

# Deprecated aliases: the service error family is defined in (and best
# imported from) repro.errors, the one import surface for the whole
# stack's typed errors; these names stay importable from here for code
# that learned them as serve-level concepts.
from repro.errors import (
    ProtocolVersionError,
    QueryCancelledError,
    QueryTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    ShardError,
    ShardRoutingError,
    ShardStaleReadError,
    ShardStateError,
    StaleRefreshError,
    SubscriptionError,
    UnsupportedOpError,
)
from repro.serve.keys import normalize_query, plan_key, result_key
from repro.serve.metrics import ServiceMetrics, ServiceSnapshot
from repro.serve.plan_cache import PlanCache
from repro.serve.result_cache import ResultCache, ResultEntry
from repro.serve.service import AggregateSpec, QueryService, QueryTicket
from repro.serve.subscribe import Subscription, SubscriptionUpdate
from repro.serve.sharded import (
    ShardConfig,
    ShardHandle,
    ShardPlacement,
    ShardRouter,
)
from repro.serve.wire import (
    PROTOCOL_VERSION,
    InProcessClient,
    QueryClient,
    QueryServer,
    WireError,
    decode_groups,
    decode_rows,
    encode_groups,
    encode_rows,
)

__all__ = [
    "normalize_query",
    "plan_key",
    "result_key",
    "PlanCache",
    "ResultCache",
    "ResultEntry",
    "ServiceMetrics",
    "ServiceSnapshot",
    "AggregateSpec",
    "QueryService",
    "QueryTicket",
    "Subscription",
    "SubscriptionUpdate",
    "QueryServer",
    "QueryClient",
    "InProcessClient",
    "WireError",
    "PROTOCOL_VERSION",
    "encode_rows",
    "decode_rows",
    "encode_groups",
    "decode_groups",
    "ShardConfig",
    "ShardHandle",
    "ShardPlacement",
    "ShardRouter",
    # deprecated aliases of the repro.errors classes
    "ServiceError",
    "ServiceOverloadError",
    "QueryTimeoutError",
    "QueryCancelledError",
    "ServiceClosedError",
    "ProtocolVersionError",
    "ShardError",
    "ShardStaleReadError",
    "ShardStateError",
    "ShardRoutingError",
    "SubscriptionError",
    "StaleRefreshError",
    "UnsupportedOpError",
]
