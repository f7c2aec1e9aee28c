"""Filtered queries through the serve layer: submission, wire
transport, and filter-aware cache keys."""

from __future__ import annotations

import pytest

from repro.core.query import FilterTerm, Query
from repro.serve import InProcessClient, QueryClient, QueryServer, QueryService
from repro.core.plan_memo import normalize_query, plan_key

from tests.serve.conftest import (
    HOT_DOMAINS,
    HOT_VALUES,
    row_multiset,
)


@pytest.fixture()
def service(serve_session):
    svc = QueryService(serve_session, num_workers=2, max_queue=16)
    yield svc
    svc.close()


def node_filter(node=3):
    return FilterTerm("compute nodes", "eq", node)


def test_filtered_query_returns_filtered_rows(service, serve_session):
    everything = serve_session.ask(HOT_DOMAINS, HOT_VALUES).collect()
    filtered = service.query(
        HOT_DOMAINS, HOT_VALUES, filters=[node_filter()]
    ).collect()
    manual = [r for r in everything if r["node"] == 3]
    assert row_multiset(filtered) == row_multiset(manual)
    assert 0 < len(filtered) < len(everything)


def test_filtered_and_unfiltered_results_are_distinct_entries(service):
    full = service.query(HOT_DOMAINS, HOT_VALUES).collect()
    part = service.query(
        HOT_DOMAINS, HOT_VALUES, filters=[node_filter()]
    ).collect()
    # a filter-blind result cache would hand the full rows back
    assert len(part) < len(full)


def test_filters_travel_the_wire(service, serve_session):
    with QueryServer(service) as server:
        host, port = server.address
        with QueryClient(host, port) as remote:
            local = InProcessClient(service)
            r_rows, _ = remote.query(
                HOT_DOMAINS, HOT_VALUES,
                dictionary=serve_session.dictionary,
                filters=[node_filter()],
            )
            l_rows, _ = local.query(
                HOT_DOMAINS, HOT_VALUES,
                dictionary=serve_session.dictionary,
                filters=[node_filter()],
            )
    assert row_multiset(r_rows) == row_multiset(l_rows)
    assert all(r["node"] == 3 for r in r_rows)
    assert r_rows


def test_explain_accepts_filters(service):
    local = InProcessClient(service)
    reply = local.explain(HOT_DOMAINS, HOT_VALUES, filters=[node_filter()])
    plan_text = reply["plan"]
    assert "Scan" in plan_text or "filter" in plan_text.lower()


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------

def test_plan_key_distinguishes_filters():
    bare = Query.of(HOT_DOMAINS, HOT_VALUES)
    filtered = Query.of(HOT_DOMAINS, HOT_VALUES, [node_filter()])
    other = Query.of(HOT_DOMAINS, HOT_VALUES, [node_filter(4)])
    assert plan_key("s", filtered) != plan_key("s", bare)
    assert plan_key("s", filtered) != plan_key("s", other)


def test_plan_key_canonicalizes_filter_order():
    f1 = FilterTerm("compute nodes", "eq", 3)
    f2 = FilterTerm("temperature", "range", None, 10.0, 20.0)
    a = Query.of(HOT_DOMAINS, HOT_VALUES, [f1, f2])
    b = Query.of(HOT_DOMAINS, HOT_VALUES, [f2, f1])
    assert plan_key("s", a) == plan_key("s", b)


def test_unfiltered_key_unchanged_by_the_filters_field():
    # empty filters serialize to the historical JSON form, so keys for
    # pre-filter clients stay stable across the API addition
    q = normalize_query(Query.of(HOT_DOMAINS, HOT_VALUES))
    assert "filters" not in q.to_json_dict()
