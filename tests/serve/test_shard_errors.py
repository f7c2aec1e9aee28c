"""Which typed error each router path raises when a shard answers
``ok: false`` (or at the wrong stamp).

A shard is damaged behind the router's back through its raw wire
connection, so the router's own session still plans and mutates
happily and only the shard's reply is bad:

- replication (``drop``/``register``/``define_*``/``sync``/the feed
  fan-out of ``advance``) -> :class:`ShardStateError`
- scatter (``query``/``aggregate``) -> :class:`WireError` carrying the
  remote class name, its message prefixed ``shard N:``
- an ok reply at another stamp than the fleet's ->
  :class:`ShardStaleReadError`
"""

from __future__ import annotations

import pytest

from repro.datagen.synthetic import KEYED_LEFT_SCHEMA, keyed_tables
from repro.serve import ShardRouter, ShardStaleReadError, ShardStateError
from repro.serve.wire import WireError, encode_rows

from tests.serve.conftest import JOIN_DOMAINS, JOIN_VALUES
from tests.serve.test_sharded_stream import (
    delta_rows,
    make_feed_session,
)


@pytest.fixture()
def fleet():
    """2-shard router over a live ``samples`` feed and a replicated
    ``lookup`` table."""
    sj = make_feed_session()
    router = ShardRouter(
        sj, shards=2, shard_on={"samples": ["node"]}, num_workers=1
    )
    yield router
    router.close()
    sj.close()


def _raw(fleet, shard, request):
    resp = fleet._fleet[shard][0].request(request)
    assert resp["ok"], resp
    return resp


def test_replication_failure_is_shard_state_error(fleet):
    _raw(fleet, 0, {"op": "drop", "name": "lookup"})
    with pytest.raises(ShardStateError) as err:
        fleet.drop("lookup")
    assert "shard0" in str(err.value)
    assert "no dataset named 'lookup'" in str(err.value)


def test_feed_fanout_failure_is_shard_state_error(fleet):
    _raw(fleet, 1, {"op": "drop", "name": "samples"})
    with pytest.raises(ShardStateError) as err:
        fleet.advance("samples", rows=delta_rows(0, 8))
    assert "shard1" in str(err.value)


@pytest.mark.parametrize("how", ["query", "aggregate"])
def test_scatter_failure_is_prefixed_wire_error(fleet, how):
    _raw(fleet, 0, {"op": "drop", "name": "lookup"})
    with pytest.raises(WireError) as err:
        if how == "query":
            fleet.query(JOIN_DOMAINS, JOIN_VALUES)
        else:
            fleet.aggregate(
                JOIN_DOMAINS, JOIN_VALUES, group_by=["node"],
                value_field="metric_b", how="mean",
            )
    # the shard's exception class rides along; the message says which
    # shard it was
    assert err.value.error not in ("", "UnknownError", "InternalError")
    assert err.value.remote_message.startswith("shard 0: ")


def test_stamp_mismatch_is_stale_read(fleet):
    rogue, _ = keyed_tables(8, num_keys=2)
    _raw(fleet, 0, {
        "op": "register",
        "name": "rogue",
        "schema": KEYED_LEFT_SCHEMA.to_json_dict(),
        "rows": encode_rows(
            rogue, KEYED_LEFT_SCHEMA, fleet.session.dictionary
        ),
    })
    with pytest.raises(ShardStaleReadError) as err:
        fleet.query(JOIN_DOMAINS, JOIN_VALUES)
    assert err.value.shard == 0
