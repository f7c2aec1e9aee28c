"""One plan execution per result-cache miss, on every serve entry
point: a miss costs exactly what one
``session.execute(plan).dataset.collect()`` costs, a hit costs nothing.

In one process the cost is rows read from source-backed datasets (the
``scan.rows_read`` counter) — a second run of the lineage re-reads the
source even where it pipelines into a stage that runs anyway. A
router's shards hold plain rows in other processes, so there the cost
is stages, counted on ``Scheduler._submit`` (the call that increments
``rdd.stages``) in fork-shared memory.
"""

from __future__ import annotations

import itertools
import multiprocessing

import pytest

from repro import ScrubJaySession
from repro.core.query import FilterTerm, Query
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.rdd.plan import Scheduler
from repro.serve import InProcessClient, QueryService, ShardRouter

from tests.metrics.conftest import RACK_POWER_SCHEMA, power_rows
from tests.serve.conftest import (
    HOT_DOMAINS,
    HOT_VALUES,
    JOIN_DOMAINS,
    JOIN_VALUES,
    make_session,
)

EQ = (FilterTerm("compute nodes", "eq", value=3),)
AGG = dict(group_by=["node"], value_field="metric_b", how="mean")


def rows_read(sj, fn) -> int:
    """Rows ``fn`` made ``sj``'s sources hand out."""
    def total() -> int:
        counters = sj.ctx.metrics.snapshot()["counters"]
        return sum(
            n for key, n in counters.items()
            if key.startswith("scan.rows_read")
        )

    before = total()
    fn()
    return total() - before


def plain(sj, query: Query) -> int:
    """What one plain execution of ``query``'s plan reads."""
    cost = rows_read(
        sj, lambda: sj.execute(sj.plan(query)).dataset.collect()
    )
    assert cost > 0, "a plan that reads nothing proves nothing here"
    return cost


@pytest.fixture()
def sourced():
    """The serve fixtures' catalog, behind counting sources."""
    sj = ScrubJaySession()
    left, right = keyed_tables(200, num_keys=16)
    sj.ingest().rows(left, KEYED_LEFT_SCHEMA).register("samples")
    sj.ingest().rows(right, KEYED_RIGHT_SCHEMA).register("lookup")
    with QueryService(sj, num_workers=1) as svc:
        yield sj, svc
    sj.close()


@pytest.mark.parametrize("domains,values", [
    (HOT_DOMAINS, HOT_VALUES), (JOIN_DOMAINS, JOIN_VALUES),
])
def test_query_miss_runs_the_plan_once(sourced, domains, values):
    sj, svc = sourced
    once = plain(sj, Query.of(domains, values, EQ))

    def ask():
        return svc.query(domains, values, filters=EQ).collect()

    assert rows_read(sj, ask) == once
    assert rows_read(sj, ask) == 0


def test_aggregate_miss_runs_the_plan_once(sourced):
    sj, svc = sourced
    once = plain(sj, Query.of(JOIN_DOMAINS, JOIN_VALUES))

    def ask():
        return svc.aggregate(JOIN_DOMAINS, JOIN_VALUES, **AGG)

    assert rows_read(sj, ask) == once
    assert rows_read(sj, ask) == 0


def test_metric_miss_runs_the_plan_once():
    sj = ScrubJaySession()
    sj.ingest().rows(power_rows(), RACK_POWER_SCHEMA).register(
        "rack_power"
    )
    query = (sj.query().measure("power", "mean").measure("power", "max")
             .per("racks").build())
    with QueryService(sj, num_workers=1) as svc:
        once = plain(sj, query.base())
        assert rows_read(sj, lambda: svc.query(query)) == once
        assert rows_read(sj, lambda: svc.query(query)) == 0
        svc.invalidate()
        wire = InProcessClient(svc)
        assert rows_read(sj, lambda: wire.metric(query)) == once
        assert rows_read(sj, lambda: wire.metric(query)) == 0
    sj.close()


def test_wire_ops_run_the_plan_once(sourced):
    sj, svc = sourced
    wire = InProcessClient(svc)
    once = plain(sj, Query.of(JOIN_DOMAINS, JOIN_VALUES, EQ))

    def query():
        return wire.query(JOIN_DOMAINS, JOIN_VALUES, filters=EQ)

    assert rows_read(sj, query) == once
    assert rows_read(sj, query) == 0
    svc.invalidate()

    def aggregate():
        return wire.aggregate(
            JOIN_DOMAINS, JOIN_VALUES, filters=EQ, **AGG
        )

    assert rows_read(sj, aggregate) == once
    assert rows_read(sj, aggregate) == 0


def test_unpublished_result_still_runs_the_plan_once(sourced, monkeypatch):
    """The catalog moves between keying and execution: the rows are
    handed back but not cached, and were still computed once."""
    sj, svc = sourced
    once = plain(sj, Query.of(JOIN_DOMAINS, JOIN_VALUES, EQ))
    execute = svc._execute_plan
    churn = itertools.count()

    def churning(plan, ticket, state, version):
        result = execute(plan, ticket, state, version)
        sj.define_dimension(f"churn {next(churn)}", False, False)
        return result

    monkeypatch.setattr(svc, "_execute_plan", churning)
    answers = []

    def ask():
        answers.append(
            svc.query(JOIN_DOMAINS, JOIN_VALUES, filters=EQ).collect()
        )

    assert rows_read(sj, ask) == once
    assert answers[0] and len(svc.result_cache) == 0
    assert rows_read(sj, ask) == once  # never published: a miss again
    assert answers[1] == answers[0] and len(svc.result_cache) == 0


# ----------------------------------------------------------------------
# 2-shard router: stages, fleet-wide
# ----------------------------------------------------------------------

#: reads only ``samples``, the dataset the router test shards; HALF
#: filters off the shard key, so both shards must answer
SHARDED = (["compute nodes", "jobs"], ["power"])
HALF = (FilterTerm("power", "range", None, 0.0, 50.0),)


@pytest.fixture()
def stages(monkeypatch):
    """``stages(fn)``: how many stages this process and every process
    forked from here on submitted while ``fn`` ran."""
    counter = multiprocessing.get_context("fork").Value("i", 0)
    submit = Scheduler._submit

    def counted(self, fn, parts, origin):
        with counter.get_lock():
            counter.value += 1
        return submit(self, fn, parts, origin)

    monkeypatch.setattr(Scheduler, "_submit", counted)

    def spent(fn) -> int:
        before = counter.value
        fn()
        return counter.value - before

    return spent


def test_router_miss_runs_the_plan_once_per_target_shard(stages):
    reference = make_session()

    def one(filters) -> int:
        plan = reference.plan(Query.of(*SHARDED, filters))
        return stages(lambda: reference.execute(plan).dataset.collect())

    once = one(HALF)
    assert once == one(EQ) and once > 0
    reference.close()
    sj = make_session()
    router = ShardRouter(
        sj, shards=2, shard_on={"samples": ["node"]}, num_workers=1
    )
    try:
        def query():
            return router.query(*SHARDED, filters=HALF).collect()

        assert stages(query) == 2 * once
        assert stages(query) == 0

        def pruned():
            return router.query(*SHARDED, filters=EQ).collect()

        assert stages(pruned) == once  # eq on the shard key: one shard
        assert stages(pruned) == 0
    finally:
        router.close()
        sj.close()
