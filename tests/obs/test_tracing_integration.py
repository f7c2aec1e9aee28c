"""End-to-end tracing: span-tree shape across executors, EXPLAIN
ANALYZE row counts, and no-op-tracer result equivalence."""

from __future__ import annotations

import pytest

from repro import Query, ScrubJaySession, Tracer, TuningProfile
from tests.conftest import (
    JOBS_SCHEMA,
    LAYOUT_SCHEMA,
    TEMPS_SCHEMA,
    jobs_rows,
    layout_rows,
    temps_rows,
)

HEAT_QUERY = Query.of(["racks"], ["heat"])


def _traced_session(executor: str) -> ScrubJaySession:
    sj = ScrubJaySession(
        TuningProfile(executor_kind=executor, num_workers=2),
        tracer=Tracer(),
    )
    sj.register_rows(jobs_rows(), JOBS_SCHEMA, "job_queue_log",
                     num_partitions=2)
    sj.register_rows(layout_rows(), LAYOUT_SCHEMA, "node_layout",
                     num_partitions=2)
    sj.register_rows(temps_rows(), TEMPS_SCHEMA, "rack_temperatures",
                     num_partitions=2)
    return sj


def _shape(root, kinds=("query", "solve", "plan-node", "stage")):
    return [
        (s.kind, s.name) for s in root.walk() if s.kind in kinds
    ]


@pytest.mark.parametrize("executor", ["serial", "simulated"])
def test_trace_tree_shape_is_executor_independent(executor):
    with _traced_session("serial") as ref, _traced_session(executor) as sj:
        ref.explain(HEAT_QUERY, analyze=True)
        sj.explain(HEAT_QUERY, analyze=True)
        ref_root = ref.ctx.tracer.last_root()
        root = sj.ctx.tracer.last_root()

        assert root.name == "explain-analyze"
        assert _shape(root) == _shape(ref_root)

        # every stage carries task spans. The per-stage tasks agree
        # with the serial reference up to the first shuffle-reduce;
        # from there on a stage runs on the reduce's buckets, which
        # are the executor's: one on the serial executor,
        # default_parallelism on the simulated cluster
        def stage_tasks(r):
            return [
                (s.name, sorted(c.name for c in s.children
                                if c.kind == "task"))
                for s in r.walk() if s.kind == "stage"
            ]

        def bucket_counts(stages):
            return {len(tasks) for name, tasks in stages
                    if name != "shuffle-exchange"}

        got, want = stage_tasks(root), stage_tasks(ref_root)
        cut = [name for name, _ in got].index("stage:shuffle-reduce")
        assert got[:cut] == want[:cut]
        buckets = 1 if executor == "serial" else sj.ctx.default_parallelism
        assert bucket_counts(got[cut:]) == {buckets}
        assert bucket_counts(want[cut:]) == {1}

        tasks = [s for s in root.walk() if s.kind == "task"]
        assert tasks
        for t in tasks:
            assert "rows_out" in t.counters
            assert "worker" not in t.attrs


def test_explain_analyze_row_counts_match_execution():
    with _traced_session("serial") as sj:
        text = sj.explain(HEAT_QUERY, analyze=True)
        root = sj.ctx.tracer.last_root()
        executed = len(sj.ask(HEAT_QUERY).collect())

        # the top-level plan node is the final step of the plan: its
        # measured output is exactly what execution returns
        top = [c for c in root.children if c.kind == "plan-node"]
        assert len(top) == 1
        assert top[0].counters["rows_out"] == executed
        # and every plan node measured an output row count
        for node in root.walk():
            if node.kind == "plan-node":
                assert "rows_out" in node.counters
        assert f"rows={executed}" in text
        assert text.startswith("EXPLAIN ANALYZE")
        assert "solve:" in text


def test_explain_analyze_restores_tracer_state():
    with _traced_session("serial") as sj:
        sj.ctx.tracer.enabled = False
        sj.explain(HEAT_QUERY, analyze=True)
        assert sj.ctx.tracer.enabled is False
        # the analyze run itself was traced
        assert sj.ctx.tracer.last_root().name == "explain-analyze"


def test_noop_tracer_results_identical():
    with _traced_session("serial") as traced, ScrubJaySession() as plain:
        plain.register_rows(jobs_rows(), JOBS_SCHEMA, "job_queue_log",
                            num_partitions=2)
        plain.register_rows(layout_rows(), LAYOUT_SCHEMA, "node_layout",
                            num_partitions=2)
        plain.register_rows(temps_rows(), TEMPS_SCHEMA,
                            "rack_temperatures", num_partitions=2)
        a = traced.ask(HEAT_QUERY)
        b = plain.ask(HEAT_QUERY)
        assert sorted(map(repr, a.collect())) == sorted(
            map(repr, b.collect())
        )
        assert a.plan.operations() == b.plan.operations()
        # default sessions trace nothing and return trace-less answers
        assert b.trace is None
        assert plain.ctx.tracer.roots() == []
        assert a.trace is not None


def test_ask_trace_covers_solve_and_execute():
    with _traced_session("serial") as sj:
        answer = sj.ask(HEAT_QUERY)
        root = answer.trace
        assert root.name == "query"
        assert root.find("solve") is not None
        plan_nodes = [s for s in root.walk() if s.kind == "plan-node"]
        assert plan_nodes
        # execute() (the two-step spelling) wraps the run in its own span
        replay = sj.execute(answer.plan)
        assert replay.trace.name == "execute"


def test_solve_counters_published():
    # the two-source query forces the engine through subset
    # combination, so every search counter moves
    q = Query.of(["jobs", "racks"], ["applications", "heat"])
    with _traced_session("serial") as sj:
        sj.plan(q)
        m = sj.ctx.metrics
        assert m.counter("engine.solves") == 1
        assert m.counter("engine.solve.candidates_explored") > 0
        assert m.counter("engine.solve.subsets_examined") > 0
        assert sj.engine.last_solve_stats["candidates_explored"] > 0
        assert m.gauge("engine.solve.max_subset_size") >= 1
