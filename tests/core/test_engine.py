"""The derivation engine: Algorithm 1 behaviour on the paper's queries."""

import pytest

from repro.core.dictionary import default_dictionary
from repro.core.engine import DerivationEngine, EngineConfig
from repro.core.query import Query
from repro.core.semantics import Schema, domain, value
from repro.errors import NoSolutionError, QueryError

import repro.core.domain_derivations  # noqa: F401 (registers experts)
import repro.core.transformations  # noqa: F401
import repro.core.combinations  # noqa: F401


@pytest.fixture()
def d():
    dd = default_dictionary()
    for dim in ("aperf events", "mperf events", "instructions",
                "memory reads", "memory writes"):
        dd.define_dimension(dim, continuous=False, ordered=True)
    return dd


@pytest.fixture()
def engine(d):
    return DerivationEngine(d)


FIG5_CATALOG = {
    "job_queue_log": Schema({
        "job_id": domain("jobs", "identifier"),
        "job_name": value("applications", "label"),
        "nodelist": domain("compute nodes", "list<identifier>"),
        "elapsed": value("time", "seconds"),
        "timespan": domain("time", "timespan"),
    }),
    "node_layout": Schema({
        "node": domain("compute nodes", "identifier"),
        "rack": domain("racks", "identifier"),
    }),
    "rack_temperatures": Schema({
        "rack": domain("racks", "identifier"),
        "location": domain("rack locations", "label"),
        "aisle": domain("aisles", "label"),
        "time": domain("time", "datetime"),
        "temp": value("temperature", "degrees Celsius"),
    }),
}

FIG7_CATALOG = {
    "papi": Schema({
        "nodeid": domain("compute nodes", "identifier"),
        "cpuid": domain("cpus", "identifier"),
        "time": domain("time", "datetime"),
        "instructions": value("instructions", "count"),
        "aperf": value("aperf events", "count"),
        "mperf": value("mperf events", "count"),
    }),
    "cpu_specs": Schema({
        "nodeid": domain("compute nodes", "identifier"),
        "cpuid": domain("cpus", "identifier"),
        "base_frequency": value("rated frequency", "rated gigahertz"),
    }),
    "ipmi": Schema({
        "nodeid": domain("compute nodes", "identifier"),
        "socket": domain("sockets", "identifier"),
        "time": domain("time", "datetime"),
        "mem_reads": value("memory reads", "count"),
        "mem_writes": value("memory writes", "count"),
    }),
}


def test_fig5_plan_operations(engine):
    plan = engine.solve(
        FIG5_CATALOG, Query.of(["jobs", "racks"], ["applications", "heat"])
    )
    ops = sorted(op for op in plan.operations() if not op.startswith("load"))
    assert ops == sorted([
        "explode_discrete", "explode_continuous", "natural_join",
        "derive_heat", "interpolation_join",
    ])
    assert plan.num_steps() == 5


def test_fig5_plan_satisfies_query_schema(engine, d):
    # execute the plan symbolically by walking derive_schema
    plan = engine.solve(
        FIG5_CATALOG, Query.of(["jobs", "racks"], ["applications", "heat"])
    )
    # loads appear for all three datasets
    loads = {op for op in plan.operations() if op.startswith("load")}
    assert loads == {"load:job_queue_log", "load:node_layout",
                     "load:rack_temperatures"}


def test_fig7_plan_operations(engine):
    plan = engine.solve(
        FIG7_CATALOG,
        Query.of(["cpus"], ["active frequency", "instructions per time",
                            "memory reads per time"]),
    )
    ops = [op for op in plan.operations() if not op.startswith("load")]
    assert ops.count("derive_rate") == 2
    assert "derive_active_frequency" in ops
    joins = [op for op in ops if op.endswith("_join")]
    assert len(joins) == 2
    assert plan.num_steps() == 5


def test_single_dataset_query_trivial(engine):
    plan = engine.solve(
        FIG5_CATALOG, Query.of(["racks"], ["temperature"])
    )
    assert plan.num_steps() == 0
    assert plan.operations() == ["load:rack_temperatures"]


def test_single_dataset_with_transformation(engine):
    plan = engine.solve(FIG5_CATALOG, Query.of(["racks"], ["heat"]))
    ops = [op for op in plan.operations() if not op.startswith("load")]
    assert ops == ["derive_heat"]


def test_missing_domain_dimension_is_no_solution(engine):
    with pytest.raises(NoSolutionError, match="domain dimension"):
        engine.solve(
            FIG5_CATALOG, Query.of(["filesystems"], ["temperature"])
        )


def test_underivable_value_is_no_solution(engine):
    with pytest.raises(NoSolutionError):
        engine.solve(FIG5_CATALOG, Query.of(["racks"], ["power"]))


def test_empty_catalog_is_no_solution(engine):
    with pytest.raises(NoSolutionError):
        engine.solve({}, Query.of(["racks"], ["heat"]))


def test_invalid_query_dimension_rejected(engine):
    with pytest.raises(QueryError):
        engine.solve(FIG5_CATALOG, Query.of(["hovercraft"], ["heat"]))


def test_requested_units_conversion_appended(engine):
    plan = engine.solve(
        FIG5_CATALOG,
        Query.of(["racks"], [("temperature", "degrees Fahrenheit")]),
    )
    ops = [op for op in plan.operations() if not op.startswith("load")]
    assert ops == ["convert_units"]


def test_requested_units_exact_match_no_conversion(engine):
    plan = engine.solve(
        FIG5_CATALOG,
        Query.of(["racks"], [("temperature", "degrees Celsius")]),
    )
    assert plan.num_steps() == 0


def test_unconvertible_units_no_solution(engine):
    with pytest.raises((NoSolutionError, QueryError)):
        engine.solve(
            FIG5_CATALOG, Query.of(["racks"], [("temperature", "watts")])
        )


def test_prefers_fewer_datasets(engine):
    # applications over jobs alone must not pull in layout/temps
    plan = engine.solve(FIG5_CATALOG, Query.of(["jobs"], ["applications"]))
    loads = [op for op in plan.operations() if op.startswith("load")]
    assert loads == ["load:job_queue_log"]


def test_shortest_plan_preferred(engine):
    # nodes × temperature: layout ⋈ temps suffices (1 combination); the
    # engine must not add the job log
    plan = engine.solve(
        FIG5_CATALOG, Query.of(["compute nodes", "racks"], ["temperature"])
    )
    loads = {op for op in plan.operations() if op.startswith("load")}
    assert loads == {"load:node_layout", "load:rack_temperatures"}
    assert plan.num_steps() == 1


def test_pair_memoization_reused_across_queries(engine):
    engine.solve(FIG5_CATALOG, Query.of(["jobs", "racks"],
                                        ["applications", "heat"]))
    memo_size = len(engine._pair_memo)
    assert memo_size > 0
    engine.solve(FIG5_CATALOG, Query.of(["jobs", "racks"],
                                        ["applications", "temperature"]))
    # second query reuses (at least) the previously memoized pairs
    assert len(engine._pair_memo) >= memo_size


def test_live_window_write_reaches_the_pair_memo():
    # the pair memo's recipes carry the interpolation window, so a live
    # engine.interpolation_window write must re-derive them
    from repro import ScrubJaySession, TuningProfile
    from repro.datagen.synthetic import (
        TIMED_LEFT_SCHEMA,
        TIMED_RIGHT_SCHEMA,
        timed_tables,
    )

    left, right = timed_tables(2000, num_keys=8)

    def session(profile=None):
        sj = ScrubJaySession(profile)
        sj.register_rows(left, TIMED_LEFT_SCHEMA, "left")
        sj.register_rows(right, TIMED_RIGHT_SCHEMA, "right")
        return sj

    def answer(sj):
        rows = sj.query().across("compute nodes", "time") \
            .value("power").value("temperature").ask().to_rows()
        return sorted(repr(sorted(r.items())) for r in rows)

    with session() as live, \
            session(TuningProfile(interpolation_window=0.5)) as fresh:
        before = answer(live)
        live.profile.set("engine.interpolation_window", 0.5)
        assert answer(live) == answer(fresh) != before


def test_max_datasets_bound_respected(d):
    engine = DerivationEngine(d, config=EngineConfig(max_datasets=2))
    with pytest.raises(NoSolutionError):
        engine.solve(
            FIG5_CATALOG, Query.of(["jobs", "racks"],
                                   ["applications", "heat"])
        )


def test_engine_config_window_propagates(d):
    engine = DerivationEngine(
        d, config=EngineConfig(interpolation_window=7.5)
    )
    plan = engine.solve(
        FIG5_CATALOG, Query.of(["jobs", "racks"], ["applications", "heat"])
    )
    text = plan.describe()
    assert "window=7.5" in text


def test_explain_renders_graph(engine):
    text = engine.explain(
        FIG5_CATALOG, Query.of(["jobs", "racks"], ["applications", "heat"])
    )
    assert "Load[job_queue_log]" in text
    assert "interpolation_join" in text


def test_interactive_rates(engine):
    """The paper claims solutions 'at interactive rates' (§5.2)."""
    import time

    t0 = time.perf_counter()
    engine.solve(FIG5_CATALOG, Query.of(["jobs", "racks"],
                                        ["applications", "heat"]))
    engine.solve(FIG7_CATALOG, Query.of(
        ["cpus"], ["active frequency", "instructions per time"]
    ))
    assert time.perf_counter() - t0 < 2.0


def test_cost_never_swaps_the_interpolation_anchor():
    """Same schema, same steps, fewer estimated rows — but anchored on
    the other timed table, which answers with other rows: the anchor
    signature keeps the first-seen plan, anchored on ``right``."""
    from repro import ScrubJaySession, TuningProfile
    from repro.datagen.synthetic import (
        TIMED_LEFT_SCHEMA,
        TIMED_RIGHT_SCHEMA,
        timed_tables,
    )

    left, right = timed_tables(6000, 16, seed=3)
    left = left[::9]
    assert (len(left), len(right)) == (667, 2416)
    sj = ScrubJaySession(TuningProfile(interpolation_window=2.0))
    sj.register_rows(left, TIMED_LEFT_SCHEMA, "left")
    sj.register_rows(right, TIMED_RIGHT_SCHEMA, "right")
    answer = (sj.query().across("compute nodes", "time")
              .values("power", "temperature").ask())
    anchor = answer.plan.root.left
    assert anchor.label() == "Load[right]"
    assert len(answer.to_rows()) == 1066
