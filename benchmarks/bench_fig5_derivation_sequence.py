"""Figure 5: the derivation sequence for the rack-heat query.

Asserts the engine reproduces the paper's derivation graph for the
query {jobs → application names, racks → heat} over the three DAT-1
datasets: explode discrete + explode continuous on the job log, a
natural join with the node layout, the heat derivation on the rack
temperatures, and a final interpolation join — five derivation steps,
found at interactive rates.
"""

from __future__ import annotations

import pytest

from repro import DerivationEngine, Query, default_dictionary
from repro.datagen.dat import (
    JOB_LOG_SCHEMA,
    NODE_LAYOUT_SCHEMA,
    RACK_TEMPERATURE_SCHEMA,
    ensure_semantics,
)

CATALOG = {
    "job_queue_log": JOB_LOG_SCHEMA,
    "node_layout": NODE_LAYOUT_SCHEMA,
    "rack_temperatures": RACK_TEMPERATURE_SCHEMA,
}

QUERY = Query.of(domains=["jobs", "racks"], values=["applications", "heat"])


@pytest.fixture(scope="module")
def engine():
    d = default_dictionary()
    ensure_semantics(d)
    return DerivationEngine(d)


def test_fig5_sequence_structure(benchmark, engine):
    plan = benchmark(engine.solve, CATALOG, QUERY)

    ops = sorted(op for op in plan.operations() if not op.startswith("load"))
    assert ops == sorted([
        "explode_discrete",    # nodelist → one row per node
        "explode_continuous",  # timespan → one row per instant
        "natural_join",        # × node layout (node → rack)
        "derive_heat",         # hot − cold aisle on rack temps
        "interpolation_join",  # match in time, interpolate
    ]), "operation multiset deviates from the paper's Figure 5"
    assert plan.num_steps() == 5

    loads = {op for op in plan.operations() if op.startswith("load")}
    assert loads == {"load:job_queue_log", "load:node_layout",
                     "load:rack_temperatures"}

    # the natural join (job nodes -> racks) must come before the
    # interpolation join, with explode_discrete before
    # explode_continuous. A bare engine has no leaf facts, so it keeps
    # the first-seen sequence, which joins the layout to the rack
    # temperatures; a session with its rows in memory joins it to the
    # exploded job log instead (fewer estimated rows, same answer)
    order = [op for op in plan.operations() if not op.startswith("load")]
    assert order.index("explode_discrete") < order.index("explode_continuous")
    assert order.index("natural_join") < order.index("interpolation_join")

    print("\n" + plan.describe())


def test_fig5_interactive_rate(benchmark, engine):
    """§5.2: solutions 'at interactive rates'."""
    plan = benchmark(engine.solve, CATALOG, QUERY)
    assert plan is not None
    assert benchmark.stats["mean"] < 0.5
