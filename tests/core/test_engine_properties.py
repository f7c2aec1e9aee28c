"""Property-based soundness of the derivation engine.

For randomized catalogs (entity chains with sensor streams, layout
tables, and optionally span/list-shaped logs) and randomized queries,
every plan the engine returns must be *sound*:

- its schema-level execution (``plan.derive_schema``) contains every
  queried domain dimension as a domain and every queried value
  dimension as a value;
- its data-level execution on generated rows succeeds and produces
  rows whose fields are exactly drawn from that schema;
- it survives a JSON round trip with identical structure;
- schema-level and data-level execution agree.

When the engine instead raises NoSolutionError, that is acceptable for
non-adjacent queries; adjacency (one layout hop) must always solve.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import SJContext
from repro.core.dataset import ScrubJayDataset
from repro.core.derivation import GLOBAL_REGISTRY
from repro.core.dictionary import default_dictionary
from repro.core.engine import DerivationEngine, leaf_facts
from repro.core.pipeline import DerivationPlan
from repro.core.query import Query
from repro.core.semantics import Schema, domain, value
from repro.errors import NoSolutionError
from repro.units.temporal import TimeSpan, Timestamp

_CTX = SJContext(executor="serial")

MAX_ENTITIES = 4


def _dictionary():
    d = default_dictionary()
    for i in range(MAX_ENTITIES):
        d.define_dimension(f"entity{i}", continuous=False, ordered=False)
        d.define_dimension(f"metric{i}", continuous=True, ordered=True)
        d.define_unit(f"metric{i} units", "quantity", f"metric{i}",
                      scale=float(i + 1))
    d.define_dimension("group", continuous=False, ordered=False)
    d.define_dimension("weight", continuous=True, ordered=True)
    d.define_unit("weight units", "quantity", "weight")
    return d


_DICT = _dictionary()


def _build_catalog(num_entities, with_log, rng_seed, layout="plain"):
    """Schemas + generated rows for an entity chain.

    ``layout`` shapes the layout tables: ``plain`` (one row per child,
    no values), ``dup`` (one row listed twice) or ``valued`` (a
    ``weight`` value, None on one row).
    """
    import random

    rng = random.Random(rng_seed)
    schemas, data = {}, {}
    ids = [0, 1, 2]
    for i in range(num_entities):
        name = f"stream{i}"
        schemas[name] = Schema({
            "id": domain(f"entity{i}", "identifier"),
            "time": domain("time", "datetime"),
            "value": value(f"metric{i}", f"metric{i} units"),
        })
        data[name] = [
            {"id": e, "time": Timestamp(float(t)),
             "value": rng.random() * 100}
            for e in ids for t in range(0, 100, 10)
        ]
        if i > 0:
            lname = f"layout{i}"
            schemas[lname] = Schema({
                "child": domain(f"entity{i}", "identifier"),
                "parent": domain(f"entity{i - 1}", "identifier"),
            })
            data[lname] = [
                {"child": e, "parent": rng.choice(ids)} for e in ids
            ]
            if layout == "dup":
                data[lname].append(dict(rng.choice(data[lname])))
            elif layout == "valued":
                schemas[lname] = Schema(dict(
                    schemas[lname].items(),
                    weight=value("weight", "weight units"),
                ))
                for row in data[lname]:
                    row["weight"] = rng.choice([None, rng.random()])
                data[lname][0]["weight"] = None
    if with_log:
        schemas["log"] = Schema({
            "gid": domain("group", "identifier"),
            "members": domain("entity0", "list<identifier>"),
            "span": domain("time", "timespan"),
        })
        data["log"] = [
            {"gid": g, "members": rng.sample(ids, 2),
             "span": TimeSpan(0.0, 60.0)}
            for g in range(2)
        ]
    return schemas, data


def _datasets(schemas, data):
    return {
        name: ScrubJayDataset.from_rows(_CTX, data[name], schemas[name],
                                        name)
        for name in schemas
    }


@given(
    num_entities=st.integers(2, MAX_ENTITIES),
    with_log=st.booleans(),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_returned_plans_are_sound(num_entities, with_log, seed, data):
    schemas, rows = _build_catalog(num_entities, with_log, seed)
    i = data.draw(st.integers(0, num_entities - 1))
    j = data.draw(st.integers(0, num_entities - 1))
    metric_of = data.draw(st.sampled_from([i, j]))
    query = Query.of(
        domains=sorted({f"entity{i}", f"entity{j}"}),
        values=[f"metric{metric_of}"],
    )
    engine = DerivationEngine(_DICT)
    try:
        plan = engine.solve(schemas, query)
    except NoSolutionError:
        # adjacency must always solve: one layout hop + streams
        assert abs(i - j) > 2, (
            f"engine failed a near query: {query}"
        )
        return

    # 1. schema-level soundness
    out_schema = plan.derive_schema(schemas, _DICT)
    assert {f"entity{i}", f"entity{j}"} <= out_schema.domain_dimensions()
    assert f"metric{metric_of}" in out_schema.value_dimensions()

    # 2. JSON round trip preserves structure
    back = DerivationPlan.from_json(plan.to_json(), GLOBAL_REGISTRY)
    assert back.to_json() == plan.to_json()
    assert back.derive_schema(schemas, _DICT) == out_schema

    # 3. data-level execution succeeds and agrees with the schema
    result = plan.execute(_datasets(schemas, rows), _DICT)
    assert result.schema == out_schema
    collected = result.collect()
    fields = set(out_schema.fields())
    for row in collected:
        assert set(row) <= fields
    # with identical deterministic inputs the adjacent-stream join is
    # never empty
    if abs(i - j) <= 1:
        assert collected


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_log_queries_explode_and_solve(seed):
    """Queries over the group/log dataset force the explode path."""
    schemas, rows = _build_catalog(2, True, seed)
    engine = DerivationEngine(_DICT)
    query = Query.of(domains=["group", "entity0"], values=["metric0"])
    plan = engine.solve(schemas, query)
    ops = [op for op in plan.operations() if not op.startswith("load")]
    assert "explode_discrete" in ops
    result = plan.execute(_datasets(schemas, rows), _DICT)
    out_schema = plan.derive_schema(schemas, _DICT)
    assert result.schema == out_schema
    assert "group" in result.schema.domain_dimensions()
    assert result.collect()


@given(num_entities=st.integers(2, MAX_ENTITIES), seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_plans_are_deterministic(num_entities, seed):
    """Same catalog + query ⇒ byte-identical plan, across fresh engines."""
    schemas, _rows = _build_catalog(num_entities, False, seed)
    query = Query.of(domains=["entity0", "entity1"], values=["metric1"])
    a = DerivationEngine(_DICT).solve(schemas, query).to_json()
    b = DerivationEngine(_DICT).solve(schemas, query).to_json()
    assert a == b


def _multiset(rows):
    return sorted(repr(sorted(r.items())) for r in rows)


def test_a_valued_layout_stays_out_of_the_interpolation_join():
    """A layout with a None value answers differently inside an
    interpolation join's right side (None is no sample) than in a
    natural join after it (None is kept), so cost must not move it
    there from outside."""
    schemas, rows = _build_catalog(2, True, 0, "valued")
    datasets = _datasets(schemas, rows)
    query = Query.of(domains=["entity1", "group"], values=["metric0"])
    costed = DerivationEngine(_DICT)
    costed.leaf_facts = lambda name: leaf_facts(datasets[name], _DICT)
    plan = costed.solve(schemas, query)
    first_seen = DerivationEngine(_DICT).solve(schemas, query)
    assert _multiset(plan.execute(datasets, _DICT).collect()) == \
        _multiset(first_seen.execute(datasets, _DICT).collect())


def test_costed_ties_keep_the_answer():
    """Costing same-schema ties with leaf facts changes at most the
    plan, never the rows it answers with — also when a layout lists a
    row twice or carries a value (None on one row), which answer
    differently on the two sides of an interpolation join."""
    ties = []

    @given(
        num_entities=st.integers(2, MAX_ENTITIES),
        with_log=st.booleans(),
        layout=st.sampled_from(["plain", "dup", "valued"]),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def check(num_entities, with_log, layout, seed, data):
        schemas, rows = _build_catalog(num_entities, with_log, seed, layout)
        datasets = _datasets(schemas, rows)
        domains = [f"entity{data.draw(st.integers(0, num_entities - 1))}"]
        if with_log and data.draw(st.booleans()):
            domains.append("group")
        query = Query.of(
            domains=domains,
            values=[f"metric{data.draw(st.integers(0, num_entities - 1))}"],
        )
        costed = DerivationEngine(_DICT)
        costed.leaf_facts = lambda name: leaf_facts(datasets[name], _DICT)
        try:
            first_seen = DerivationEngine(_DICT).solve(schemas, query)
        except NoSolutionError:
            with pytest.raises(NoSolutionError):
                costed.solve(schemas, query)
            return
        plan = costed.solve(schemas, query)
        ties.append(costed.last_solve_stats["cost_ties"])
        assert plan.derive_schema(schemas, _DICT) == \
            first_seen.derive_schema(schemas, _DICT)
        assert _multiset(plan.execute(datasets, _DICT).collect()) == \
            _multiset(first_seen.execute(datasets, _DICT).collect())

    check()
    # the property is only tested where cost decided something
    assert any(ties)
