"""Same-schema derivation sequences tie-break on estimated rows.

The engine keeps, per schema fingerprint, the shortest sequence; among
equally short ones that anchor their interpolation joins on the same
timed datasets it keeps the one with the fewest estimated rows, costed
from the facts of in-memory leaf datasets. These tests pin the heat
question's cheaper plan, the legibility of that choice, and when leaf
facts are (and are not) computed.
"""

import pytest

from repro import ScrubJaySession
from repro.analysis import rank_groups
from repro.core.pipeline import CombineNode, DerivationPlan
from repro.core.combinations import InterpolationJoin
from repro.core.semantics import Schema, value
from repro.datagen import generate_dat1
from repro.datagen.dat import ensure_semantics
from repro.datagen.facility import FacilityConfig
from repro.store.wide_column import WideColumnStore

from tests.conftest import TEMPS_SCHEMA, temps_rows

AMG_RACK = 3

#: the heat plan the engine chose before ties were costed: the layout
#: joins the rack readings, fanning them out before the time join
FIRST_SEEN_HEAT_PLAN = """\
derive_heat()
  interpolation_join(window=120.0)
    natural_join()
      Load[rack_temperatures]
      Load[node_layout]
    explode_continuous(field='timespan', period=60.0)
      explode_discrete(field='nodelist')
        Load[job_queue_log]"""


@pytest.fixture(scope="module")
def dat1():
    return generate_dat1(
        facility_config=FacilityConfig(num_racks=6, nodes_per_rack=4),
        duration=3600.0,
        amg_rack=AMG_RACK,
        amg_start=600.0,
        amg_duration=2400.0,
        include_aux_feeds=False,
    )


def heat_query(sj):
    return sj.query().across("jobs", "racks") \
        .values("applications", "heat").build()


def interp_join(plan):
    """The plan's one interpolation join node."""
    stack = [plan.root]
    while stack:
        node = stack.pop()
        if isinstance(node, CombineNode) and \
                isinstance(node.derivation, InterpolationJoin):
            return node
        stack.extend(node.children())
    raise AssertionError("no interpolation join in the plan")


def multiset(rows):
    return sorted(repr(sorted(r.items())) for r in rows)


def test_heat_joins_the_layout_to_job_nodes(dat1):
    with ScrubJaySession() as sj:
        dat1.register(sj)
        q = heat_query(sj)
        mark = sj.ctx.report.recorded
        plan = sj.plan(q)
        # the rack readings are the anchor as they are, not fanned out
        # over the layout first
        assert interp_join(plan).left.label() == "Load[rack_temperatures]"

        # one decision per tie in the plan's lineage, root first: the
        # layout join's side, then the order of the job log's explodes
        root, sub = [
            d for d in sj.ctx.report.since(mark) if d.kind == "plan"
        ]
        assert root.reason.endswith("for derive_heat()")
        assert sub.reason.endswith(
            "for explode_continuous(field='timespan', period=60.0)"
        )
        for decision in (root, sub):
            rejected = decision.evidence["rejected_est_rows"]
            assert rejected and decision.evidence["est_rows"] < min(rejected)
        assert sj.engine.last_solve_stats["cost_ties"] > 0
        counters = sj.ctx.metrics.snapshot()["counters"]
        assert counters["engine.solve.cost_ties"] > 0
        assert counters["engine.plan.decisions"] == 2
        assert "plan[solve] -> fewest-rows" in sj.explain(q)
        assert "plan[solve] -> fewest-rows" in sj.explain(q, analyze=True)

        rows = sj.execute(plan).collect()
        # the first-seen plan (no leaf facts, solved past the session's
        # plan memo) answers with the same rows
        sj.engine.leaf_facts = None
        first_seen = sj.engine.solve(sj.schemas(), q)
        assert first_seen.describe() == FIRST_SEEN_HEAT_PLAN
        assert multiset(sj.execute(first_seen).collect()) == multiset(rows)

        result = sj.execute(plan)
        (app, rack), _ = rank_groups(
            result, ["job_name", "rack"], "heat", "max"
        )[0]
        assert (app, rack) == ("AMG", AMG_RACK)


def costed_and_first_seen(datasets, define=None):
    """The heat plan and answer with ties costed, then without."""
    with ScrubJaySession() as sj:
        ensure_semantics(sj.dictionary)
        if define is not None:
            define(sj.dictionary)
        for name, (rows, schema) in datasets.items():
            sj.register_rows(rows, schema, name)
        q = heat_query(sj)
        costed = sj.plan(q)
        got = multiset(sj.execute(costed).collect())
        sj.engine.leaf_facts = None
        first_seen = sj.engine.solve(sj.schemas(), q)
        want = multiset(sj.execute(first_seen).collect())
    return costed, got, first_seen, want


def test_duplicated_layout_row_keeps_the_layout_on_the_anchor_side(dat1):
    """A layout row listed twice doubles its anchor rows but would
    merge into one reading on the right side: cost may not move it."""
    rows, schema = dat1.datasets["node_layout"]
    twice = next(r for r in rows if r["rack"] == AMG_RACK)
    datasets = dict(
        dat1.datasets, node_layout=(rows + [dict(twice)], schema)
    )
    costed, got, first_seen, want = costed_and_first_seen(datasets)
    for plan in (costed, first_seen):
        anchor = DerivationPlan(interp_join(plan).left)
        assert "node_layout" in anchor.dataset_names()
    assert got == want


def test_value_carrying_layout_keeps_the_layout_on_the_anchor_side(dat1):
    """A layout value is carried exactly on the anchor side but merged
    (and a None dropped) on the right side: cost may not move it."""
    rows, schema = dat1.datasets["node_layout"]
    valued = Schema(dict(schema.items(), slot=value("slot", "slot units")))
    amg_node = next(r for r in rows if r["rack"] == AMG_RACK)
    slotted = [
        dict(r, slot=None if r is amg_node else float(i))
        for i, r in enumerate(rows)
    ]

    def define(dictionary):
        dictionary.define_dimension("slot", continuous=True, ordered=True)
        dictionary.define_unit("slot units", "quantity", "slot")

    datasets = dict(dat1.datasets, node_layout=(slotted, valued))
    costed, got, first_seen, want = costed_and_first_seen(datasets, define)
    for plan in (costed, first_seen):
        anchor = DerivationPlan(interp_join(plan).left)
        assert "node_layout" in anchor.dataset_names()
    assert got == want


def test_register_and_single_dataset_ask_compute_no_facts():
    with ScrubJaySession() as sj:
        ds = sj.register_rows(temps_rows(), TEMPS_SCHEMA, "temps")
        assert ds._facts is None
        rows = sj.query().across("racks", "time") \
            .values("temperature").ask().to_rows()
        assert rows
        assert ds._facts is None
        assert sj.engine.last_solve_stats["cost_ties"] == 0


def test_facts_recount_after_feed_advance():
    with ScrubJaySession() as sj:
        first = temps_rows()
        feed = sj.ingest().feed(TEMPS_SCHEMA, rows=first).tail("temps")
        before = sj.engine.leaf_facts("temps")
        assert before.rows == len(first)
        assert sj.engine.leaf_facts("temps") is before  # memoized
        more = [dict(r, rack=r["rack"] + 100) for r in first]
        feed.source.push(more)
        feed.advance()
        after = sj.engine.leaf_facts("temps")
        assert after.rows == len(first) + len(more)
        assert after.ndv["racks"] == 2 * before.ndv["racks"]


def test_facts_recount_after_drop_and_reregister():
    with ScrubJaySession() as sj:
        rows = temps_rows()
        sj.register_rows(rows, TEMPS_SCHEMA, "temps")
        assert sj.engine.leaf_facts("temps").rows == len(rows)
        sj.drop("temps")
        assert sj.engine.leaf_facts("temps") is None
        sj.register_rows(rows[: len(rows) // 2], TEMPS_SCHEMA, "temps")
        assert sj.engine.leaf_facts("temps").rows == len(rows) // 2


def test_store_backed_catalog_keeps_first_seen_plan(dat1, tmp_path):
    store = WideColumnStore(str(tmp_path / "store"))
    keys = {
        "job_queue_log": (["job_id"], []),
        "node_layout": (["node"], []),
        "rack_temperatures": (["rack"], ["time"]),
    }
    with ScrubJaySession() as sj:
        ensure_semantics(sj.dictionary)
        for name, (rows, schema) in dat1.datasets.items():
            table = store.create_table("dat1", name, *keys[name])
            table.insert_many(rows)
            table.flush()
            sj.ingest().table(store, "dat1", name, schema).register(name)
        q = heat_query(sj)
        assert sj.engine.leaf_facts("rack_temperatures") is None
        assert sj.plan(q).describe() == FIRST_SEEN_HEAT_PLAN
        assert sj.engine.last_solve_stats["cost_ties"] == 0
