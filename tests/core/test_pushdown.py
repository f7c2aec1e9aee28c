"""Predicate/projection pushdown: plan rewriting and the central
property — a pushed scan returns exactly what scan-then-filter would."""

import pytest

from repro import ScrubJaySession, TuningProfile
from repro.core.pipeline import DerivationPlan, ScanNode
from repro.core.semantics import Schema, domain, value
from repro.errors import QueryError
from repro.store import WideColumnStore
from repro.units.temporal import Timestamp

from tests.conftest import (
    JOBS_SCHEMA,
    LAYOUT_SCHEMA,
    TEMPS_SCHEMA,
    jobs_rows,
    layout_rows,
    temps_rows,
)


def key(row):
    return tuple(sorted((k, repr(v)) for k, v in row.items()))


def rows_of(answer):
    return sorted(answer.to_rows(), key=key)


def make_session(pushdown=True, ctx=None, **kwargs):
    sj = ScrubJaySession(
        TuningProfile(pushdown=pushdown, **kwargs), ctx=ctx
    )
    sj.ingest().rows(temps_rows(), TEMPS_SCHEMA).partitions(4) \
        .register("rack_temperatures")
    sj.ingest().rows(layout_rows(), LAYOUT_SCHEMA).register("node_layout")
    return sj


def scan_nodes(plan):
    out = []

    def walk(node):
        if isinstance(node, ScanNode):
            out.append(node)
        for c in node.children():
            walk(c)

    walk(plan.root)
    return out


# ----------------------------------------------------------------------
# plan rewriting
# ----------------------------------------------------------------------

def test_filters_collapse_into_scan_node():
    sj = make_session()
    plan = (
        sj.query()
        .across("racks", "time")
        .value("temperature")
        .where("racks", equals=17)
        .where("time", below=Timestamp(300.0))
        .plan()
    )
    scans = scan_nodes(plan)
    assert len(scans) == 1
    pred = scans[0].predicate
    assert pred is not None
    ops = sorted(t.op for t in pred.terms)
    assert ops == ["eq", "range"]
    cols = {t.column for t in pred.terms}
    assert cols == {"rack", "time"}
    # no residual filter nodes survive for fully-pushable predicates
    assert all("filter" not in op for op in plan.operations())
    sj.close()


def test_pushdown_disabled_keeps_filter_nodes():
    sj = make_session(pushdown=False)
    plan = (
        sj.query()
        .across("racks", "time")
        .value("temperature")
        .where("racks", equals=17)
        .plan()
    )
    assert not scan_nodes(plan)
    assert any("filter" in op for op in plan.operations())
    sj.close()


def test_plan_json_round_trip_preserves_scan():
    sj = make_session()
    plan = (
        sj.query()
        .across("racks", "time")
        .value("temperature")
        .where("racks", equals=17)
        .plan()
    )
    back = DerivationPlan.from_json(plan.to_json(), sj.registry)
    assert scan_nodes(back)
    assert scan_nodes(back)[0].predicate == scan_nodes(plan)[0].predicate
    assert back.fingerprint() == plan.fingerprint()
    before = rows_of(sj.execute(plan))
    assert rows_of(sj.execute(back)) == before
    sj.close()


def test_filter_on_unknown_dimension_rejected():
    sj = make_session()
    with pytest.raises(QueryError, match="does not appear"):
        (
            sj.query()
            .across("racks", "time")
            .value("temperature")
            .where("power", at_least=5.0)
            .plan()
        )
    sj.close()


# ----------------------------------------------------------------------
# the central property: pushed ≡ unpushed
# ----------------------------------------------------------------------

FILTER_CASES = [
    # (filter kwargs applied via .where(dimension, ...))
    [("racks", {"equals": 17})],
    [("time", {"between": (Timestamp(120.0), Timestamp(500.0))})],
    [("racks", {"equals": 17}), ("time", {"below": Timestamp(300.0)})],
    [("temperature", {"at_least": 22.0})],
    [("aisles", {"equals": "hot"})],  # non-indexed, plain label column
    [("racks", {"equals": 99})],  # selects nothing
]


@pytest.mark.parametrize("filters", FILTER_CASES)
def test_pushed_equals_unpushed_single_dataset(filters):
    answers = []
    for pushdown in (True, False):
        sj = make_session(pushdown=pushdown)
        q = sj.query().across("racks", "time").value("temperature")
        for dim, kwargs in filters:
            q = q.where(dim, **kwargs)
        answers.append(rows_of(q.ask()))
        sj.close()
    assert answers[0] == answers[1]


def test_pushed_equals_unpushed_through_join():
    # compute nodes × time needs node_layout ⋈ rack_temperatures; the
    # rack/time restrictions must travel through the join to the scans
    answers = []
    for pushdown in (True, False):
        sj = make_session(pushdown=pushdown)
        answers.append(rows_of(
            sj.query()
            .across("compute nodes", "time")
            .value("temperature")
            .where("compute nodes", equals=2)
            .where("time", below=Timestamp(360.0))
            .ask()
        ))
        sj.close()
    assert answers[0] == answers[1]
    assert answers[0]  # join result is non-empty


def sparse_temps_rows():
    """Temperatures with optional domain fields left out of some rows."""
    rows = temps_rows()
    for i, r in enumerate(rows):
        if i % 3 == 0:
            r.pop("location")
        if i % 5 == 0:
            r.pop("aisle")
    return rows


JOIN_QUESTIONS = {
    # node_layout ⋈ rack_temperatures on racks
    "natural": lambda sj: sj.query().across("compute nodes", "time")
    .value("temperature").where("time", below=Timestamp(600.0)).ask(),
    # the Figure-5 heat sequence: job nodes ⋈ layout, then the windowed
    # join against the temperatures
    "interpolation": lambda sj: sj.ask(
        domains=["jobs", "racks"], values=["applications", "heat"]
    ),
}


def answers_pushed_and_unpushed(question, temps):
    answers = []
    for pushdown in (True, False):
        sj = ScrubJaySession(TuningProfile(pushdown=pushdown))
        try:
            sj.register_rows(jobs_rows(), JOBS_SCHEMA, "job_queue_log")
            sj.register_rows(layout_rows(), LAYOUT_SCHEMA, "node_layout")
            sj.register_rows(temps, TEMPS_SCHEMA, "rack_temperatures")
            answers.append(rows_of(JOIN_QUESTIONS[question](sj)))
        finally:
            sj.close()
    return answers


@pytest.mark.parametrize("question", sorted(JOIN_QUESTIONS))
def test_sparse_rows_survive_pushed_join(question):
    pushed, plain = answers_pushed_and_unpushed(
        question, sparse_temps_rows()
    )
    assert pushed and pushed == plain
    # a left-out field stays absent: it never comes back as None
    assert all(v is not None for row in pushed for v in row.values())


@pytest.mark.parametrize("question", sorted(JOIN_QUESTIONS))
def test_empty_input_through_pushed_join(question):
    assert answers_pushed_and_unpushed(question, []) == [[], []]


@pytest.mark.parametrize("which", ["thread", "process"])
def test_pushed_equals_unpushed_across_executors(
    which, thread_ctx, process_ctx
):
    ctx = thread_ctx if which == "thread" else process_ctx
    shared = make_session(pushdown=True, ctx=ctx)
    serial = make_session(pushdown=False)
    q = lambda sj: rows_of(  # noqa: E731
        sj.query()
        .across("racks", "time")
        .value("temperature")
        .where("racks", equals=18)
        .where("time", at_least=Timestamp(240.0))
        .ask()
    )
    try:
        assert q(shared) == q(serial)
    finally:
        serial.close()  # shared ctx belongs to the session fixture


def test_projection_disabled_same_results():
    base = make_session()
    noproj = ScrubJaySession(
        TuningProfile(pushdown=True, projection=False)
    )
    noproj.ingest().rows(temps_rows(), TEMPS_SCHEMA) \
        .register("rack_temperatures")
    q = lambda sj: rows_of(  # noqa: E731
        sj.query()
        .across("racks", "time")
        .value("temperature")
        .where("racks", equals=17)
        .ask()
    )
    assert q(base) == q(noproj)
    base.close()
    noproj.close()


# ----------------------------------------------------------------------
# store-backed scans: zone maps, empty/all-null segments
# ----------------------------------------------------------------------

STORE_SCHEMA = Schema({
    "rack": domain("racks", "identifier"),
    "time": domain("time", "datetime"),
    "temp": value("temperature", "degrees Celsius"),
})


def store_session(tmp_path, rows, pushdown=True, memtable_limit=10):
    store = WideColumnStore(str(tmp_path / f"store-{pushdown}"))
    t = store.create_table(
        "facility", "temps", ["rack"], ["time"],
        memtable_limit=memtable_limit,
    )
    t.insert_many(rows)
    t.flush()
    sj = ScrubJaySession(TuningProfile(pushdown=pushdown))
    sj.ingest().table(store, "facility", "temps", STORE_SCHEMA) \
        .register("rack_temperatures")
    return sj


def banded_rows(n=60):
    return [
        {"rack": i % 3, "time": Timestamp(float(i)), "temp": 20.0 + i % 9}
        for i in range(n)
    ]


def test_store_scan_pushed_equals_unpushed(tmp_path):
    rows = banded_rows()
    ask = lambda sj: rows_of(  # noqa: E731
        sj.query()
        .across("racks", "time")
        .value("temperature")
        .where("racks", equals=1)
        .where("time", between=(Timestamp(10.0), Timestamp(30.0)))
        .ask()
    )
    pushed = store_session(tmp_path, rows, pushdown=True)
    plain = store_session(tmp_path, rows, pushdown=False)
    assert ask(pushed) == ask(plain)
    pushed.close()
    plain.close()


def test_store_scan_reads_fewer_rows_than_stored(tmp_path):
    rows = banded_rows(90)
    sj = store_session(tmp_path, rows, pushdown=True, memtable_limit=15)
    answer = (
        sj.query()
        .across("racks", "time")
        .value("temperature")
        .where("racks", equals=1)
        .where("time", below=Timestamp(15.0))
        .ask()
    )
    assert len(answer) == 5
    labels = {"source": "rack_temperatures"}
    rows_read = sj.ctx.metrics.counter("scan.rows_read", labels)
    assert 0 < rows_read < len(rows) * 0.2
    assert sj.ctx.metrics.counter("scan.partitions_pruned", labels) == 2
    sj.close()


def test_store_all_null_column_segments(tmp_path):
    # one flush leaves temp entirely absent → all-null zone stats;
    # predicates on temp must still return exactly the matching rows
    rows = [{"rack": 0, "time": Timestamp(float(i))} for i in range(10)]
    rows += [
        {"rack": 0, "time": Timestamp(float(10 + i)), "temp": 21.0 + i}
        for i in range(10)
    ]
    ask = lambda sj: rows_of(  # noqa: E731
        sj.query()
        .across("racks", "time")
        .value("temperature")
        .where("temperature", at_least=25.0)
        .ask()
    )
    pushed = store_session(tmp_path, rows, memtable_limit=10)
    plain = store_session(tmp_path, rows, pushdown=False, memtable_limit=10)
    assert ask(pushed) == ask(plain)
    assert ask(pushed)  # some rows do match
    pushed.close()
    plain.close()


def test_store_predicate_matching_no_rows(tmp_path):
    sj = store_session(tmp_path, banded_rows(30))
    answer = (
        sj.query()
        .across("racks", "time")
        .value("temperature")
        .where("racks", equals=77)
        .ask()
    )
    assert len(answer) == 0
    sj.close()


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE surfaces the scan counters (acceptance criterion)
# ----------------------------------------------------------------------

def test_explain_analyze_reports_scan_counters(tmp_path):
    rows = banded_rows(90)
    sj = store_session(tmp_path, rows, memtable_limit=15)
    text = (
        sj.query()
        .across("racks", "time")
        .value("temperature")
        .where("racks", equals=1)
        .where("time", below=Timestamp(15.0))
        .explain(analyze=True)
    )
    assert "scan.rows_read" in text
    assert "scan.partitions_pruned" in text
    sj.close()
