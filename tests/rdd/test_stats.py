"""The adaptive planner: exact row counts, its decisions, and the
report."""

from __future__ import annotations

import re

import pytest

from repro import ScrubJaySession
from repro.obs import MetricsRegistry
from repro.rdd import AdaptiveConfig, SJContext
from repro.rdd.stats import (
    REPORT_CAPACITY,
    AdaptivePlanner,
    Decision,
    ExecutionReport,
)


@pytest.fixture()
def ctx():
    c = SJContext(executor="serial", default_parallelism=4)
    yield c
    c.stop()


# ----------------------------------------------------------------------
# exact row counts
# ----------------------------------------------------------------------

def test_row_counts_are_exact(ctx):
    left = ctx.parallelize([(i % 7, i) for i in range(103)], 4)
    right = ctx.parallelize([(k, -k) for k in range(7)], 3)
    assert len(left.adaptiveJoin(right).collect()) == 103
    d = ctx.report.of("join")[-1]
    assert (d.evidence["left_rows"], d.evidence["right_rows"]) == (103, 7)


def test_empty_rdd_stats(ctx):
    left = ctx.parallelize([])
    right = ctx.parallelize([(1, 1), (2, 2)], 2)
    assert left.adaptiveJoin(right).collect() == []
    d = ctx.report.of("join")[-1]
    assert (d.evidence["left_rows"], d.evidence["right_rows"]) == (0, 2)
    assert (d.choice, d.evidence["build_side"]) == ("broadcast", "left")


# ----------------------------------------------------------------------
# planner decisions & report
# ----------------------------------------------------------------------

def test_small_side_broadcasts():
    planner = AdaptivePlanner(AdaptiveConfig(), ExecutionReport())
    d = planner.decide_join("join", (("left", 1000), ("right", 10)))
    assert d.choice == "broadcast"
    assert d.evidence["build_side"] == "right"
    assert d.evidence["right_rows"] == 10
    assert planner.report.of("join") == [d]


def test_threshold_zero_forces_shuffle():
    planner = AdaptivePlanner(
        AdaptiveConfig(broadcast_threshold_rows=0), ExecutionReport()
    )
    d = planner.decide_join("join", (("left", 100), ("right", 10)))
    assert d.choice == "shuffle"
    assert "build_side" not in d.evidence
    assert d.reason == "right side 10 rows exceeds threshold 0 rows"


def test_report_summary_and_dict():
    report = ExecutionReport()
    planner = AdaptivePlanner(AdaptiveConfig(), report)
    planner.decide_join("join", (("left", 5), ("right", 1)))
    assert len(report) == 1
    assert "join[join] -> broadcast (left_rows=5," in report.summary()
    d = report.as_dict()["decisions"][0]
    assert d["kind"] == "join"
    assert d["choice"] == d["strategy"] == "broadcast"
    assert d["build_side"] == "right"


def test_planner_keeps_passed_empty_report():
    # regression: an empty ExecutionReport is falsy (it has __len__);
    # the planner must still record into the caller's instance
    report = ExecutionReport()
    planner = AdaptivePlanner(report=report)
    assert planner.report is report


def test_context_report_is_plumbed_to_scheduler(ctx):
    assert ctx.scheduler.planner is ctx.planner
    assert ctx.planner.report is ctx.report
    assert isinstance(ctx.report, ExecutionReport)


def test_report_keeps_the_newest_decisions_and_every_total():
    metrics = MetricsRegistry()
    report = ExecutionReport(metrics)
    extra = 5
    for i in range(REPORT_CAPACITY + extra):
        report.add(Decision("delta", f"op{i}", "delta", "row-local"))
    assert len(report) == REPORT_CAPACITY
    assert report.of("delta")[0].op == f"op{extra}"
    assert metrics.counter("stream.delta.decisions", {"choice": "delta"}) \
        == REPORT_CAPACITY + extra
    # a mark taken after the ring wrapped still selects exactly the
    # decisions added after it
    mark = report.recorded
    report.add(Decision("join", "filter_range", "shuffle", "-"))
    assert [d.op for d in report.since(mark)] == ["filter_range"]
    assert report.since(report.recorded) == []


def _decision_lines(text):
    # one line per decision; measured times differ from run to run
    return sorted(
        re.sub(r" in [0-9.]+ms", "", line) for line in text.splitlines()
        if re.match(r"(join|shuffle|delta|rollup)\[", line)
    )


def test_explain_analyze_lists_its_own_decisions_after_the_ring_wraps():
    from tests.conftest import (JOBS_SCHEMA, LAYOUT_SCHEMA, TEMPS_SCHEMA,
                                jobs_rows, layout_rows, temps_rows)

    def explain(fill):
        with ScrubJaySession() as sj:
            sj.register_rows(jobs_rows(), JOBS_SCHEMA, "job_queue_log")
            sj.register_rows(layout_rows(), LAYOUT_SCHEMA, "node_layout")
            sj.register_rows(temps_rows(), TEMPS_SCHEMA, "rack_temperatures")
            for _ in range(fill):
                sj.ctx.report.add(Decision("delta", "filler", "replay", "-"))
            return sj.explain(domains=["jobs", "racks"],
                              values=["applications", "heat"], analyze=True)

    fresh = _decision_lines(explain(0))
    assert any(line.startswith("join[interpolation_join]") for line in fresh)
    assert _decision_lines(explain(REPORT_CAPACITY + 3)) == fresh
