"""The statistics substrate: sampled stats, caching, and the report."""

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
    collect_stats,
)


@pytest.fixture()
def ctx():
    c = SJContext(executor="serial", default_parallelism=4)
    yield c
    c.stop()


# ----------------------------------------------------------------------
# collect_stats
# ----------------------------------------------------------------------

def test_row_counts_are_exact(ctx):
    parts = ctx.parallelize(list(range(103)), 4)._materialize()
    stats = collect_stats(parts)
    assert stats.total_rows == 103


def test_empty_rdd_stats(ctx):
    parts = ctx.parallelize([])._materialize()
    stats = collect_stats(parts, keyed=True)
    assert stats.total_rows == 0
    assert stats.approx_bytes == 0
    assert stats.distinct_keys is None


def test_size_estimate_grows_with_data(ctx):
    small = collect_stats(
        ctx.parallelize([{"a": i} for i in range(100)], 4)._materialize()
    )
    big = collect_stats(
        ctx.parallelize(
            [{"a": i, "pad": "x" * 100} for i in range(1000)], 4
        )._materialize()
    )
    assert 0 < small.approx_bytes < big.approx_bytes


def test_size_estimate_within_factor_of_exhaustive(ctx):
    # sampled estimate must stay near the unsampled ground truth even
    # with rows of varying width
    rows = [{"k": i, "pad": "x" * (i % 50)} for i in range(2000)]
    parts = ctx.parallelize(rows, 8)._materialize()
    sampled = collect_stats(parts, AdaptiveConfig(stats_sample_rows=32))
    exact = collect_stats(
        parts, AdaptiveConfig(stats_sample_rows=10**9)
    )
    assert exact.approx_bytes * 0.5 < sampled.approx_bytes < \
        exact.approx_bytes * 2.0


def test_distinct_keys_exact_when_fully_sampled(ctx):
    pairs = [(i % 17, i) for i in range(200)]
    parts = ctx.parallelize(pairs, 4)._materialize()
    stats = collect_stats(
        parts, AdaptiveConfig(stats_key_budget=10**6), keyed=True
    )
    assert stats.distinct_keys == 17


def test_distinct_keys_estimate_bounded_by_rows(ctx):
    pairs = [(i, i) for i in range(5000)]  # all distinct
    parts = ctx.parallelize(pairs, 4)._materialize()
    stats = collect_stats(
        parts, AdaptiveConfig(stats_key_budget=64), keyed=True
    )
    assert stats.distinct_keys is not None
    assert 0 < stats.distinct_keys <= 5000


def test_keyed_stats_degrade_on_non_pairs(ctx):
    parts = ctx.parallelize([1, 2, 3], 2)._materialize()
    stats = collect_stats(parts, keyed=True)
    assert stats.distinct_keys is None
    assert stats.total_rows == 3


# ----------------------------------------------------------------------
# caching on the RDD
# ----------------------------------------------------------------------

def test_stats_cached_on_rdd(ctx):
    r = ctx.parallelize(list(range(50)), 4)
    s1 = r.stats()
    assert r.stats() is s1


def test_keyed_stats_upgrade_cached_entry(ctx):
    r = ctx.parallelize([(1, 2), (3, 4)], 2)
    plain = r.stats()
    assert plain.distinct_keys is None
    keyed = r.stats(keyed=True)
    assert keyed.distinct_keys == 2


def test_persist_fills_stats_during_materialization(ctx):
    r = ctx.parallelize(list(range(40)), 4).map(lambda x: x + 1).persist()
    assert r._stats is None
    r.collect()
    assert r._stats is not None
    assert r._stats.total_rows == 40


def test_unpersist_drops_stats(ctx):
    r = ctx.parallelize(list(range(10)), 2).persist()
    r.collect()
    assert r._stats is not None
    r.unpersist()
    assert r._stats is None


# ----------------------------------------------------------------------
# planner decisions & report
# ----------------------------------------------------------------------

def _stats_of(ctx, pairs, n=2):
    return collect_stats(
        ctx.parallelize(pairs, n)._materialize(), keyed=True
    )


def test_small_side_broadcasts(ctx):
    planner = AdaptivePlanner(AdaptiveConfig(), ExecutionReport())
    left = _stats_of(ctx, [(i, "x" * 50) for i in range(1000)], 4)
    right = _stats_of(ctx, [(i, i) for i in range(10)])
    d = planner.decide_join("join", (("left", left), ("right", right)))
    assert d.choice == "broadcast"
    assert d.evidence["build_side"] == "right"
    assert d.evidence["right_rows"] == 10
    assert planner.report.of("join") == [d]


def test_threshold_zero_forces_shuffle(ctx):
    planner = AdaptivePlanner(
        AdaptiveConfig(broadcast_threshold_bytes=0), ExecutionReport()
    )
    left = _stats_of(ctx, [(i, i) for i in range(100)])
    right = _stats_of(ctx, [(i, i) for i in range(10)])
    d = planner.decide_join("join", (("left", left), ("right", right)))
    assert d.choice == "shuffle"
    assert "build_side" not in d.evidence
    assert d.reason.startswith("right side ~")
    assert "exceeds threshold 0 B" in d.reason


def test_disabled_config_records_non_adaptive_decision(ctx):
    planner = AdaptivePlanner(
        AdaptiveConfig(enabled=False), ExecutionReport()
    )
    d = planner.decide_join("join", (
        ("left", _stats_of(ctx, [(1, 1)])),
        ("right", _stats_of(ctx, [(2, 2)])),
    ))
    assert d.choice == "shuffle"
    assert d.evidence == {}
    assert d.reason == "adaptive-disabled"


def test_choose_reduce_partitions_targets_rows():
    planner = AdaptivePlanner(AdaptiveConfig(target_partition_rows=100))
    assert planner.choose_reduce_partitions(0) == 1
    assert planner.choose_reduce_partitions(100) == 1
    assert planner.choose_reduce_partitions(1000) == 10
    # capped by distinct keys: more partitions than keys is overhead
    assert planner.choose_reduce_partitions(1000, distinct_keys=3) == 3
    # clamped to the configured maximum
    assert planner.choose_reduce_partitions(10**9) == \
        AdaptiveConfig().max_reduce_partitions


def test_detect_skew():
    planner = AdaptivePlanner(
        AdaptiveConfig(skew_factor=2.0, skew_min_pairs=10)
    )
    assert planner.detect_skew([100, 5, 5, 5]) == [0]
    assert planner.detect_skew([5, 5, 5, 5]) == []
    assert planner.detect_skew([]) == []
    # below the absolute floor nothing is skewed, however lopsided
    assert planner.detect_skew([9, 0, 0, 0]) == []


def test_report_summary_and_dict(ctx):
    report = ExecutionReport()
    planner = AdaptivePlanner(AdaptiveConfig(), report)
    planner.decide_join("join", (
        ("left", _stats_of(ctx, [(1, 1)] * 5)),
        ("right", _stats_of(ctx, [(2, 2)])),
    ))
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
        report.add(Decision("kernel", f"op{i}", "batch", "vectorized"))
    assert len(report) == REPORT_CAPACITY
    assert report.of("kernel")[0].op == f"op{extra}"
    assert metrics.counter("core.kernel.decisions", {"choice": "batch"}) \
        == REPORT_CAPACITY + extra
    # a mark taken after the ring wrapped still selects exactly the
    # decisions added after it
    mark = report.recorded
    report.add(Decision("delta", "filter_range", "delta", "row-local"))
    assert [d.op for d in report.since(mark)] == ["filter_range"]
    assert report.since(report.recorded) == []


def _decision_lines(text):
    # one line per decision; measured times differ from run to run
    return sorted(
        re.sub(r" in [0-9.]+ms", "", line) for line in text.splitlines()
        if re.match(r"(join|shuffle|kernel|delta|rollup)\[", line)
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
                sj.ctx.report.add(Decision("kernel", "filler", "batch", "-"))
            return sj.explain(domains=["jobs", "racks"],
                              values=["applications", "heat"], analyze=True)

    fresh = _decision_lines(explain(0))
    assert any(line.startswith("join[interpolation_join]") for line in fresh)
    assert _decision_lines(explain(REPORT_CAPACITY + 3)) == fresh
