"""DeltaPlan: the delta-vs-replay classification matrix, the
union-equals-replay identity, and decision reporting."""

from __future__ import annotations

import types

import pytest

from repro import Query, ScrubJayDataset, ScrubJaySession
from repro.core.pipeline import (
    CombineNode,
    DerivationPlan,
    LoadNode,
    TransformNode,
)
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.rdd.stats import Decision
from repro.stream import DELTA_SAFE_TRANSFORMS, DeltaPlan

from tests.serve.conftest import JOIN_DOMAINS, JOIN_VALUES, row_multiset


def _node(op):
    return types.SimpleNamespace(op_name=op)


def _plan(root):
    return DeltaPlan(DerivationPlan(root))


@pytest.fixture()
def feed_session():
    sj = ScrubJaySession()
    left, right = keyed_tables(120, num_keys=8)
    sj.ingest().feed(KEYED_LEFT_SCHEMA, rows=left).tail("samples")
    sj.register_rows(right, KEYED_RIGHT_SCHEMA, name="lookup")
    yield sj, left, right
    sj.close()


# ----------------------------------------------------------------------
# classification matrix (pure plan-shape logic)
# ----------------------------------------------------------------------


def test_untouched_plan_classifies_none():
    dp = _plan(TransformNode(_node("filter_range"), LoadNode("a")))
    mode, decisions = dp.classify({"elsewhere"})
    assert mode == "none" and decisions == []


@pytest.mark.parametrize("op", sorted(DELTA_SAFE_TRANSFORMS))
def test_row_local_transforms_are_delta_safe(op):
    dp = _plan(TransformNode(_node(op), LoadNode("a")))
    mode, decisions = dp.classify({"a"})
    assert mode == "delta"
    assert [d.choice for d in decisions] == ["delta"]
    assert decisions[0].op == op


def test_cross_row_transform_forces_replay():
    dp = _plan(TransformNode(_node("derive_rate"), LoadNode("a")))
    mode, decisions = dp.classify({"a"})
    assert mode == "replay"
    assert decisions[0].choice == "replay"
    assert "cross-row" in decisions[0].reason


def test_join_with_one_changed_side_is_delta_safe():
    dp = _plan(CombineNode(
        _node("natural_join"), LoadNode("a"), LoadNode("b")
    ))
    mode, decisions = dp.classify({"a"})
    assert mode == "delta"
    assert decisions[0].op == "natural_join"


def test_join_with_both_sides_changed_forces_replay():
    dp = _plan(CombineNode(
        _node("natural_join"), LoadNode("a"), LoadNode("b")
    ))
    mode, decisions = dp.classify({"a", "b"})
    assert mode == "replay"
    assert "both sides" in decisions[0].reason


def test_interpolation_join_forces_replay_even_one_sided():
    dp = _plan(CombineNode(
        _node("interpolation_join"), LoadNode("a"), LoadNode("b")
    ))
    mode, decisions = dp.classify({"a"})
    assert mode == "replay"
    assert "watermark" in decisions[0].reason


def test_replay_operator_above_safe_path_poisons_the_whole_plan():
    safe_below = TransformNode(_node("filter_equals"), LoadNode("a"))
    dp = _plan(TransformNode(_node("derive_rate"), safe_below))
    mode, decisions = dp.classify({"a"})
    assert mode == "replay"
    choices = {d.op: d.choice for d in decisions}
    assert choices == {"filter_equals": "delta", "derive_rate": "replay"}


def test_unchanged_branch_is_not_examined():
    # only the changed side's operators produce decisions
    left = TransformNode(_node("derive_rate"), LoadNode("a"))
    right = TransformNode(_node("filter_range"), LoadNode("b"))
    dp = _plan(CombineNode(_node("natural_join"), left, right))
    mode, decisions = dp.classify({"b"})
    assert mode == "delta"
    assert {d.op for d in decisions} == {"filter_range", "natural_join"}


# ----------------------------------------------------------------------
# the identity delta execution rests on: f(X ∪ Δ) == f(X) ∪ f(Δ)
# ----------------------------------------------------------------------


def test_delta_union_base_equals_full_replay(feed_session):
    sj, left, _right = feed_session
    feed = sj.feed("samples")
    plan = sj.plan(Query.of(JOIN_DOMAINS, JOIN_VALUES))
    dp = DeltaPlan(plan)
    assert dp.classify({"samples"})[0] == "delta"

    base_catalog = dict(sj.snapshot())
    base_rows = dp.execute_full(base_catalog, sj.dictionary).collect()

    delta = [
        {"node": i % 8, "sample": 1000 + i, "metric_a": 1.0 + i}
        for i in range(10)
    ]
    feed.push(delta)

    delta_ds = ScrubJayDataset.from_rows(
        sj.ctx, delta, KEYED_LEFT_SCHEMA, "samples"
    )
    delta_out = dp.execute_delta(
        base_catalog, {"samples": delta_ds}, sj.dictionary
    ).collect()
    replay = dp.execute_full(dict(sj.snapshot()), sj.dictionary).collect()
    assert row_multiset(base_rows + delta_out) == row_multiset(replay)
    # and the delta execution really only touched the appended rows
    assert len(delta_out) == len(delta)


# ----------------------------------------------------------------------
# decision reporting
# ----------------------------------------------------------------------


def test_decisions_land_on_the_execution_report(feed_session):
    sj, _left, _right = feed_session
    dp = DeltaPlan(sj.plan(Query.of(JOIN_DOMAINS, JOIN_VALUES)))
    report = sj.ctx.report
    mark = report.recorded
    _mode, decisions = dp.classify({"samples"}, report)
    assert decisions
    assert report.since(mark) == decisions
    assert all(isinstance(d, Decision) and d.kind == "delta"
               for d in decisions)
    # the classification mirrors into labelled counters
    reg = sj.ctx.metrics
    assert reg.counter(
        "stream.delta.decisions", {"choice": "delta"}
    ) >= 1


def test_classify_without_report_records_nothing(feed_session):
    sj, _left, _right = feed_session
    dp = DeltaPlan(sj.plan(Query.of(JOIN_DOMAINS, JOIN_VALUES)))
    mark = sj.ctx.report.recorded
    _mode, decisions = dp.classify({"samples"})
    assert decisions
    assert sj.ctx.report.recorded == mark
