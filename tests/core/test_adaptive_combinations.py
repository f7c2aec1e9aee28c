"""Adaptive execution at the combination layer.

NaturalJoin routes through the adaptive join node, InterpolationJoin
may broadcast its right side; in both cases the physical strategy must
be invisible in the results and visible in the ExecutionReport.
"""

from __future__ import annotations

import pytest

from repro import ScrubJaySession, TuningProfile
from repro.core.combinations import InterpolationJoin, NaturalJoin
from repro.core.dataset import ScrubJayDataset
from repro.core.semantics import Schema, domain, value
from repro.datagen import generate_dat1, generate_dat2
from repro.datagen.synthetic import (
    TIMED_LEFT_SCHEMA,
    TIMED_RIGHT_SCHEMA,
    timed_tables,
)
from repro.rdd import AdaptiveConfig, SJContext
from repro.units.temporal import Timestamp

LEFT = Schema({
    "node": domain("compute nodes", "identifier"),
    "power": value("power", "watts"),
})
RIGHT = Schema({
    "node": domain("compute nodes", "identifier"),
    "rack": domain("racks", "identifier"),
})

TLEFT = Schema({
    "node": domain("compute nodes", "identifier"),
    "time": domain("time", "datetime"),
    "power": value("power", "watts"),
})
TRIGHT = Schema({
    "node": domain("compute nodes", "identifier"),
    "time": domain("time", "datetime"),
    "temp": value("temperature", "degrees Celsius"),
})


def _shuffle_ctx():
    return SJContext(executor="serial", default_parallelism=4,
                     adaptive=AdaptiveConfig(broadcast_threshold_rows=0))


def _natural_rows():
    left = [{"node": n % 8, "power": float(n)} for n in range(200)]
    right = [{"node": n, "rack": 100 + n % 3} for n in range(8)]
    return left, right


def _run_natural(ctx, dictionary, left, right):
    lds = ScrubJayDataset.from_rows(ctx, left, LEFT, "l", 5)
    rds = ScrubJayDataset.from_rows(ctx, right, RIGHT, "r", 2)
    rows = NaturalJoin().apply(lds, rds, dictionary).collect()
    return sorted(rows, key=lambda r: (r["node"], r["power"]))


def test_natural_join_selects_broadcast_adaptively(ctx, dictionary):
    left, right = _natural_rows()
    _run_natural(ctx, dictionary, left, right)
    joins = ctx.report.of("join")
    assert joins, "NaturalJoin must go through the adaptive planner"
    d = joins[-1]
    assert d.choice == "broadcast"
    # strategy must be *chosen*, not hardcoded: the sizes it weighed
    assert d.evidence["left_rows"] == 200 and d.evidence["right_rows"] == 8
    assert d.evidence["build_side"] == "right"  # 8 rows vs 200


def test_natural_join_same_rows_broadcast_vs_shuffle(ctx, dictionary):
    left, right = _natural_rows()
    adaptive = _run_natural(ctx, dictionary, left, right)
    assert ctx.report.of("join")[-1].choice == "broadcast"
    with _shuffle_ctx() as sctx:
        shuffled = _run_natural(sctx, dictionary, left, right)
        assert [d.choice for d in sctx.report.of("join")] == ["shuffle"]
    assert adaptive == shuffled
    assert len(adaptive) == 200  # every left row matches one right row


def test_interp_join_broadcasts_small_bin_side(ctx, dictionary):
    lrows = [
        {"node": n % 2, "time": Timestamp(float(t)), "power": float(t)}
        for n in range(2) for t in range(0, 100, 5)
    ]
    rrows = [
        {"node": n, "time": Timestamp(float(t)), "temp": 20.0 + t}
        for n in range(2) for t in range(0, 100, 7)
    ]
    lds = ScrubJayDataset.from_rows(ctx, lrows, TLEFT, "l", 4)
    rds = ScrubJayDataset.from_rows(ctx, rrows, TRIGHT, "r", 4)
    out = InterpolationJoin(window=10.0).apply(lds, rds, dictionary)
    rows = out.collect()
    assert rows
    interp = [d for d in ctx.report.of("join")
              if d.op == "interpolation_join"]
    assert interp and interp[-1].choice == "broadcast"


def _interp_inputs(ctx):
    lrows = [
        {"node": n, "time": Timestamp(float(t)), "power": float(n + t)}
        for n in range(3) for t in range(0, 60, 4)
    ]
    rrows = [
        {"node": n, "time": Timestamp(float(t)), "temp": 20.0 + n + t}
        for n in range(3) for t in range(0, 60, 9)
    ]
    rrows.append({"node": 0, "time": None, "temp": 0.0})  # never shipped
    lds = ScrubJayDataset.from_rows(ctx, lrows, TLEFT, "l", 4)
    rds = ScrubJayDataset.from_rows(ctx, rrows, TRIGHT, "r", 4)
    return lrows, rrows, lds, rds


def test_interp_join_same_rows_broadcast_vs_shuffle(dictionary):
    def run(ctx):
        _lrows, _rrows, lds, rds = _interp_inputs(ctx)
        rows = InterpolationJoin(window=8.0).apply(
            lds, rds, dictionary
        ).collect()
        return sorted(
            rows, key=lambda r: (r["node"], r["time"].epoch)
        )

    with SJContext(executor="serial", default_parallelism=4) as bctx:
        broadcast = run(bctx)
        assert any(
            d.op == "interpolation_join" and d.choice == "broadcast"
            for d in bctx.report.of("join")
        )
    with _shuffle_ctx() as sctx:
        shuffled = run(sctx)
        assert any(
            d.op == "interpolation_join" and d.choice == "shuffle"
            for d in sctx.report.of("join")
        )
    assert broadcast == shuffled


def test_interp_join_shuffle_path_ships_each_timed_row_once(dictionary):
    with _shuffle_ctx() as ctx:
        lrows, rrows, lds, rds = _interp_inputs(ctx)
        rows = InterpolationJoin(8.0).apply(lds, rds, dictionary).collect()
        assert len(rows) == len(lrows)
        # one exchange keyed by the exact dimensions: every row with a
        # time ships once, and the map-side combine leaves one grouped
        # pair per exact key per map partition (4 left + 4 right)
        (shuffle,) = ctx.report.of("shuffle")
        timed = [r for r in lrows + rrows if r["time"] is not None]
        assert shuffle.evidence["input_rows"] == len(timed)
        keys = {r["node"] for r in timed}
        assert shuffle.evidence["shuffled_pairs"] <= len(keys) * (4 + 4)
        assert ctx.metrics.counter("rdd.shuffle.pairs") == \
            shuffle.evidence["shuffled_pairs"]


def test_interp_join_broadcast_path_runs_no_shuffle(ctx, dictionary):
    lrows, _rrows, lds, rds = _interp_inputs(ctx)
    rows = InterpolationJoin(8.0).apply(lds, rds, dictionary).collect()
    assert len(rows) == len(lrows)
    assert ctx.report.of("join")[-1].choice == "broadcast"
    assert ctx.report.of("shuffle") == []
    assert ctx.metrics.counter("rdd.shuffle.pairs") == 0


@pytest.mark.parametrize("threshold", [None, 0])
def test_interp_join_left_input_pipelines_into_the_join(
        dictionary, threshold):
    adaptive = None if threshold is None else \
        AdaptiveConfig(broadcast_threshold_rows=threshold)
    with SJContext(executor="serial", default_parallelism=4,
                   adaptive=adaptive) as ctx:
        lrows, _rrows, lds, rds = _interp_inputs(ctx)
        computed = []
        lds = lds.with_rdd(
            lds.rdd.map(lambda row: computed.append(row) or row)
        )
        out = InterpolationJoin(8.0).apply(lds, rds, dictionary)
        # planning looks at the right side only; the left lineage
        # first runs inside the join's own stage, once
        assert ctx.report.of("join")
        assert computed == []
        out.collect()
        assert len(computed) == len(lrows)


def test_paper_workload_joins_keep_their_strategy():
    """The benchmark suite's Fig 3c join's 17 984-row index side sits
    just above the 16 384-row broadcast threshold on purpose (a
    broadcast join is a different experiment); the DAT 1 and DAT 2
    case-study joins sit below it."""
    def strategy(sj, across, values):
        sj.query().across(*across).values(*values).ask()
        (d,) = [d for d in sj.ctx.report.of("join")
                if d.op == "interpolation_join"]
        return d.choice

    left, right = timed_tables(18_000, 64, seed=12)
    with ScrubJaySession(TuningProfile(interpolation_window=2.0)) as sj:
        sj.register_rows(left, TIMED_LEFT_SCHEMA, "left")
        sj.register_rows(right, TIMED_RIGHT_SCHEMA, "right")
        assert strategy(sj, ("compute nodes", "time"),
                        ("power", "temperature")) == "shuffle"
    with ScrubJaySession() as sj:
        generate_dat1(duration=2.5 * 3600.0).register(sj)
        assert strategy(sj, ("jobs", "racks"),
                        ("applications", "heat")) == "broadcast"
    with ScrubJaySession(TuningProfile(interpolation_window=8.0)) as sj:
        generate_dat2(run_duration=200.0, gap=50.0, papi_period=3.0,
                      ipmi_period=4.0).register(sj)
        assert strategy(sj, ("cpus",),
                        ("active frequency", "power")) == "broadcast"


def test_dataset_exposes_its_report(ctx, dictionary):
    left, right = _natural_rows()
    lds = ScrubJayDataset.from_rows(ctx, left, LEFT, "l", 5)
    assert lds.rdd.count() == 200
    assert lds.execution_report is ctx.report
