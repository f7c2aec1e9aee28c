"""Metric partials keyed at their grain while rows are keyed.

``group_aggregate_partials(..., grain=g)`` must equal the two-step
route it replaces — group on the raw time, then
:func:`~repro.metrics.compute.rebucket_partials` — and a grained metric
must ship per-bucket, not per-raw-time, pairs through the shuffle.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import ScrubJayDataset, ScrubJaySession, SJContext
from repro.analysis.aggregate import group_aggregate_partials
from repro.core.query import Grain
from repro.metrics.compute import rebucket_partials
from repro.units.temporal import Timestamp

from tests.metrics.conftest import RACK_POWER_SCHEMA

HOWS = ["mean", "sum", "min", "max", "count", "p50", "p95"]
MISSING = object()


@pytest.fixture(scope="module")
def gctx():
    c = SJContext(executor="serial", default_parallelism=4)
    yield c
    c.stop()


def _sometimes_absent(strategy):
    """Mostly ``strategy``; otherwise ``None`` or no key at all."""
    return st.one_of(
        strategy, strategy, strategy, st.sampled_from([None, MISSING])
    )


_epochs = st.one_of(
    # exactly on a bucket edge of every grain below (negatives too)
    st.integers(-16, 16).map(lambda k: k * 900.0),
    st.floats(-8000.0, 8000.0, allow_nan=False),
)
_times = st.one_of(_epochs.map(Timestamp), _epochs)
_values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False), st.just(math.nan)
)
_rows = st.lists(
    st.fixed_dictionaries({
        "rack": _sometimes_absent(st.sampled_from([1, 2, 10])),
        "time": _sometimes_absent(_times),
        "power": _sometimes_absent(_values),
    }).map(lambda d: {k: v for k, v in d.items() if v is not MISSING}),
    max_size=40,
)


def _nan_last(x):
    return (1, 0.0) if x != x else (0, x)


def _assert_same_partials(got, want, how, samples):
    assert set(got) == set(want)
    for k, w in want.items():
        g = got[k]
        if how == "mean":
            # the sum may differ by float association
            assert g[1] == w[1]
            assert g[0] == pytest.approx(w[0], nan_ok=True)
        elif how == "sum":
            assert g == pytest.approx(w, nan_ok=True)
        elif how in ("p50", "p95"):
            # value tuples: the same multiset, concatenated in a
            # different order
            assert sorted(map(_nan_last, g)) == sorted(map(_nan_last, w))
        elif how in ("min", "max") and any(x != x for x in samples[k]):
            # IEEE comparisons make a NaN sample's effect depend on
            # fold order, which keying at the grain changes
            continue
        else:
            assert g == w, (k, g, w)


@pytest.mark.parametrize("how", HOWS)
@settings(max_examples=50, deadline=None)
@given(
    rows=_rows,
    grain_s=st.sampled_from([60.0, 900.0, 3600.0]),
    per=st.booleans(),
    partitions=st.integers(1, 4),
)
def test_grained_partials_equal_rebucketed_raw_partials(
    gctx, how, rows, grain_s, per, partitions
):
    grain = Grain.of(grain_s)
    gf = ["rack", "time"] if per else ["time"]
    ds = ScrubJayDataset.from_rows(
        gctx, rows, RACK_POWER_SCHEMA, "rp", num_partitions=partitions
    )

    def oracle(h):
        return rebucket_partials(
            group_aggregate_partials(ds, gf, "power", h), grain, h
        )

    want = oracle(how)
    samples = oracle("p50")
    got = group_aggregate_partials(ds, gf, "power", how, grain)
    assert all(isinstance(k[-1], Timestamp) for k in got)
    _assert_same_partials(got, want, how, samples)


def _grain_rows():
    """3 racks × 4 hours of one-minute samples."""
    return [
        {"rack": r, "time": Timestamp(t * 60.0), "power": float(t % 17)}
        for r in (1, 2, 3)
        for t in range(240)
    ]


def test_grained_shuffle_ships_one_pair_per_bucket_per_partition(ctx):
    grain = Grain.of("1h")
    rows = _grain_rows()
    ds = ScrubJayDataset.from_rows(
        ctx, rows, RACK_POWER_SCHEMA, "rp", num_partitions=4
    )
    distinct_per_partition = ds.rdd.mapPartitions(lambda part: [len({
        (r["rack"], grain.bucket(r["time"].epoch)) for r in part
    })]).collect()
    group_aggregate_partials(ds, ["rack", "time"], "power", "mean", grain)
    shipped = ctx.report.of("shuffle")[-1].evidence["shuffled_pairs"]
    assert shipped <= sum(distinct_per_partition)
    # raw time keys ship one pair per distinct (rack, time)
    group_aggregate_partials(ds, ["rack", "time"], "power", "mean")
    assert ctx.report.of("shuffle")[-1].evidence["shuffled_pairs"] == \
        len(rows)


def test_metric_ask_shuffles_buckets_not_raw_times():
    sj = ScrubJaySession()
    try:
        sj.register_rows(_grain_rows(), RACK_POWER_SCHEMA, "rack_power")
        partitions = len(
            sj.dataset("rack_power").rdd.mapPartitions(lambda _: [1])
            .collect()
        )
        ans = sj.ask(
            sj.query().measure("power", "mean").per("racks").grain("1h")
        )
        assert len(ans) == 12
        shipped = sj.ctx.report.of("shuffle")[-1].evidence[
            "shuffled_pairs"
        ]
        assert shipped <= partitions * len(ans)
    finally:
        sj.close()
