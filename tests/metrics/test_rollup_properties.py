"""Property test: a rollup refreshed push by push holds what a fresh
materialization over the same rows holds.

A delta refresh finalizes only the groups its delta touched and
replaces those rows in the rollup's table; a replay refresh finalizes
every group. Either way, after each push the published dataset's rows
(as a multiset), and the rollup's answer to a coarser query, must be
those of a rollup materialized from scratch over every row pushed so
far — and a dataset captured before the refresh keeps its old rows.
The pushes include empty batches, racks first seen mid-stream, ``None``
power and times out of order within a batch.

Replay is reachable through the public API: a rollup whose measures
come from two feeds joins them by interpolation, which needs rows on
both sides of the watermark, so a push to either feed replays.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ScrubJaySession, Schema
from repro.core.semantics import domain, value
from repro.units.temporal import Timestamp

from tests.core.test_combinations_properties import _budget
from tests.metrics.conftest import RACK_POWER_SCHEMA

NAME = "power_rollup"

RACK_TEMP_SCHEMA = Schema({
    "rack": domain("racks", "identifier"),
    "time": domain("time", "datetime"),
    "temp": value("temperature", "degrees Celsius"),
})


def _rows(racks, field, none=True):
    """Rows over five hours; whole-number values keep every sum exact,
    so the incremental and the fresh state agree to the bit."""
    values = st.integers(0, 50).map(float)
    if none:
        values = st.one_of(st.none(), values)
    return st.lists(
        st.builds(
            lambda rack, minute, v: {
                "rack": rack, "time": Timestamp(60.0 * minute), field: v,
            },
            st.integers(0, racks - 1), st.integers(0, 300), values,
        ),
        max_size=12,
    )


def _metric_query(sj, grain, window):
    builder = sj.query()
    for how in ("mean", "sum", "count", "min", "max", "p95"):
        builder = builder.measure("power", how)
    return (builder.measure("power", "mean", window=window)
            .per("racks").grain(grain).build())


def _coarse_query(sj, window):
    builder = sj.query()
    for how in ("mean", "sum", "count", "min", "max"):
        builder = builder.measure("power", how)
    return (builder.measure("power", "mean", window=window)
            .per("racks").grain("2h").build())


def _multiset(rows):
    return Counter(
        tuple(sorted(
            (k, round(v, 9) if isinstance(v, float) else v)
            for k, v in row.items()
        ))
        for row in rows
    )


def _fresh(tables, query):
    """A session holding ``tables`` ({name: (schema, rows)}) as plain
    datasets, with the rollup materialized over them."""
    sj = ScrubJaySession()
    for name, (schema, rows) in tables.items():
        sj.register_rows(list(rows), schema, name)
    return sj, sj.rollup(NAME, query)


GRAINS = st.sampled_from([("15m", "1h"), ("1h", "2h")])


@settings(max_examples=_budget(25), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    grain=GRAINS,
    initial=_rows(3, "power"),
    pushes=st.lists(_rows(4, "power"), min_size=1, max_size=4),
)
def test_delta_refreshes_match_a_fresh_materialization(
    grain, initial, pushes,
):
    grain, window = grain
    sj = ScrubJaySession()
    try:
        feed = (sj.ingest()
                .feed(RACK_POWER_SCHEMA, rows=initial)
                .tail("rack_power"))
        handle = sj.rollup(NAME, _metric_query(sj, grain, window))
        seen = list(initial)
        advanced = 0
        for batch in pushes:
            before = sj.dataset(NAME)
            old = _multiset(before.collect())
            feed.push(batch)
            seen += batch
            advanced += bool(batch)
            assert handle.delta_refreshes == advanced
            assert _multiset(before.collect()) == old
            ref, fresh = _fresh(
                {"rack_power": (RACK_POWER_SCHEMA, seen)}, handle.query
            )
            try:
                assert _multiset(sj.dataset(NAME).collect()) == \
                    _multiset(ref.dataset(NAME).collect())
                coarse = _coarse_query(sj, window)
                assert handle.can_answer(coarse)
                assert handle.answer(coarse) == fresh.answer(coarse)
            finally:
                ref.close()
    finally:
        sj.close()


@settings(max_examples=_budget(10), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    initial=st.tuples(_rows(2, "power", none=False),
                      _rows(2, "temp", none=False)),
    pushes=st.lists(
        st.tuples(st.booleans(), _rows(3, "power", none=False),
                  _rows(3, "temp", none=False)),
        min_size=1, max_size=3,
    ),
)
def test_replay_refreshes_match_a_fresh_materialization(initial, pushes):
    sj = ScrubJaySession()
    try:
        seen = {
            "rack_power": (RACK_POWER_SCHEMA, list(initial[0])),
            "rack_temp": (RACK_TEMP_SCHEMA, list(initial[1])),
        }
        feeds = {
            name: sj.ingest().feed(schema, rows=rows).tail(name)
            for name, (schema, rows) in seen.items()
        }
        query = (sj.query().measure("power", "mean")
                 .measure("temperature", "max")
                 .per("racks").grain("1h").build())
        handle = sj.rollup(NAME, query)
        for to_power, power_rows, temp_rows in pushes:
            name, batch = (("rack_power", power_rows) if to_power
                           else ("rack_temp", temp_rows))
            before = sj.dataset(NAME)
            old = _multiset(before.collect())
            feeds[name].push(batch)
            seen[name][1].extend(batch)
            assert handle.delta_refreshes == 0
            assert _multiset(before.collect()) == old
            ref, _ = _fresh(seen, query)
            try:
                assert _multiset(sj.dataset(NAME).collect()) == \
                    _multiset(ref.dataset(NAME).collect())
            finally:
                ref.close()
    finally:
        sj.close()
