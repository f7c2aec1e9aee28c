"""Property test: the session's plan memo never changes an answer.

A live session answers a generated mix of plain and metric questions,
through ``sj.ask`` and through ``sj.serve().query``, while the mix also
sets ``engine.*`` knobs (in bounds) and drops and re-registers datasets
under the same schema with different rows. Every answer must equal, as
a row multiset, the answer of a fresh session built cold from the same
profile and the same rows — or both must find no solution.
"""

from collections import Counter
from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ScrubJaySession, TuningProfile
from repro.datagen.dat import generate_dat1
from repro.datagen.facility import FacilityConfig
from repro.errors import NoSolutionError

from tests.core.test_combinations_properties import _budget


@lru_cache(maxsize=None)
def _dat1():
    return generate_dat1(
        facility_config=FacilityConfig(num_racks=4, nodes_per_rack=3),
        duration=1800.0,
        amg_rack=2,
        amg_start=300.0,
        amg_duration=1200.0,
        include_aux_feeds=False,
        seed=1,
    )


QUESTIONS = {
    "heat": lambda sj: sj.query().across("jobs", "racks")
    .values("applications", "heat"),
    "temps": lambda sj: sj.query().across("racks", "time")
    .value("temperature"),
    "rack_mean": lambda sj: sj.query().measure("temperature", "mean")
    .per("racks").grain("10m"),
    "heat_max": lambda sj: sj.query().measure("heat", "max")
    .per("racks").grain("15m"),
}

KNOB_VALUES = {
    "engine.interpolation_window": [30.0, 120.0, 240.0],
    "engine.explode_period": [60.0, 120.0, 240.0],
    "engine.max_candidates": [8, 24],
    "engine.max_transform_depth": [1, 3],
    "engine.post_combine_depth": [1, 2],
    "engine.pushdown": [False, True],
    "engine.projection": [False, True],
}

_ask = st.tuples(
    st.just("ask"), st.sampled_from(sorted(QUESTIONS)),
    st.sampled_from(["ask", "serve"]),
)
_set = st.sampled_from(sorted(KNOB_VALUES)).flatmap(
    lambda knob: st.tuples(
        st.just("set"), st.just(knob), st.sampled_from(KNOB_VALUES[knob])
    )
)
_reload = st.tuples(
    st.just("reload"),
    st.sampled_from(["job_queue_log", "node_layout", "rack_temperatures"]),
    st.integers(0, 1),  # first row kept
    st.integers(1, 3),  # then every n-th
)


def _rows_of(answer):
    rows = answer.rows() if hasattr(answer, "groups") else answer.collect()
    return Counter(
        tuple(sorted(
            (k, round(v, 9) if isinstance(v, float) else v)
            for k, v in row.items()
        ))
        for row in rows
    )


def _answer(fn):
    try:
        return _rows_of(fn())
    except NoSolutionError:
        return "no solution"


@settings(max_examples=_budget(8), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.one_of(_ask, _set, _reload), min_size=1,
                    max_size=6))
def test_memoized_answers_equal_a_cold_fresh_session(ops):
    data = dict(_dat1().datasets)
    live = ScrubJaySession()
    svc = None
    try:
        for name, (rows, schema) in data.items():
            live.register_rows(rows, schema, name)
        svc = live.serve(num_workers=1)
        for op in ops:
            if op[0] == "set":
                live.profile.set(op[1], op[2])
            elif op[0] == "reload":
                _, name, start, step = op
                rows, schema = _dat1().datasets[name]
                data[name] = (rows[start::step], schema)
                live.drop(name)
                live.register_rows(data[name][0], schema, name)
            else:
                _, question, route = op
                q = QUESTIONS[question](live).build()
                got = _answer(
                    (lambda: live.ask(q)) if route == "ask"
                    else (lambda: svc.query(q))
                )
                with ScrubJaySession(TuningProfile.from_json_dict(
                    live.profile.to_json_dict()
                )) as fresh:
                    for name, (rows, schema) in data.items():
                        fresh.register_rows(rows, schema, name)
                    want = _answer(lambda: fresh.ask(q))
                assert got == want, (op, ops)
    finally:
        if svc is not None:
            svc.close()
        live.close()
