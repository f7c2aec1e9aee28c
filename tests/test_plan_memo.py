"""The session's plan memo: every answer route solves a question once
per state, and a live engine-knob write reaches every route."""

from __future__ import annotations

import pytest

from repro import ScrubJaySession, TuningProfile
from repro.datagen.dat import generate_dat1
from repro.datagen.facility import FacilityConfig
from repro.errors import QueryValidationError
from repro.core.plan_memo import plan_key


@pytest.fixture(scope="module")
def dat1():
    return generate_dat1(
        facility_config=FacilityConfig(num_racks=6, nodes_per_rack=4),
        duration=3600.0,
        amg_rack=3,
        amg_start=600.0,
        amg_duration=2400.0,
        include_aux_feeds=False,
        seed=1,
    )


def session(dat1, profile=None):
    sj = ScrubJaySession(profile)
    dat1.register(sj)
    return sj


def heat(sj):
    return sj.query().across("jobs", "racks") \
        .values("applications", "heat").build()


def rack_temps(sj, grain):
    return sj.query().measure("temperature", "mean") \
        .per("racks").grain(grain).build()


def multiset(rows):
    return sorted(repr(sorted(r.items())) for r in rows)


def solves(sj):
    return sj.ctx.metrics.counter("engine.solves")


@pytest.mark.parametrize("knob,value", [
    ("engine.interpolation_window", 240.0),
    ("engine.explode_period", 240.0),
])
@pytest.mark.parametrize("route", ["ask", "serve"])
def test_live_engine_knob_write_answers_like_a_fresh_session(
    dat1, knob, value, route
):
    with session(dat1) as live, \
            session(dat1, TuningProfile(**{knob: value})) as fresh:
        svc = live.serve(num_workers=1)
        try:
            def answer():
                if route == "ask":
                    return multiset(live.ask(heat(live)).to_rows())
                return multiset(svc.query(heat(live)).collect())

            before = answer()  # memoizes the plan under the old knob
            live.profile.set(knob, value)
            want = multiset(fresh.ask(heat(fresh)).to_rows())
            assert want != before
            assert answer() == want
        finally:
            svc.close()


def test_every_route_solves_a_question_once_per_state(dat1):
    with session(dat1) as sj:
        # the rollup solves its base relation, then joins the catalog:
        # one solve under the first state, every later one under a new
        sj.rollup("rack_temps_hourly", rack_temps(sj, "1h"))
        assert solves(sj) == 1
        svc = sj.serve(num_workers=2)
        try:
            fine = rack_temps(sj, "10m")  # finer than the rollup: raw
            for _ in range(3):
                sj.ask(heat(sj))
                assert sj.ask(fine).decision.choice == "raw"
                svc.query(heat(sj))
                svc.aggregate(heat(sj), group_by=["rack"],
                              value_field="heat", how="max")
                svc.query(fine)
                svc.subscribe(heat(sj))
                svc.subscribe(fine)
            # heat, and the metric queries' one base relation (the
            # serve tier's bucketed metric plan is built on it, not
            # solved)
            assert solves(sj) == 3
            snap = svc.snapshot().plan_cache
            assert snap == sj.plan_memo.stats()
            assert snap["hits"] > 0 and snap["misses"] == 4
            # explain reports the search itself, so it solves cold
            assert "plan[solve]" in sj.explain(heat(sj))
            assert solves(sj) == 4
            sj.explain(heat(sj), analyze=True)
            assert solves(sj) == 5
        finally:
            svc.close()


def test_catalog_and_knob_changes_move_the_memo(dat1):
    with session(dat1) as sj:
        q = heat(sj)
        plan = sj.plan(q)
        assert sj.plan(q) is plan
        # same-schema rows: same key, same plan
        rows, schema = dat1.datasets["node_layout"]
        sj.drop("node_layout")
        sj.register_rows(rows[:-1], schema, "node_layout")
        assert sj.plan(q) is plan
        # a knob write clears the memo, and the key stays the one a
        # ShardRouter stamps its fleet with
        state = sj.state_fingerprint()
        sj.profile.set("engine.max_candidates", 12)
        assert sj.plan_memo.stats()["entries"] == 0
        assert sj.state_fingerprint() == state
        assert sj.plan(q) is not plan
        assert sj.plan_memo.get_or_solve(
            plan_key(state, q), lambda: None
        ) is sj.plan(q)


def test_terms_beside_a_built_query_are_rejected(dat1):
    with session(dat1) as sj:
        q = sj.query().across("racks", "time").value("temperature")
        svc = sj.serve(num_workers=1)
        try:
            for spelling in (q, q.build()):
                with pytest.raises(QueryValidationError):
                    sj.ask(spelling, ["heat"])
                with pytest.raises(QueryValidationError):
                    svc.query(spelling, ["heat"])
            want = multiset(sj.ask(q).to_rows())
            assert multiset(sj.ask(
                domains=["racks", "time"], values=["temperature"]
            ).to_rows()) == want
            assert multiset(sj.ask(
                ["racks", "time"], ["temperature"]
            ).to_rows()) == want
            assert multiset(
                svc.query(["racks", "time"], ["temperature"]).collect()
            ) == want
        finally:
            svc.close()


def test_knob_writes_racing_planners_leave_no_stale_plan():
    # a search in flight across a knob write must not be stored: once a
    # write returns, the memo answers with that setting's plan
    import sys
    import threading

    from repro.datagen.synthetic import (
        TIMED_LEFT_SCHEMA,
        TIMED_RIGHT_SCHEMA,
        timed_tables,
    )

    left, right = timed_tables(200, num_keys=4)

    def timed_session(profile=None):
        sj = ScrubJaySession(profile)
        sj.register_rows(left, TIMED_LEFT_SCHEMA, "left")
        sj.register_rows(right, TIMED_RIGHT_SCHEMA, "right")
        return sj

    def question(sj):
        return sj.query().across("compute nodes", "time") \
            .values("power", "temperature").build()

    want = {}
    for w in (120.0, 0.5):
        with timed_session(TuningProfile(interpolation_window=w)) as sj:
            want[w] = sj.plan(question(sj)).describe()
    assert want[120.0] != want[0.5]
    with timed_session() as sj:
        q = question(sj)
        done = threading.Event()
        errors = []

        def planner():
            try:
                while not done.is_set():
                    sj.plan(q)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=planner) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            for w in [0.5, 120.0] * 100:
                sj.profile.set("engine.interpolation_window", w)
                assert sj.plan(q).describe() == want[w]
        finally:
            done.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
