"""Materialized rollups: materialization, routing, and incremental
freshness."""

from __future__ import annotations

import pytest

from repro import ScrubJaySession
from repro.errors import QueryError, ScrubJayError
from repro.units.temporal import Timestamp

from tests.metrics.conftest import (
    RACK_POWER_SCHEMA,
    assert_groups_equal,
    manual_groups,
    power_rows,
)


def metric_q(sj, how="mean", grain="1h", window=None):
    b = sj.query().measure("power", how, window=window)
    return b.per("racks").grain(grain).build()


def raw_truth(q):
    """The same query answered by a rollup-free session."""
    ref = ScrubJaySession()
    try:
        ref.register_rows(power_rows(), RACK_POWER_SCHEMA, "rack_power")
        ans = ref.ask(q)
        assert ans.decision.choice == "raw"
        return ans.groups
    finally:
        ref.close()


# ----------------------------------------------------------------------
# materialization
# ----------------------------------------------------------------------

def test_rollup_requires_metric_query_with_grain(power_session):
    with pytest.raises(QueryError, match="metric query"):
        power_session.rollup(
            "bad",
            power_session.query().across("racks").value("power"),
        )
    with pytest.raises(QueryError, match="time grain"):
        power_session.rollup(
            "bad",
            power_session.query().measure("power", "mean").per("racks"),
        )


def test_rollup_registers_a_catalog_dataset(power_session):
    power_session.rollup("power_1h", metric_q(power_session))
    ds = power_session.dataset("power_1h")
    rows = ds.collect()
    want = manual_groups(power_rows(), 3600.0, "mean")
    assert len(rows) == len(want)
    assert {"rack", "time", "power_mean"} <= set(rows[0])
    # the handle comes back by name, duplicates are rejected
    assert power_session.rollup("power_1h").name == "power_1h"
    with pytest.raises(ScrubJayError, match="already registered"):
        power_session.rollup("power_1h", metric_q(power_session))
    # nor may a rollup take the name of a dataset it would replace
    with pytest.raises(ScrubJayError, match="already registered"):
        power_session.rollup("rack_power", metric_q(power_session))
    assert "power" in power_session.dataset("rack_power").schema.fields()


def test_drop_rollup_unregisters(power_session):
    power_session.rollup("power_1h", metric_q(power_session))
    power_session.drop_rollup("power_1h")
    with pytest.raises(ScrubJayError, match="no rollup"):
        power_session.rollup("power_1h")
    q = metric_q(power_session)
    assert power_session.ask(q).decision.choice == "raw"


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------

def test_exact_grain_routes_and_matches_raw(power_session):
    q = metric_q(power_session)
    want = raw_truth(q)
    power_session.rollup("power_1h", metric_q(power_session))
    ans = power_session.ask(q)
    assert ans.decision.choice == "rollup"
    assert ans.decision.evidence["rollup"] == "power_1h"
    assert_groups_equal(ans.groups, want)


def test_coarser_query_reaggregates_from_finer_rollup(power_session):
    q2h = metric_q(power_session, grain="2h")
    want = raw_truth(q2h)
    power_session.rollup("power_15m", metric_q(power_session, grain="15m"))
    ans = power_session.ask(q2h)
    assert ans.decision.choice == "rollup"
    assert ans.decision.evidence["rollup_grain"] == 900.0
    assert_groups_equal(ans.groups, want)


def test_coarsest_eligible_rollup_wins(power_session):
    power_session.rollup("power_15m", metric_q(power_session, grain="15m"))
    power_session.rollup("power_30m", metric_q(power_session, grain="30m"))
    ans = power_session.ask(metric_q(power_session, grain="1h"))
    assert ans.decision.choice == "rollup"
    assert ans.decision.evidence["rollup"] == "power_30m"
    assert ans.decision.evidence["candidates"] == 2
    assert "coarsest" in ans.decision.reason


def test_nondividing_grain_falls_back_to_raw(power_session):
    power_session.rollup("power_40m", metric_q(power_session, grain="40m"))
    ans = power_session.ask(metric_q(power_session, grain="1h"))
    assert ans.decision.choice == "raw"  # 2400s does not divide 3600s


def test_per_subset_reaggregates_whole_fleet(power_session):
    q = (power_session.query()
         .measure("power", "sum").grain("1h").build())
    want = raw_truth(q)
    power_session.rollup(
        "per_rack",
        power_session.query().measure("power", "sum")
        .per("racks").grain("1h"),
    )
    ans = power_session.ask(q)
    assert ans.decision.choice == "rollup"
    assert_groups_equal(ans.groups, want)


def test_missing_measure_falls_back_to_raw(power_session):
    power_session.rollup("maxes", metric_q(power_session, how="max"))
    ans = power_session.ask(metric_q(power_session, how="mean"))
    assert ans.decision.choice == "raw"
    assert ans.decision.evidence["candidates"] == 0


def test_p95_routes_only_at_exact_grain_and_per(power_session):
    q = metric_q(power_session, how="p95")
    want = raw_truth(q)
    power_session.rollup("p95_1h", metric_q(power_session, how="p95"))
    ans = power_session.ask(q)
    assert ans.decision.choice == "rollup"
    assert_groups_equal(ans.groups, want)
    # coarser grain cannot re-aggregate a percentile
    ans2h = power_session.ask(metric_q(power_session, how="p95",
                                       grain="2h"))
    assert ans2h.decision.choice == "raw"
    assert "non-decomposable" in ans2h.decision.reason
    # nor can a per-dim subset
    qall = (power_session.query()
            .measure("power", "p95").grain("1h").build())
    assert power_session.ask(qall).decision.choice == "raw"


def test_windowed_decomposable_routes_windowed_p95_does_not(
    power_session,
):
    qwin = metric_q(power_session, window="2h")
    want = raw_truth(qwin)
    power_session.rollup("power_1h", metric_q(power_session))
    ans = power_session.ask(qwin)
    assert ans.decision.choice == "rollup"
    assert_groups_equal(ans.groups, want)

    power_session.rollup("p95_1h", metric_q(power_session, how="p95"))
    ans = power_session.ask(
        metric_q(power_session, how="p95", window="2h")
    )
    assert ans.decision.choice == "raw"


def test_eq_filter_on_per_dim_post_filters_groups(power_session):
    q = (power_session.query()
         .measure("power", "mean").per("racks").grain("1h")
         .where("racks", equals=1)
         .build())
    want = {
        k: v for k, v in raw_truth(metric_q(power_session)).items()
        if k[0] == 1
    }
    power_session.rollup("power_1h", metric_q(power_session))
    ans = power_session.ask(q)
    assert ans.decision.choice == "rollup"
    assert_groups_equal(ans.groups, want)


def test_range_filter_falls_back_to_raw(power_session):
    power_session.rollup("power_1h", metric_q(power_session))
    q = (power_session.query()
         .measure("power", "mean").per("racks").grain("1h")
         .where("time", below=Timestamp(3600.0))
         .build())
    ans = power_session.ask(q)
    assert ans.decision.choice == "raw"


def test_rollup_with_filter_needs_matching_query_filter(power_session):
    filtered = (power_session.query()
                .measure("power", "mean").per("racks").grain("1h")
                .where("racks", equals=2)
                .build())
    power_session.rollup("rack2", filtered)
    # unfiltered query must NOT read the filtered rollup
    assert power_session.ask(
        metric_q(power_session)
    ).decision.choice == "raw"
    # the exact same filtered query may
    assert power_session.ask(filtered).decision.choice == "rollup"


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------

def test_decision_lands_on_execution_report(power_session):
    power_session.rollup("power_1h", metric_q(power_session))
    report = power_session.ctx.report
    mark = report.recorded
    power_session.ask(metric_q(power_session))
    kinds = [d for d in report.since(mark) if d.kind == "rollup"]
    assert len(kinds) == 1
    d = kinds[0].as_dict()
    assert d["route"] == "rollup"
    assert d["rollup"] == "power_1h"
    assert d["requested_grain"] == 3600.0


def test_explain_shows_the_route(power_session):
    q = metric_q(power_session)
    text = power_session.explain(q)
    assert "rollup[metric] -> raw (rollup=None," in text
    power_session.rollup("power_1h", metric_q(power_session))
    text = power_session.explain(q)
    assert "rollup[metric] -> rollup (rollup=power_1h," in text
    analyzed = power_session.explain(q, analyze=True)
    assert "EXPLAIN ANALYZE" in analyzed
    assert "rollup[metric] -> rollup (rollup=power_1h," in analyzed


# ----------------------------------------------------------------------
# freshness: feeds advance, rollups follow incrementally
# ----------------------------------------------------------------------

def test_rollup_refreshes_incrementally_on_feed_advance():
    rows = power_rows()
    half = len(rows) // 2
    sj = ScrubJaySession()
    try:
        feed = (sj.ingest()
                .feed(RACK_POWER_SCHEMA, rows=rows[:half])
                .tail("rack_power"))
        handle = sj.rollup("power_1h", metric_q(sj))
        assert handle.refreshes == 0

        feed.push(rows[half:])
        assert handle.refreshes == 1
        assert handle.delta_refreshes == 1  # O(delta), not replay

        q = metric_q(sj)
        ans = sj.ask(q)
        assert ans.decision.choice == "rollup"
        assert_groups_equal(ans.groups, raw_truth(q))
        # the published table caught up too
        assert len(sj.dataset("power_1h").collect()) == len(ans.groups)
    finally:
        sj.close()


def test_stale_rollup_would_differ_fresh_one_does_not():
    # regression guard for the refresh hook: advancing the feed twice
    # keeps routing correct each time
    rows = power_rows()
    third = len(rows) // 3
    sj = ScrubJaySession()
    try:
        feed = (sj.ingest()
                .feed(RACK_POWER_SCHEMA, rows=rows[:third])
                .tail("rack_power"))
        sj.rollup("power_1h", metric_q(sj))
        feed.push(rows[third:2 * third])
        feed.push(rows[2 * third:])
        ans = sj.ask(metric_q(sj))
        assert ans.decision.choice == "rollup"
        assert_groups_equal(ans.groups, raw_truth(metric_q(sj)))
    finally:
        sj.close()


def test_each_refresh_publishes_the_current_groups():
    # every refresh swaps in a dataset holding every group at the new
    # watermark, and the published dataset is right each time
    rows = sorted(power_rows(), key=lambda r: r["time"].epoch)
    step = len(rows) // 11
    sj = ScrubJaySession()
    try:
        feed = (sj.ingest()
                .feed(RACK_POWER_SCHEMA, rows=rows[:step])
                .tail("rack_power"))
        handle = sj.rollup("power_1h", metric_q(sj))
        for i in range(1, 11):
            hi = len(rows) if i == 10 else (i + 1) * step
            feed.push(rows[i * step:hi])
            assert handle.refreshes == i
            got = {
                (r["rack"], r["time"]): r["power_mean"]
                for r in sj.dataset("power_1h").collect()
            }
            assert_groups_equal(
                got, manual_groups(rows[:hi], 3600.0, "mean")
            )
    finally:
        sj.close()


def test_sessions_keep_their_rollups_apart(tmp_path, monkeypatch):
    # two sessions over different data each materialize a rollup of
    # the same name: each holds only its own groups, in memory, so not
    # one directory is made in the temp dir
    import os
    import tempfile

    empty = tmp_path / "tmp"
    empty.mkdir()
    monkeypatch.setenv("TMPDIR", str(empty))
    monkeypatch.setattr(tempfile, "tempdir", None)
    everything = power_rows()
    subsets = [everything, [r for r in everything if r["rack"] == 0]]
    sessions = []
    try:
        for rows in subsets:
            sj = ScrubJaySession()
            sessions.append(sj)
            sj.register_rows(rows, RACK_POWER_SCHEMA, "rack_power")
            sj.rollup("power_1h", metric_q(sj))
        for sj, rows in zip(sessions, subsets):
            want = manual_groups(rows, 3600.0, "mean")
            got = {
                (r["rack"], r["time"]): r["power_mean"]
                for r in sj.dataset("power_1h").collect()
            }
            assert_groups_equal(got, want)
            assert set(sj.rollup("power_1h").table) == set(want)
        assert os.listdir(empty) == []
    finally:
        for sj in sessions:
            sj.close()


# ----------------------------------------------------------------------
# a refresh does its delta's work once
# ----------------------------------------------------------------------

def test_refresh_swaps_the_rollup_in_one_catalog_change():
    # the rollup is in every catalog state a reader can see around a
    # refresh, and one push moves the catalog version once
    rows = power_rows()
    sj = ScrubJaySession()
    try:
        feed = (sj.ingest()
                .feed(RACK_POWER_SCHEMA, rows=rows[:40])
                .tail("rack_power"))
        sj.rollup("power_1h", metric_q(sj))
        snapshots = [sj.snapshot()]

        class Watched:
            """The catalog lock, taking a snapshot on each release."""

            def __init__(self, lock):
                self.lock, self.busy = lock, False

            def __enter__(self):
                return self.lock.__enter__()

            def __exit__(self, *exc):
                self.lock.__exit__(*exc)
                if not self.busy:
                    self.busy = True
                    try:
                        snapshots.append(sj.snapshot())
                    finally:
                        self.busy = False

        sj._catalog_lock = Watched(sj._catalog_lock)
        version = sj.catalog_version
        feed.push(rows[40:])
        snapshots.append(sj.snapshot())
        assert len(snapshots) > 2
        assert all("power_1h" in snap for snap in snapshots)
        assert sj.catalog_version == version + 1
    finally:
        sj.close()


def test_delta_refresh_finalizes_only_the_touched_groups(monkeypatch):
    import repro.metrics.rollup as rollup_mod

    rows = power_rows()  # 3 racks, 2 hours
    sj = ScrubJaySession()
    try:
        feed = (sj.ingest()
                .feed(RACK_POWER_SCHEMA, rows=rows)
                .tail("rack_power"))
        handle = sj.rollup("power_1h", metric_q(sj))
        before = sj.dataset("power_1h")
        old_rows = before.collect()
        finalized = []
        real = rollup_mod.finalize_metric

        def spy(state, query):
            out = real(state, query)
            finalized.extend(out)
            return out

        monkeypatch.setattr(rollup_mod, "finalize_metric", spy)
        # one new sample per rack, in the hour after the base
        feed.push([
            {"rack": r, "time": Timestamp(7200.0 + 60.0 * r),
             "power": 50.0}
            for r in range(3)
        ])
        assert handle.delta_refreshes == 1
        assert sorted(finalized) == [
            (r, Timestamp(7200.0)) for r in range(3)
        ]
        assert len(sj.dataset("power_1h").collect()) == len(old_rows) + 3
        # the dataset captured before the refresh keeps its rows
        assert before.collect() == old_rows
    finally:
        sj.close()


def test_advance_writes_no_store_table_and_decodes_once(
    tmp_path, monkeypatch,
):
    # a store-backed feed with a rollup and two subscriptions: the
    # advance decodes its new segment once, and the rollup refresh
    # writes nothing to a store
    from repro.sources.table_source import TableSource
    from repro.store import WideColumnStore

    rows = sorted(power_rows(), key=lambda r: r["time"].epoch)
    store = WideColumnStore(str(tmp_path / "store"))
    table = store.create_table("facility", "rack_power", ["rack"], ["time"])
    table.insert_many(rows[:36])
    table.flush()
    sj = ScrubJaySession()
    svc = None
    try:
        sj.ingest().table(
            store, "facility", "rack_power", RACK_POWER_SCHEMA
        ).tail("rack_power")
        handle = sj.rollup("power_15m", metric_q(sj, grain="15m"))
        svc = sj.serve()
        metric_sub = svc.subscribe(metric_q(sj))
        row_sub = svc.subscribe(["racks", "time"], ["power"])

        def refuse(*_args, **_kwargs):
            raise AssertionError("a refresh wrote a store table")

        monkeypatch.setattr(WideColumnStore, "create_table", refuse)
        monkeypatch.setattr(WideColumnStore, "append_rows", refuse)
        scans = []
        real = TableSource.append_scan

        def counted(self, *args, **kwargs):
            scans.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(TableSource, "append_scan", counted)
        table.append_rows(rows[36:])
        out = svc.advance("rack_power")
        assert out["rows_added"] == len(rows) - 36
        assert out["subscriptions_refreshed"] == 2
        assert len(scans) == 1
        assert handle.delta_refreshes == 1
        assert len(row_sub.current().rows) == len(rows)
        assert_groups_equal(
            metric_sub.current().groups,
            manual_groups(rows, 3600.0, "mean"),
        )
        assert_groups_equal(
            {(r["rack"], r["time"]): r["power_mean"]
             for r in sj.dataset("power_15m").collect()},
            manual_groups(rows, 900.0, "mean"),
        )
    finally:
        if svc is not None:
            svc.close()
        sj.close()
