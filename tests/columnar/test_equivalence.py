"""Columnar vs row execution must be observationally identical.

Every test runs the same query twice — ``TuningProfile(columnar=True)``
against ``columnar=False`` — and compares collected rows. The sweep
covers pushed scans, filter transform kernels, the vectorized natural
join, the interpolation join (which has no batch kernel and must fall
back), grouped aggregation over batched results, empty/sparse inputs,
and all three executor kinds.
"""

import pytest

from repro import ScrubJaySession, TuningProfile
from repro.analysis import aggregate as agg
from tests.conftest import (
    JOBS_SCHEMA,
    LAYOUT_SCHEMA,
    TEMPS_SCHEMA,
    jobs_rows,
    layout_rows,
    temps_rows,
)


def _fig5(columnar, executor=None, **cfg):
    knobs = dict(cfg, columnar=columnar)
    if executor is not None:
        knobs["executor_kind"] = executor
    s = ScrubJaySession(TuningProfile(**knobs))
    s.register_rows(jobs_rows(), JOBS_SCHEMA, "job_queue_log")
    s.register_rows(layout_rows(), LAYOUT_SCHEMA, "node_layout")
    s.register_rows(temps_rows(), TEMPS_SCHEMA, "rack_temperatures")
    return s


def _sorted(rows):
    # canonical per-row key: field order is presentation, not meaning,
    # and repr keeps Timestamp-valued cells comparable
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in r.items())) for r in rows
    )


def _ask_both(query_fn, executor=None, **cfg):
    """Run the same query columnar and row-wise; return both row lists
    plus the columnar session's kernel decisions."""
    col = _fig5(True, executor=executor, **cfg)
    try:
        col_rows = query_fn(col).collect()
        kernels = [(k.op, k.choice) for k in col.ctx.report.kernels()]
    finally:
        col.close()
    row = _fig5(False, executor=executor, **cfg)
    try:
        row_rows = query_fn(row).collect()
        assert row.ctx.report.kernels() == []
    finally:
        row.close()
    return col_rows, row_rows, kernels


def test_pushed_filter_scan_equivalent():
    def q(s):
        return (
            s.query().across("racks", "time").value("temperature")
            .where("racks", equals=17)
            .where("time", at_least=120.0, below=600.0)
            .ask()
        )

    col, row, _ = _ask_both(q)
    assert col and _sorted(col) == _sorted(row)


def test_filter_kernels_equivalent_without_pushdown():
    """With pushdown off, the filters stay transform nodes and must run
    through the vectorized mask kernels."""

    def q(s):
        return (
            s.query().across("racks", "time").value("temperature")
            .where("racks", equals=17)
            .where("time", at_least=120.0, below=600.0)
            .ask()
        )

    col, row, kernels = _ask_both(q, pushdown=False)
    assert col and _sorted(col) == _sorted(row)
    assert ("filter_equals", "batch") in kernels
    assert ("filter_range", "batch") in kernels


def test_filter_matching_nothing_stays_empty():
    def q(s):
        return (
            s.query().across("racks", "time").value("temperature")
            .where("racks", equals=999)
            .ask()
        )

    col, row, _ = _ask_both(q, pushdown=False)
    assert col == [] and row == []


def test_natural_and_interpolation_join_equivalent():
    """The Figure-5 heat pipeline: natural join vectorizes, the
    interpolation join (no batch kernel) falls back to rows — and the
    answers still agree cell for cell."""

    def q(s):
        return s.ask(
            domains=["jobs", "racks"], values=["applications", "heat"]
        )

    col, row, kernels = _ask_both(q)
    assert col and _sorted(col) == _sorted(row)
    assert ("natural_join", "batch") in kernels
    assert ("interpolation_join", "row-fallback") in kernels


@pytest.mark.parametrize("executor", ["threads", "processes"])
def test_equivalent_across_executors(executor):
    """Batches pickle across process boundaries and share across
    threads; either way the answer matches serial row execution."""

    def q(s):
        return s.ask(
            domains=["jobs", "racks"], values=["applications", "heat"]
        )

    col, row, kernels = _ask_both(q, executor=executor)
    assert col and _sorted(col) == _sorted(row)
    assert ("natural_join", "batch") in kernels


def test_group_aggregate_over_batched_answer():
    col = _fig5(True)
    row = _fig5(False)
    try:
        q = dict(domains=["racks", "time"], values=["temperature"])
        col_ans = col.ask(**q)
        row_ans = row.ask(**q)
        assert getattr(col_ans.dataset, "batched", False)
        for how in ("mean", "sum", "min", "max", "count"):
            assert agg.group_aggregate(
                col_ans.dataset, ["rack"], "temp", how
            ) == agg.group_aggregate(row_ans.dataset, ["rack"], "temp", how)
    finally:
        col.close()
        row.close()


def test_empty_registration_round_trips():
    for columnar in (True, False):
        s = ScrubJaySession(TuningProfile(columnar=columnar))
        try:
            s.register_rows([], TEMPS_SCHEMA, "rack_temperatures")
            assert s.ask(
                domains=["racks", "time"], values=["temperature"]
            ).collect() == []
        finally:
            s.close()


def test_sparse_rows_survive_join():
    """Rows missing optional fields (null slots in the batch) must come
    back exactly as the row path returns them."""
    sparse_temps = temps_rows()
    for i, r in enumerate(sparse_temps):
        if i % 3 == 0:
            r.pop("location")
        if i % 5 == 0:
            r.pop("aisle")

    def build(columnar):
        s = ScrubJaySession(TuningProfile(columnar=columnar))
        s.register_rows(layout_rows(), LAYOUT_SCHEMA, "node_layout")
        s.register_rows(sparse_temps, TEMPS_SCHEMA, "rack_temperatures")
        return s

    col, row = build(True), build(False)
    try:
        q = dict(domains=["compute nodes", "time"], values=["temperature"])
        got = col.ask(**q).collect()
        want = row.ask(**q).collect()
        assert got and _sorted(got) == _sorted(want)
        assert ("natural_join", "batch") in [
            (k.op, k.choice) for k in col.ctx.report.kernels()
        ]
    finally:
        col.close()
        row.close()


def test_store_backed_filtered_scan_equivalent(tmp_path):
    """A pushed filter that keeps part of a stored segment gathers the
    surviving rows out of each batch — string (dictionary) columns
    included — and the scan then sizes those batches for the planner."""
    from repro.store import WideColumnStore

    store = WideColumnStore(str(tmp_path / "store"))
    table = store.create_table(
        "facility", "temps", ["rack"], ["time"], memtable_limit=16
    )
    table.insert_many(temps_rows())
    table.flush()

    def ask(columnar):
        s = ScrubJaySession(TuningProfile(columnar=columnar))
        try:
            s.ingest().table(
                store, "facility", "temps", TEMPS_SCHEMA
            ).register("rack_temperatures")
            return (
                s.query().across("racks", "time", "aisles")
                .value("temperature")
                .where("racks", equals=17)
                .where("time", at_least=120.0, below=600.0)
                .ask().collect()
            )
        finally:
            s.close()

    col, row = ask(True), ask(False)
    assert col and _sorted(col) == _sorted(row)
    assert all("aisle" in r for r in col)
