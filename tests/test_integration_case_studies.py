"""End-to-end integration: the paper's two case studies at test scale.

These run the full stack — datagen → session registration → engine
planning → distributed execution → analysis — and assert the paper's
qualitative findings hold on the derived data.
"""

import pytest

from repro import ScrubJaySession, TuningProfile
from repro.analysis import rank_groups, time_series
from repro.core.semantics import value
from repro.datagen import generate_dat1, generate_dat2
from repro.datagen.facility import FacilityConfig


@pytest.fixture(scope="module")
def dat1_result():
    dat = generate_dat1(
        facility_config=FacilityConfig(num_racks=6, nodes_per_rack=4),
        duration=3600.0,
        amg_rack=3,
        amg_start=600.0,
        amg_duration=2400.0,
    )
    with ScrubJaySession() as sj:
        dat.register(sj)
        plan = (sj.query().across("jobs", "racks")
                .values("applications", "heat").plan())
        result = sj.execute(plan)
        result.persist()
        yield dat, plan, result


def test_dat1_plan_matches_figure5(dat1_result):
    _dat, plan, _result = dat1_result
    ops = sorted(op for op in plan.operations() if not op.startswith("load"))
    assert ops == sorted([
        "explode_discrete", "explode_continuous", "natural_join",
        "derive_heat", "interpolation_join",
    ])


def test_dat1_result_schema(dat1_result):
    _dat, _plan, result = dat1_result
    dims = result.schema.domain_dimensions()
    assert {"jobs", "racks", "time", "compute nodes"} <= dims
    assert "heat" in result.schema.value_dimensions()
    assert "applications" in result.schema.value_dimensions()


def test_dat1_amg_is_the_heat_outlier(dat1_result):
    """Figure 4's headline: the most heat was on the AMG rack."""
    _dat, _plan, result = dat1_result
    ranked = rank_groups(result, ["job_name", "rack"], "heat", "max")
    (app, rack), _heat = ranked[0]
    assert app == "AMG"
    assert rack == 3


def test_dat1_amg_heat_profile_rises(dat1_result):
    """Figure 4's AMG signature: a fairly regularly increasing curve."""
    _dat, _plan, result = dat1_result
    amg = result.where(lambda r: r.get("job_name") == "AMG")
    time_field = result.schema.domain_field("time")
    series = time_series(amg, ["location"], time_field, "heat")
    assert set(series) == {("top",), ("middle",), ("bottom",)}
    for key, points in series.items():
        third = max(1, len(points) // 3)
        early = sum(v for _t, v in points[:third]) / third
        late = sum(v for _t, v in points[-third:]) / third
        assert late > early + 1.0, f"heat did not rise at {key}"
    # top of the rack runs hotter than the bottom
    top_mean = sum(v for _t, v in series[("top",)]) / len(series[("top",)])
    bot_mean = sum(v for _t, v in series[("bottom",)]) / \
        len(series[("bottom",)])
    assert top_mean > bot_mean


@pytest.fixture(scope="module")
def dat2_result():
    dat = generate_dat2(run_duration=240.0, gap=60.0, papi_period=4.0,
                        ipmi_period=6.0)
    with ScrubJaySession(
        TuningProfile(interpolation_window=8.0)
    ) as sj:
        dat.register(sj)
        plan = (
            sj.query()
            .across("cpus")
            .values("active frequency", "instructions per time",
                    "memory reads per time", "memory writes per time",
                    "temperature")
            .plan()
        )
        result = sj.execute(plan)
        result.persist()
        yield dat, plan, result


def test_dat2_plan_matches_figure7(dat2_result):
    _dat, plan, _result = dat2_result
    ops = [op for op in plan.operations() if not op.startswith("load")]
    assert ops.count("derive_rate") == 2
    assert "derive_active_frequency" in ops
    assert len([op for op in ops if op.endswith("_join")]) == 2


def _window_mean(rows, field, start, end):
    vals = [r[field] for r in rows
            if field in r and start <= r["time"].epoch < end]
    assert vals, f"no samples for {field} in [{start}, {end})"
    return sum(vals) / len(vals)


def test_dat2_workload_signatures(dat2_result):
    """Figure 6: mg.C at full frequency / low instruction rate, prime95
    throttled / high instruction rate."""
    dat, _plan, result = dat2_result
    rows = result.collect()
    runs = sorted(dat.scheduler.jobs, key=lambda j: j.start)
    mgc = [j for j in runs if j.workload.name == "mg.C"]
    p95 = [j for j in runs if j.workload.name == "prime95"]

    # settle margin: skip the first 60 s of each run
    mgc_freq = _window_mean(rows, "active_frequency",
                            mgc[0].start + 60, mgc[0].end)
    p95_freq = _window_mean(rows, "active_frequency",
                            p95[-1].start + 120, p95[-1].end)
    rated = dat.facility.base_frequency(0)
    assert mgc_freq == pytest.approx(rated, rel=0.05)
    assert p95_freq < 0.8 * rated

    mgc_instr = _window_mean(rows, "instructions_rate",
                             mgc[0].start + 60, mgc[0].end)
    p95_instr = _window_mean(rows, "instructions_rate",
                             p95[-1].start + 120, p95[-1].end)
    assert p95_instr > 2 * mgc_instr

    mgc_mem = _window_mean(rows, "mem_reads_rate",
                           mgc[0].start + 60, mgc[0].end)
    p95_mem = _window_mean(rows, "mem_reads_rate",
                           p95[-1].start + 120, p95[-1].end)
    assert mgc_mem > 3 * p95_mem

    # thermal margin tighter under prime95
    mgc_margin = _window_mean(rows, "thermal_margin",
                              mgc[0].start + 60, mgc[0].end)
    p95_margin = _window_mean(rows, "thermal_margin",
                              p95[-1].start + 120, p95[-1].end)
    assert p95_margin < mgc_margin - 5.0


def test_dat2_every_run_covered(dat2_result):
    dat, _plan, result = dat2_result
    rows = result.collect()
    for job in dat.scheduler.jobs:
        n = sum(1 for r in rows
                if job.start + 30 <= r["time"].epoch < job.end)
        assert n > 0, f"no derived samples during {job.workload.name}"


def _dat1_heat_rows(fahrenheit):
    """The heat question's answer on DAT 1 with AMG on rack 17, its
    rack temperatures registered in °C or, converted, in °F."""
    dat = generate_dat1(
        facility_config=FacilityConfig(num_racks=18, nodes_per_rack=2),
        duration=3600.0, amg_start=600.0, amg_duration=2400.0,
        include_aux_feeds=False,
    )
    if fahrenheit:
        rows, schema = dat.datasets["rack_temperatures"]
        dat.datasets["rack_temperatures"] = (
            [dict(r, temp=r["temp"] * 9.0 / 5.0 + 32.0) for r in rows],
            schema.replace_field(
                "temp", value("temperature", "degrees Fahrenheit")),
        )
    with ScrubJaySession() as sj:
        dat.register(sj)
        answer = (sj.query().across("jobs", "racks")
                  .values("applications", "heat").ask())
        assert answer.schema["heat"].units == "delta degrees Celsius"
        return answer.to_rows()


def test_dat1_heat_in_fahrenheit_equals_heat_in_celsius():
    """A domain derivation computes in the unit it labels its output
    with: °F rack temperatures give the same delta-°C heat as °C ones."""
    def keyed(rows):
        return sorted(
            (sorted((k, repr(v)) for k, v in r.items() if k != "heat"),
             r["heat"])
            for r in rows
        )

    celsius = keyed(_dat1_heat_rows(fahrenheit=False))
    fahrenheit = keyed(_dat1_heat_rows(fahrenheit=True))
    assert celsius and [k for k, _ in fahrenheit] == [k for k, _ in celsius]
    assert [h for _, h in fahrenheit] == \
        pytest.approx([h for _, h in celsius], rel=1e-9, abs=1e-9)
    hottest = dict(max(fahrenheit, key=lambda kh: kh[1])[0])
    assert (hottest["job_name"], hottest["rack"]) == ("'AMG'", "17")
