"""Expert-provided derivations: heat and active frequency."""

import pytest

from repro.core.dataset import ScrubJayDataset
from repro.core.domain_derivations import DeriveActiveFrequency, DeriveHeat
from repro.core.semantics import Schema, domain, value
from repro.errors import DerivationError
from repro.units.temporal import Timestamp

TEMPS = Schema({
    "rack": domain("racks", "identifier"),
    "location": domain("rack locations", "label"),
    "aisle": domain("aisles", "label"),
    "time": domain("time", "datetime"),
    "temp": value("temperature", "degrees Celsius"),
})


def _temp_rows():
    return [
        {"rack": 1, "location": "top", "aisle": "hot",
         "time": Timestamp(0.0), "temp": 30.0},
        {"rack": 1, "location": "top", "aisle": "cold",
         "time": Timestamp(0.0), "temp": 18.0},
        {"rack": 1, "location": "bottom", "aisle": "hot",
         "time": Timestamp(0.0), "temp": 24.0},
        {"rack": 1, "location": "bottom", "aisle": "cold",
         "time": Timestamp(0.0), "temp": 18.0},
        # missing cold reading → no heat row for this group
        {"rack": 2, "location": "top", "aisle": "hot",
         "time": Timestamp(0.0), "temp": 40.0},
    ]


def test_derive_heat_schema(dictionary):
    out = DeriveHeat().derive_schema(TEMPS, dictionary)
    assert "heat" in out
    assert out["heat"].dimension == "heat"
    assert "aisle" not in out and "temp" not in out


def test_derive_heat_values(ctx, dictionary):
    ds = ScrubJayDataset.from_rows(ctx, _temp_rows(), TEMPS, "t")
    rows = sorted(
        DeriveHeat().apply(ds, dictionary).collect(),
        key=lambda r: r["location"],
    )
    assert [(r["rack"], r["location"], r["heat"]) for r in rows] == [
        (1, "bottom", 6.0),
        (1, "top", 12.0),
    ]


def test_derive_heat_applies_requirements(dictionary):
    no_aisle = TEMPS.without_field("aisle")
    assert not DeriveHeat().applies(no_aisle, dictionary)
    no_temp = TEMPS.without_field("temp")
    assert not DeriveHeat().applies(no_temp, dictionary)
    no_time = TEMPS.without_field("time")
    assert not DeriveHeat().applies(no_time, dictionary)
    assert DeriveHeat().applies(TEMPS, dictionary)


def test_derive_heat_apply_rejects_invalid(ctx, dictionary):
    ds = ScrubJayDataset.from_rows(
        ctx, [], TEMPS.without_field("aisle"), "t"
    )
    with pytest.raises(DerivationError):
        DeriveHeat().apply(ds, dictionary)


def test_derive_heat_averages_duplicate_sensors(ctx, dictionary):
    rows = _temp_rows()[:2] + [
        {"rack": 1, "location": "top", "aisle": "hot",
         "time": Timestamp(0.0), "temp": 34.0},
    ]
    ds = ScrubJayDataset.from_rows(ctx, rows, TEMPS, "t")
    out = DeriveHeat().apply(ds, dictionary).collect()
    assert out[0]["heat"] == pytest.approx((30.0 + 34.0) / 2 - 18.0)


def test_derive_heat_none_temperature_is_not_a_sample(ctx, dictionary):
    rows = _temp_rows() + [
        # a None reading beside a real one: averaged as if absent
        {"rack": 1, "location": "top", "aisle": "hot",
         "time": Timestamp(0.0), "temp": None},
        # the only cold reading is None: no heat row, as if missing
        {"rack": 2, "location": "top", "aisle": "cold",
         "time": Timestamp(0.0), "temp": None},
    ]
    ds = ScrubJayDataset.from_rows(ctx, rows, TEMPS, "t")
    out = sorted(
        DeriveHeat().apply(ds, dictionary).collect(),
        key=lambda r: r["location"],
    )
    assert [(r["rack"], r["location"], r["heat"]) for r in out] == [
        (1, "bottom", 6.0),
        (1, "top", 12.0),
    ]


def test_derive_heat_converts_to_the_unit_it_labels(ctx, dictionary):
    fahrenheit = TEMPS.replace_field(
        "temp", value("temperature", "degrees Fahrenheit"))
    rows = [dict(r, temp=r["temp"] * 9.0 / 5.0 + 32.0)
            for r in _temp_rows()]
    ds = ScrubJayDataset.from_rows(ctx, rows, fahrenheit, "t")
    out = sorted(
        DeriveHeat().apply(ds, dictionary).collect(),
        key=lambda r: r["location"],
    )
    assert [(r["location"], r["heat"]) for r in out] == [
        ("bottom", pytest.approx(6.0)),
        ("top", pytest.approx(12.0)),
    ]
    # a temperature in a unit with no path to °C is not a heat input
    unitless = TEMPS.replace_field("temp", value("temperature", "label"))
    assert not DeriveHeat().applies(unitless, dictionary)


# ----------------------------------------------------------------------
# active frequency
# ----------------------------------------------------------------------

FREQ = Schema({
    "nodeid": domain("compute nodes", "identifier"),
    "cpuid": domain("cpus", "identifier"),
    "time": domain("time", "datetime"),
    "aperf_rate": value("aperf events per time", "count per second"),
    "mperf_rate": value("mperf events per time", "count per second"),
    "base_frequency": value("rated frequency", "rated gigahertz"),
})


def test_active_frequency_schema(dictionary):
    out = DeriveActiveFrequency().derive_schema(FREQ, dictionary)
    assert out["active_frequency"].dimension == "active frequency"


def test_active_frequency_math(ctx, dictionary):
    rows = [
        {"nodeid": 0, "cpuid": 0, "time": Timestamp(0.0),
         "aperf_rate": 2.4e9, "mperf_rate": 3.2e9, "base_frequency": 3.2},
        {"nodeid": 0, "cpuid": 1, "time": Timestamp(0.0),
         "aperf_rate": 3.2e9, "mperf_rate": 3.2e9, "base_frequency": 3.2},
        {"nodeid": 0, "cpuid": 2, "time": Timestamp(0.0),
         "aperf_rate": 1.0, "mperf_rate": 0.0, "base_frequency": 3.2},
    ]
    ds = ScrubJayDataset.from_rows(ctx, rows, FREQ, "f")
    out = {r["cpuid"]: r.get("active_frequency")
           for r in DeriveActiveFrequency().apply(ds, dictionary).collect()}
    assert out[0] == pytest.approx(2.4)  # throttled to 75%
    assert out[1] == pytest.approx(3.2)  # full tilt
    assert 2 not in out  # zero mperf rate row dropped


@pytest.mark.parametrize("field", ["aperf_rate", "mperf_rate",
                                   "base_frequency"])
def test_active_frequency_none_input_is_not_a_sample(ctx, dictionary, field):
    rows = [
        {"nodeid": 0, "cpuid": 0, "time": Timestamp(0.0),
         "aperf_rate": 2.4e9, "mperf_rate": 3.2e9, "base_frequency": 3.2},
        {"nodeid": 0, "cpuid": 1, "time": Timestamp(0.0),
         "aperf_rate": 2.4e9, "mperf_rate": 3.2e9, "base_frequency": 3.2,
         field: None},
    ]
    ds = ScrubJayDataset.from_rows(ctx, rows, FREQ, "f")
    out = DeriveActiveFrequency().apply(ds, dictionary).collect()
    assert [r["cpuid"] for r in out] == [0]
    assert out[0]["active_frequency"] == pytest.approx(2.4)


def test_active_frequency_requires_all_inputs(dictionary):
    assert DeriveActiveFrequency().applies(FREQ, dictionary)
    for missing in ("aperf_rate", "mperf_rate", "base_frequency"):
        assert not DeriveActiveFrequency().applies(
            FREQ.without_field(missing), dictionary
        )


def test_instantiations_only_when_applicable(dictionary):
    assert DeriveActiveFrequency.instantiations(FREQ, dictionary)
    assert not DeriveActiveFrequency.instantiations(
        FREQ.without_field("aperf_rate"), dictionary
    )
    assert DeriveHeat.instantiations(TEMPS, dictionary)
    assert not DeriveHeat.instantiations(
        TEMPS.without_field("aisle"), dictionary
    )


def test_active_frequency_converts_rated_to_rated_gigahertz(ctx, dictionary):
    dictionary.define_unit("rated megahertz", "quantity", "rated frequency",
                           scale=1e-3)
    mhz = FREQ.replace_field(
        "base_frequency", value("rated frequency", "rated megahertz"))
    rows = [{"nodeid": 0, "cpuid": 0, "time": Timestamp(0.0),
             "aperf_rate": 2.4e9, "mperf_rate": 3.2e9,
             "base_frequency": 3200.0}]
    ds = ScrubJayDataset.from_rows(ctx, rows, mhz, "f")
    out = DeriveActiveFrequency().apply(ds, dictionary).collect()
    assert out[0]["active_frequency"] == pytest.approx(2.4)
    unitless = FREQ.replace_field(
        "base_frequency", value("rated frequency", "label"))
    assert not DeriveActiveFrequency().applies(unitless, dictionary)
