"""Shared fixtures: contexts, dictionaries, and small canonical datasets."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import (
    DOMAIN,
    VALUE,
    Schema,
    ScrubJayDataset,
    ScrubJaySession,
    SemanticType,
    SJContext,
    TimeSpan,
    Timestamp,
    default_dictionary,
)


#: ``--hypothesis-profile=ci``: the join and rollup property tests
#: (tests/core/test_combinations_properties.py,
#: tests/metrics/test_rollup_properties.py) read their budget from it
settings.register_profile("ci", max_examples=400)


@pytest.fixture()
def ctx():
    c = SJContext(executor="serial", default_parallelism=4)
    yield c
    c.stop()


@pytest.fixture()
def dictionary():
    return default_dictionary()


@pytest.fixture()
def session():
    sj = ScrubJaySession()
    yield sj
    sj.close()


# ----------------------------------------------------------------------
# canonical small datasets (the Figure 5 trio, miniaturized)
# ----------------------------------------------------------------------

JOBS_SCHEMA = Schema({
    "job_id": SemanticType(DOMAIN, "jobs", "identifier"),
    "job_name": SemanticType(VALUE, "applications", "label"),
    "nodelist": SemanticType(DOMAIN, "compute nodes", "list<identifier>"),
    "elapsed": SemanticType(VALUE, "time", "seconds"),
    "timespan": SemanticType(DOMAIN, "time", "timespan"),
})

LAYOUT_SCHEMA = Schema({
    "node": SemanticType(DOMAIN, "compute nodes", "identifier"),
    "rack": SemanticType(DOMAIN, "racks", "identifier"),
})

TEMPS_SCHEMA = Schema({
    "rack": SemanticType(DOMAIN, "racks", "identifier"),
    "location": SemanticType(DOMAIN, "rack locations", "label"),
    "aisle": SemanticType(DOMAIN, "aisles", "label"),
    "time": SemanticType(DOMAIN, "time", "datetime"),
    "temp": SemanticType(VALUE, "temperature", "degrees Celsius"),
})


def jobs_rows():
    return [
        {"job_id": 1, "job_name": "AMG", "nodelist": [0, 1],
         "elapsed": 600.0, "timespan": TimeSpan(0.0, 600.0)},
        {"job_id": 2, "job_name": "LULESH", "nodelist": [2],
         "elapsed": 480.0, "timespan": TimeSpan(240.0, 720.0)},
    ]


def layout_rows():
    return [
        {"node": 0, "rack": 17},
        {"node": 1, "rack": 17},
        {"node": 2, "rack": 18},
    ]


def temps_rows():
    rows = []
    for t in range(0, 800, 120):
        for rack in (17, 18):
            for loc in ("top", "middle", "bottom"):
                base = 18.0
                heat = 6.0 if rack == 17 else 2.0
                rows.append({"rack": rack, "location": loc, "aisle": "cold",
                             "time": Timestamp(float(t)), "temp": base})
                rows.append({"rack": rack, "location": loc, "aisle": "hot",
                             "time": Timestamp(float(t)),
                             "temp": base + heat})
    return rows


@pytest.fixture()
def jobs_ds(ctx):
    return ScrubJayDataset.from_rows(ctx, jobs_rows(), JOBS_SCHEMA, "jobs")


@pytest.fixture()
def layout_ds(ctx):
    return ScrubJayDataset.from_rows(
        ctx, layout_rows(), LAYOUT_SCHEMA, "layout"
    )


@pytest.fixture()
def temps_ds(ctx):
    return ScrubJayDataset.from_rows(
        ctx, temps_rows(), TEMPS_SCHEMA, "temps"
    )


@pytest.fixture()
def fig5_session():
    sj = ScrubJaySession()
    sj.register_rows(jobs_rows(), JOBS_SCHEMA, "job_queue_log")
    sj.register_rows(layout_rows(), LAYOUT_SCHEMA, "node_layout")
    sj.register_rows(temps_rows(), TEMPS_SCHEMA, "rack_temperatures")
    yield sj
    sj.close()
