"""The fluent ingestion builder: ``session.ingest()...register()``."""

import pytest

from repro import ScrubJaySession
from repro.core.semantics import Schema, domain, value
from repro.errors import SourceError
from repro.rdd.rdd import ScanRDD
from repro.sources import CSVSource, RowsSource
from repro.store import WideColumnStore
from repro.units.temporal import Timestamp
from repro.wrappers import CSVUnwrapper

SCHEMA = Schema({
    "node": domain("compute nodes", "identifier"),
    "time": domain("time", "datetime"),
    "temp": value("temperature", "degrees Celsius"),
})


def make_rows(n=12):
    return [
        {"node": i % 3, "time": Timestamp(float(i)), "temp": 20.0 + i}
        for i in range(n)
    ]


def key(row):
    return tuple(sorted((k, repr(v)) for k, v in row.items()))


def test_ingest_rows_register(session):
    rows = make_rows()
    ds = session.ingest().rows(rows, SCHEMA).register("temps")
    assert session.dataset("temps") is ds
    assert isinstance(ds.rdd, ScanRDD)
    assert isinstance(ds.source, RowsSource)
    assert sorted(ds.collect(), key=key) == sorted(rows, key=key)


def test_ingest_csv_lazy_and_partitioned(session, tmp_path, ctx, dictionary):
    path = str(tmp_path / "d.csv")
    from repro.core.dataset import ScrubJayDataset
    rows = make_rows()
    CSVUnwrapper(path, dictionary).save(
        ScrubJayDataset.from_rows(ctx, rows, SCHEMA, "t")
    )
    ds = (
        session.ingest().csv(path, SCHEMA).partitions(3).register("temps")
    )
    assert isinstance(ds.source, CSVSource)
    assert ds.source.num_partitions() == 3
    assert sorted(ds.collect(), key=key) == sorted(rows, key=key)


def test_ingest_sql(session, tmp_path, ctx, dictionary):
    from repro.core.dataset import ScrubJayDataset
    from repro.wrappers import SQLUnwrapper
    db = str(tmp_path / "perf.db")
    rows = make_rows()
    SQLUnwrapper(db, "temps", dictionary).save(
        ScrubJayDataset.from_rows(ctx, rows, SCHEMA, "t")
    )
    ds = session.ingest().sql(db, SCHEMA, table="temps").register("temps")
    assert sorted(ds.collect(), key=key) == sorted(rows, key=key)


def test_ingest_table(session, tmp_path):
    store = WideColumnStore(str(tmp_path / "store"))
    t = store.create_table("perf", "temps", ["node"], ["time"])
    rows = make_rows()
    t.insert_many(rows)
    t.flush()
    ds = (
        session.ingest()
        .table(store, "perf", "temps", SCHEMA)
        .register("temps")
    )
    assert ds.source.num_partitions() == 3  # one per store partition key
    assert sorted(ds.collect(), key=key) == sorted(rows, key=key)


def test_ingest_load_without_register(session):
    ds = session.ingest().rows(make_rows(), SCHEMA).load("floating")
    assert ds.name == "floating"
    assert "floating" not in session.catalog
    assert ds.provenance["op"] == "scan"
    assert ds.provenance["source"] == "RowsSource"


def test_ingest_one_source_per_chain(session):
    chain = session.ingest().rows([], SCHEMA)
    with pytest.raises(SourceError, match="already has a source"):
        chain.rows([], SCHEMA)


def test_ingest_requires_a_source(session):
    with pytest.raises(SourceError, match="no source"):
        session.ingest().load()


def test_ingested_dataset_is_queryable(session):
    session.ingest().rows(make_rows(), SCHEMA).register("temps")
    answer = (
        session.query()
        .across("compute nodes")
        .value("temperature")
        .ask()
    )
    assert len(answer) > 0
    assert {"node", "temp"} <= set(answer.to_rows()[0])
