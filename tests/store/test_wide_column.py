"""Wide-column store: data model, flush/scan, persistence."""

import os

import pytest

from repro.errors import StoreError
from repro.store import WideColumnStore


@pytest.fixture()
def store(tmp_path):
    return WideColumnStore(str(tmp_path / "store"))


def test_create_and_insert_scan(store):
    t = store.create_table("perf", "ldms", ["node"], ["time"])
    t.insert({"node": 1, "time": 2.0, "v": 10})
    t.insert({"node": 1, "time": 1.0, "v": 9})
    t.insert({"node": 2, "time": 0.5, "v": 7})
    rows = list(t.scan())
    assert len(rows) == 3
    # within a partition, the memtable scan is clustering-ordered
    node1 = [r for r in rows if r["node"] == 1]
    assert [r["time"] for r in node1] == [1.0, 2.0]


def test_partition_scan(store):
    t = store.create_table("perf", "ldms", ["node"])
    t.insert_many([{"node": n, "v": n} for n in (1, 2, 1)])
    assert len(list(t.scan(partition=(1,)))) == 2
    assert len(list(t.scan(partition=1))) == 2  # scalar convenience
    assert list(t.scan(partition=(9,))) == []


def test_flush_creates_segments_and_scan_merges(store):
    t = store.create_table("perf", "ldms", ["node"], ["time"])
    t.insert({"node": 1, "time": 1.0})
    t.flush()
    t.insert({"node": 1, "time": 2.0})
    assert t.count() == 2
    t.flush()
    assert len(t._segment_paths()) == 2
    assert t.count() == 2


def test_segments_sorted_by_clustering(store):
    t = store.create_table("perf", "ldms", ["node"], ["time"])
    t.insert_many([{"node": 1, "time": t_} for t_ in (3.0, 1.0, 2.0)])
    t.flush()
    assert [r["time"] for r in t.scan()] == [1.0, 2.0, 3.0]


def test_memtable_auto_flush(store):
    t = store.create_table("perf", "ldms", ["node"], memtable_limit=5)
    t.insert_many([{"node": i} for i in range(7)])
    assert len(t._segment_paths()) == 1
    assert t.count() == 7


def test_missing_partition_key_rejected(store):
    t = store.create_table("perf", "ldms", ["node"])
    with pytest.raises(StoreError, match="partition key"):
        t.insert({"time": 1.0})


def test_table_requires_partition_key(store):
    with pytest.raises(StoreError):
        store.create_table("perf", "bad", [])


def test_duplicate_table_rejected(store):
    store.create_table("perf", "ldms", ["node"])
    with pytest.raises(StoreError, match="already exists"):
        store.create_table("perf", "ldms", ["node"])


def test_reopen_table_from_disk(tmp_path):
    root = str(tmp_path / "store")
    s1 = WideColumnStore(root)
    t = s1.create_table("perf", "ldms", ["node"], ["time"])
    t.insert({"node": 1, "time": 1.0})
    t.flush()
    s2 = WideColumnStore(root)
    t2 = s2.table("perf", "ldms")
    assert t2.partition_key == ("node",)
    assert t2.clustering == ("time",)
    assert t2.count() == 1


def test_unknown_table_raises(store):
    with pytest.raises(StoreError, match="no table"):
        store.table("perf", "ghost")


def test_keyspace_and_table_listing(store):
    store.create_table("perf", "ldms", ["node"])
    store.create_table("perf", "papi", ["node"])
    store.create_table("facility", "temps", ["rack"])
    assert store.keyspaces() == ["facility", "perf"]
    assert store.tables("perf") == ["ldms", "papi"]
    assert store.tables("ghost") == []


def test_drop_table_forgets_handle_and_directory(store):
    t = store.create_table("perf", "ldms", ["node"])
    store.create_table("perf", "papi", ["node"])
    t.insert({"node": 1})
    t.flush()
    store.drop_table("perf", "ldms")
    assert store.tables("perf") == ["papi"]
    with pytest.raises(StoreError):
        store.table("perf", "ldms")
    with pytest.raises(StoreError):
        store.drop_table("perf", "ldms")
    # the name is free again
    assert store.create_table("perf", "ldms", ["node"]).count() == 0


def test_zone_sidecar_parsed_once_per_segment(store, monkeypatch):
    t = store.create_table("perf", "ldms", ["node"], ["time"])
    for seg in range(3):
        t.insert_many(
            [{"node": n, "time": seg * 10 + n} for n in range(4)]
        )
        t.flush()
    zone_opens = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        if os.path.basename(str(path)).startswith("zones-"):
            zone_opens.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    for _ in range(2):
        for node in range(4):
            assert len(t.scan_stats(partition=(node,))[0]) == 3
    assert len(zone_opens) == 3  # 24 lookups, one parse per segment

    # a rewritten segment is noticed: its stamp no longer matches the
    # parsed zone, and the stale sidecar on disk is not believed either
    seg = t._segment_paths()[0]
    rows = t.read_segment_range(0, 1)
    t2 = store.create_table("perf", "scratch", ["node"], ["time"])
    t2.insert_many(rows + [{"node": 9, "time": 99}])
    os.replace(t2.flush(), seg)
    assert t._load_zone(seg) is None
    assert len(t.scan_stats(partition=(9,))[0]) == 1


def test_partitions_listing(store):
    t = store.create_table("perf", "ldms", ["node"])
    t.insert_many([{"node": n} for n in (3, 1, 3)])
    assert t.partitions() == [(1,), (3,)]


def test_nosql_unwrapper_round_trip(ctx, dictionary, store):
    from repro.core.dataset import ScrubJayDataset
    from repro.core.semantics import Schema, domain, value
    from repro.sources import TableSource
    from repro.wrappers import NoSQLUnwrapper

    schema = Schema({
        "node": domain("compute nodes", "identifier"),
        "v": value("power", "watts"),
    })
    rows = [{"node": 1, "v": 5.0}, {"node": 2, "v": 6.0}]
    ds = ScrubJayDataset.from_rows(ctx, rows, schema, "t")
    NoSQLUnwrapper(store, "perf", "power", ["node"]).save(ds)
    src = TableSource(store, "perf", "power", schema)
    back = []
    for i in range(src.num_partitions()):
        back.extend(src.read_partition(i))
    assert sorted(back, key=lambda r: r["node"]) == rows
