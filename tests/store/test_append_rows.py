"""The streaming write path: ``append_rows`` seals appends into fresh
immutable segments — never rewriting sealed ones — with zone-map
sidecars landing at seal time."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.store import WideColumnStore


@pytest.fixture()
def table(tmp_path):
    store = WideColumnStore(str(tmp_path / "store"))
    return store.create_table("perf", "ldms", ["node"], ["time"])


def _rows(start, n):
    return [
        {"node": (start + i) % 3, "time": float(start + i),
         "v": start + i}
        for i in range(n)
    ]


def _file_state(paths):
    out = {}
    for p in paths:
        with open(p, "rb") as f:
            out[p] = (f.read(), os.stat(p).st_mtime_ns)
    return out


def test_append_seals_immediately_below_memtable_limit(table):
    out = table.append_rows(_rows(0, 3))
    assert out["segment_count"] == 1
    assert len(out["sealed"]) == 1
    assert out["rows"] == 3
    assert table._memtable_rows == 0  # nothing left unsealed
    assert table.segment_count() == 1


def test_append_never_rewrites_sealed_segments(table):
    table.append_rows(_rows(0, 4))
    table.append_rows(_rows(4, 4))
    before = _file_state(table._segment_paths())
    out = table.append_rows(_rows(8, 5))
    after = _file_state(table._segment_paths())
    # the old segment files are byte-identical and untouched on disk
    for path, state in before.items():
        assert after[path] == state
    # only the new segment is new
    assert set(after) - set(before) == set(out["sealed"])


def test_every_sealed_segment_gets_a_zone_sidecar(table):
    table.append_rows(_rows(0, 4))
    out = table.append_rows(_rows(4, 4))
    for seg in table._segment_paths():
        zone_path = table._zone_path(seg)
        assert os.path.exists(zone_path)
    # the fresh sidecar covers the appended rows' ranges
    with open(table._zone_path(out["sealed"][0]), "rb") as f:
        zone = pickle.load(f)
    assert zone  # non-empty zone map for a non-empty segment


def test_segment_count_is_the_feed_offset(table):
    assert table.segment_count() == 0
    table.append_rows(_rows(0, 2))
    table.append_rows(_rows(2, 2))
    assert table.segment_count() == 2
    got = table.read_segment_range(1, 2)
    assert sorted(r["time"] for r in got) == [2.0, 3.0]
    # the full range replays every appended row exactly once
    assert len(table.read_segment_range(0, 2)) == 4


def test_append_sweeps_pending_memtable_rows(table):
    table.insert_many(_rows(0, 2))  # unsealed, not feed-visible
    assert table.segment_count() == 0
    out = table.append_rows(_rows(2, 2))
    assert out["flushed_memtable"] is True
    assert out["segment_count"] == 1
    # the sealed segment carries both the pending and appended rows
    assert len(table.read_segment_range(0, 1)) == 4


def test_append_rows_via_store_handle(tmp_path):
    store = WideColumnStore(str(tmp_path / "s"))
    store.create_table("perf", "power", ["node"])
    out = store.append_rows("perf", "power", _rows(0, 3))
    assert out["segment_count"] == 1
    assert store.table("perf", "power").count() == 3


def test_half_written_segment_is_invisible(table):
    # a seal is a write beside the final name plus a rename: what a
    # crash leaves behind is a .tmp file that nothing counts or reads
    table.append_rows(_rows(0, 3))
    table.append_rows(_rows(3, 3))
    table.append_rows(_rows(6, 3))
    torn = os.path.join(table.directory, "segment-000003.pkl.tmp")
    with open(torn, "wb") as f:
        f.write(b"not a segment")
    assert table.segment_count() == 3
    rows, stats = table.scan_stats()
    assert len(rows) == 9
    assert stats["segments_read"] + stats["segments_skipped"] == 3
    out = table.append_rows(_rows(9, 3))
    assert [os.path.basename(p) for p in out["sealed"]] == [
        "segment-000003.pkl"
    ]
    assert table.segment_count() == 4
    assert len(table.read_segment_range(3, 4)) == 3
    # the seal renamed its own temporaries away, the leftover with them
    assert not [
        f for f in os.listdir(table.directory) if f.endswith(".tmp")
    ]
