"""Store I/O faults end typed or recovered, never raw.

Every store write goes through ``wide_column._replace_into``; these
tests fault it (and ``os.replace`` under it), and tear files on disk,
at four points: segment write/rename, segment read, zone-sidecar write
and table metadata.
"""

import errno
import os

import pytest

from repro import ScrubJaySession
from repro.core.semantics import Schema, domain, value
from repro.errors import StoreError
from repro.store import WideColumnStore
from repro.store import wide_column
from repro.units.temporal import Timestamp

SCHEMA = Schema({
    "rack": domain("racks", "identifier"),
    "time": domain("time", "datetime"),
    "temp": value("temperature", "degrees Celsius"),
})

ROWS = [
    {"rack": i % 3, "time": Timestamp(float(i)), "temp": 20.0 + i % 9}
    for i in range(30)
]


def _enospc() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _tear_next_write(monkeypatch, prefix):
    """The store's next write of a file named ``prefix*`` fails
    part-way with ENOSPC, after its first chunk reached the disk."""
    real = wide_column._replace_into
    armed = [True]

    def replace_into(path, chunks):
        if armed[0] and os.path.basename(path).startswith(prefix):
            armed[0] = False

            def torn():
                yield chunks[0]
                raise _enospc()

            return real(path, torn())
        return real(path, chunks)

    monkeypatch.setattr(wide_column, "_replace_into", replace_into)


def _fail_next_rename(monkeypatch, prefix):
    """The next rename onto a file named ``prefix*`` fails with EIO."""
    real = os.replace
    armed = [True]

    def replace(src, dst):
        if armed[0] and os.path.basename(dst).startswith(prefix):
            armed[0] = False
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def _leftovers(table):
    return [f for f in os.listdir(table.directory) if f.endswith(".tmp")]


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "store")


@pytest.fixture()
def table(root):
    t = WideColumnStore(root).create_table(
        "facility", "temps", ["rack"], ["time"], memtable_limit=1000
    )
    t.insert_many(ROWS)
    return t


@pytest.mark.parametrize("fault", ["write", "rename"])
def test_failed_segment_write_keeps_memtable_for_one_retry(
    monkeypatch, table, fault
):
    if fault == "write":
        _tear_next_write(monkeypatch, "segment-")
    else:
        _fail_next_rename(monkeypatch, "segment-")
    with pytest.raises(StoreError) as ei:
        table.flush()
    assert isinstance(ei.value.__cause__, OSError)
    assert _leftovers(table) == []
    assert table._segment_paths() == []
    assert table.count() == len(ROWS)  # still in the memtable
    table.flush()
    assert len(table._segment_paths()) == 1
    assert table.count() == len(ROWS)


def test_failed_sidecar_write_commits_rows_once(monkeypatch, table):
    _tear_next_write(monkeypatch, "zones-")
    path = table.flush()
    assert table.flush() is None  # nothing left to seal
    assert table._segment_paths() == [path]
    assert table.count() == len(ROWS)
    assert _leftovers(table) == []
    # the committed segment is only unpruned until its sidecar is
    # backfilled
    assert table.segment_zones() == [(path, None)]
    assert table.ensure_zone_maps() == 1
    assert table.segment_zones()[0][1]["rows"] == len(ROWS)


@pytest.mark.parametrize("size", ["empty", "header", "half", "index"])
def test_torn_segment_read_raises_store_error(root, table, size):
    path = table.flush()
    full = os.path.getsize(path)
    keep = {"empty": 0, "header": 10, "half": full // 2,
            "index": full - 7}[size]
    with open(path, "r+b") as f:
        f.truncate(keep)
    # reopening the table skips the torn segment's sidecar backfill
    store = WideColumnStore(root)
    reopened = store.table("facility", "temps")
    for read in (reopened.partitions, reopened.count,
                 lambda: reopened.read_segment_range(0, 1)):
        with pytest.raises(StoreError, match=os.path.basename(path)):
            read()
    sj = ScrubJaySession()
    sj.ingest().table(store, "facility", "temps", SCHEMA).register("temps")
    answer = sj.query().across("racks", "time").value("temperature").ask()
    with pytest.raises(StoreError, match=os.path.basename(path)):
        answer.to_rows()
    sj.close()


def test_table_metadata_is_atomic_and_torn_metadata_typed(
    monkeypatch, root
):
    store = WideColumnStore(root)
    _tear_next_write(monkeypatch, "meta.pkl")
    with pytest.raises(StoreError):
        store.create_table("facility", "temps", ["rack"])
    directory = os.path.join(root, "facility", "temps")
    assert os.listdir(directory) == []  # no torn meta.pkl, no .tmp
    store.create_table("facility", "temps", ["rack"])
    meta = os.path.join(directory, "meta.pkl")
    with open(meta, "r+b") as f:
        f.truncate(os.path.getsize(meta) // 2)
    with pytest.raises(StoreError, match="meta.pkl"):
        WideColumnStore(root).table("facility", "temps")


def test_failed_drop_is_typed(monkeypatch, root, table):
    def rmtree(path):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(wide_column.shutil, "rmtree", rmtree)
    with pytest.raises(StoreError) as ei:
        WideColumnStore(root).drop_table("facility", "temps")
    assert isinstance(ei.value.__cause__, OSError)
