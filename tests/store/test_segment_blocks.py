"""Property test for the segment read path: a sealed segment is a
header, one pickled block per partition key and a footer index, and a
partition read decodes only its own block. Whatever the table looks
like — composite and mixed-type partition keys, more keys in a segment
than the zone map lists, None/NaN values, several segments plus a live
memtable, one segment rewritten behind the table's back as a pre-index
plain pickle — a partition scan must equal the full scan filtered by
key, and its ``bytes_scanned`` must charge only what it read."""

import math
import os
import pickle
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.sources.predicate import ColumnPredicate, EqTerm, RangeTerm
from repro.store import WideColumnStore, wide_column

NAN = float("nan")

#: few distinct cells per kind, so keys recur across segments
key_cells = st.one_of(
    st.integers(0, 2),
    st.sampled_from(["a", "b", ""]),
    st.tuples(st.integers(0, 1)),
)
values = st.one_of(st.none(), st.sampled_from([NAN, 0.5, -1.5, 2.0, 7.25]))
labels = st.one_of(st.none(), st.sampled_from(["x", "y"]))

#: the zone map stops listing partition keys beyond this many, so a
#: handful of keys per segment already exercises the overflow
SMALL_PKEY_CAP = 3


@st.composite
def tables(draw):
    """(key columns, row batches): every batch but possibly the last
    is flushed as one segment; the last may stay in the memtable."""
    key_cols = [f"k{i}" for i in range(draw(st.integers(1, 3)))]
    keys = draw(st.lists(
        st.tuples(*[key_cells] * len(key_cols)),
        min_size=1, max_size=8, unique=True,
    ))

    def row(key, t, v, w, with_w):
        out = dict(zip(key_cols, key), t=t, v=v)
        if with_w:
            out["w"] = w
        return out

    rows = st.builds(
        row, st.sampled_from(keys), st.integers(0, 9), values, labels,
        st.booleans(),
    )
    batches = draw(st.lists(
        st.lists(rows, min_size=1, max_size=12), min_size=1, max_size=4,
    ))
    return key_cols, batches


predicates = st.one_of(
    st.none(),
    st.lists(
        st.one_of(
            st.builds(RangeTerm, st.just("t"), st.integers(0, 5),
                      st.integers(4, 9)),
            st.builds(RangeTerm, st.just("v"), st.just(0.0),
                      st.sampled_from([1.0, 8.0])),
            st.builds(EqTerm, st.just("k0"), key_cells),
            st.builds(EqTerm, st.just("w"), st.just("x")),
        ),
        min_size=1, max_size=2,
    ).map(ColumnPredicate),
)
projections = st.one_of(
    st.none(),
    st.lists(st.sampled_from(["k0", "t", "v", "w", "absent"]),
             min_size=1, max_size=3, unique=True),
)


def canon(row):
    """A row as a comparable value: NaN equals NaN."""
    return tuple(sorted((k, repr(v)) for k, v in row.items()))


def sealed_order(table, batch):
    """What ``flush`` writes for ``batch``: partition keys in ``repr``
    order, rows clustering-sorted (stably) inside each."""
    by_key = {}
    for r in batch:
        by_key.setdefault(table._pkey(r), []).append(r)
    return [
        r for key in sorted(by_key, key=repr)
        for r in sorted(by_key[key], key=table._ckey)
    ]


@settings(max_examples=60, deadline=None)
@given(tables(), st.booleans(), st.integers(0, 3), st.booleans(),
       predicates, projections)
def test_partition_scan_equals_filtered_full_scan(
    table_spec, keep_memtable, rewrite, backfill, predicate, columns
):
    key_cols, batches = table_spec
    with tempfile.TemporaryDirectory() as root, mock.patch.object(
        wide_column, "ZONE_PKEY_CAP", SMALL_PKEY_CAP
    ):
        t = WideColumnStore(root).create_table(
            "ks", "t", key_cols, ["t"]
        )
        flushed = batches[:-1] if keep_memtable else batches
        for batch in flushed:
            t.insert_many(batch)
            t.flush()
        if keep_memtable:
            t.insert_many(batches[-1])
        paths = t._segment_paths()
        assert len(paths) == len(flushed)

        # the feed read: the flushed rows, in sealed order
        want_sealed = [
            r for batch in flushed for r in sealed_order(t, batch)
        ]
        got_sealed = t.read_segment_range(0, len(paths))
        assert list(map(canon, got_sealed)) == list(map(canon, want_sealed))

        full, full_stats = t.scan_stats()
        assert len(full) == sum(map(len, batches))
        assert list(map(canon, full[:len(want_sealed)])) == list(
            map(canon, want_sealed)
        )
        sizes = {p: os.path.getsize(p) for p in paths}
        assert full_stats["bytes_scanned"] == sum(sizes.values())

        keys = t.partitions()
        assert set(keys) == {t._pkey(r) for r in full}
        seg_keys = [{t._pkey(r) for r in batch} for batch in flushed]

        # bytes: a partition read pays for a segment's header and index
        # and for its own block, and nothing for a segment without one
        charged = 0
        for key in keys + [("no", "such", "key")[:len(key_cols)]]:
            _, stats = t.scan_stats(partition=key)
            holding = [p for p, ks in zip(paths, seg_keys) if key in ks]
            assert stats["segments_read"] == len(holding)
            assert stats["segments_skipped"] == len(paths) - len(holding)
            assert stats["bytes_scanned"] <= sum(sizes[p] for p in holding)
            if not holding:
                assert stats["bytes_scanned"] == 0
            charged += stats["bytes_scanned"]
        expected = 0
        for path, ks in zip(paths, seg_keys):
            with open(path, "rb") as f:
                index, meta = wide_column._read_index(f)
            assert list(index) == sorted(ks, key=repr)
            expected += sizes[path] + (len(ks) - 1) * meta
        assert charged == expected

        # one segment becomes a pre-index plain pickle, as written
        # before segments had blocks; its sidecar is now stale
        if rewrite < len(paths):
            old = t.read_segment_range(rewrite, rewrite + 1)
            with open(paths[rewrite], "wb") as f:
                pickle.dump(old, f)
            if backfill:
                assert t.ensure_zone_maps() == 1
            assert set(t.partitions()) == set(keys)
            again, _ = t.scan_stats()
            assert list(map(canon, again)) == list(map(canon, full))

        def project(row):
            if columns is None:
                return row
            return {k: v for k, v in row.items() if k in columns}

        for key in keys:
            mine = [r for r in full if t._pkey(r) == key]
            rows, stats = t.scan_stats(partition=key)
            assert list(map(canon, rows)) == list(map(canon, mine))
            assert stats["rows_read"] == len(mine)

            # pushed predicate + projection == scan, then filter
            want = [
                project(r) for r in mine
                if predicate is None or predicate.matches(r)
            ]
            rows, stats = t.scan_stats(key, columns, predicate)
            assert list(map(canon, rows)) == [
                canon(r) for r in want if r
            ]
            assert stats["rows_read"] <= len(mine)


def test_nan_cells_round_trip_through_blocks(tmp_path):
    # the canonical form above must not be hiding a lost NaN
    t = WideColumnStore(str(tmp_path)).create_table("ks", "t", ["k"], ["t"])
    t.insert_many([{"k": 1, "t": 0, "v": NAN}, {"k": 2, "t": 0, "v": None}])
    t.flush()
    (one,), _ = t.scan_stats(partition=(1,))
    assert math.isnan(one["v"])
    (two,), _ = t.scan_stats(partition=(2,))
    assert two["v"] is None
