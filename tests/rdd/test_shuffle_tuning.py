"""Shuffle tuning: the executor's reduce partition count, hot keys,
hash memoization, and the union defensive copy."""

from __future__ import annotations

import operator
from collections import Counter

import pytest

import repro.rdd.plan
import repro.rdd.shuffle
from repro.rdd import AdaptiveConfig, SJContext
from repro.rdd.shuffle import portable_hash


@pytest.fixture()
def ctx():
    with SJContext(executor="serial", default_parallelism=4) as c:
        yield c


@pytest.fixture()
def sim():
    # the simulated cluster reduces in default_parallelism buckets
    with SJContext(executor="simulated", default_parallelism=4) as c:
        yield c


# ----------------------------------------------------------------------
# the executor's reduce partition count
# ----------------------------------------------------------------------

def test_serial_shuffle_is_one_bucket_and_hashes_nothing(monkeypatch):
    def no_hash(*_args, **_kw):
        raise AssertionError("a serial shuffle must not hash its keys")

    monkeypatch.setattr(repro.rdd.plan, "hash_bucket", no_hash)
    monkeypatch.setattr(repro.rdd.shuffle, "portable_hash", no_hash)
    pairs = [((f"n{i % 7}", i % 3), i) for i in range(600)]
    want: dict = {}
    for k, v in pairs:
        want[k] = want.get(k, 0) + v
    with SJContext(executor="serial", default_parallelism=4) as cx:
        parts = cx.parallelize(pairs, 4) \
            .aggregateByKey(0, operator.add, operator.add)._materialize()
        assert len(parts) == 1
        assert dict(parts[0].data) == want
        d = cx.report.of("shuffle")[-1]
        assert d.choice == "one-bucket"
        assert d.evidence["chosen_partitions"] == 1
    left = [(i % 5, i) for i in range(40)]
    right = [(k, -k) for k in range(3)]
    oracle = Counter((k, (v, w)) for k, v in left for k2, w in right
                     if k == k2)
    with SJContext(executor="serial", default_parallelism=4,
                   adaptive=AdaptiveConfig(broadcast_threshold_rows=0)
                   ) as cx:
        got = Counter(cx.parallelize(left, 3)
                      .adaptiveJoin(cx.parallelize(right, 2)).collect())
        assert cx.report.of("join")[-1].choice == "shuffle"
        (d,) = cx.report.of("shuffle")
    assert got == oracle
    assert d.evidence["chosen_partitions"] == 1


def test_shuffle_volume_reflects_map_side_combine(ctx):
    # 1000 records, 5 distinct keys, 4 map partitions: at most 20
    # combined pairs cross the exchange
    pairs = [(i % 5, 1) for i in range(1000)]
    got = dict(ctx.parallelize(pairs, 4)
               .aggregateByKey(0, operator.add, operator.add).collect())
    assert got == {k: 200 for k in range(5)}
    d = ctx.report.of("shuffle")[-1]
    assert d.evidence["input_rows"] == 1000
    assert d.evidence["shuffled_pairs"] <= 20
    assert ctx.metrics.counter("rdd.shuffle.pairs") == \
        d.evidence["shuffled_pairs"]


# ----------------------------------------------------------------------
# hot keys
# ----------------------------------------------------------------------

def test_single_hot_key_is_not_split(sim):
    # one key = one combiner per map task; every one lands in the
    # key's bucket, so the reduce merges the whole key at once
    pairs = [("only", i) for i in range(500)]
    parts = sim.parallelize(pairs, 4).groupByKey()._materialize()
    d = sim.report.of("shuffle")[-1].evidence
    got = [kv for p in parts for kv in p.data]
    assert len(got) == 1
    assert sorted(got[0][1]) == list(range(500))
    assert len(parts) == d["chosen_partitions"] == 4


def test_hot_bucket_keeps_every_key_whole(sim):
    # 16 hot keys that all hash to bucket 0 of a 4-way shuffle, each
    # repeated 125 times: each key's sum is complete and every key
    # lives in exactly one reduce partition
    pairs = [(4 * (i % 16), 1) for i in range(2000)]
    parts = sim.parallelize(pairs, 5) \
        .aggregateByKey(0, operator.add, operator.add)._materialize()
    got = [kv for p in parts for kv in p.data]
    assert dict(got) == {4 * k: 125 for k in range(16)}
    assert len(got) == 16
    assert len(parts) == 4


# ----------------------------------------------------------------------
# hash memoization (correctness under repeated composite keys)
# ----------------------------------------------------------------------

def test_composite_key_shuffle_matches_driver_oracle(ctx):
    # composite tuple keys repeated many times per map task exercise
    # the per-task bucket memoization; results must match a plain dict
    pairs = [
        ((f"node{i % 7}", i % 3), i) for i in range(600)
    ]
    want: dict = {}
    for k, v in pairs:
        want[k] = want.get(k, 0) + v
    got = dict(ctx.parallelize(pairs, 6)
               .aggregateByKey(0, operator.add, operator.add).collect())
    assert got == want


def test_memoized_bucketing_matches_portable_hash(sim):
    # every key in one output partition must hash to that bucket —
    # memoization may only cache, never change, the routing
    pairs = [((i % 11, "x"), i) for i in range(300)]
    parts = sim.parallelize(pairs, 4) \
        .aggregateByKey(0, operator.add, operator.add)._materialize()
    for p in parts:
        for k, _v in p.data:
            assert portable_hash(k) % 4 == p.index


# ----------------------------------------------------------------------
# union defensive copy (satellite fix)
# ----------------------------------------------------------------------

def test_union_does_not_alias_persisted_parent(ctx):
    left = ctx.parallelize([1, 2, 3], 1).map(lambda x: x).persist()
    right = ctx.parallelize([4], 1)
    u = ctx.union([left, right])
    # a downstream op that mutates its input partitions in place must
    # not corrupt the persisted parent's cache
    u._materialize()[0].data.append(99)
    assert sorted(left.collect()) == [1, 2, 3]
    assert sorted(u.collect()) == [1, 2, 3, 4]


def test_union_repeated_same_parent(ctx):
    r = ctx.parallelize([1, 2], 2)
    u = ctx.union([r, r])
    assert sorted(u.collect()) == [1, 1, 2, 2]
    parts = u._materialize()
    assert [p.index for p in parts] == list(range(len(parts)))


def test_union_of_union_keeps_parents_intact(ctx):
    a = ctx.parallelize([1], 1).map(lambda x: x).persist()
    a.collect()
    before = [list(p.data) for p in a._materialize()]
    u = ctx.union([ctx.union([a, a]), a])
    for p in u._materialize():
        p.data.clear()
    assert [list(p.data) for p in a._materialize()] == before
