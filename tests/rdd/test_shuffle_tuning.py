"""Shuffle tuning: auto partition counts, skew splitting, hash
memoization, and the union defensive copy."""

from __future__ import annotations

import operator

import pytest

from repro.rdd import AdaptiveConfig, SJContext
from repro.rdd.shuffle import portable_hash


@pytest.fixture()
def ctx():
    with SJContext(executor="serial", default_parallelism=4) as c:
        yield c


# ----------------------------------------------------------------------
# auto-selected reduce partition counts
# ----------------------------------------------------------------------

def test_explicit_partition_count_is_respected(ctx):
    pairs = [(i % 10, 1) for i in range(200)]
    r = ctx.parallelize(pairs, 4).aggregateByKey(
        0, operator.add, operator.add, 7
    )
    assert len(r._materialize()) == 7
    d = ctx.report.shuffles()[-1]
    assert d.requested_partitions == 7
    assert d.chosen_partitions == 7
    assert d.reason == "explicit"


def test_auto_partition_count_from_stats():
    cfg = AdaptiveConfig(target_partition_rows=50)
    with SJContext(executor="serial", default_parallelism=4,
                   adaptive=cfg) as ctx:
        pairs = [(i, 1) for i in range(400)]  # 400 distinct keys
        got = dict(ctx.parallelize(pairs, 4)
                   .aggregateByKey(0, operator.add, operator.add)
                   .collect())
        d = ctx.report.shuffles()[-1]
    assert got == {i: 1 for i in range(400)}
    assert d.requested_partitions is None
    assert d.chosen_partitions == 8  # 400 rows / 50 per partition
    assert "stats" in d.reason


def test_auto_partition_count_capped_by_distinct_keys():
    cfg = AdaptiveConfig(target_partition_rows=10)
    with SJContext(executor="serial", default_parallelism=4,
                   adaptive=cfg) as ctx:
        pairs = [(i % 3, 1) for i in range(300)]  # only 3 keys
        got = dict(ctx.parallelize(pairs, 4)
                   .aggregateByKey(0, operator.add, operator.add)
                   .collect())
        d = ctx.report.shuffles()[-1]
    assert got == {0: 100, 1: 100, 2: 100}
    assert d.chosen_partitions <= 3


def test_disabled_adaptive_uses_default_parallelism():
    with SJContext(executor="serial", default_parallelism=6,
                   adaptive=AdaptiveConfig(enabled=False)) as ctx:
        ctx.parallelize([(i, 1) for i in range(50)], 4) \
            .aggregateByKey(0, operator.add, operator.add).collect()
        d = ctx.report.shuffles()[-1]
    assert d.chosen_partitions == 6
    assert d.reason == "default-parallelism"


def test_shuffle_volume_reflects_map_side_combine(ctx):
    # 1000 records, 5 distinct keys, 4 map partitions: at most 20
    # combined pairs cross the exchange
    pairs = [(i % 5, 1) for i in range(1000)]
    got = dict(ctx.parallelize(pairs, 4)
               .aggregateByKey(0, operator.add, operator.add).collect())
    assert got == {k: 200 for k in range(5)}
    d = ctx.report.shuffles()[-1]
    assert d.input_rows == 1000
    assert d.shuffled_pairs <= 20
    assert ctx.report.shuffle_volume() == d.shuffled_pairs


# ----------------------------------------------------------------------
# skew splitting
# ----------------------------------------------------------------------

def _skew_ctx(**over):
    kw = dict(skew_min_pairs=50, skew_factor=2.0,
              target_partition_rows=100)
    kw.update(over)
    return SJContext(executor="serial", default_parallelism=4,
                     adaptive=AdaptiveConfig(**kw))


def test_skewed_bucket_is_split_and_result_correct():
    # skew is measured on post-combine pairs, so the realistic shape
    # is many distinct keys hash-colliding into one bucket: int keys
    # portable-hash to themselves, so multiples of 4 all hit bucket 0
    # of a 4-way shuffle
    pairs = [(4 * i, i) for i in range(300)] + \
        [(4 * i + r, i) for r in (1, 2, 3) for i in range(30)]
    with _skew_ctx() as ctx:
        r = ctx.parallelize(pairs, 4).groupByKey(4)
        got = {k: sorted(vs) for k, vs in r.collect()}
        d = ctx.report.shuffles()[-1]
    want: dict = {}
    for k, v in pairs:
        want.setdefault(k, []).append(v)
    want = {k: sorted(vs) for k, vs in want.items()}
    assert got == want
    assert d.skewed_buckets == [0], "the hot bucket must be detected"
    assert d.output_partitions > d.chosen_partitions


def test_single_hot_key_is_not_split():
    # one key = one combiner per map task; all land in one sub-bucket,
    # so the scheduler must detect the skew but fall through cleanly
    # (splitting one key would break the reduce-side merge)
    pairs = [("only", i) for i in range(500)]
    with _skew_ctx(skew_min_pairs=2) as ctx:
        got = ctx.parallelize(pairs, 4).groupByKey(3).collect()
        d = ctx.report.shuffles()[-1]
    assert len(got) == 1
    assert sorted(got[0][1]) == list(range(500))
    assert d.skewed_buckets, "the hot bucket is detected..."
    assert d.output_partitions == d.chosen_partitions  # ...but not split


def test_skew_split_keeps_equal_keys_together():
    # a keyed sum over a split bucket only merges correctly if equal
    # keys land in the same sub-bucket: 16 hot keys, all multiples of
    # 4, each repeated 125 times
    pairs = [(4 * (i % 16), 1) for i in range(2000)]
    with _skew_ctx() as ctx:
        got = dict(ctx.parallelize(pairs, 5)
                   .aggregateByKey(0, operator.add, operator.add, 4)
                   .collect())
        d = ctx.report.shuffles()[-1]
    assert got == {4 * k: 125 for k in range(16)}
    assert d.skewed_buckets == [0]
    assert d.output_partitions > d.chosen_partitions


def test_no_split_below_min_pairs():
    pairs = [(1, 1)] * 30 + [(2, 2)]  # lopsided but tiny
    with _skew_ctx(skew_min_pairs=1000) as ctx:
        ctx.parallelize(pairs, 2).groupByKey(2).collect()
        d = ctx.report.shuffles()[-1]
    assert d.skewed_buckets == []
    assert d.output_partitions == d.chosen_partitions


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


def test_memoized_bucketing_matches_portable_hash(ctx):
    # every key in one output partition must hash to that bucket —
    # memoization may only cache, never change, the routing
    pairs = [((i % 11, "x"), i) for i in range(300)]
    parts = ctx.parallelize(pairs, 4) \
        .aggregateByKey(0, operator.add, operator.add, 4)._materialize()
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
