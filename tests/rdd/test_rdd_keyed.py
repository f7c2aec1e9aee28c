"""Shuffle (key-based) transformations against dict-based oracles."""

from collections import defaultdict

import pytest


def _kv(ctx, n=100, k=7, parts=5):
    return ctx.parallelize([(i % k, i) for i in range(n)], parts)


def test_reduceByKey_matches_oracle(ctx):
    got = dict(_kv(ctx).reduceByKey(lambda a, b: a + b).collect())
    want = defaultdict(int)
    for i in range(100):
        want[i % 7] += i
    assert got == dict(want)


def test_groupByKey_groups_all_values(ctx):
    got = {k: sorted(v) for k, v in _kv(ctx).groupByKey().collect()}
    want = defaultdict(list)
    for i in range(100):
        want[i % 7].append(i)
    assert got == {k: sorted(v) for k, v in want.items()}


def test_aggregateByKey(ctx):
    # count and sum per key with an asymmetric zero
    got = dict(
        _kv(ctx)
        .aggregateByKey(
            (0, 0),
            lambda acc, v: (acc[0] + 1, acc[1] + v),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        .collect()
    )
    for k, (count, total) in got.items():
        vals = [i for i in range(100) if i % 7 == k]
        assert count == len(vals)
        assert total == sum(vals)


def test_aggregateByKey_zero_not_shared_between_keys(ctx):
    # mutable zero must be deep-copied per key
    r = ctx.parallelize([(1, "a"), (2, "b"), (1, "c")], 2)
    got = dict(
        r.aggregateByKey([], lambda acc, v: acc + [v],
                         lambda a, b: a + b).collect()
    )
    assert sorted(got[1]) == ["a", "c"]
    assert got[2] == ["b"]


def test_aggregateByKey_mutated_list_zero_not_shared(ctx):
    # an unhashable zero may be mutated in place by seq_fn: every key
    # must start from its own copy
    def push(acc, v):
        acc.append(v)
        return acc

    zero = []
    r = ctx.parallelize([(1, "a"), (2, "b"), (1, "c"), (3, "d")], 1)
    got = dict(r.aggregateByKey(zero, push, lambda a, b: a + b).collect())
    assert got == {1: ["a", "c"], 2: ["b"], 3: ["d"]}
    assert zero == []


def test_aggregateByKey_hashable_zero_not_copied(ctx):
    # a hashable zero is immutable as far as seq_fn can tell: each
    # key's first fold sees the zero itself, not a deep copy of it
    zero = (0, frozenset({"tag"}))
    first_accs = []

    def count(acc, _v):
        if acc[0] == 0:
            first_accs.append(acc)
        return (acc[0] + 1, acc[1])

    r = ctx.parallelize([(k % 5, k) for k in range(40)], 2)
    got = dict(
        r.aggregateByKey(zero, count, lambda a, b: (a[0] + b[0], a[1]))
        .collect()
    )
    assert {k: v[0] for k, v in got.items()} == {k: 8 for k in range(5)}
    assert first_accs and all(acc is zero for acc in first_accs)


def test_combineByKey_custom_combiner(ctx):
    r = ctx.parallelize([("x", 1), ("x", 5), ("y", 2)], 2)
    got = dict(
        r.combineByKey(
            lambda v: (v, v),
            lambda c, v: (min(c[0], v), max(c[1], v)),
            lambda a, b: (min(a[0], b[0]), max(a[1], b[1])),
        ).collect()
    )
    assert got == {"x": (1, 5), "y": (2, 2)}


def test_join_inner(ctx):
    a = ctx.parallelize([(1, "a"), (2, "b"), (2, "c")], 2)
    b = ctx.parallelize([(2, "x"), (3, "y"), (2, "z")], 2)
    got = sorted(a.join(b).collect())
    assert got == [(2, ("b", "x")), (2, ("b", "z")),
                   (2, ("c", "x")), (2, ("c", "z"))]


def test_join_no_overlap_empty(ctx):
    a = ctx.parallelize([(1, "a")])
    b = ctx.parallelize([(2, "b")])
    assert a.join(b).collect() == []


def test_leftOuterJoin(ctx):
    a = ctx.parallelize([(1, "a"), (2, "b")])
    b = ctx.parallelize([(2, "x")])
    got = sorted(a.leftOuterJoin(b).collect())
    assert got == [(1, ("a", None)), (2, ("b", "x"))]


def test_cogroup(ctx):
    a = ctx.parallelize([(1, "a"), (1, "b")])
    b = ctx.parallelize([(1, "x"), (2, "y")])
    got = {k: (sorted(l), sorted(r)) for k, (l, r) in
           a.cogroup(b).collect()}
    assert got == {1: (["a", "b"], ["x"]), 2: ([], ["y"])}


def test_partitionBy_colocates_keys(ctx):
    r = _kv(ctx, 50, 5).partitionBy(3)
    for part in r.glom().collect():
        keys_here = {k for k, _v in part}
        # every key appears in exactly one partition overall
    all_parts = r.glom().collect()
    placement = defaultdict(set)
    for idx, part in enumerate(all_parts):
        for k, _v in part:
            placement[k].add(idx)
    assert all(len(s) == 1 for s in placement.values())


def test_countByKey(ctx):
    got = _kv(ctx, 20, 3).countByKey()
    assert got == {0: 7, 1: 7, 2: 6}


def test_countByValue(ctx):
    got = ctx.parallelize([1, 1, 2], 2).countByValue()
    assert got == {1: 2, 2: 1}


def test_lookup(ctx):
    r = ctx.parallelize([(1, "a"), (2, "b"), (1, "c")], 2)
    assert sorted(r.lookup(1)) == ["a", "c"]
    assert r.lookup(9) == []


def test_shuffle_with_tuple_keys(ctx):
    r = ctx.parallelize([((1, "a"), 1), ((1, "a"), 2), ((2, "b"), 3)], 3)
    got = dict(r.reduceByKey(lambda a, b: a + b).collect())
    assert got == {(1, "a"): 3, (2, "b"): 3}


def test_shuffle_num_partitions_respected(ctx):
    r = _kv(ctx).reduceByKey(lambda a, b: a + b, num_partitions=3)
    assert r.getNumPartitions() == 3


@pytest.mark.parametrize("executor_fixture", ["thread_ctx", "process_ctx"])
def test_keyed_ops_consistent_across_executors(request, executor_fixture):
    cx = request.getfixturevalue(executor_fixture)
    r = cx.parallelize([(i % 5, i) for i in range(200)], 8)
    got = dict(r.reduceByKey(lambda a, b: a + b).collect())
    want = defaultdict(int)
    for i in range(200):
        want[i % 5] += i
    assert got == dict(want)


def test_subtract(ctx):
    a = ctx.parallelize([1, 2, 2, 3, 4], 2)
    b = ctx.parallelize([2, 4, 9], 2)
    assert sorted(a.subtract(b).collect()) == [1, 3]


def test_subtract_keeps_duplicates(ctx):
    a = ctx.parallelize([5, 5, 6], 2)
    b = ctx.parallelize([6], 1)
    assert sorted(a.subtract(b).collect()) == [5, 5]


def test_subtract_disjoint_and_empty(ctx):
    a = ctx.parallelize([1, 2], 2)
    assert sorted(a.subtract(ctx.emptyRDD()).collect()) == [1, 2]
    assert a.subtract(a).collect() == []


def test_intersection(ctx):
    a = ctx.parallelize([1, 2, 2, 3], 2)
    b = ctx.parallelize([2, 3, 3, 4], 2)
    assert sorted(a.intersection(b).collect()) == [2, 3]


def test_intersection_empty(ctx):
    a = ctx.parallelize([1], 1)
    assert a.intersection(ctx.parallelize([9])).collect() == []
