"""Shuffle (key-based) transformations against dict-based oracles."""

import operator
from collections import defaultdict

import pytest

from repro.rdd import SJContext


def _kv(ctx, n=100, k=7, parts=5):
    return ctx.parallelize([(i % k, i) for i in range(n)], parts)


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


def test_shuffle_with_tuple_keys(ctx):
    r = ctx.parallelize([((1, "a"), 1), ((1, "a"), 2), ((2, "b"), 3)], 3)
    got = dict(r.aggregateByKey(0, operator.add, operator.add).collect())
    assert got == {(1, "a"): 3, (2, "b"): 3}


def test_shuffle_num_partitions_respected():
    # the simulated cluster reduces in default_parallelism partitions
    with SJContext(executor="simulated", num_workers=2,
                   default_parallelism=3) as cx:
        r = _kv(cx).aggregateByKey(0, operator.add, operator.add)
        assert len(r._materialize()) == 3
        d = cx.report.of("shuffle")[-1]
    assert d.choice == "cluster-parallelism"
    assert d.evidence["chosen_partitions"] == 3


@pytest.mark.parametrize("kind", ["serial", "simulated"])
def test_keyed_ops_consistent_across_executors(kind):
    cx = SJContext(executor=kind, num_workers=2, default_parallelism=4)
    r = cx.parallelize([(i % 5, i) for i in range(200)], 8)
    got = dict(r.aggregateByKey(0, operator.add, operator.add).collect())
    want = defaultdict(int)
    for i in range(200):
        want[i % 5] += i
    assert got == dict(want)
