"""Narrow transformations and structural ops."""


def test_map(ctx):
    assert ctx.parallelize([1, 2, 3]).map(lambda x: x * 2).collect() == [2, 4, 6]


def test_filter(ctx):
    r = ctx.parallelize(range(10), 3).filter(lambda x: x % 2 == 0)
    assert r.collect() == [0, 2, 4, 6, 8]


def test_flatMap(ctx):
    r = ctx.parallelize([1, 2], 2).flatMap(lambda x: [x] * x)
    assert r.collect() == [1, 2, 2]


def test_map_chain_pipelines(ctx):
    r = (
        ctx.parallelize(range(20), 4)
        .map(lambda x: x + 1)
        .filter(lambda x: x % 2 == 0)
        .map(lambda x: x * 10)
    )
    assert r.collect() == [x * 10 for x in range(1, 21) if x % 2 == 0]


def test_mapPartitions(ctx):
    r = ctx.parallelize(range(10), 2).mapPartitions(lambda items: [sum(items)])
    assert r.collect() == [sum(range(5)), sum(range(5, 10))]


def test_keyBy(ctx):
    r = ctx.parallelize(["aa", "b"]).keyBy(len)
    assert r.collect() == [(2, "aa"), (1, "b")]


def test_union(ctx):
    a = ctx.parallelize([1, 2], 2)
    b = ctx.parallelize([3], 1)
    u = ctx.union([a, b])
    assert u.collect() == [1, 2, 3]
    assert len(u._materialize()) == 3


def test_ctx_union_many(ctx):
    rdds = [ctx.parallelize([i], 1) for i in range(4)]
    assert ctx.union(rdds).collect() == [0, 1, 2, 3]
    assert ctx.union([]).collect() == []


def test_parallelize_caps_partitions_to_data(ctx):
    r = ctx.parallelize([1, 2], 10)
    assert len(r._materialize()) <= 2


def test_empty_rdd(ctx):
    r = ctx.parallelize([])
    assert r.collect() == []
    assert r.count() == 0
