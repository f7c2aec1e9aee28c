"""Actions: collect/count/take/aggregate."""


def test_collect_preserves_partition_order(ctx):
    assert ctx.parallelize(range(10), 3).collect() == list(range(10))


def test_count(ctx):
    assert ctx.parallelize(range(17), 4).count() == 17
    assert ctx.parallelize([]).count() == 0


def test_take(ctx):
    r = ctx.parallelize(range(10), 4)
    assert r.take(3) == [0, 1, 2]
    assert r.take(100) == list(range(10))
    assert r.take(1) == [0]
    assert ctx.parallelize([]).take(1) == []


def test_take_nonpositive_returns_empty(ctx):
    # regression: take appended before checking the count, so take(0)
    # and take(-1) both returned the first element
    r = ctx.parallelize(range(10), 3)
    assert r.take(0) == []
    assert r.take(-1) == []


def test_aggregate(ctx):
    total, count = ctx.parallelize(range(10), 3).aggregate(
        (0, 0),
        lambda acc, x: (acc[0] + x, acc[1] + 1),
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
    )
    assert (total, count) == (45, 10)
