"""Persistence semantics."""


def test_persist_avoids_recompute(ctx):
    calls = []

    def trace(x):
        calls.append(x)
        return x * 2

    r = ctx.parallelize(range(5), 2).map(trace).persist()
    assert r.collect() == [0, 2, 4, 6, 8]
    first = len(calls)
    assert r.collect() == [0, 2, 4, 6, 8]
    assert len(calls) == first  # no extra calls on second action


def test_unpersist_recomputes(ctx):
    calls = []

    def trace(x):
        calls.append(x)
        return x

    r = ctx.parallelize(range(3), 1).map(trace).persist()
    r.collect()
    r.unpersist()
    r.collect()
    assert len(calls) == 6


def test_persist_mid_chain_caches_prefix(ctx):
    calls = []

    def trace(x):
        calls.append(x)
        return x

    base = ctx.parallelize(range(4), 2).map(trace).persist()
    a = base.map(lambda x: x + 1)
    b = base.map(lambda x: x - 1)
    a.collect()
    b.collect()
    assert len(calls) == 4  # prefix computed once, reused by both
