"""Failure propagation through the lazy pipeline, on every executor."""

import operator

import pytest

from repro.rdd import SJContext


class Boom(RuntimeError):
    pass


def _explode_on(value):
    def fn(x):
        if x == value:
            raise Boom(f"poisoned element {x}")
        return x

    return fn


@pytest.mark.parametrize("kind", ["serial", "simulated"])
def test_narrow_stage_failure_propagates(kind):
    with SJContext(executor=kind, num_workers=2) as ctx:
        r = ctx.parallelize(range(100), 4).map(_explode_on(42))
        with pytest.raises(Exception, match="poisoned element 42"):
            r.collect()


@pytest.mark.parametrize("kind", ["serial", "simulated"])
def test_shuffle_map_side_failure_propagates(kind):
    with SJContext(executor=kind, num_workers=2) as ctx:
        r = (
            ctx.parallelize(range(50), 4)
            .map(_explode_on(33))
            .map(lambda x: (x % 5, x))
            .aggregateByKey(0, operator.add, operator.add)
        )
        with pytest.raises(Exception, match="poisoned element 33"):
            r.collect()


def test_reduce_side_failure_propagates(ctx):
    def bad_merge(a, b):
        raise Boom("merge failed")

    r = ctx.parallelize([(1, 1), (1, 2)], 2).aggregateByKey(
        0, operator.add, bad_merge
    )
    with pytest.raises(Boom):
        r.collect()


def test_failure_does_not_poison_context(ctx):
    r = ctx.parallelize(range(10), 2).map(_explode_on(3))
    with pytest.raises(Boom):
        r.collect()
    # the context keeps working for subsequent healthy jobs
    assert sum(ctx.parallelize(range(10), 2).collect()) == 45


def test_failure_in_derivation_pipeline(ctx, dictionary):
    """A failing row inside a derivation surfaces with its message."""
    from repro.core.dataset import ScrubJayDataset
    from repro.core.semantics import Schema, domain

    schema = Schema({
        "nodes": domain("compute nodes", "list<identifier>"),
    })
    # a non-iterable value crashes the explode at execution time
    ds = ScrubJayDataset.from_rows(
        ctx, [{"nodes": [1, 2]}, {"nodes": 7}], schema, "bad"
    )
    from repro.core.transformations import ExplodeDiscrete

    exploded = ExplodeDiscrete("nodes").apply(ds, dictionary)
    with pytest.raises(TypeError):
        exploded.collect()


def test_cached_rdd_not_poisoned_by_downstream_failure(ctx):
    base = ctx.parallelize(range(10), 2).map(lambda x: x * 2).persist()
    bad = base.map(_explode_on(6))
    with pytest.raises(Boom):
        bad.collect()
    assert base._cached is not None
    assert sum(base.collect()) == 90
