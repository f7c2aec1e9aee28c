"""Equivalence property tests for the adaptive join paths.

The acceptance contract for adaptive execution: every physical
strategy (broadcast-hash building either side, shuffle, and the
nested-loop oracle) must produce the same multiset of joined pairs, on
every executor kind — including one that injects faults. A bad
statistic may cost time, never correctness.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.rdd import AdaptiveConfig, SJContext
from repro.rdd.executors import FaultInjectingExecutor, SerialExecutor
from repro.rdd.fault import RetryPolicy

FAST = dict(backoff_base=0.0)


# ----------------------------------------------------------------------
# key distributions (seeded, deterministic)
# ----------------------------------------------------------------------

def _uniform(rng, n, n_keys):
    return [(rng.randrange(n_keys), rng.randrange(1000)) for _ in range(n)]


def _skewed(rng, n, n_keys):
    """~60% of pairs pile onto a single hot key."""
    out = []
    for _ in range(n):
        k = 0 if rng.random() < 0.6 else rng.randrange(1, n_keys)
        out.append((k, rng.randrange(1000)))
    return out


def _disjoint_heavy(rng, n, n_keys):
    """Most keys only on one side: exercises non-matching rows."""
    return [(rng.randrange(3 * n_keys), rng.randrange(1000))
            for _ in range(n)]


DISTRIBUTIONS = {
    "uniform": _uniform,
    "skewed": _skewed,
    "disjoint": _disjoint_heavy,
}


def nested_loop_join(left, right):
    """O(n*m) oracle: the defining semantics of an inner equi-join."""
    return Counter(
        (k, (a, b)) for k, a in left for k2, b in right if k2 == k
    )


def _make_pairs(dist, seed=0, n_left=300, n_right=40, n_keys=25):
    rng = random.Random(seed)
    fn = DISTRIBUTIONS[dist]
    return fn(rng, n_left, n_keys), fn(rng, n_right, n_keys)


# ----------------------------------------------------------------------
# strategy x strategy equivalence on the serial executor
# ----------------------------------------------------------------------

def _auto_join(left, right, **ctx_args):
    """Run one auto-decided adaptive join: (result multiset, decision)."""
    with SJContext(executor="serial", default_parallelism=4,
                   **ctx_args) as ctx:
        got = Counter(
            ctx.parallelize(left, 5)
            .adaptiveJoin(ctx.parallelize(right, 3))
            .collect()
        )
        return got, ctx.report.of("join")[-1]


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
def test_all_strategies_match_nested_loop_oracle(dist):
    big, small = _make_pairs(dist)
    with SJContext(executor="serial", default_parallelism=4) as ctx:
        shuffle = Counter(
            ctx.parallelize(big, 5).join(ctx.parallelize(small, 3))
            .collect()
        )
    assert shuffle == nested_loop_join(big, small)
    # the planner builds whichever side is smaller, so swapping the
    # inputs exercises both probes; threshold 0 forces the shuffle
    cases = [
        (big, small, {}, ("broadcast", "right")),
        (small, big, {}, ("broadcast", "left")),
        (big, small, {"broadcast_threshold": 0}, ("shuffle", None)),
    ]
    for left, right, ctx_args, chosen in cases:
        got, d = _auto_join(left, right, **ctx_args)
        assert (d.choice, d.evidence.get("build_side")) == chosen
        assert got == nested_loop_join(left, right)


def test_adaptive_join_prefers_broadcast_for_small_side():
    left, right = _make_pairs("uniform")
    with SJContext(executor="serial", default_parallelism=4) as ctx:
        l = ctx.parallelize(left, 5)
        r = ctx.parallelize(right, 3)
        l.adaptiveJoin(r).collect()
        joins = ctx.report.of("join")
    assert joins, "adaptive join must record its decision"
    d = joins[-1]
    assert d.choice == "broadcast"
    assert d.evidence["build_side"] == "right"  # the smaller side
    assert d.evidence["right_bytes"] < d.evidence["left_bytes"]


def test_adaptive_join_falls_back_to_shuffle_over_threshold():
    left, right = _make_pairs("uniform")
    with SJContext(
        executor="serial", default_parallelism=4, broadcast_threshold=0
    ) as ctx:
        l = ctx.parallelize(left, 5)
        r = ctx.parallelize(right, 3)
        got = Counter(l.adaptiveJoin(r).collect())
        d = ctx.report.of("join")[-1]
    assert d.choice == "shuffle"
    assert got == nested_loop_join(left, right)


def test_adaptive_join_builds_left_when_left_is_smaller():
    big, small = _make_pairs("uniform")
    got, d = _auto_join(small, big)
    assert (d.choice, d.evidence["build_side"]) == ("broadcast", "left")
    # the left-build probe must keep (left value, right value) order
    assert got == nested_loop_join(small, big)


def test_adaptive_join_with_empty_sides():
    with SJContext(executor="serial", default_parallelism=4) as ctx:
        l = ctx.parallelize([(1, "a"), (2, "b")], 2)
        e = ctx.parallelize([])
        assert l.adaptiveJoin(e).collect() == []
        assert e.adaptiveJoin(l).collect() == []
        assert e.adaptiveJoin(e).collect() == []


def test_broadcast_preserves_duplicate_pairs():
    left = [(1, "a"), (1, "a"), (2, "b")]
    right = [(1, "x"), (1, "x")]
    oracle = nested_loop_join(left, right)
    assert sum(oracle.values()) == 4
    with SJContext(executor="serial", default_parallelism=4) as ctx:
        l = ctx.parallelize(left, 2)
        r = ctx.parallelize(right, 2)
        assert Counter(l.adaptiveJoin(r).collect()) == oracle


def test_adaptive_join_is_lazy():
    with SJContext(executor="serial", default_parallelism=4) as ctx:
        l = ctx.parallelize([(1, "a")])
        j = l.adaptiveJoin(l)
        assert len(ctx.report) == 0  # nothing decided before the action
        j.collect()
        assert ctx.report.of("join")


def test_adaptive_join_composes_with_downstream_ops():
    left, right = _make_pairs("uniform")
    oracle = nested_loop_join(left, right)
    want = sorted(k for k, _ in oracle.elements())
    with SJContext(executor="serial", default_parallelism=4) as ctx:
        l = ctx.parallelize(left, 5)
        r = ctx.parallelize(right, 3)
        got = sorted(
            l.adaptiveJoin(r).map(lambda kv: kv[0]).collect()
        )
    assert got == want


# ----------------------------------------------------------------------
# equivalence across executors (incl. fault injection)
# ----------------------------------------------------------------------

def _join_both_ways(ctx, left, right):
    l = ctx.parallelize(left, 5)
    r = ctx.parallelize(right, 3)
    return (
        Counter(l.adaptiveJoin(r).collect()),
        Counter(l.join(r).collect()),
    )


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
def test_equivalence_under_simulated_executor(dist):
    left, right = _make_pairs(dist, seed=3)
    oracle = nested_loop_join(left, right)
    with SJContext(executor="simulated", num_workers=3,
                   default_parallelism=4) as ctx:
        adaptive, shuffle = _join_both_ways(ctx, left, right)
    assert adaptive == oracle
    assert shuffle == oracle


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_equivalence_under_task_faults(seed):
    left, right = _make_pairs("skewed", seed=seed)
    oracle = nested_loop_join(left, right)
    inj = FaultInjectingExecutor(
        SerialExecutor(RetryPolicy(**FAST)),
        seed=seed,
        kill_tasks_per_stage=1,
    )
    with SJContext(executor=inj, default_parallelism=4) as ctx:
        adaptive, shuffle = _join_both_ways(ctx, left, right)
    assert adaptive == oracle
    assert shuffle == oracle
    assert inj.injected_task_faults > 0


def test_shuffle_fallback_under_faults():
    # force the shuffle path *through the adaptive node* while faults fire
    left, right = _make_pairs("skewed", seed=6)
    oracle = nested_loop_join(left, right)
    inj = FaultInjectingExecutor(
        SerialExecutor(RetryPolicy(**FAST)),
        seed=1,
        kill_tasks_per_stage=1,
    )
    with SJContext(executor=inj, default_parallelism=4,
                   broadcast_threshold=0) as ctx:
        l = ctx.parallelize(left, 5)
        r = ctx.parallelize(right, 3)
        got = Counter(l.adaptiveJoin(r).collect())
        assert ctx.report.of("join")[-1].choice == "shuffle"
    assert got == oracle
