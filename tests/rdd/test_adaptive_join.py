"""Equivalence property tests for the adaptive join paths.

The acceptance contract for adaptive execution: every physical
strategy (broadcast-hash building either side, shuffle, and the
nested-loop oracle) must produce the same multiset of joined pairs, on
every executor kind. A poor choice may cost time, never correctness.
"""

from __future__ import annotations

import random
from collections import Counter
from operator import itemgetter

import pytest

from repro.rdd import AdaptiveConfig, SJContext


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


#: forces the shuffle plan for any non-empty side
_SHUFFLE = AdaptiveConfig(broadcast_threshold_rows=0)


def nested_loop_join(left, right):
    """O(n*m) oracle: the defining semantics of an inner equi-join."""
    return Counter(
        (k, (a, b)) for k, a in left for k2, b in right if k2 == k
    )


def _combine(l, r):
    return l["k"], l["v"], r[1]


#: the key/combine form: dict rows on the left, raw pairs on the
#: right, each keyed by its own function, every match built by combine
ROW_JOIN = dict(lkey=itemgetter("k"), rkey=itemgetter(0), combine=_combine)


def _rows(pairs):
    return [{"k": k, "v": v} for k, v in pairs]


def nested_loop_combine(left_rows, right):
    """The key/combine form's oracle: combine every matching pair."""
    return Counter(
        _combine(l, r) for l in left_rows for r in right if l["k"] == r[0]
    )


def _make_pairs(dist, seed=0, n_left=300, n_right=40, n_keys=25):
    rng = random.Random(seed)
    fn = DISTRIBUTIONS[dist]
    return fn(rng, n_left, n_keys), fn(rng, n_right, n_keys)


# ----------------------------------------------------------------------
# strategy x strategy equivalence on the serial executor
# ----------------------------------------------------------------------

def _auto_join(left, right, join_args=None, **ctx_args):
    """Run one auto-decided adaptive join: (result multiset, decision)."""
    with SJContext(executor="serial", default_parallelism=4,
                   **ctx_args) as ctx:
        got = Counter(
            ctx.parallelize(left, 5)
            .adaptiveJoin(ctx.parallelize(right, 3), **(join_args or {}))
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
        (big, small, {"adaptive": _SHUFFLE}, ("shuffle", None)),
    ]
    for left, right, ctx_args, chosen in cases:
        got, d = _auto_join(left, right, **ctx_args)
        assert (d.choice, d.evidence.get("build_side")) == chosen
        assert got == nested_loop_join(left, right)
        # the key/combine form takes the same decision, same matches
        got, d = _auto_join(_rows(left), right, ROW_JOIN, **ctx_args)
        assert (d.choice, d.evidence.get("build_side")) == chosen
        assert got == nested_loop_combine(_rows(left), right)


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
    assert d.evidence["right_rows"] < d.evidence["left_rows"]


def test_adaptive_join_falls_back_to_shuffle_over_threshold():
    left, right = _make_pairs("uniform")
    with SJContext(
        executor="serial", default_parallelism=4, adaptive=_SHUFFLE
    ) as ctx:
        l = ctx.parallelize(left, 5)
        r = ctx.parallelize(right, 3)
        got = Counter(l.adaptiveJoin(r).collect())
        d = ctx.report.of("join")[-1]
    assert d.choice == "shuffle"
    assert got == nested_loop_join(left, right)


def test_broadcast_threshold_is_inclusive_and_counts_exact_rows():
    # a side of exactly the threshold broadcasts, one more row shuffles;
    # the evidence is exact row counts, never a size estimate
    threshold = 40
    cfg = AdaptiveConfig(broadcast_threshold_rows=threshold)
    big = [(i % 25, i) for i in range(300)]
    for n, chosen in ((threshold, "broadcast"), (threshold + 1, "shuffle")):
        small = [(i % 25, -i) for i in range(n)]
        got, d = _auto_join(big, small, adaptive=cfg)
        assert d.choice == chosen
        assert d.evidence["right_rows"] == n
        assert d.evidence["left_rows"] == len(big)
        assert d.evidence["threshold_rows"] == threshold
        assert not any(k.endswith("_bytes") for k in d.evidence)
        assert got == nested_loop_join(big, small)


def test_adaptive_join_builds_left_when_left_is_smaller():
    big, small = _make_pairs("uniform")
    got, d = _auto_join(small, big)
    assert (d.choice, d.evidence["build_side"]) == ("broadcast", "left")
    # the left-build probe must keep (left value, right value) order
    assert got == nested_loop_join(small, big)


def test_adaptive_join_with_empty_sides():
    for adaptive in (None, _SHUFFLE):
        with SJContext(executor="serial", default_parallelism=4,
                       adaptive=adaptive) as ctx:
            l = ctx.parallelize([(1, "a"), (2, "b")], 2)
            rows = ctx.parallelize(_rows([(1, "a"), (2, "b")]), 2)
            e = ctx.parallelize([])
            assert l.adaptiveJoin(e).collect() == []
            assert e.adaptiveJoin(l).collect() == []
            assert e.adaptiveJoin(e).collect() == []
            assert rows.adaptiveJoin(e, **ROW_JOIN).collect() == []
            assert e.adaptiveJoin(l, **ROW_JOIN).collect() == []
            assert e.adaptiveJoin(e, **ROW_JOIN).collect() == []


def test_broadcast_preserves_duplicate_pairs():
    left = [(1, "a"), (1, "a"), (2, "b")]
    right = [(1, "x"), (1, "x")]
    oracle = nested_loop_join(left, right)
    assert sum(oracle.values()) == 4
    row_oracle = nested_loop_combine(_rows(left), right)
    assert sum(row_oracle.values()) == 4
    for adaptive in (None, _SHUFFLE):  # the shuffle plan keeps them too
        with SJContext(executor="serial", default_parallelism=4,
                       adaptive=adaptive) as ctx:
            l = ctx.parallelize(left, 2)
            r = ctx.parallelize(right, 2)
            assert Counter(l.adaptiveJoin(r).collect()) == oracle
            rows = ctx.parallelize(_rows(left), 2)
            assert Counter(rows.adaptiveJoin(r, **ROW_JOIN).collect()) \
                == row_oracle
            assert ctx.report.of("join")[-1].choice == \
                ("broadcast" if adaptive is None else "shuffle")


def test_adaptive_join_is_lazy():
    with SJContext(executor="serial", default_parallelism=4) as ctx:
        l = ctx.parallelize([(1, "a")])
        j = l.adaptiveJoin(l)
        assert len(ctx.report) == 0  # nothing decided before the action
        j.collect()
        assert ctx.report.of("join")


def test_adaptive_join_key_and_combine_run_only_on_action():
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    with SJContext(executor="serial", default_parallelism=4) as ctx:
        rows = ctx.parallelize(_rows([(1, "a"), (1, "b")]))
        r = ctx.parallelize([(1, "x")])
        j = rows.adaptiveJoin(r, **{
            name: counted(name, fn) for name, fn in ROW_JOIN.items()
        })
        assert len(ctx.report) == 0 and not calls
        assert Counter(j.collect()) == Counter([(1, "a", "x"),
                                                (1, "b", "x")])
    # the build side is keyed once, each probing element once, and
    # combine runs once per match
    assert calls == Counter(lkey=2, rkey=1, combine=2)


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
# equivalence across executors
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
