"""Property-based tests: RDD ops agree with sequential oracles for any
input, partition count, and executor."""

import operator
from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

from repro.rdd import SJContext

# one shared serial context: cheap, deterministic
_CTX = SJContext(executor="serial")

ints = st.lists(st.integers(-1000, 1000), max_size=200)
parts = st.integers(1, 9)


@given(ints, parts)
def test_map_matches_list_comprehension(data, n):
    r = _CTX.parallelize(data, n).map(lambda x: x * 3 - 1)
    assert r.collect() == [x * 3 - 1 for x in data]


@given(ints, parts)
def test_filter_matches(data, n)  :
    r = _CTX.parallelize(data, n).filter(lambda x: x % 3 == 0)
    assert r.collect() == [x for x in data if x % 3 == 0]


@given(ints, parts)
def test_flatMap_matches(data, n):
    r = _CTX.parallelize(data, n).flatMap(lambda x: [x, -x])
    assert r.collect() == [y for x in data for y in (x, -x)]


@given(ints, parts)
def test_count_and_sum(data, n):
    r = _CTX.parallelize(data, n)
    assert r.count() == len(data)
    assert sum(r.collect()) == sum(data)


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(-50, 50)),
                max_size=150), parts, parts)
def test_aggregateByKey_matches_oracle(pairs, n, out_n):
    # the simulated cluster reduces in default_parallelism buckets
    with SJContext(executor="simulated", default_parallelism=out_n) as cx:
        got = dict(cx.parallelize(pairs, n).aggregateByKey(
            0, operator.add, operator.add
        ).collect())
    want = defaultdict(int)
    for k, v in pairs:
        want[k] += v
    assert got == dict(want)


@given(st.lists(st.tuples(st.integers(0, 10), st.text(max_size=4)),
                max_size=100), parts)
def test_groupByKey_matches_oracle(pairs, n):
    r = _CTX.parallelize(pairs, n).groupByKey()
    want = defaultdict(list)
    for k, v in pairs:
        want[k].append(v)
    got = {k: sorted(v) for k, v in r.collect()}
    assert got == {k: sorted(v) for k, v in want.items()}


@given(st.lists(st.tuples(st.integers(0, 8), st.integers()), max_size=60),
       st.lists(st.tuples(st.integers(0, 8), st.integers()), max_size=60),
       parts)
def test_join_matches_nested_loop(a, b, n):
    got = Counter(
        _CTX.parallelize(a, n).join(_CTX.parallelize(b, n)).collect()
    )
    want = Counter(
        (ka, (va, vb)) for ka, va in a for kb, vb in b if ka == kb
    )
    assert got == want


@given(ints, parts)
@settings(max_examples=25)
def test_union_with_self_doubles(data, n):
    r = _CTX.parallelize(data, n)
    assert Counter(_CTX.union([r, r]).collect()) == Counter(data + data)
