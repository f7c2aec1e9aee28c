"""Portable hashing: determinism and dict-consistency properties."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ShuffleKeyError
from repro.rdd import SJContext
from repro.rdd.shuffle import hash_bucket, portable_hash
from repro.units import Timestamp

keys = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.tuples(children, children),
    max_leaves=6,
)


@given(keys)
def test_hash_is_deterministic(key):
    assert portable_hash(key) == portable_hash(key)


@given(keys, st.integers(1, 64))
def test_bucket_in_range(key, n):
    assert 0 <= hash_bucket(key, n) < n


@given(st.integers(-(2**40), 2**40))
def test_int_float_consistency(i):
    # dict semantics: 2 == 2.0 must land in the same bucket
    assert portable_hash(i) == portable_hash(float(i))


@given(st.booleans())
def test_bool_int_consistency(b):
    # dict semantics: True == 1 == 1.0 must land in the same bucket
    assert portable_hash(b) == portable_hash(int(b)) == portable_hash(
        float(b)
    )


@pytest.mark.parametrize("n", [1, 2, 4])
def test_bool_and_int_keys_group_together_at_any_partition_count(n):
    # the groups must not depend on how the input was partitioned
    pairs = [(True, "a"), (1, "b"), (0, "c"), (False, "d")]
    with SJContext(executor="serial") as ctx:
        got = {
            k: sorted(v)
            for k, v in ctx.parallelize(pairs, n).groupByKey(4).collect()
        }
    assert got == {1: ["a", "b"], 0: ["c", "d"]}


def test_known_types_do_not_use_builtin_hash():
    # Strings must not fall through to the salted builtin hash; the
    # value below is the crc32 of "node-1".
    import zlib

    assert portable_hash("node-1") == zlib.crc32(b"node-1")


def test_tuples_differ_by_order():
    assert portable_hash((1, 2)) != portable_hash((2, 1))


@given(st.lists(st.tuples(st.text(max_size=8), st.integers()), max_size=50),
       st.integers(1, 8))
def test_equal_keys_same_bucket(pairs, n):
    for k, _v in pairs:
        assert hash_bucket(k, n) == hash_bucket(k, n)


# ----------------------------------------------------------------------
# strict mode: keys without a process-stable hash
# ----------------------------------------------------------------------

class _OpaqueKey:
    """Hashable, but only via the salted builtin hash."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return hash(("opaque", self.value))

    def __eq__(self, other):
        return isinstance(other, _OpaqueKey) and self.value == other.value


class _ProtocolKey(_OpaqueKey):
    def __portable_hash__(self):
        return self.value * 7


def test_strict_rejects_opaque_keys():
    with pytest.raises(ShuffleKeyError, match="process-stable"):
        portable_hash(_OpaqueKey(1), strict=True)


def test_non_strict_falls_back_to_builtin_hash():
    assert portable_hash(_OpaqueKey(1)) == hash(_OpaqueKey(1))


def test_strict_rejects_opaque_keys_nested_in_tuples():
    with pytest.raises(ShuffleKeyError):
        portable_hash((1, _OpaqueKey(2)), strict=True)


def test_portable_hash_protocol_honored_in_strict_mode():
    assert portable_hash(_ProtocolKey(3), strict=True) == 21


def test_dataclass_keys_are_portable_in_strict_mode():
    a = portable_hash(Timestamp(12.5), strict=True)
    b = portable_hash(Timestamp(12.5), strict=True)
    assert a == b
    assert portable_hash(Timestamp(13.0), strict=True) != a


def test_negative_zero_same_bucket_as_zero():
    for n in (2, 3, 7):
        assert hash_bucket(-0.0, n) == hash_bucket(0.0, n)


def test_negative_ints_bucket_in_range():
    for k in (-1, -(2**40), -17):
        for n in (1, 2, 8):
            assert 0 <= hash_bucket(k, n) < n


def test_opaque_keys_still_work_under_serial_executor():
    pairs = [(_OpaqueKey(i % 3), i) for i in range(12)]
    with SJContext(executor="serial") as ctx:
        got = {
            k.value: sorted(v)
            for k, v in ctx.parallelize(pairs, 4).groupByKey().collect()
        }
    assert got == {0: [0, 3, 6, 9], 1: [1, 4, 7, 10], 2: [2, 5, 8, 11]}


def test_timestamp_keys_group_correctly():
    pairs = [(Timestamp(float(i % 3)), i) for i in range(12)]
    with SJContext(executor="serial") as ctx:
        got = {
            k.epoch: sorted(v)
            for k, v in ctx.parallelize(pairs, 4).groupByKey().collect()
        }
    assert got == {0.0: [0, 3, 6, 9], 1.0: [1, 4, 7, 10], 2.0: [2, 5, 8, 11]}
