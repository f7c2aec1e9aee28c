"""Shuffle machinery: portable hashing and bucket exchange.

A shuffle repartitions data by key between two stages. The map-side
task assigns every record to an output bucket; the driver regroups
buckets (standing in for the network exchange between cluster nodes);
the reduce-side task merges each bucket's records.

Bucket assignment uses :func:`portable_hash`, a deterministic
recursive hash over the key types that appear in ScrubJay join keys:
strings, numbers, bools, None, bytes, tuples/frozensets thereof,
dataclass instances (hashed structurally, which covers
``Timestamp``/``TimeSpan`` join keys), and any object providing a
``__portable_hash__() -> int`` method. Keys that compare equal hash
equal (``True == 1 == 1.0``), as in a dict, and a key hashes the same
in every interpreter, so bucket order does not depend on
``PYTHONHASHSEED``.

For any other type there is no process-stable hash to compute. Tasks
run in the driver, so the shuffle falls back to the builtin (salted)
``hash``, which is consistent within one interpreter. The shard router
(:mod:`repro.serve.sharded`) routes across processes and passes
``strict=True``, which raises a typed
:class:`~repro.errors.ShuffleKeyError` for such keys instead.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Any

from repro.errors import ShuffleKeyError

_MASK = 0xFFFFFFFFFFFF


def portable_hash(key: Any, strict: bool = False) -> int:
    """Deterministic, process-independent hash for shuffle keys.

    With ``strict=True``, keys whose type has no process-stable hash
    raise :class:`ShuffleKeyError` instead of falling back to the
    salted builtin ``hash`` (which is only consistent in-process).
    """
    if key is None:
        return 0x3070
    if isinstance(key, bool):
        # True == 1 and False == 0 in a dict, so they must co-hash
        return int(key)
    if isinstance(key, int):
        return key
    if isinstance(key, float):
        # floats equal to ints must hash equal to them (dict semantics)
        if key.is_integer():
            return int(key)
        return zlib.crc32(repr(key).encode("utf-8"))
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, tuple):
        h = 0x345678
        for item in key:
            h = (h * 1000003) ^ portable_hash(item, strict)
            h &= _MASK
        return h
    if isinstance(key, frozenset):
        h = 0x1111
        for item in sorted(portable_hash(i, strict) for i in key):
            h = (h * 31 + item) & _MASK
        return h
    custom = getattr(key, "__portable_hash__", None)
    if callable(custom):
        return int(custom())
    if dataclasses.is_dataclass(key) and not isinstance(key, type):
        # structural hash: type identity + field values, recursively.
        # Covers Timestamp/TimeSpan and other frozen dataclass keys.
        h = zlib.crc32(type(key).__qualname__.encode("utf-8"))
        for f in dataclasses.fields(key):
            h = (h * 1000003) ^ portable_hash(getattr(key, f.name), strict)
            h &= _MASK
        return h
    if strict:
        raise ShuffleKeyError(
            f"shuffle key {key!r} of type {type(key).__qualname__} has no "
            f"process-stable hash; two processes would place equal keys "
            f"differently. Use primitive, tuple, or dataclass keys, or "
            f"define __portable_hash__."
        )
    # Fall back to the object's own (possibly salted) hash; consistent
    # within this interpreter only, so prefer primitive keys.
    return hash(key)


def hash_bucket(key: Any, num_buckets: int) -> int:
    """Map ``key`` to one of ``num_buckets`` output partitions."""
    return portable_hash(key) % num_buckets
