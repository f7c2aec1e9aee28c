"""Answer oracles in plain Python.

Nothing here imports ``repro`` or executes a plan: expected answers are
worked out from the generated rows with dict/list/bisect code, so a bug
in the program cannot also hide in the oracle. Multisets are compared
by an order-independent digest, ``(row count, sum of per-row hashes)``;
where the expected rows are a contiguous range of a sorted list the
digest comes from a prefix sum, so checking an answer costs one hash
per returned row and nothing per stored row.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple

MASK = (1 << 64) - 1

Digest = Tuple[int, int]


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------

def _round9(value: float) -> float:
    return float(f"{value:.9g}")


def _canon(value: Any) -> Any:
    """A hashable stand-in with floats rounded to 9 significant digits
    (derived values may differ in the last bits between routes)."""
    if isinstance(value, float):
        return _round9(value)
    epoch = getattr(value, "epoch", None)
    if isinstance(epoch, float):
        return ("t", _round9(epoch))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def digest_rows(rows: Iterable[Dict[str, Any]], exact: bool) -> Digest:
    """Digest of a row multiset, independent of row and field order.

    ``exact`` is for answers whose values are copied, not computed: it
    hashes ``frozenset(row.items())`` at C speed. Otherwise floats are
    rounded first."""
    n = 0
    total = 0
    if exact:
        try:
            for row in rows:
                total += hash(frozenset(row.items()))
                n += 1
            return n, total & MASK
        except TypeError:
            raise ValueError("exact digest needs hashable row values")
    for row in rows:
        total += hash(frozenset(
            (k, _canon(v)) for k, v in row.items()
        ))
        n += 1
    return n, total & MASK


class PrefixDigest:
    """Digest of any contiguous run of a sorted row list in O(log n).

    ``keys[i]`` is the sort key (e.g. epoch seconds) of row ``i`` and
    ``hashes[i]`` its row hash; :meth:`between` answers the digest of
    the rows whose key lies in ``[lo, hi)``."""

    def __init__(self, keys: Sequence[float], hashes: Sequence[int]) -> None:
        self.keys = list(keys)
        self.prefix = [0]
        acc = 0
        for h in hashes:
            acc += h
            self.prefix.append(acc)

    def between(self, lo: float, hi: float) -> Digest:
        i = bisect.bisect_left(self.keys, lo)
        j = bisect.bisect_left(self.keys, hi)
        if j < i:
            j = i
        return j - i, (self.prefix[j] - self.prefix[i]) & MASK


def row_hash(row: Dict[str, Any]) -> int:
    return hash(frozenset(row.items()))


# ----------------------------------------------------------------------
# group answers
# ----------------------------------------------------------------------

def groups_close(
    got: Dict[Any, Any], want: Dict[Any, Any], rel: float = 1e-9
) -> bool:
    """Same group keys, values equal within ``rel`` (partial sums are
    merged in a different order than a plain loop adds them)."""
    if len(got) != len(want):
        return False
    for key, w in want.items():
        if key not in got:
            return False
        g = got[key]
        if isinstance(w, dict):
            if not isinstance(g, dict) or g.keys() != w.keys():
                return False
            pairs = [(g[m], w[m]) for m in w]
        else:
            pairs = [(g, w)]
        for a, b in pairs:
            if not math.isclose(a, b, rel_tol=rel, abs_tol=1e-12):
                return False
    return True


def aggregate(values: Sequence[float], how: str) -> float:
    if how == "mean":
        return math.fsum(values) / len(values)
    if how == "sum":
        return math.fsum(values)
    if how == "max":
        return max(values)
    raise ValueError(how)


class RunningBuckets:
    """Per-(time bucket, key) running sums fed batch by batch — what a
    materialized rollup or a metric subscription must agree with after
    every acknowledged append."""

    def __init__(self, width: float) -> None:
        self.width = width
        self.cells: Dict[float, Dict[Any, List[float]]] = {}

    def add(self, key: Any, epoch: float, value: float) -> None:
        bucket = math.floor(epoch / self.width) * self.width
        cell = self.cells.setdefault(bucket, {}).get(key)
        if cell is None:
            self.cells[bucket][key] = [value, 1]
        else:
            cell[0] += value
            cell[1] += 1

    def means(self) -> Dict[Tuple[Any, float], float]:
        """Mean per (key, bucket start) over everything added."""
        return {
            (key, bucket): s / n
            for bucket, keys in self.cells.items()
            for key, (s, n) in keys.items()
        }

    def means_between(self, lo: float,
                      hi: float) -> Dict[Tuple[Any, float], float]:
        """Means of the buckets starting in ``[lo, hi)``; ``lo`` must
        be bucket-aligned so no bucket is cut."""
        out: Dict[Tuple[Any, float], float] = {}
        bucket = math.floor(lo / self.width) * self.width
        while bucket < hi:
            for key, (s, n) in self.cells.get(bucket, {}).items():
                out[(key, bucket)] = s / n
            bucket += self.width
        return out


# ----------------------------------------------------------------------
# windowed-join structure
# ----------------------------------------------------------------------

class WindowIndex:
    """Per-key sorted (time, value) samples, for checking a windowed
    join without re-implementing its interpolation rule: every attached
    value must lie between the smallest and largest partner sample
    inside the window."""

    def __init__(self, samples: Iterable[Tuple[Any, float, float]]) -> None:
        by_key: Dict[Any, List[Tuple[float, float]]] = {}
        for key, t, v in samples:
            by_key.setdefault(key, []).append((t, v))
        self.times: Dict[Any, List[float]] = {}
        self.values: Dict[Any, List[float]] = {}
        for key, pairs in by_key.items():
            pairs.sort()
            self.times[key] = [t for t, _ in pairs]
            self.values[key] = [v for _, v in pairs]

    def bounds(self, key: Any, at: float,
               window: float) -> Tuple[float, float, int]:
        """(min, max, count) of the key's samples with |t - at| <
        window; count 0 means no partner."""
        times = self.times.get(key)
        if not times:
            return 0.0, 0.0, 0
        i = bisect.bisect_right(times, at - window)
        j = bisect.bisect_left(times, at + window)
        if j <= i:
            return 0.0, 0.0, 0
        vals = self.values[key][i:j]
        return min(vals), max(vals), j - i
