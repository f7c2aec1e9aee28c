"""Correlation between derived value fields.

The whole point of a ScrubJay derivation is "a dataset exposing
correlations between those sources and measurements" (§3) — these
helpers quantify them. Pearson correlation is computed from
distributed moment aggregation (one pass, no driver-side copy of the
columns); Spearman ranks driver-side (fine at report size).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import SemanticError
from repro.core.dataset import ScrubJayDataset


def correlate(
    dataset: ScrubJayDataset,
    field_x: str,
    field_y: str,
    method: str = "pearson",
) -> float:
    """Correlation coefficient between two value fields.

    Rows missing either field, or holding ``None`` there, are skipped.
    Raises ``ValueError`` when fewer than two complete rows exist or a
    field is constant.
    """
    for f in (field_x, field_y):
        if f not in dataset.schema:
            raise SemanticError(f"dataset has no field {f!r}")
    if method == "pearson":
        return _pearson(dataset, field_x, field_y)
    if method == "spearman":
        return _spearman(dataset, field_x, field_y)
    raise ValueError(f"unknown method {method!r}")


def _complete(fx: str, fy: str):
    """Row filter: both fields present and not ``None``."""
    return lambda row: row.get(fx) is not None and row.get(fy) is not None


def _pearson(ds: ScrubJayDataset, fx: str, fy: str) -> float:
    # one distributed pass over (n, Σx, Σy, Σx², Σy², Σxy)
    zero = (0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def seq(acc, row):
        x, y = row[fx], row[fy]
        return (
            acc[0] + 1,
            acc[1] + x,
            acc[2] + y,
            acc[3] + x * x,
            acc[4] + y * y,
            acc[5] + x * y,
        )

    def comb(a, b):
        return tuple(u + v for u, v in zip(a, b))

    n, sx, sy, sxx, syy, sxy = (
        ds.rdd.filter(_complete(fx, fy)).aggregate(zero, seq, comb)
    )
    if n < 2:
        raise ValueError("need at least two complete rows")
    cov = sxy - sx * sy / n
    vx = sxx - sx * sx / n
    vy = syy - sy * sy / n
    if vx <= 0 or vy <= 0:
        raise ValueError("a field is constant; correlation undefined")
    return cov / math.sqrt(vx * vy)


def _ranks(values: List[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and \
                values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def _spearman(ds: ScrubJayDataset, fx: str, fy: str) -> float:
    rows = ds.rdd.filter(_complete(fx, fy)).collect()
    if len(rows) < 2:
        raise ValueError("need at least two complete rows")
    xs = _ranks([r[fx] for r in rows])
    ys = _ranks([r[fy] for r in rows])
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx <= 0 or vy <= 0:
        raise ValueError("a field is constant; correlation undefined")
    return cov / math.sqrt(vx * vy)


def correlation_matrix(
    dataset: ScrubJayDataset,
    fields: Sequence[str],
    method: str = "pearson",
) -> Dict[Tuple[str, str], float]:
    """Pairwise correlations for every unordered field pair."""
    out: Dict[Tuple[str, str], float] = {}
    fs = list(fields)
    for i, fx in enumerate(fs):
        for fy in fs[i + 1:]:
            out[(fx, fy)] = correlate(dataset, fx, fy, method)
    return out
