"""Vectorized kernels over :class:`~repro.columnar.batch.ColumnBatch`.

Every kernel is a batch-level re-statement of an existing row-path
operator, and each one is bound by the same contract the adaptive
execution layer already enforces for physical plan choices: *identical
results* to its row counterpart, edge cases included. The deliberate
mirrors:

- masks reproduce the exact semantics of
  :meth:`repro.sources.predicate.EqTerm.matches` /
  :meth:`~repro.sources.predicate.RangeTerm.matches` — a missing
  field is ``None`` for equality and an automatic fail for ranges,
  NaN passes every range bound (both IEEE comparisons are False),
  unorderable values fail ranges via the same TypeError rule;
- ``filter_range_mask`` mirrors ``FilterRange.keep`` instead, which
  (unlike ``RangeTerm``) lets a TypeError propagate;
- dictionary-encoded columns evaluate each predicate once per
  *distinct* value and map the verdicts through the codes — the
  payoff of dictionary encoding.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.columnar.batch import Column, ColumnBatch

__all__ = [
    "predicate_mask",
    "apply_predicate",
    "filter_equals_mask",
    "filter_range_mask",
    "select_fields",
    "rename_field",
    "build_hash_index",
    "hash_join_probe",
    "group_aggregate_partial",
]


# ----------------------------------------------------------------------
# predicate masks (pushdown terms)
# ----------------------------------------------------------------------


def _per_distinct(col: Column, verdict: Callable[[Any], bool]) -> List[int]:
    """Evaluate a per-value verdict once per dictionary entry, then
    broadcast through the codes."""
    table = [1 if verdict(v) else 0 for v in col.dictionary]
    data, validity = col.data, col.validity
    null = 1 if verdict(None) else 0
    return [table[c] if v else null for c, v in zip(data, validity)]


def _term_mask(batch: ColumnBatch, term: Any) -> List[int]:
    """Row-exact mask for one EqTerm/RangeTerm: mirrors
    ``term.matches(row)`` where a null slot means the row lacks the
    field."""
    col = batch.cols.get(term.column)
    op = getattr(term, "op", None)
    if col is None:
        # every row misses the column: Eq matches only value None,
        # Range never matches
        hit = 1 if (op == "eq" and term.value is None) else 0
        return [hit] * batch.num_rows
    if op == "eq":
        value = term.value
        if col.kind == "dict":
            return _per_distinct(col, lambda v: v == value)
        return [
            1 if ((x if v else None) == value) else 0
            for x, v in zip(col.data, col.validity)
        ]
    if op == "range":
        low, high = term.low, term.high
        if col.kind in ("f", "q"):
            # numeric fast path; NaN: both comparisons False → passes
            return [
                1 if (
                    v
                    and not (low is not None and x < low)
                    and not (high is not None and x >= high)
                ) else 0
                for x, v in zip(col.data, col.validity)
            ]
        if col.kind == "dict":
            return _per_distinct(
                col,
                lambda v: v is not None
                and term.matches({term.column: v}),
            )
        column = term.column
        return [
            1 if (v and term.matches({column: x})) else 0
            for x, v in zip(col.data, col.validity)
        ]
    # unknown term type: fall back to the row truth per element
    column = term.column
    return [
        1 if term.matches({column: x} if v else {}) else 0
        for x, v in zip(batch.column_values(term.column), col.validity)
    ]


def predicate_mask(batch: ColumnBatch, predicate: Any) -> List[int]:
    """Conjunction mask for a ColumnPredicate (1 = row matches)."""
    mask: Optional[List[int]] = None
    for term in predicate.terms:
        tm = _term_mask(batch, term)
        if mask is None:
            mask = tm
        else:
            mask = [a & b for a, b in zip(mask, tm)]
    return mask if mask is not None else [1] * batch.num_rows


def apply_predicate(batch: ColumnBatch, predicate: Any) -> ColumnBatch:
    if predicate is None or not getattr(predicate, "terms", None):
        return batch
    return batch.filter(predicate_mask(batch, predicate))


# ----------------------------------------------------------------------
# filter / project / rename transformations
# ----------------------------------------------------------------------


def filter_equals_mask(
    batch: ColumnBatch, field: str, value: Any
) -> List[int]:
    """``row.get(field) == value`` per row (FilterEquals semantics)."""
    col = batch.cols.get(field)
    if col is None:
        return [1 if (None == value) else 0] * batch.num_rows  # noqa: E711
    if col.kind == "dict":
        return _per_distinct(col, lambda v: v == value)
    return [
        1 if ((x if v else None) == value) else 0
        for x, v in zip(col.data, col.validity)
    ]


def filter_range_mask(
    batch: ColumnBatch,
    field: str,
    low: Optional[float],
    high: Optional[float],
) -> List[int]:
    """``FilterRange.keep`` per row: missing field fails; datetimes
    compare by ``.epoch``; a TypeError from an unorderable value
    propagates, exactly as the row path would raise it."""
    col = batch.cols.get(field)
    if col is None:
        return [0] * batch.num_rows
    if col.kind in ("f", "q"):
        return [
            1 if (
                v
                and not (low is not None and x < low)
                and not (high is not None and x >= high)
            ) else 0
            for x, v in zip(col.data, col.validity)
        ]
    out: List[int] = []
    for x, v in zip(col.data, col.validity):
        if not v:
            out.append(0)
            continue
        if col.kind == "dict":
            x = col.dictionary[x]
        epoch = getattr(x, "epoch", x)
        keep = not (low is not None and epoch < low) and not (
            high is not None and epoch >= high
        )
        out.append(1 if keep else 0)
    return out


def select_fields(batch: ColumnBatch, fields: Sequence[str]) -> ColumnBatch:
    """Projection + drop of rows left empty (SelectFields semantics:
    ``map(project).filter(bool)``)."""
    return batch.project(fields).drop_all_null_rows()


def rename_field(batch: ColumnBatch, field: str, to: str) -> ColumnBatch:
    """RenameField semantics: rows missing the field keep any existing
    ``to`` value; rows holding it overwrite ``to``."""
    src = batch.cols.get(field)
    if src is None:
        return batch
    old = batch.cols.get(to)
    if old is not None:
        # per-row merge: the renamed value wins where present
        merged = [
            s if sv else (o if ov else None)
            for s, sv, o, ov in zip(
                src.values(), src.validity, old.values(), old.validity
            )
        ]
        from repro.columnar.batch import _encode_column

        col = _encode_column(
            merged, sum(1 for m in merged if m is not None)
        )
        out = {
            k: c
            for k, c in batch.cols.items()
            if k not in (field, to)
        }
        out[to] = col
        return ColumnBatch(out, batch.num_rows)
    return batch.rename(field, to)


# ----------------------------------------------------------------------
# hash join (build / probe over encoded key columns)
# ----------------------------------------------------------------------


def build_hash_index(
    batch: ColumnBatch, key_fields: Sequence[str]
) -> Dict[Tuple, List[int]]:
    """Key tuple → row indices of the build side."""
    index: Dict[Tuple, List[int]] = {}
    for i, key in enumerate(batch.key_tuples(key_fields)):
        index.setdefault(key, []).append(i)
    return index


def hash_join_probe(
    left: ColumnBatch,
    left_key_fields: Sequence[str],
    build: ColumnBatch,
    index: Dict[Tuple, List[int]],
    rename: Dict[str, str],
) -> Optional[ColumnBatch]:
    """Probe one left batch against a built right index and merge.

    Output columns are the left batch's columns plus every right
    column named in ``rename`` under its output name — the columnar
    restatement of ``out = dict(lrow); out[rename[f]] = rrow[f]``.
    Returns None when nothing matched.
    """
    keys = left.key_tuples(left_key_fields)
    if all(len(hits) == 1 for hits in index.values()):
        # unique build keys (the lookup-table case): probe via a flat
        # dict in one C-level map; when every row matches, the left
        # side needs no gather at all
        flat = {k: hits[0] for k, hits in index.items()}
        probed = list(map(flat.get, keys))
        if None in probed:
            l_idx = [i for i, j in enumerate(probed) if j is not None]
            if not l_idx:
                return None
            r_idx = list(map(probed.__getitem__, l_idx))
            out = left.take(l_idx)
        else:
            r_idx = probed
            out = left
    else:
        l_idx: List[int] = []
        r_idx: List[int] = []
        for i, key in enumerate(keys):
            hits = index.get(key)
            if hits:
                for j in hits:
                    l_idx.append(i)
                    r_idx.append(j)
        if not l_idx:
            return None
        out = left.take(l_idx)
    cols = dict(out.cols)
    for f, name in rename.items():
        col = build.cols.get(f)
        if col is not None:
            cols[name] = col.take(r_idx)
    return ColumnBatch(cols, len(r_idx))


# ----------------------------------------------------------------------
# groupby-aggregate
# ----------------------------------------------------------------------


def group_aggregate_partial(
    elements: Sequence[Any],
    group_fields: Sequence[str],
    value_field: str,
    zero: Any,
    seq: Callable[[Any, Any], Any],
    bucket: Optional[Callable[[float], float]] = None,
) -> Dict[Tuple, Any]:
    """Per-partition partial aggregation over batches (and any stray
    rows), skipping rows missing the value or any group field — the
    exact filter of :func:`repro.analysis.aggregate.key_rows`, whose
    ``bucket`` it applies too.
    """
    # deferred: repro.analysis.aggregate imports this module
    from repro.analysis.aggregate import key_rows

    acc: Dict[Tuple, Any] = {}
    gf = list(group_fields)
    for x in elements:
        if isinstance(x, ColumnBatch):
            vcol = x.cols.get(value_field)
            if vcol is None or not x.num_rows:
                continue
            gcols = [x.cols.get(f) for f in gf]
            if any(c is None for c in gcols):
                continue
            keys = x.key_tuples(gf)
            gvalid = [c.validity for c in gcols]
            values = vcol.values()
            vvalid = vcol.validity
            for i in range(x.num_rows):
                if not vvalid[i] or not all(v[i] for v in gvalid):
                    continue
                k = keys[i]
                if bucket is not None:
                    t = k[-1]
                    k = k[:-1] + (bucket(getattr(t, "epoch", t)),)
                acc[k] = seq(acc.get(k, zero), values[i])
        else:  # a plain row dict
            for k, v in key_rows([x], gf, value_field, bucket):
                acc[k] = seq(acc.get(k, zero), v)
    return acc
