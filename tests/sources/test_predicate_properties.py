"""Property test: ``ColumnPredicate.filter_rows`` is ``matches`` in
bulk — same rows, same order — over the values the row semantics
single out: missing columns, ``None``, NaN, ±inf, Timestamps against
float bounds, unorderable types, open-ended ranges and columns named
by more than one term."""

from hypothesis import given, settings, strategies as st

from repro.sources.predicate import ColumnPredicate, EqTerm, RangeTerm
from repro.units import Timestamp

COLUMNS = ("a", "b", "c")

NAN, INF = float("nan"), float("inf")

#: few distinct values per kind, so that terms and cells collide
numbers = st.one_of(
    st.integers(-3, 3), st.sampled_from([NAN, INF, -INF, 0.5, -1.5])
)
cells = st.one_of(
    st.none(),
    numbers,
    st.integers(-3, 3).map(lambda n: Timestamp(float(n))),
    st.sampled_from(["x", ""]),
    st.tuples(st.integers(0, 1)),
    st.builds(dict),  # orders against nothing, not even itself
)
rows = st.lists(
    st.dictionaries(st.sampled_from(COLUMNS), cells, max_size=3),
    max_size=30,
)
bounds = st.one_of(st.none(), numbers)
terms = st.one_of(
    st.builds(EqTerm, st.sampled_from(COLUMNS), cells),
    st.tuples(st.sampled_from(COLUMNS), bounds, bounds)
    .filter(lambda t: t[1] is not None or t[2] is not None)
    .map(lambda t: RangeTerm(*t)),
)


@settings(max_examples=300)
@given(st.lists(terms, max_size=4), rows)
def test_filter_rows_equals_matches(term_list, data):
    predicate = ColumnPredicate(term_list)
    kept = predicate.filter_rows(data)
    want = [row for row in data if predicate.matches(row)]
    assert len(kept) == len(want)
    assert all(got is row for got, row in zip(kept, want))


@given(rows)
def test_filter_rows_never_aliases_its_input(data):
    assert ColumnPredicate([]).filter_rows(data) is not data
