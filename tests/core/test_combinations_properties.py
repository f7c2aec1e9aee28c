"""Property test: the interpolation join produces the same rows as a
brute-force all-pairs-within-window join.

This is the paper's §5.3 correctness claim in the form the operator
now implements it: the right rows of one exact key are sorted by time
once, each left row bisects its open window out of them, and left rows
at one (key, time) share that reading — no pair is missed, none is met
twice, and no row's fields reach another row. The oracle below is a
plain nested loop that knows nothing about keys, sorting, sharing or
strategies, and it produces whole joined rows, attached values
included.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.combinations import InterpolationJoin, NaturalJoin
from repro.core.dataset import ScrubJayDataset
from repro.core.semantics import Schema, domain, value
from repro.core.dictionary import default_dictionary
from repro.rdd import AdaptiveConfig, SJContext
from repro.units.temporal import Timestamp

_CTX = SJContext(executor="serial")
_SHUFFLE_CTX = SJContext(
    executor="serial", adaptive=AdaptiveConfig(broadcast_threshold_rows=0)
)
_DICT = default_dictionary()

LEFT = Schema({
    "node": domain("compute nodes", "identifier"),
    "time": domain("time", "datetime"),
    "power": value("power", "watts"),
})
#: a left-only domain, present on some rows only
WIDE_LEFT = LEFT.with_field("job", domain("jobs", "identifier"))
RIGHT = Schema({
    "node": domain("compute nodes", "identifier"),
    "time": domain("time", "datetime"),
    "temp": value("temperature", "degrees Celsius"),
})
#: an extra right-side domain (one left row fans out into a row per
#: location), an interpolatable value and a non-interpolatable one
WIDE_RIGHT = Schema({
    "node": domain("compute nodes", "identifier"),
    "loc": domain("rack locations", "label"),
    "time": domain("time", "datetime"),
    "temp": value("temperature", "degrees Celsius"),
    "app": value("applications", "label"),
})

times = st.floats(-1e4, 1e4, allow_nan=False)
nodes = st.integers(0, 2)
windows = st.floats(0.5, 200.0, allow_nan=False)
#: multiples of 1/4: sums and differences are exact, so tied times and
#: pairs at distance exactly W are common, not accidents
quarters = st.integers(-200, 200).map(lambda q: q / 4.0)


@st.composite
def join_cases(draw):
    """(left rows, right rows, window) with the awkward cases planted:
    half the right rows sit at a left row's time plus -W, -W/2, 0, W/2
    or W — ties, equally-near neighbours, and pairs at distance exactly
    W (outside the open window) or one ulp inside it — and left twins
    that share a (node, time) but not their fields."""
    window = draw(st.one_of(
        windows, st.integers(1, 80).map(lambda q: q / 4.0)
    ))
    ltimes = draw(st.lists(
        st.one_of(st.none(), quarters, quarters, times), max_size=25
    ))
    anchors = [t for t in ltimes if t is not None] or [0.0]

    def near_an_anchor(pick):
        which, halves, inside = pick
        lt = anchors[which % len(anchors)]
        t = lt + halves * window / 2.0
        return math.nextafter(t, lt) if inside else t

    anchored = st.tuples(
        st.integers(0, 24), st.integers(-2, 2), st.booleans()
    ).map(near_an_anchor)
    sparse = lambda values: st.one_of(  # noqa: E731
        st.just("absent"), st.none(), values, values
    )
    few_nodes = st.integers(0, 1)
    rspec = draw(st.lists(st.tuples(
        few_nodes, st.sampled_from(["top", "bottom"]),
        st.one_of(st.none(), quarters, times, anchored, anchored, anchored),
        sparse(st.one_of(quarters, st.floats(-50.0, 50.0))),
        sparse(st.sampled_from(["amg", "lulesh", "mg.C"])),
    ), max_size=25))
    left_rows = [
        {"node": draw(few_nodes), "power": float(i),
         "time": None if t is None else Timestamp(t)}
        for i, t in enumerate(ltimes)
    ]
    # twins: rows at an earlier row's (node, time) with their own
    # payload and their own extra left field, so one window reading
    # shared between them must not carry one row's fields into another
    twins = draw(st.lists(
        st.tuples(st.integers(0, 24), sparse(st.integers(0, 3))),
        max_size=8 if left_rows else 0,
    ))
    for which, job in twins:
        base = left_rows[which % len(left_rows)]
        twin = {"node": base["node"], "time": base["time"],
                "power": float(len(left_rows))}
        if job != "absent":
            twin["job"] = job
        left_rows.append(twin)
    right_rows = []
    for node, loc, t, temp, app in rspec:
        row = {"node": node, "loc": loc,
               "time": None if t is None else Timestamp(t)}
        if temp != "absent":
            row["temp"] = temp
        if app != "absent":
            row["app"] = app
        right_rows.append(row)
    return left_rows, right_rows, window


def _oracle_value(samples, at, interpolate):
    """One value from ``(time, value)`` samples by the stated rules:
    samples tied on a time are one reading (mean, or first by repr for
    a label); interpolate between the readings bracketing ``at``, else
    take the nearest reading, the earlier of two equally near."""
    readings = {}
    for t in {t for t, _ in samples}:
        tied = [v for s, v in samples if s == t]
        readings[t] = sum(tied) / len(tied) if interpolate \
            else min(tied, key=repr)
    below = [t for t in readings if t <= at]
    above = [t for t in readings if t >= at]
    if interpolate and below and above:
        t0, t1 = max(below), min(above)
        if t0 == t1:
            return readings[t0]
        return readings[t0] + \
            (readings[t1] - readings[t0]) * (at - t0) / (t1 - t0)
    # the nearest reading is the closest on one side or the other; a
    # farther one can only tie it through float rounding of |t - at|
    closest = ([max(below)] if below else []) + ([min(above)] if above else [])
    return readings[min(closest, key=lambda t: (abs(t - at), t))]


def _oracle_rows(left_rows, right_rows, window):
    """The join as a nested loop. The window is open (< W): a pair at
    distance exactly W does not match."""
    out = []
    for lr in left_rows:
        if lr["time"] is None:
            continue
        lt = lr["time"].epoch
        by_loc = {}
        for rr in right_rows:
            if rr["time"] is not None and rr["node"] == lr["node"] \
                    and abs(lt - rr["time"].epoch) < window:
                by_loc.setdefault(rr["loc"], []).append(rr)
        for loc, matches in by_loc.items():
            row = dict(lr, loc=loc)
            for field, interpolate in (("temp", True), ("app", False)):
                samples = [(m["time"].epoch, m[field]) for m in matches
                           if m.get(field) is not None]
                if samples:
                    row[field] = _oracle_value(samples, lt, interpolate)
            out.append(row)
    return out


@given(join_cases(), st.integers(1, 4), st.integers(1, 4), st.booleans())
@settings(max_examples=150, deadline=None)
def test_interp_join_matches_brute_force(case, lparts, rparts, shuffle):
    left_rows, right_rows, window = case
    ctx = _SHUFFLE_CTX if shuffle else _CTX
    lds = ScrubJayDataset.from_rows(ctx, left_rows, WIDE_LEFT, "l", lparts)
    rds = ScrubJayDataset.from_rows(ctx, right_rows, WIDE_RIGHT, "r", rparts)
    got = InterpolationJoin(window).apply(lds, rds, _DICT).collect()
    if any(r["time"] is not None for r in right_rows):  # else 0 bytes
        assert ctx.report.of("join")[-1].choice == \
            ("shuffle" if shuffle else "broadcast")

    want = _oracle_rows(left_rows, right_rows, window)
    # (power, loc) names one output row, so equal counters of it plus
    # equal rows under each key is multiset equality
    key = lambda r: (r["power"], r["loc"])  # noqa: E731
    assert Counter(map(key, got)) == Counter(map(key, want))
    expected = {key(r): r for r in want}
    for row in got:
        exp = dict(expected[key(row)])
        if "temp" in exp:  # the oracle's arithmetic is the naive one
            exp["temp"] = pytest.approx(exp["temp"])
        assert row == exp


@given(
    st.lists(st.tuples(nodes, times), min_size=1, max_size=25),
    windows,
)
@settings(max_examples=40, deadline=None)
def test_attached_value_is_within_window(lspec, window):
    left_rows = [
        {"node": n, "time": Timestamp(t), "power": float(i)}
        for i, (n, t) in enumerate(lspec)
    ]
    # right: one sample per left sample, offset by just under the window
    right_rows = [
        {"node": n, "time": Timestamp(t + 0.9 * window), "temp": float(i)}
        for i, (n, t) in enumerate(lspec)
    ]
    lds = ScrubJayDataset.from_rows(_CTX, left_rows, LEFT, "l")
    rds = ScrubJayDataset.from_rows(_CTX, right_rows, RIGHT, "r")
    got = InterpolationJoin(window).apply(lds, rds, _DICT).collect()
    assert len(got) == len(left_rows)
    for row in got:
        assert "temp" in row


@given(
    st.lists(st.tuples(nodes, st.integers(-100, 100)), max_size=30),
    st.lists(st.tuples(nodes, st.integers(-100, 100)), max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_natural_join_multiset_equals_nested_loop(lspec, rspec):
    lschema = Schema({
        "node": domain("compute nodes", "identifier"),
        "a": value("power", "watts"),
    })
    rschema = Schema({
        "node": domain("compute nodes", "identifier"),
        "b": value("energy", "joules"),
    })
    left_rows = [{"node": n, "a": float(v)} for n, v in lspec]
    right_rows = [{"node": n, "b": float(v)} for n, v in rspec]
    got = Counter(
        tuple(sorted(r.items()))
        for r in NaturalJoin().apply(
            ScrubJayDataset.from_rows(_CTX, left_rows, lschema, "l"),
            ScrubJayDataset.from_rows(_CTX, right_rows, rschema, "r"),
            _DICT,
        ).collect()
    )
    want = Counter(
        tuple(sorted({**lr, "b": rr["b"]}.items()))
        for lr in left_rows for rr in right_rows
        if lr["node"] == rr["node"]
    )
    assert got == want
