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


def _budget(tier1: int) -> int:
    """``tier1`` examples, or the loaded hypothesis profile's budget
    when it asks for more than the default profile does (the ``ci``
    profile of tests/conftest.py: ``--hypothesis-profile=ci``)."""
    loaded = settings.default.max_examples
    if loaded > settings.get_profile("default").max_examples:
        return loaded
    return tier1

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


def _interp_join(left_rows, right_rows, window, shuffle, lparts=1, rparts=1):
    """The interpolation join's rows on the strategy asked for, checked
    against the brute-force oracle."""
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
    return {key(r): r for r in got}


@given(join_cases(), st.integers(1, 4), st.integers(1, 4), st.booleans())
@settings(max_examples=_budget(150), deadline=None)
def test_interp_join_matches_brute_force(case, lparts, rparts, shuffle):
    left_rows, right_rows, window = case
    _interp_join(left_rows, right_rows, window, shuffle, lparts, rparts)


def _r(t, loc="top", node=0, **values):
    return {"node": node, "loc": loc, "time": Timestamp(t), **values}


def _l(t, power, node=0):
    return {"node": node, "time": Timestamp(t), "power": power}


@pytest.mark.parametrize("shuffle", [False, True])
def test_interp_join_group_without_samples_keeps_its_columns(shuffle):
    right = [
        _r(10.0, "top", temp=None, app=None), _r(11.0, "top"),
        _r(10.0, "bottom", temp=5.0, app="amg"),
        _r(1.0, "middle", temp=7.0),  # rows, but none in the window
    ]
    got = _interp_join([_l(12.0, 1.0)], right, 5.0, shuffle)
    assert got[1.0, "top"] == {**_l(12.0, 1.0), "loc": "top"}
    assert got[1.0, "bottom"]["temp"] == 5.0
    assert (1.0, "middle") not in got


@pytest.mark.parametrize("shuffle", [False, True])
def test_interp_join_dense_and_sparse_fields_in_one_group(shuffle):
    # temp is sampled on every row (the group's own bounds), app on two
    # (its own arrays, bisected apart)
    right = [_r(t, temp=10.0 * t) for t in (0.0, 1.0, 2.0, 3.0, 4.0)]
    right[3]["app"], right[4]["app"] = "lulesh", "amg"
    got = _interp_join([_l(2.5, 1.0), _l(0.25, 2.0), _l(5.5, 3.0)],
                       right, 2.0, shuffle)
    assert got[1.0, "top"]["temp"] == pytest.approx(25.0)
    assert got[1.0, "top"]["app"] == "lulesh"  # 3.0 is nearer than 4.0
    assert "app" not in got[2.0, "top"]  # temp at 0.0-2.0 only
    assert got[3.0, "top"] == {**_l(5.5, 3.0), "loc": "top",
                               "temp": 40.0, "app": "amg"}


@pytest.mark.parametrize("shuffle", [False, True])
def test_interp_join_one_sample_window(shuffle):
    right = [_r(5.0, temp=1.0, app="a"), _r(10.0, temp=2.0, app="b"),
             _r(20.0, temp=3.0, app="c")]
    got = _interp_join([_l(11.0, 1.0)], right, 2.0, shuffle)
    assert got[1.0, "top"]["temp"] == 2.0 and got[1.0, "top"]["app"] == "b"


@pytest.mark.parametrize("shuffle", [False, True])
def test_interp_join_tied_times_at_the_window_edge(shuffle):
    # ties exactly W away are outside the open window, so each group
    # reads one side only; ties a quarter inside it are one reading
    # each (the mean, or the first by repr)
    edge = lambda t, loc: [  # noqa: E731
        _r(t, loc, temp=100.0, app="x"), _r(t, loc, temp=200.0, app="y")]
    right = (
        edge(8.0, "top") + edge(12.0, "top")
        + [_r(8.25, "top", temp=1.0, app="q"),
           _r(8.25, "top", temp=3.0, app="p")]
        + edge(8.0, "bottom")
        + [_r(11.75, "bottom", temp=5.0, app="s"),
           _r(11.75, "bottom", temp=7.0, app="r")]
        + edge(12.0, "middle")
    )
    got = _interp_join([_l(10.0, 1.0), _l(10.0, 2.0)], right, 2.0, shuffle)
    for power in (1.0, 2.0):
        assert got[power, "top"]["temp"] == pytest.approx(2.0)
        assert got[power, "top"]["app"] == "p"
        assert got[power, "bottom"]["temp"] == pytest.approx(6.0)
        assert got[power, "bottom"]["app"] == "r"
        assert (power, "middle") not in got


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


#: a join key cell: absent from the row, None, or one of a few values
key_cells = st.one_of(st.just("absent"), st.none(), st.integers(0, 2))
#: a value cell: absent from the row, None, or a value
sparse_cells = st.one_of(st.just("absent"), st.none(), st.integers(-9, 9))
NAT_LEFT = Schema({
    "node": domain("compute nodes", "identifier"),
    "job": domain("jobs", "identifier"),
    "a": value("power", "watts"),
    "b": value("energy", "joules"),
})
#: "b" clashes with a left value (it comes out as "b_r"); "c" is new
NAT_RIGHT = Schema({
    "node": domain("compute nodes", "identifier"),
    "job": domain("jobs", "identifier"),
    "b": value("energy", "joules"),
    "c": value("temperature", "degrees Celsius"),
})
#: the right schema's non-key fields and the names they come out under
NAT_KEPT = (("b", "b_r"), ("c", "c"))


def _natural_oracle(left_rows, right_rows, keys):
    """The natural join as a nested loop: a left row meets every right
    row equal on ``keys`` (a missing key reads as None), and takes each
    kept right field the right row has, None included; nothing else of
    the right row reaches the output."""
    out = []
    for lr in left_rows:
        for rr in right_rows:
            if all(lr.get(k) == rr.get(k) for k in keys):
                row = dict(lr)
                row.update((name, rr[f]) for f, name in NAT_KEPT if f in rr)
                out.append(row)
    return Counter(tuple(sorted(r.items())) for r in out)


def _cells(**cells):
    return {f: v for f, v in cells.items() if v != "absent"}


def _pad(rows, n, node):
    """``n`` rows on a key value the other side never has."""
    return rows + [{"node": node, "job": 0, "a": 0, "b": 0, "c": 0}] * n


@given(
    st.lists(st.tuples(key_cells, key_cells, sparse_cells), max_size=20),
    st.lists(st.tuples(key_cells, key_cells, sparse_cells, sparse_cells,
                       st.booleans()), max_size=20),
    st.booleans(), st.integers(1, 4), st.integers(1, 4),
)
@settings(max_examples=_budget(40), deadline=None)
def test_natural_join_multiset_equals_nested_loop(
    lspec, rspec, two_keys, lparts, rparts
):
    """Every strategy — broadcast building either side, and shuffle —
    keys, probes and merges each row like the nested loop, on one-field
    (scalar) and two-field (tuple) keys."""
    keys = ["node", "job"] if two_keys else ["node"]
    lschema, rschema = NAT_LEFT, NAT_RIGHT
    if not two_keys:  # "job" is a left value; outside the right schema
        lschema = NAT_LEFT.replace_field("job", value("jobs", "identifier"))
        rschema = NAT_RIGHT.without_field("job")
    left_rows = [_cells(node=node, job=job, a=i, b=b)
                 for i, (node, job, b) in enumerate(lspec)]
    # "zz" is outside the right schema: it must not leak
    right_rows = [_cells(node=node, job=job, b=b, c=c,
                         zz="leak" if extra else "absent")
                  for node, job, b, c, extra in rspec]
    nl, nr = len(left_rows), len(right_rows)
    for strategy, ctx, lpad, rpad in (
        (("broadcast", "right"), _CTX, nr + 1, 0),
        (("broadcast", "left"), _CTX, 0, nl + 1),
        (("shuffle", None), _SHUFFLE_CTX, 1, 1),
    ):
        lrows, rrows = _pad(left_rows, lpad, -1), _pad(right_rows, rpad, -2)
        got = NaturalJoin().apply(
            ScrubJayDataset.from_rows(ctx, lrows, lschema, "l", lparts),
            ScrubJayDataset.from_rows(ctx, rrows, rschema, "r", rparts),
            _DICT,
        ).collect()
        d = ctx.report.of("join")[-1]
        assert (d.choice, d.evidence.get("build_side")) == strategy
        assert Counter(tuple(sorted(r.items())) for r in got) == \
            _natural_oracle(lrows, rrows, keys)
