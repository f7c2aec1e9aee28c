"""Property tests: the per-column wire codec equals the per-cell one.

``encode_rows``/``decode_rows``/``encode_groups``/``decode_groups``
bind one closure per column; ``reference_encode``/``reference_decode``
below are the cell-at-a-time codec they replaced, kept here as the
oracle. Same text out, same typed values back, the same
``WrapperError`` message on a bad cell, for every unit kind.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.dictionary import default_dictionary
from repro.core.semantics import Schema, domain, value
from repro.errors import WrapperError
from repro.serve.wire import (
    decode_groups,
    decode_rows,
    encode_groups,
    encode_rows,
)
from repro.units.temporal import TimeSpan, Timestamp
from repro.wrappers.codec import (
    decode_value,
    decoder,
    encode_value,
    encoder,
)

_DICT = default_dictionary()

SCHEMA = Schema({
    "quantity": value("power", "watts"),
    "rate": value("event rate", "count per second"),
    "count": value("event count", "count"),
    "identifier": domain("compute nodes", "identifier"),
    "label": domain("applications", "label"),
    "datetime": domain("time", "datetime"),
    "timespan": domain("time", "timespan"),
    "list": domain("compute nodes", "list<identifier>"),
})


def reference_decode(text, sem):
    if text is None or text == "":
        return None
    unit = _DICT.unit(sem.units)
    kind = unit.kind
    try:
        if kind in ("quantity", "rate"):
            return float(text)
        if kind == "count":
            return int(float(text))
        if kind == "identifier":
            stripped = text.strip()
            try:
                return int(stripped)
            except ValueError:
                return stripped
        if kind == "label":
            return text.strip()
        if kind == "datetime":
            stripped = text.strip()
            try:
                return Timestamp(float(stripped))
            except ValueError:
                return Timestamp.from_iso(stripped)
        if kind == "timespan":
            start_s, _, end_s = text.partition("..")
            return TimeSpan(float(start_s), float(end_s))
        if kind == "list":
            element_sem = sem.with_units(unit.element)
            return [
                reference_decode(part, element_sem)
                for part in text.split(";")
                if part != ""
            ]
    except (ValueError, TypeError) as exc:
        raise WrapperError(
            f"cannot decode {text!r} as {sem.units!r}: {exc}"
        ) from exc
    raise WrapperError(f"no decoder for unit kind {kind!r}")


def reference_encode(v, sem):
    if v is None:
        return ""
    unit = _DICT.unit(sem.units)
    kind = unit.kind
    if kind == "datetime":
        if not isinstance(v, Timestamp):
            raise WrapperError(f"expected Timestamp, got {type(v).__name__}")
        return repr(v.epoch)
    if kind == "timespan":
        if not isinstance(v, TimeSpan):
            raise WrapperError(f"expected TimeSpan, got {type(v).__name__}")
        return f"{v.start!r}..{v.end!r}"
    if kind == "list":
        element_sem = sem.with_units(unit.element)
        return ";".join(reference_encode(e, element_sem) for e in v)
    return str(v)


def comparable(v):
    """``v`` with every NaN made equal to itself."""
    if isinstance(v, float) and v != v:
        return "NaN"
    if isinstance(v, Timestamp):
        return ("Timestamp", comparable(v.epoch))
    if isinstance(v, TimeSpan):
        return ("TimeSpan", comparable(v.start), comparable(v.end))
    if isinstance(v, dict):
        return {k: comparable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [comparable(x) for x in v]
    return v


def outcome(fn, *args):
    """A call's value, or the text of the WrapperError it raised."""
    try:
        return ("ok", comparable(fn(*args)))
    except WrapperError as exc:
        return ("WrapperError", str(exc))


finite = st.floats(-1e12, 1e12, allow_nan=False)
names = st.text("abc -_9", min_size=1, max_size=6)
TYPED = {
    "quantity": finite,
    "rate": finite,
    "count": st.integers(0, 10**9),
    "identifier": st.one_of(st.integers(-99, 99), names),
    "label": names,
    "datetime": finite.map(Timestamp),
    "timespan": st.tuples(finite, st.floats(0, 1e6)).map(
        lambda t: TimeSpan(t[0], t[0] + t[1])
    ),
    "list": st.lists(st.integers(0, 99), max_size=4),
}
#: what can sit in a typed row: the right type, a missing value, or a
#: wrong one (datetime and timespan reject those with a WrapperError)
typed_cells = {
    field: st.one_of(strategy, st.none(), st.just(1.5))
    for field, strategy in TYPED.items()
}
typed_cells["list"] = st.one_of(TYPED["list"], st.none())
#: what can arrive as text: encodings of the right type, ISO dates,
#: empty cells and junk
texts = st.one_of(
    st.sampled_from([
        "", " 7 ", "1e3", "hot", "2017-03-27T16:43:27", "1.0..2.5",
        "1..", "3;4;;5", "x;y", "nan",
    ]),
    finite.map(repr),
)
#: JSON-native values a dictionary-less client may push
natives = st.one_of(st.integers(), finite, st.booleans(), st.none(),
                    st.lists(st.integers(), max_size=2))


def sparse_rows(cells):
    """Rows over a random subset of SCHEMA plus one unschema'd field."""
    return st.lists(
        st.fixed_dictionaries(
            {},
            optional={
                **{f: cells(f) for f in SCHEMA.fields()},
                "extra": st.one_of(st.none(), st.integers(), names),
            },
        ),
        max_size=8,
    )


@given(sparse_rows(lambda f: typed_cells[f]))
def test_encode_rows_equals_per_cell_encode(rows):
    def per_cell():
        return [
            {
                f: reference_encode(v, SCHEMA[f]) if f in SCHEMA else str(v)
                for f, v in row.items()
            }
            for row in rows
        ]

    assert outcome(encode_rows, rows, SCHEMA, _DICT) == outcome(per_cell)


@given(sparse_rows(lambda f: st.one_of(texts, natives)))
def test_decode_rows_equals_per_cell_decode(rows):
    def per_cell():
        return [
            {
                f: reference_decode(v, SCHEMA[f])
                if f in SCHEMA and isinstance(v, str) else v
                for f, v in row.items()
            }
            for row in rows
        ]

    assert outcome(decode_rows, rows, SCHEMA, _DICT) == outcome(per_cell)


@given(st.data())
def test_one_cell_calls_equal_the_bound_closures(data):
    field = data.draw(st.sampled_from(SCHEMA.fields()))
    sem = SCHEMA[field]
    cell = data.draw(typed_cells[field])
    text = data.draw(texts)
    assert (
        outcome(encode_value, cell, sem, _DICT)
        == outcome(encoder(sem, _DICT), cell)
        == outcome(reference_encode, cell, sem)
    )
    assert (
        outcome(decode_value, text, sem, _DICT)
        == outcome(decoder(sem, _DICT), text)
        == outcome(reference_decode, text, sem)
    )


@given(st.dictionaries(
    st.tuples(
        st.one_of(st.none(), TYPED["identifier"]),
        st.one_of(st.none(), TYPED["datetime"]),
        st.one_of(st.none(), names),
    ),
    st.one_of(finite, st.tuples(finite, st.integers(1, 9))),
    max_size=6,
))
def test_groups_round_trip_like_per_cell(groups):
    group_by = ["identifier", "datetime", "extra"]
    wire = encode_groups(groups, group_by, SCHEMA, _DICT)
    assert wire == [
        [
            [
                None if part is None
                else reference_encode(part, SCHEMA[f]) if f in SCHEMA
                else str(part)
                for f, part in zip(group_by, key)
            ],
            list(v) if isinstance(v, tuple) else v,
        ]
        for key, v in groups.items()
    ]
    back = decode_groups(wire, group_by, SCHEMA, _DICT, partial_how="mean")
    assert back == {
        tuple(
            None if part is None
            else reference_decode(part, SCHEMA[f]) if f in SCHEMA
            else part
            for f, part in zip(group_by, enc_key)
        ): tuple(v) if isinstance(v, list) else v
        for enc_key, v in wire
    }


def test_bad_cells_raise_the_per_cell_messages():
    with pytest.raises(WrapperError, match="cannot decode 'hot' as 'watts'"):
        decode_rows([{"quantity": "hot"}], SCHEMA, _DICT)
    with pytest.raises(WrapperError, match="expected Timestamp, got float"):
        encode_rows([{"datetime": 3.0}], SCHEMA, _DICT)
