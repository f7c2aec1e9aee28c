"""Text encoding/decoding of semantically typed values.

CSV cells and SQL columns are text/primitive; ScrubJay rows hold typed
objects (Timestamps, TimeSpans, lists). The codec converts in both
directions, driven entirely by the field's semantic annotation — the
unit's *kind* decides the representation:

==============  =======================================
kind            textual form
==============  =======================================
quantity/rate   float literal
count           int literal
identifier      int when numeric, else verbatim string
label           verbatim string
datetime        ISO-8601 (decoded) / epoch float accepted
timespan        ``start..end`` epoch floats
list            ``;``-separated encoded elements
==============  =======================================
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import WrapperError
from repro.core.dictionary import SemanticDictionary
from repro.core.semantics import SemanticType
from repro.units.temporal import Timestamp, TimeSpan

LIST_SEP = ";"
SPAN_SEP = ".."


def _parse_count(text: str) -> int:
    return int(float(text))


def _parse_identifier(text: str) -> Any:
    stripped = text.strip()
    try:
        return int(stripped)
    except ValueError:
        return stripped


def _parse_label(text: str) -> str:
    return text.strip()


def _parse_datetime(text: str) -> Timestamp:
    stripped = text.strip()
    try:
        return Timestamp(float(stripped))
    except ValueError:
        return Timestamp.from_iso(stripped)


def _parse_timespan(text: str) -> TimeSpan:
    start_s, _, end_s = text.partition(SPAN_SEP)
    return TimeSpan(float(start_s), float(end_s))


_PARSERS = {
    "quantity": float,
    "rate": float,
    "count": _parse_count,
    "identifier": _parse_identifier,
    "label": _parse_label,
    "datetime": _parse_datetime,
    "timespan": _parse_timespan,
}


def decoder(
    sem: SemanticType, dictionary: SemanticDictionary
) -> Callable[[Optional[str]], Any]:
    """The cell parser for one column: resolves the unit once and
    returns ``decode(text)``. Bind it per column when decoding many
    rows; :func:`decode_value` is its one-cell form."""
    unit = dictionary.unit(sem.units)
    kind = unit.kind
    if kind == "list":
        element_units = unit.element
        assert element_units is not None
        element = decoder(sem.with_units(element_units), dictionary)

        def parse(text: str) -> Any:
            return [
                element(part)
                for part in text.split(LIST_SEP)
                if part != ""
            ]
    elif kind in _PARSERS:
        parse = _PARSERS[kind]
    else:
        def parse(text: str) -> Any:
            raise WrapperError(f"no decoder for unit kind {kind!r}")

    def decode(text: Optional[str]) -> Any:
        if text is None or text == "":
            return None
        try:
            return parse(text)
        except (ValueError, TypeError) as exc:
            raise WrapperError(
                f"cannot decode {text!r} as {sem.units!r}: {exc}"
            ) from exc

    return decode


def decode_value(
    text: Optional[str], sem: SemanticType, dictionary: SemanticDictionary
) -> Any:
    """Parse one textual cell into the typed value its semantics imply.

    Empty/None cells decode to None (sparse rows drop them).
    """
    return decoder(sem, dictionary)(text)


def _render_datetime(value: Any) -> str:
    if not isinstance(value, Timestamp):
        raise WrapperError(f"expected Timestamp, got {type(value).__name__}")
    return repr(value.epoch)


def _render_timespan(value: Any) -> str:
    if not isinstance(value, TimeSpan):
        raise WrapperError(f"expected TimeSpan, got {type(value).__name__}")
    return f"{value.start!r}{SPAN_SEP}{value.end!r}"


def encoder(
    sem: SemanticType, dictionary: SemanticDictionary
) -> Callable[[Any], str]:
    """The cell renderer for one column: resolves the unit once and
    returns ``encode(value)``. Bind it per column when encoding many
    rows; :func:`encode_value` is its one-cell form."""
    unit = dictionary.unit(sem.units)
    kind = unit.kind
    if kind == "datetime":
        render: Callable[[Any], str] = _render_datetime
    elif kind == "timespan":
        render = _render_timespan
    elif kind == "list":
        element_units = unit.element
        assert element_units is not None
        element = encoder(sem.with_units(element_units), dictionary)

        def render(value: Any) -> str:
            return LIST_SEP.join(element(v) for v in value)
    else:
        render = str

    def encode(value: Any) -> str:
        return "" if value is None else render(value)

    return encode


def encode_value(
    value: Any, sem: SemanticType, dictionary: SemanticDictionary
) -> str:
    """Render one typed value back to its textual cell form."""
    return encoder(sem, dictionary)(value)
