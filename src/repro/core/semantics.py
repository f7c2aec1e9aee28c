"""Field semantics and dataset schemas (paper §4.2).

Every field of a ScrubJay dataset is annotated with a
:class:`SemanticType` — a keyword triple:

- **relation type** — ``domain`` (a descriptor of *what/where/when* was
  measured: a CPU id, a rack, a point in time) or ``value`` (the
  measurement itself: a temperature, an instruction count);
- **dimension** — the aspect the field lies on (time, temperature,
  compute nodes, …), whose continuous/ordered properties gate the
  operations ScrubJay may apply;
- **units** — the representation (degrees Celsius, datetime,
  identifier, list<identifier>, count per second, …).

A :class:`Schema` maps field names to semantic types and is the *only*
thing the derivation engine reasons about: derivations are planned on
schemas and executed on data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import SemanticError
from repro.util.hashing import content_hash

#: Relation type keywords.
DOMAIN = "domain"
VALUE = "value"
_RELATION_TYPES = (DOMAIN, VALUE)


@dataclass(frozen=True)
class SemanticType:
    """The (relation type, dimension, units) annotation of one field."""

    relation_type: str
    dimension: str
    units: str

    def __post_init__(self) -> None:
        if self.relation_type not in _RELATION_TYPES:
            raise SemanticError(
                f"relation type must be {DOMAIN!r} or {VALUE!r}, "
                f"got {self.relation_type!r}"
            )

    @property
    def is_domain(self) -> bool:
        return self.relation_type == DOMAIN

    @property
    def is_value(self) -> bool:
        return self.relation_type == VALUE

    def with_units(self, units: str) -> "SemanticType":
        return SemanticType(self.relation_type, self.dimension, units)

    def to_json_dict(self) -> dict:
        return {
            "relation_type": self.relation_type,
            "dimension": self.dimension,
            "units": self.units,
        }

    @staticmethod
    def from_json_dict(d: Mapping[str, str]) -> "SemanticType":
        return SemanticType(d["relation_type"], d["dimension"], d["units"])


def domain(dimension: str, units: str) -> SemanticType:
    """Shorthand for a domain annotation."""
    return SemanticType(DOMAIN, dimension, units)


def value(dimension: str, units: str) -> SemanticType:
    """Shorthand for a value annotation."""
    return SemanticType(VALUE, dimension, units)


class Schema:
    """An ordered mapping of field name → :class:`SemanticType`.

    Immutable in spirit: all mutators return new schemas. The engine
    memoizes on :meth:`fingerprint`, a stable content hash computed once
    per schema.
    """

    def __init__(self, fields: Mapping[str, SemanticType]) -> None:
        self._fields: Dict[str, SemanticType] = dict(fields)
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # mapping interface
    # ------------------------------------------------------------------

    def __getitem__(self, field: str) -> SemanticType:
        try:
            return self._fields[field]
        except KeyError:
            raise SemanticError(f"schema has no field {field!r}") from None

    def __contains__(self, field: str) -> bool:
        return field in self._fields

    def __iter__(self):
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._fields.items(), key=lambda kv: kv[0])))

    def items(self) -> Iterable[Tuple[str, SemanticType]]:
        return self._fields.items()

    def fields(self) -> List[str]:
        return list(self._fields)

    # ------------------------------------------------------------------
    # semantic views
    # ------------------------------------------------------------------

    def domain_fields(self) -> Dict[str, SemanticType]:
        return {f: s for f, s in self._fields.items() if s.is_domain}

    def value_fields(self) -> Dict[str, SemanticType]:
        return {f: s for f, s in self._fields.items() if s.is_value}

    def domain_dimensions(self) -> Set[str]:
        return {s.dimension for s in self._fields.values() if s.is_domain}

    def value_dimensions(self) -> Set[str]:
        return {s.dimension for s in self._fields.values() if s.is_value}

    def dimensions(self) -> Set[str]:
        return {s.dimension for s in self._fields.values()}

    def fields_for(
        self, dimension: str, relation_type: Optional[str] = None
    ) -> List[str]:
        """Field names lying on ``dimension`` (optionally filtered by
        relation type), in schema order."""
        return [
            f
            for f, s in self._fields.items()
            if s.dimension == dimension
            and (relation_type is None or s.relation_type == relation_type)
        ]

    def domain_field(self, dimension: str) -> str:
        """The unique domain field on ``dimension``."""
        fields = self.fields_for(dimension, DOMAIN)
        if not fields:
            raise SemanticError(
                f"schema has no domain field on dimension {dimension!r}"
            )
        if len(fields) > 1:
            raise SemanticError(
                f"schema has multiple domain fields on dimension "
                f"{dimension!r}: {fields}"
            )
        return fields[0]

    # ------------------------------------------------------------------
    # construction of derived schemas
    # ------------------------------------------------------------------

    def with_field(self, name: str, sem: SemanticType) -> "Schema":
        if name in self._fields:
            raise SemanticError(f"field {name!r} already in schema")
        out = dict(self._fields)
        out[name] = sem
        return Schema(out)

    def without_field(self, name: str) -> "Schema":
        if name not in self._fields:
            raise SemanticError(f"field {name!r} not in schema")
        out = dict(self._fields)
        del out[name]
        return Schema(out)

    def replace_field(self, name: str, sem: SemanticType) -> "Schema":
        if name not in self._fields:
            raise SemanticError(f"field {name!r} not in schema")
        out = dict(self._fields)
        out[name] = sem
        return Schema(out)

    def rename_field(self, old: str, new: str) -> "Schema":
        if old not in self._fields:
            raise SemanticError(f"field {old!r} not in schema")
        if new in self._fields:
            raise SemanticError(f"field {new!r} already in schema")
        out = {}
        for f, s in self._fields.items():
            out[new if f == old else f] = s
        return Schema(out)

    def merge(self, other: "Schema", drop: Iterable[str] = ()) -> "Schema":
        """Union of two schemas, dropping ``drop`` fields of ``other``
        and suffixing any remaining name collisions with ``_r``."""
        out = dict(self._fields)
        dropped = set(drop)
        for f, s in other.items():
            if f in dropped:
                continue
            name = f
            while name in out:
                name += "_r"
            out[name] = s
        return Schema(out)

    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash, used as the engine's memoization key."""
        if self._fingerprint is None:
            self._fingerprint = content_hash(self.to_json_dict())
        return self._fingerprint

    def to_json_dict(self) -> dict:
        return {f: s.to_json_dict() for f, s in self._fields.items()}

    @staticmethod
    def from_json_dict(d: Mapping[str, Mapping[str, str]]) -> "Schema":
        return Schema(
            {f: SemanticType.from_json_dict(s) for f, s in d.items()}
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{f}:{s.relation_type[0]}/{s.dimension}" for f, s in self._fields.items()
        )
        return f"Schema({parts})"
