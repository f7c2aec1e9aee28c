"""Domain-specific derivations provided by system experts (paper §7).

These two derivations are the paper's worked examples of the green
"domain-specific derivations" box in Figure 2: reusable rules written
once by someone who understands the facility, then discovered and
applied automatically by the derivation engine whenever a query needs
them.

- :class:`DeriveHeat` (§7.2): each rack carries six temperature
  sensors — top/middle/bottom of the hot and cold aisles. The
  instantaneous heat generated at a rack location is approximated by
  the hot-aisle minus cold-aisle temperature difference at one instant
  in time.
- :class:`DeriveActiveFrequency` (§7.3): CPUs expose no direct active
  frequency; instead MPERF increments at the rated (base) frequency
  and APERF at the active frequency, so
  ``active = (ΔAPERF/Δt) / (ΔMPERF/Δt) × rated``. The rates come from
  :class:`~repro.core.transformations.DeriveRate`, and the rated
  frequency from the static CPU-specification dataset — a relation the
  engine must infer (Figure 7).

Each derivation computes in the units its output is defined in: it
applies only to inputs whose units convert to those, and converts any
other unit through the dictionary before computing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.dataset import ScrubJayDataset
from repro.core.derivation import Transformation, register_derivation
from repro.core.dictionary import SemanticDictionary
from repro.core.semantics import DOMAIN, VALUE, Schema, SemanticType

#: Conventional labels for the two rack aisles.
HOT_AISLE = "hot"
COLD_AISLE = "cold"

#: The units the derivations compute in.
CELSIUS = "degrees Celsius"
RATED_GIGAHERTZ = "rated gigahertz"


def _converts_to(
    dictionary: SemanticDictionary, units: str, target: str
) -> bool:
    """Can a value in ``units`` be converted to ``target``?"""
    if not dictionary.has_unit(units):
        return False
    u, t = dictionary.unit(units), dictionary.unit(target)
    return u.kind == t.kind == "quantity" and u.dimension == t.dimension


def _converter(
    dictionary: SemanticDictionary, units: str, target: str
) -> Optional[Callable[[float], float]]:
    """A function taking a value in ``units`` to ``target``, or None
    when they are the same unit (no conversion path at all)."""
    if units == target:
        return None
    return lambda v: dictionary.convert(v, units, target)


@register_derivation
class DeriveHeat(Transformation):
    """Heat ≈ hot-aisle temperature − cold-aisle temperature.

    Requires a dataset with a temperature value defined over an aisle
    domain (labels ``hot``/``cold``) and a datetime domain. Rows are
    grouped by every *other* domain field (rack, rack location, time);
    each group with both aisles present yields one row where the aisle
    field and raw temperature are replaced by a ``heat`` value in
    delta-degrees-Celsius. Temperatures in any other unit convertible
    to degrees Celsius are converted before the difference is taken.
    """

    op_name = "derive_heat"

    OUT_FIELD = "heat"

    def __init__(self) -> None:
        pass

    # ------------------------------------------------------------------

    def _aisle_field(self, schema: Schema) -> Optional[str]:
        fields = schema.fields_for("aisles", DOMAIN)
        return fields[0] if len(fields) == 1 else None

    def _temp_field(self, schema: Schema) -> Optional[str]:
        fields = schema.fields_for("temperature", VALUE)
        return fields[0] if len(fields) == 1 else None

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        temp = self._temp_field(schema)
        return (
            self._aisle_field(schema) is not None
            and temp is not None
            and _converts_to(dictionary, schema[temp].units, CELSIUS)
            and self.OUT_FIELD not in schema
            and any(
                dictionary.has_unit(sem.units)
                and dictionary.unit(sem.units).kind == "datetime"
                for sem in schema.domain_fields().values()
            )
        )

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        aisle = self._aisle_field(schema)
        temp = self._temp_field(schema)
        assert aisle is not None and temp is not None
        return (
            schema.without_field(aisle)
            .without_field(temp)
            .with_field(
                self.OUT_FIELD,
                SemanticType(VALUE, "heat", "delta degrees Celsius"),
            )
        )

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        schema = dataset.schema
        aisle = self._aisle_field(schema)
        temp = self._temp_field(schema)
        assert aisle is not None and temp is not None
        group_fields = [
            f for f in schema.domain_fields() if f != aisle
        ]
        out_field = self.OUT_FIELD
        to_celsius = _converter(dictionary, schema[temp].units, CELSIUS)

        def key(row: Dict[str, Any]):
            return tuple([row.get(f) for f in group_fields])

        def heat(kv) -> List[Dict[str, Any]]:
            _k, rows = kv
            # a missing or None temperature is no sample
            rows = [r for r in rows if r.get(temp) is not None]
            hot = [r[temp] for r in rows if r.get(aisle) == HOT_AISLE]
            cold = [r[temp] for r in rows if r.get(aisle) == COLD_AISLE]
            if not hot or not cold:
                return []
            if to_celsius is not None:
                hot = [to_celsius(v) for v in hot]
                cold = [to_celsius(v) for v in cold]
            base = rows[0]
            new = {
                k: v for k, v in base.items() if k not in (aisle, temp)
            }
            new[out_field] = sum(hot) / len(hot) - sum(cold) / len(cold)
            return [new]

        rdd = dataset.rdd.keyBy(key).groupByKey().flatMap(heat)
        return dataset.with_rdd(
            rdd,
            self.derive_schema(schema, dictionary),
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "input": dataset.provenance},
        )

    @classmethod
    def instantiations(
        cls, schema: Schema, dictionary: SemanticDictionary
    ) -> List["DeriveHeat"]:
        inst = cls()
        return [inst] if inst.applies(schema, dictionary) else []


@register_derivation
class DeriveActiveFrequency(Transformation):
    """Active CPU frequency from APERF/MPERF rates × rated frequency.

    Requires value fields on the dimensions ``aperf events per time``,
    ``mperf events per time`` (produced by ``derive_rate``) and
    ``rated frequency`` (from the CPU-specification dataset, reached
    via a natural join the engine infers). Adds an
    ``active_frequency`` value on the ``active frequency`` dimension,
    in active gigahertz: a rated frequency in another unit is converted
    to rated gigahertz first.
    """

    op_name = "derive_active_frequency"

    OUT_FIELD = "active_frequency"

    def __init__(self) -> None:
        pass

    def _field_on(self, schema: Schema, dim: str) -> Optional[str]:
        fields = schema.fields_for(dim, VALUE)
        return fields[0] if len(fields) == 1 else None

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        rated = self._field_on(schema, "rated frequency")
        return (
            self._field_on(schema, "aperf events per time") is not None
            and self._field_on(schema, "mperf events per time") is not None
            and rated is not None
            and _converts_to(dictionary, schema[rated].units, RATED_GIGAHERTZ)
            and self.OUT_FIELD not in schema
        )

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        return schema.with_field(
            self.OUT_FIELD,
            SemanticType(VALUE, "active frequency", "active gigahertz"),
        )

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        schema = dataset.schema
        aperf = self._field_on(schema, "aperf events per time")
        mperf = self._field_on(schema, "mperf events per time")
        rated = self._field_on(schema, "rated frequency")
        assert aperf and mperf and rated
        out_field = self.OUT_FIELD
        to_ghz = _converter(dictionary, schema[rated].units, RATED_GIGAHERTZ)

        def derive(row: Dict[str, Any]) -> List[Dict[str, Any]]:
            # a missing or None input is no sample; nor is a zero mperf
            if row.get(aperf) is None or row.get(rated) is None \
                    or not row.get(mperf):
                return []
            new = dict(row)
            ghz = row[rated] if to_ghz is None else to_ghz(row[rated])
            new[out_field] = row[aperf] / row[mperf] * ghz
            return [new]

        return dataset.with_rdd(
            dataset.rdd.flatMap(derive),
            self.derive_schema(schema, dictionary),
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "input": dataset.provenance},
        )

    @classmethod
    def instantiations(
        cls, schema: Schema, dictionary: SemanticDictionary
    ) -> List["DeriveActiveFrequency"]:
        inst = cls()
        return [inst] if inst.applies(schema, dictionary) else []
