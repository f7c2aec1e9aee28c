"""ScrubJay-provided transformations (paper §4.3, §7.1).

Transformations either infer new information (``derive_rate``,
``derive_ratio``) or change representation (``explode_discrete``,
``explode_continuous``, ``convert_units``, ``rename_field``). All are
expressed as narrow or keyed RDD operations, so they parallelize for
free; none may modify the *dimensions of domain elements* — a
measurement defined over time is never not defined over time.

The two explodes are the paper's denormalizing "transpose" family:
``explode_discrete`` turns a row holding a list (a job's node list)
into one row per element, and ``explode_continuous`` turns a row
holding a span (a job's time range) into one row per contained instant
— exactly the first two steps of the Figure 5 derivation sequence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import DerivationError
from repro.core.dataset import ScrubJayDataset
from repro.core.derivation import Transformation, register_derivation
from repro.core.dictionary import SemanticDictionary
from repro.core.semantics import DOMAIN, VALUE, Schema, SemanticType
from repro.units.temporal import TimeSpan


@register_derivation
class ExplodeDiscrete(Transformation):
    """Denormalize a list-valued field into one row per element.

    ``{"nodelist": [3, 4, 5], ...}`` becomes three rows with
    ``nodelist_exploded: 3 / 4 / 5``. The field's units go from
    ``list<X>`` to ``X``; its dimension is unchanged.
    """

    op_name = "explode_discrete"

    def __init__(self, field: str) -> None:
        self.field = field

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        if self.field not in schema:
            return False
        sem = schema[self.field]
        return dictionary.unit(sem.units).kind == "list"

    def _out_field(self) -> str:
        return f"{self.field}_exploded"

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        sem = schema[self.field]
        element_units = dictionary.unit(sem.units).element
        assert element_units is not None
        return schema.without_field(self.field).with_field(
            self._out_field(), sem.with_units(element_units)
        )

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        field, out_field = self.field, self._out_field()

        def explode(row: Dict[str, Any]) -> List[Dict[str, Any]]:
            if field not in row:
                return []
            out = []
            for element in row[field]:
                new = {k: v for k, v in row.items() if k != field}
                new[out_field] = element
                out.append(new)
            return out

        return dataset.with_rdd(
            dataset.rdd.flatMap(explode),
            self.derive_schema(dataset.schema, dictionary),
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "field": field,
                        "input": dataset.provenance},
        )

    @classmethod
    def instantiations(
        cls, schema: Schema, dictionary: SemanticDictionary
    ) -> List["ExplodeDiscrete"]:
        return [
            cls(f)
            for f, sem in schema.items()
            if dictionary.has_unit(sem.units)
            and dictionary.unit(sem.units).kind == "list"
        ]


@register_derivation
class ExplodeContinuous(Transformation):
    """Expand a span-valued field into one row per contained instant.

    A job's ``timespan`` becomes rows stamped every ``period`` seconds,
    turning interval data into point data joinable against periodic
    sensor samples. Units go from ``timespan`` to ``datetime``.
    """

    op_name = "explode_continuous"

    #: default sampling period (seconds) used when the engine
    #: enumerates instantiations; chosen to be finer than typical
    #: facility sensor intervals (2-minute temperatures in the paper).
    DEFAULT_PERIOD = 60.0

    def __init__(self, field: str, period: float = DEFAULT_PERIOD) -> None:
        if period <= 0:
            raise DerivationError(f"period must be positive, got {period}")
        self.field = field
        self.period = period

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        if self.field not in schema:
            return False
        sem = schema[self.field]
        return dictionary.unit(sem.units).kind == "timespan"

    def _out_field(self) -> str:
        return f"{self.field}_exploded"

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        sem = schema[self.field]
        return schema.without_field(self.field).with_field(
            self._out_field(), sem.with_units("datetime")
        )

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        field, out_field, period = self.field, self._out_field(), self.period

        def explode(row: Dict[str, Any]) -> List[Dict[str, Any]]:
            span = row.get(field)
            if not isinstance(span, TimeSpan):
                return []
            out = []
            for stamp in span.explode(period):
                new = {k: v for k, v in row.items() if k != field}
                new[out_field] = stamp
                out.append(new)
            return out

        return dataset.with_rdd(
            dataset.rdd.flatMap(explode),
            self.derive_schema(dataset.schema, dictionary),
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "field": field,
                        "period": period, "input": dataset.provenance},
        )

    @classmethod
    def instantiations(
        cls, schema: Schema, dictionary: SemanticDictionary
    ) -> List["ExplodeContinuous"]:
        return [
            cls(f)
            for f, sem in schema.items()
            if dictionary.has_unit(sem.units)
            and dictionary.unit(sem.units).kind == "timespan"
        ]


@register_derivation
class ConvertUnits(Transformation):
    """Convert a quantity (or rate) field to different units of the
    same dimension — e.g. minutes → seconds, Fahrenheit → Celsius."""

    op_name = "convert_units"

    def __init__(self, field: str, to_units: str) -> None:
        self.field = field
        self.to_units = to_units

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        if self.field not in schema or not dictionary.has_unit(self.to_units):
            return False
        try:
            dictionary.convert(1.0, schema[self.field].units, self.to_units)
            return True
        except Exception:
            return False

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        return schema.replace_field(
            self.field, schema[self.field].with_units(self.to_units)
        )

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        field = self.field
        from_units = dataset.schema[field].units
        factor_source = dictionary.registry

        def convert(row: Dict[str, Any]) -> Dict[str, Any]:
            if field not in row:
                return row
            new = dict(row)
            new[field] = factor_source.convert(
                row[field], from_units, self.to_units
            )
            return new

        return dataset.with_rdd(
            dataset.rdd.map(convert),
            self.derive_schema(dataset.schema, dictionary),
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "field": field,
                        "to_units": self.to_units,
                        "input": dataset.provenance},
        )


@register_derivation
class RenameField(Transformation):
    """Representation-only rename of a field (semantics unchanged)."""

    op_name = "rename_field"

    def __init__(self, field: str, to: str) -> None:
        self.field = field
        self.to = to

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        return self.field in schema and self.to not in schema

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        return schema.rename_field(self.field, self.to)

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        field, to = self.field, self.to

        def rename(row: Dict[str, Any]) -> Dict[str, Any]:
            if field not in row:
                return row
            new = {k: v for k, v in row.items() if k != field}
            new[to] = row[field]
            return new

        return dataset.with_rdd(
            dataset.rdd.map(rename),
            self.derive_schema(dataset.schema, dictionary),
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "field": field, "to": to,
                        "input": dataset.provenance},
        )


@register_derivation
class DeriveRate(Transformation):
    """Turn cumulative counters into instantaneous rates (paper §7.3).

    CPU and node data sources record *cumulative counts* that reset at
    arbitrary intervals, so absolute values are meaningless alone. For
    every value field with ``count`` units, this derivation computes
    the rate of change per consecutive pair of samples — grouped by all
    discrete domain fields (the measured entity: node, cpu, socket),
    ordered by the datetime domain field — and is reset-safe: a
    negative delta marks a counter reset and the sample pair is
    skipped for that field.

    Output rows carry the later sample's domain fields plus
    ``<field>_rate`` values in ``count per second``; the original
    cumulative fields are dropped.
    """

    op_name = "derive_rate"

    SUFFIX = "_rate"

    def __init__(self, fields: Optional[List[str]] = None) -> None:
        self.fields = fields

    def _count_fields(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> List[str]:
        out = []
        for f, sem in schema.value_fields().items():
            if self.fields is not None and f not in self.fields:
                continue
            if dictionary.has_unit(sem.units) and \
                    dictionary.unit(sem.units).kind == "count":
                out.append(f)
        return out

    def _time_field(self, schema: Schema,
                    dictionary: SemanticDictionary) -> Optional[str]:
        for f, sem in schema.domain_fields().items():
            if dictionary.has_unit(sem.units) and \
                    dictionary.unit(sem.units).kind == "datetime":
                return f
        return None

    def _group_fields(self, schema: Schema,
                      dictionary: SemanticDictionary) -> List[str]:
        out = []
        for f, sem in schema.domain_fields().items():
            if not dictionary.has_dimension(sem.dimension):
                continue
            if not dictionary.dimension(sem.dimension).interpolatable:
                out.append(f)
        return out

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        return bool(self._count_fields(schema, dictionary)) and \
            self._time_field(schema, dictionary) is not None

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        out = schema
        for f in self._count_fields(schema, dictionary):
            sem = schema[f]
            out = out.without_field(f).with_field(
                f + self.SUFFIX,
                SemanticType(VALUE, f"{sem.dimension} per time",
                             "count per second"),
            )
        return out

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        schema = dataset.schema
        count_fields = self._count_fields(schema, dictionary)
        time_field = self._time_field(schema, dictionary)
        group_fields = self._group_fields(schema, dictionary)
        suffix = self.SUFFIX
        assert time_field is not None

        def key(row: Dict[str, Any]):
            return tuple(row.get(f) for f in group_fields)

        def rates(kv) -> List[Dict[str, Any]]:
            _k, rows = kv
            # a missing or None field is no sample: a row without a time
            # is dropped, a pair without a count is skipped for it
            rows = sorted(
                (r for r in rows if r.get(time_field) is not None),
                key=lambda r: r[time_field],
            )
            out = []
            for prev, cur in zip(rows, rows[1:]):
                dt = cur[time_field] - prev[time_field]
                if dt <= 0:
                    continue
                new = {
                    k: v for k, v in cur.items() if k not in count_fields
                }
                any_rate = False
                for f in count_fields:
                    if cur.get(f) is None or prev.get(f) is None:
                        continue
                    delta = cur[f] - prev[f]
                    if delta < 0:  # counter reset between samples
                        continue
                    new[f + suffix] = delta / dt
                    any_rate = True
                if any_rate:
                    out.append(new)
            return out

        rdd = (
            dataset.rdd.keyBy(key)
            .groupByKey()
            .flatMap(rates)
        )
        return dataset.with_rdd(
            rdd,
            self.derive_schema(schema, dictionary),
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "fields": count_fields,
                        "input": dataset.provenance},
        )

    @classmethod
    def instantiations(
        cls, schema: Schema, dictionary: SemanticDictionary
    ) -> List["DeriveRate"]:
        inst = cls()
        return [inst] if inst.applies(schema, dictionary) else []


@register_derivation
class DeriveRatio(Transformation):
    """Derive a new value as the ratio of two existing value fields —
    the paper's canonical example: instruction counts / elapsed times
    → instruction rates. Rows with a zero denominator are dropped, and
    so are rows missing either input (a ``None`` is no sample)."""

    op_name = "derive_ratio"

    def __init__(
        self,
        numerator: str,
        denominator: str,
        result_field: str,
        result_dimension: str,
        result_units: str,
        drop_inputs: bool = False,
    ) -> None:
        self.numerator = numerator
        self.denominator = denominator
        self.result_field = result_field
        self.result_dimension = result_dimension
        self.result_units = result_units
        self.drop_inputs = drop_inputs

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        return (
            self.numerator in schema
            and self.denominator in schema
            and schema[self.numerator].is_value
            and schema[self.denominator].is_value
            and self.result_field not in schema
        )

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        out = schema.with_field(
            self.result_field,
            SemanticType(VALUE, self.result_dimension, self.result_units),
        )
        if self.drop_inputs:
            out = out.without_field(self.numerator)
            out = out.without_field(self.denominator)
        return out

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        num, den = self.numerator, self.denominator
        result = self.result_field
        drop = (num, den) if self.drop_inputs else ()

        def derive(row: Dict[str, Any]) -> List[Dict[str, Any]]:
            if row.get(num) is None or not row.get(den):
                return []
            new = {k: v for k, v in row.items() if k not in drop}
            new[result] = row[num] / row[den]
            return [new]

        return dataset.with_rdd(
            dataset.rdd.flatMap(derive),
            self.derive_schema(dataset.schema, dictionary),
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "numerator": num,
                        "denominator": den, "result": result,
                        "input": dataset.provenance},
        )


@register_derivation
class FilterEquals(Transformation):
    """Keep rows whose field equals a literal value.

    Part of the interoperability layer the paper's footnote 1 promises
    ("we recognize the need for filtering and aggregation semantics
    provided by traditional relational database tools"): a filter that
    is a first-class, serializable derivation, so filtered pipelines
    stay reproducible. The schema is unchanged.
    """

    op_name = "filter_equals"

    def __init__(self, field: str, value: Any) -> None:
        self.field = field
        self.value = value

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        return self.field in schema

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        return schema

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        field, value = self.field, self.value
        return dataset.with_rdd(
            dataset.rdd.filter(lambda row: row.get(field) == value),
            dataset.schema,
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "field": field,
                        "value": value, "input": dataset.provenance},
        )


@register_derivation
class FilterRange(Transformation):
    """Keep rows whose field lies in ``[low, high)``.

    Only valid on *ordered* dimensions — comparing values along an
    unordered dimension (a node ID is not "less than" another) is
    exactly what the semantics exist to forbid. Datetime fields compare
    by epoch; bounds may be None for one-sided ranges.
    """

    op_name = "filter_range"

    def __init__(self, field: str, low: Optional[float] = None,
                 high: Optional[float] = None) -> None:
        if low is None and high is None:
            raise DerivationError("filter_range needs low and/or high")
        self.field = field
        self.low = low
        self.high = high

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        if self.field not in schema:
            return False
        sem = schema[self.field]
        if not dictionary.has_dimension(sem.dimension):
            return False
        return dictionary.dimension(sem.dimension).ordered

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        return schema

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        field, low, high = self.field, self.low, self.high

        def keep(row: Dict[str, Any]) -> bool:
            if field not in row:
                return False
            v = row[field]
            epoch = getattr(v, "epoch", v)
            if low is not None and epoch < low:
                return False
            if high is not None and epoch >= high:
                return False
            return True

        return dataset.with_rdd(
            dataset.rdd.filter(keep),
            dataset.schema,
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "field": field,
                        "low": low, "high": high,
                        "input": dataset.provenance},
        )


@register_derivation
class SelectFields(Transformation):
    """Keep only the named fields (projection as a derivation).

    The projection counterpart of the filter transformations: a
    first-class, serializable plan step, which the pushdown rewrite
    can translate into scan-level column pruning. Rows that end up
    empty after projection are dropped (a row with no fields carries
    no information).
    """

    op_name = "select_fields"

    def __init__(self, fields: List[str]) -> None:
        if not fields:
            raise DerivationError("select_fields needs at least one field")
        self.fields = list(fields)

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        return all(f in schema for f in self.fields)

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        return Schema({f: schema[f] for f in self.fields})

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        keep = frozenset(self.fields)

        def project(row: Dict[str, Any]) -> Dict[str, Any]:
            return {k: v for k, v in row.items() if k in keep}

        return dataset.with_rdd(
            dataset.rdd.map(project).filter(bool),
            self.derive_schema(dataset.schema, dictionary),
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "fields": list(self.fields),
                        "input": dataset.provenance},
        )
