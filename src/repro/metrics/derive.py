"""The derivation backing the serve tier's metric plans.

:class:`BucketTime` — snap a datetime domain field to its grain bucket
(row-local, delta-safe). The serve tier puts it on top of a metric
query's base plan, so the plan serializes, renders in EXPLAIN and
fingerprints like every other derivation sequence, and shards group
rows that are already bucketed.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import DerivationError
from repro.core.dataset import ScrubJayDataset
from repro.core.derivation import Transformation, register_derivation
from repro.core.dictionary import SemanticDictionary
from repro.core.semantics import Schema
from repro.units.temporal import Timestamp


@register_derivation
class BucketTime(Transformation):
    """Snap a datetime field to the start of its ``seconds``-wide
    bucket (``epoch // seconds * seconds``). Schema is unchanged; the
    field's values become bucket-start :class:`Timestamp`\\ s."""

    op_name = "bucket_time"

    def __init__(self, field: str, seconds: float) -> None:
        if seconds <= 0:
            raise DerivationError("bucket_time needs a positive width")
        self.field = field
        self.seconds = float(seconds)

    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        if self.field not in schema:
            return False
        sem = schema[self.field]
        return (
            dictionary.has_unit(sem.units)
            and dictionary.unit(sem.units).kind == "datetime"
        )

    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        return schema

    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        self._check(dataset, dictionary)
        field, seconds = self.field, self.seconds

        def bucket(row: Dict[str, Any]) -> Dict[str, Any]:
            if field not in row:
                return row
            epoch = getattr(row[field], "epoch", row[field])
            out = dict(row)
            out[field] = Timestamp((epoch // seconds) * seconds)
            return out

        return dataset.with_rdd(
            dataset.rdd.map(bucket),
            dataset.schema,
            name=f"{dataset.name}|{self.op_name}",
            provenance={"op": self.op_name, "field": field,
                        "seconds": seconds,
                        "input": dataset.provenance},
        )
