"""ScrubJayDataset: an annotated distributed dataset.

Binds together the three things ScrubJay decouples — the data (an RDD
of dict rows), its meaning (a :class:`~repro.core.semantics.Schema`),
and its provenance (a human-readable name plus, once derived, the plan
node that produced it). Rows are variable-length named tuples in the
paper; here they are plain dicts: sparse and heterogeneous values are
handled by simply omitting keys.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import SemanticError
from repro.core.semantics import Schema
from repro.rdd.context import SJContext
from repro.rdd.rdd import RDD


class ScrubJayDataset:
    """An RDD of dict rows plus the schema describing their semantics."""

    def __init__(
        self,
        rdd: RDD,
        schema: Schema,
        name: str = "<anonymous>",
        provenance: Optional[dict] = None,
    ) -> None:
        self.rdd = rdd
        self.schema = schema
        self.name = name
        #: JSON-able description of how this dataset was produced
        #: (a wrapper invocation or a derivation plan node).
        self.provenance = provenance or {"op": "source", "name": name}
        #: the :class:`~repro.sources.base.DataSource` backing this
        #: dataset, when it was ingested through ``session.ingest()`` —
        #: lets the pushdown rewrite collapse predicates into the scan.
        self.source = None
        #: bumped by each feed advance that grows this dataset in place;
        #: ``_facts`` memoizes the engine's
        #: :func:`~repro.core.engine.leaf_facts` as
        #: ``(_data_version, facts)``
        self._data_version = 0
        self._facts = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_rows(
        ctx: SJContext,
        rows: List[Dict[str, Any]],
        schema: Schema,
        name: str = "<anonymous>",
        num_partitions: Optional[int] = None,
    ) -> "ScrubJayDataset":
        return ScrubJayDataset(
            ctx.parallelize(rows, num_partitions), schema, name
        )

    def with_rdd(self, rdd: RDD, schema: Optional[Schema] = None,
                 name: Optional[str] = None,
                 provenance: Optional[dict] = None) -> "ScrubJayDataset":
        """A derived dataset sharing this one's context."""
        return ScrubJayDataset(
            rdd,
            schema if schema is not None else self.schema,
            name if name is not None else self.name,
            provenance,
        )

    # ------------------------------------------------------------------
    # data access (actions)
    # ------------------------------------------------------------------

    def collect(self) -> List[Dict[str, Any]]:
        return self.rdd.collect()

    def take(self, n: int) -> List[Dict[str, Any]]:
        return self.rdd.take(n)

    def count(self) -> int:
        return self.rdd.count()

    def column(self, field: str) -> List[Any]:
        """All values of one field (rows missing the field are skipped)."""
        if field not in self.schema:
            raise SemanticError(
                f"dataset {self.name!r} has no field {field!r}"
            )
        return (
            self.rdd.filter(lambda row: field in row)
            .map(lambda row: row[field])
            .collect()
        )

    # ------------------------------------------------------------------
    # simple relational helpers (analyst conveniences; the engine
    # itself only uses derivations)
    # ------------------------------------------------------------------

    def select(self, *fields: str) -> "ScrubJayDataset":
        for f in fields:
            if f not in self.schema:
                raise SemanticError(
                    f"dataset {self.name!r} has no field {f!r}"
                )
        keep = set(fields)
        from repro.rdd.rdd import ScanRDD  # deferred: avoids churn above
        if isinstance(self.rdd, ScanRDD):
            # projection pushdown: the source reads only these columns
            rdd: RDD = self.rdd.with_columns(fields)
        else:
            rdd = self.rdd.map(
                lambda row: {k: v for k, v in row.items() if k in keep}
            )
        return self.with_rdd(
            rdd,
            Schema({f: self.schema[f] for f in fields}),
            provenance={"op": "select", "fields": list(fields),
                        "input": self.provenance},
        )

    def where(self, predicate) -> "ScrubJayDataset":
        return self.with_rdd(
            self.rdd.filter(predicate),
            provenance={"op": "where", "input": self.provenance},
        )

    def persist(self) -> "ScrubJayDataset":
        self.rdd.persist()
        return self

    # ------------------------------------------------------------------

    def validate(self, dictionary) -> "ScrubJayDataset":
        """Validate the schema against a semantic dictionary; returns
        self so it chains."""
        dictionary.validate_schema(self.schema)
        return self

    # ------------------------------------------------------------------
    # adaptive-execution observability
    # ------------------------------------------------------------------

    @property
    def execution_report(self):
        """The context's :class:`~repro.rdd.stats.ExecutionReport` —
        the audit trail of join strategies, partition counts, and
        shuffle volumes chosen while computing this (and any other)
        dataset on the same context."""
        return getattr(self.ctx, "report", None)

    @property
    def ctx(self) -> SJContext:
        return self.rdd.ctx

    def __repr__(self) -> str:
        return f"ScrubJayDataset({self.name!r}, {self.schema!r})"
