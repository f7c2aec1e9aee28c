"""Reproducible derivation sequences (paper §5.4).

A derivation sequence is a DAG: leaves load named datasets from the
session catalog, internal nodes apply transformations (one input) or
combinations (two inputs). The engine *plans* these DAGs without
executing them; a plan can then be

- executed in distributed memory (``plan.execute(...)``),
- serialized to JSON (``plan.to_json()``) — a compact, human-readable,
  directly editable representation containing everything needed to
  reproduce the processing pipeline, with derivation parameters
  gathered by code reflection, or
- rendered as the kind of derivation graph shown in the paper's
  Figures 5 and 7 (``plan.describe()``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import PipelineError
from repro.core.dataset import ScrubJayDataset
from repro.core.derivation import (
    Combination,
    DerivationRegistry,
    Transformation,
)
from repro.core.dictionary import SemanticDictionary
from repro.rdd.rdd import ScanRDD
from repro.sources.predicate import ColumnPredicate
from repro.util.hashing import content_hash


def _apply_scan(base: ScrubJayDataset, node: "ScanNode") -> ScrubJayDataset:
    """Execute a ScanNode against its catalog dataset.

    Source-backed datasets (ingested via ``session.ingest()``) get a
    real pushed scan: a fresh :class:`~repro.rdd.rdd.ScanRDD` carrying
    the predicate/projection, so pruning happens in the storage layer.
    Datasets without a source (e.g. ``register_rows``) fall back to an
    equivalent lazy filter+project over their existing RDD.
    """
    predicate = node.predicate if node.predicate else None
    columns = node.columns
    source = getattr(base, "source", None)
    if source is not None and isinstance(base.rdd, ScanRDD):
        merged = base.rdd.predicate
        if predicate is not None:
            merged = predicate.also(merged) if merged is None \
                else merged.also(predicate)
        cols = columns
        if cols is not None and base.rdd.columns is not None:
            cols = [c for c in cols if c in base.rdd.columns]
        elif cols is None:
            cols = base.rdd.columns
        rdd = ScanRDD(base.ctx, source, columns=cols, predicate=merged)
    else:
        rdd = base.rdd
        if predicate is not None:
            rdd = rdd.mapPartitions(predicate.filter_rows)
        if columns is not None:
            wanted = set(columns)
            rdd = rdd.map(
                lambda row: {k: v for k, v in row.items() if k in wanted}
            ).filter(bool)
    return base.with_rdd(
        rdd,
        base.schema,
        name=f"{base.name}|scan",
        provenance={
            "op": "scan",
            "dataset": node.dataset_name,
            "predicate": predicate.to_json_dict() if predicate else None,
            "columns": list(columns) if columns is not None else None,
            "input": base.provenance,
        },
    )


class PlanNode:
    """Base node of a derivation DAG."""

    def children(self) -> List["PlanNode"]:
        return []

    def to_json_dict(self) -> dict:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Content hash of the sub-derivation: identical
        sub-derivations issued by different analysts share it."""
        return content_hash(self.to_json_dict())

    def num_steps(self) -> int:
        """Number of derivation operations (loads are free)."""
        return sum(c.num_steps() for c in self.children())


class LoadNode(PlanNode):
    """Load a named dataset from the session catalog."""

    def __init__(self, dataset_name: str) -> None:
        self.dataset_name = dataset_name

    def to_json_dict(self) -> dict:
        return {"load": self.dataset_name}

    def label(self) -> str:
        return f"Load[{self.dataset_name}]"


class ScanNode(PlanNode):
    """Load a named dataset with predicates/projection pushed into the
    scan.

    Produced by the pushdown rewrite (:mod:`repro.core.pushdown`), not
    by the search: semantically it is ``Load`` + the filters it
    absorbed, executed inside the storage layer when the dataset is
    backed by a :class:`~repro.sources.base.DataSource` (zone-map and
    partition-key pruning apply), or as a plain filtered load when it
    is not. Its output identity is carried by its fingerprint
    (dataset + predicate + columns), which keeps serve-layer result
    keys predicate-aware for free.
    """

    def __init__(
        self,
        dataset_name: str,
        predicate=None,  # ColumnPredicate | None
        columns: Optional[List[str]] = None,
    ) -> None:
        self.dataset_name = dataset_name
        self.predicate = predicate
        self.columns = sorted(columns) if columns is not None else None

    def to_json_dict(self) -> dict:
        out: dict = {"scan": {"dataset": self.dataset_name}}
        if self.predicate is not None and self.predicate:
            out["scan"]["predicate"] = self.predicate.to_json_dict()
        if self.columns is not None:
            out["scan"]["columns"] = list(self.columns)
        return out

    def label(self) -> str:
        parts = [self.dataset_name]
        if self.predicate is not None and self.predicate:
            parts.append(repr(self.predicate))
        if self.columns is not None:
            parts.append("cols=" + ",".join(self.columns))
        return f"Scan[{' | '.join(parts)}]"


class TransformNode(PlanNode):
    """Apply a transformation to one input plan."""

    def __init__(self, derivation: Transformation, input: PlanNode) -> None:
        self.derivation = derivation
        self.input = input

    def children(self) -> List[PlanNode]:
        return [self.input]

    def num_steps(self) -> int:
        return 1 + self.input.num_steps()

    def to_json_dict(self) -> dict:
        return {
            "transform": self.derivation.to_json_dict(),
            "input": self.input.to_json_dict(),
        }

    def label(self) -> str:
        return self.derivation.describe()


class CombineNode(PlanNode):
    """Apply a combination to two input plans."""

    def __init__(
        self, derivation: Combination, left: PlanNode, right: PlanNode
    ) -> None:
        self.derivation = derivation
        self.left = left
        self.right = right

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def num_steps(self) -> int:
        return 1 + self.left.num_steps() + self.right.num_steps()

    def to_json_dict(self) -> dict:
        return {
            "combine": self.derivation.to_json_dict(),
            "left": self.left.to_json_dict(),
            "right": self.right.to_json_dict(),
        }

    def label(self) -> str:
        return self.derivation.describe()


class DerivationPlan:
    """A complete, executable, serializable derivation sequence."""

    def __init__(self, root: PlanNode) -> None:
        self.root = root

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self,
        catalog: Dict[str, ScrubJayDataset],
        dictionary: SemanticDictionary,
        tracer=None,
        measure: bool = False,
    ) -> ScrubJayDataset:
        """Run the pipeline against actual data.

        ``catalog`` maps dataset names to loaded datasets.

        ``tracer`` (an enabled :class:`~repro.obs.Tracer`) produces
        one ``plan-node`` span per node, mirroring the plan tree;
        stage/task spans from the RDD scheduler nest under the node
        whose action materialized them.
        ``measure`` additionally forces per-node materialization and
        attaches a measured ``rows_out`` counter —
        EXPLAIN ANALYZE mode. Ordinary runs must leave it off: it
        defeats lazy whole-plan pipelining.
        """
        return self._execute(self.root, catalog, dictionary, tracer, measure)

    def _execute(
        self,
        node: PlanNode,
        catalog: Dict[str, ScrubJayDataset],
        dictionary: SemanticDictionary,
        tracer=None,
        measure: bool = False,
    ) -> ScrubJayDataset:
        if tracer is not None and tracer.enabled:
            with tracer.span(
                node.label(), kind="plan-node", label=node.label()
            ) as span:
                result = self._execute_node(
                    node, catalog, dictionary, tracer, measure
                )
                if measure:
                    span.add("rows_out", result.rdd.count())
                    # the count() call above materialized the scan, so
                    # its physical read counters are available now
                    scan = getattr(result.rdd, "last_scan", None)
                    if scan:
                        for key, value in scan.items():
                            span.add(f"scan.{key}", value)
                return result
        return self._execute_node(node, catalog, dictionary, tracer, measure)

    def _execute_node(
        self,
        node: PlanNode,
        catalog: Dict[str, ScrubJayDataset],
        dictionary: SemanticDictionary,
        tracer,
        measure: bool,
    ) -> ScrubJayDataset:
        if isinstance(node, LoadNode):
            try:
                base = catalog[node.dataset_name]
            except KeyError:
                raise PipelineError(
                    f"plan loads unknown dataset {node.dataset_name!r}"
                ) from None
            return base

        if isinstance(node, ScanNode):
            try:
                base = catalog[node.dataset_name]
            except KeyError:
                raise PipelineError(
                    f"plan scans unknown dataset {node.dataset_name!r}"
                ) from None
            return _apply_scan(base, node)

        if isinstance(node, TransformNode):
            upstream = self._execute(
                node.input, catalog, dictionary, tracer, measure
            )
            return node.derivation.apply(upstream, dictionary)
        if isinstance(node, CombineNode):
            left = self._execute(
                node.left, catalog, dictionary, tracer, measure
            )
            right = self._execute(
                node.right, catalog, dictionary, tracer, measure
            )
            return node.derivation.apply(left, right, dictionary)
        raise PipelineError(f"unknown plan node {type(node).__name__}")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def derive_schema(
        self,
        catalog_schemas: Dict[str, "Schema"],  # noqa: F821
        dictionary: SemanticDictionary,
    ) -> "Schema":  # noqa: F821
        """Schema-level execution: the output schema this plan would
        produce, computed without touching any data (the same
        near-constant-time path the engine plans with)."""

        def walk(node: PlanNode):
            if isinstance(node, (LoadNode, ScanNode)):
                # a scan filters/projects rows but (by design) leaves
                # the schema intact, so joins planned against the
                # catalog schema stay valid on pushed plans
                try:
                    return catalog_schemas[node.dataset_name]
                except KeyError:
                    raise PipelineError(
                        f"plan loads unknown dataset "
                        f"{node.dataset_name!r}"
                    ) from None
            if isinstance(node, TransformNode):
                return node.derivation.derive_schema(
                    walk(node.input), dictionary
                )
            if isinstance(node, CombineNode):
                return node.derivation.derive_schema(
                    walk(node.left), walk(node.right), dictionary
                )
            raise PipelineError(f"unknown plan node {type(node).__name__}")

        return walk(self.root)

    def num_steps(self) -> int:
        return self.root.num_steps()

    def dataset_names(self) -> List[str]:
        """Distinct catalog dataset names this plan reads (its leaf
        Load/Scan inputs), in first-appearance order. Serve-layer
        result caching keys dependency tracking on this — a feed
        advance on one of these names invalidates the cached answer."""
        out: List[str] = []
        seen = set()

        def walk(node: PlanNode) -> None:
            if isinstance(node, (LoadNode, ScanNode)):
                if node.dataset_name not in seen:
                    seen.add(node.dataset_name)
                    out.append(node.dataset_name)
            for c in node.children():
                walk(c)

        walk(self.root)
        return out

    def operations(self) -> List[str]:
        """Operation names, leaves-first (execution order)."""
        out: List[str] = []

        def walk(node: PlanNode) -> None:
            for c in node.children():
                walk(c)
            if isinstance(node, TransformNode):
                out.append(node.derivation.op_name)
            elif isinstance(node, CombineNode):
                out.append(node.derivation.op_name)
            elif isinstance(node, ScanNode):
                out.append(f"scan:{node.dataset_name}")
            else:
                out.append(f"load:{node.dataset_name}")  # type: ignore[attr-defined]

        walk(self.root)
        return out

    def describe(self) -> str:
        """Render the derivation graph, root first (like Figures 5/7)."""
        lines: List[str] = []

        def walk(node: PlanNode, depth: int) -> None:
            lines.append("  " * depth + node.label())
            for c in node.children():
                walk(c, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def fingerprint(self) -> str:
        return self.root.fingerprint()

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.root.to_json_dict(), indent=indent)

    @staticmethod
    def from_json(
        text: str, registry: DerivationRegistry
    ) -> "DerivationPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PipelineError(f"malformed plan JSON: {exc}") from exc
        return DerivationPlan(_node_from_json(data, registry))

    def __repr__(self) -> str:
        return f"DerivationPlan({self.num_steps()} steps)"


def _node_from_json(data: dict, registry: DerivationRegistry) -> PlanNode:
    if not isinstance(data, dict):
        raise PipelineError(f"plan node must be an object, got {data!r}")
    if "load" in data:
        return LoadNode(data["load"])
    if "scan" in data:
        spec = data["scan"]
        predicate = None
        if spec.get("predicate"):
            predicate = ColumnPredicate.from_json_dict(spec["predicate"])
        return ScanNode(
            spec["dataset"], predicate, spec.get("columns")
        )
    if "transform" in data:
        derivation = registry.instantiate(data["transform"])
        if not isinstance(derivation, Transformation):
            raise PipelineError(
                f"{derivation.op_name!r} is not a transformation"
            )
        return TransformNode(
            derivation, _node_from_json(data["input"], registry)
        )
    if "combine" in data:
        derivation = registry.instantiate(data["combine"])
        if not isinstance(derivation, Combination):
            raise PipelineError(
                f"{derivation.op_name!r} is not a combination"
            )
        return CombineNode(
            derivation,
            _node_from_json(data["left"], registry),
            _node_from_json(data["right"], registry),
        )
    raise PipelineError(
        f"plan node needs one of load/transform/combine: {sorted(data)}"
    )
