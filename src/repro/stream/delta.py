"""Incremental derivation: delta execution over DerivationPlans.

The core observation (following the incremental view-maintenance
lineage: provenance-on-Spark showed maintaining derived structures
beats recomputation for append-mostly workloads) is that ScrubJay
plans are largely built from **union-distributive** operators. For a
plan ``f`` and an appended delta ``Δ`` to input ``X``,

    f(X ∪ Δ, Y) = f(X, Y) ∪ f(Δ, Y)

holds whenever every operator on the path from ``X``'s leaf to the
root is row-local (filter/project/rename/convert/explode/ratio) or a
natural join whose *other* side is unchanged (a join is linear in
each argument separately). Then refreshing a standing answer after an
append means executing the same plan with the changed leaf bound to
just the delta rows — typically orders of magnitude less data — and
unioning into the previous answer (or merging aggregation partials
via :func:`~repro.analysis.aggregate.merge_group_partials`).

Operators that need cross-row context — ``derive_rate`` (adjacent
samples), ``interpolation_join`` (neighbors straddle the watermark),
or a combine with changed data on *both* sides — break the identity;
those plans fall back to **scoped replay**: a full recompute pinned at
the new watermark (time-windowed derivations only ever need the
window reaching back ``max window`` before it). Either way each
operator's choice is recorded as a ``delta``
:class:`~repro.rdd.stats.Decision` on the ExecutionReport, so the
incremental path is *asserted*, not assumed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.dataset import ScrubJayDataset
from repro.core.pipeline import (
    CombineNode,
    DerivationPlan,
    LoadNode,
    PlanNode,
    ScanNode,
    TransformNode,
)
from repro.errors import PipelineError
from repro.rdd.stats import Decision

#: transformations that are row-local — applying them to a union of
#: row sets equals the union of applying them to each set
DELTA_SAFE_TRANSFORMS = frozenset({
    "filter_equals",
    "filter_range",
    "rename_field",
    "convert_units",
    "select_fields",
    "explode_discrete",
    "explode_continuous",
    "derive_ratio",
    # snapping a timestamp to its grain bucket is row-local
    "bucket_time",
})

#: combinations linear in each argument separately (delta-safe when
#: exactly one side's inputs changed)
DELTA_SAFE_COMBINES = frozenset({"natural_join"})


class DeltaPlan:
    """A :class:`DerivationPlan` plus its incremental-execution brain.

    ``classify(changed)`` decides delta vs replay for a set of changed
    dataset names; ``execute_delta`` runs the plan with changed leaves
    bound to delta-only datasets. The caller (the serve layer's
    subscription refresh) owns the union/merge of the delta output
    into the standing answer and the watermark bookkeeping.
    """

    def __init__(self, plan: DerivationPlan) -> None:
        self.plan = plan

    def dataset_names(self) -> List[str]:
        return self.plan.dataset_names()

    # -- classification ------------------------------------------------

    def classify(
        self, changed: Sequence[str], report=None
    ) -> Tuple[str, List[Decision]]:
        """(``"delta"`` | ``"replay"`` | ``"none"``, decisions).

        ``"none"`` means no plan input changed — the standing answer
        is already current. ``"delta"`` means every operator on every
        changed path is union-distributive. Decisions cover each
        operator examined on a changed path; on ``"replay"`` the
        offending operators carry the reason. With an ExecutionReport
        ``report`` the decisions are recorded on it (and so mirrored
        into ``stream.delta.decisions``).
        """
        touched_names: Set[str] = set(changed) & set(self.dataset_names())
        if not touched_names:
            return "none", []
        decisions: List[Decision] = []

        def decide(op: str, choice: str, reason: str) -> None:
            decisions.append(Decision("delta", op, choice, reason))

        def walk(node: PlanNode) -> bool:
            # True when the subtree reads a changed dataset
            if isinstance(node, (LoadNode, ScanNode)):
                return node.dataset_name in touched_names
            if isinstance(node, TransformNode):
                touched = walk(node.input)
                if touched:
                    op = node.derivation.op_name
                    if op in DELTA_SAFE_TRANSFORMS:
                        decide(
                            op, "delta",
                            "row-local: distributes over row-set union",
                        )
                    else:
                        decide(
                            op, "replay",
                            f"{op} needs cross-row context (not "
                            "union-distributive)",
                        )
                return touched
            if isinstance(node, CombineNode):
                lt = walk(node.left)
                rt = walk(node.right)
                if lt or rt:
                    op = node.derivation.op_name
                    if lt and rt:
                        decide(
                            op, "replay",
                            "changed datasets feed both sides of the "
                            "combine",
                        )
                    elif op in DELTA_SAFE_COMBINES:
                        decide(
                            op, "delta",
                            "join is linear in its single changed side",
                        )
                    else:
                        decide(
                            op, "replay",
                            f"{op} reads neighbor rows across the "
                            "watermark (window/interpolation context)",
                        )
                return lt or rt
            raise PipelineError(
                f"unknown plan node {type(node).__name__}"
            )

        walk(self.plan.root)
        if report is not None:
            for d in decisions:
                report.add(d)
        replay = any(d.choice == "replay" for d in decisions)
        return ("replay" if replay else "delta"), decisions

    # -- execution -----------------------------------------------------

    def execute_delta(
        self,
        base_catalog: Dict[str, ScrubJayDataset],
        delta_datasets: Dict[str, ScrubJayDataset],
        dictionary,
    ) -> ScrubJayDataset:
        """Execute the plan with changed leaves bound to delta rows.

        ``base_catalog`` supplies the *unchanged* inputs (for a join's
        static side — pinned at their own watermarks by the caller);
        ``delta_datasets`` maps each changed name to a dataset holding
        only the rows appended in the refresh interval.
        """
        catalog = dict(base_catalog)
        catalog.update(delta_datasets)
        return self.plan.execute(catalog, dictionary)

    def execute_full(
        self,
        catalog: Dict[str, ScrubJayDataset],
        dictionary,
    ) -> ScrubJayDataset:
        """Scoped replay: full execution against a catalog whose feed
        inputs the caller has pinned (bounded) at the target
        watermarks — never against live, still-growing sources."""
        return self.plan.execute(catalog, dictionary)

    def __repr__(self) -> str:
        return f"DeltaPlan({self.plan!r})"
