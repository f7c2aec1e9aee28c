"""Streaming ingestion and incremental derivation.

ScrubJay's inputs are live HPC feeds — LDMS samplers, Caliper traces,
job logs — yet batch registration answers every standing question by
full replay. This package closes that gap:

- :class:`Feed` — a tailing handle over any appendable
  :class:`~repro.sources.base.DataSource` (growing CSV files, sealed
  wide-column segments, in-process push endpoints) with a monotonic
  committed **watermark**; created by
  ``session.ingest()....tail(name)``;
- :class:`DeltaPlan` — classifies a
  :class:`~repro.core.pipeline.DerivationPlan` against a set of
  changed datasets and, when every operator on the changed paths is
  union-distributive, executes the plan over just the appended rows
  (delta execution); otherwise falls back to a scoped replay at the
  new watermark. Each operator's choice lands as a ``delta``
  :class:`~repro.rdd.stats.Decision` on the ExecutionReport;
- the serve layer builds standing-query subscriptions on these
  (:meth:`repro.serve.QueryService.subscribe`).

See DESIGN.md "Streaming & incremental derivation" for the watermark
semantics and the delta-vs-replay decision table.
"""

from repro.stream.delta import DELTA_SAFE_TRANSFORMS, DeltaPlan
from repro.stream.feed import Feed, FeedAdvance

__all__ = [
    "DELTA_SAFE_TRANSFORMS",
    "DeltaPlan",
    "Feed",
    "FeedAdvance",
]
