"""The semantic metrics layer: first-class measures, time-grain
rollups, and rollup routing.

ScrubJay's base query model answers *"relate these dimensions"*; this
package answers *"summarize a value dimension over time"* as a
first-class query concept:

- :class:`~repro.core.query.Measure` / :class:`~repro.core.query.
  Grain` — what to aggregate and at which time bucket / grouping
  domain, attached to a :class:`~repro.core.query.Query` via the
  builder's ``.measure() / .per() / .grain()`` terminals;
- :mod:`repro.metrics.compute` — measure evaluation over the engine's
  answer to the query's base relation (mergeable partials everywhere,
  finalize once);
- :mod:`repro.metrics.derive` — the ``bucket_time`` and
  ``rollup_aggregate`` derivations that make a rollup an ordinary,
  serializable derivation plan;
- :mod:`repro.metrics.rollup` — materialized :class:`Rollup` tables
  (``session.rollup(...)``) kept fresh incrementally as feeds
  advance, and :func:`choose_rollup`, the router that answers each
  metric query from the coarsest rollup that can — recorded as a
  ``rollup`` :class:`~repro.rdd.stats.Decision` (``choice`` is
  ``rollup`` or ``raw``; ``evidence`` names the rollup, both grains
  and the candidate count), which is also ``MetricAnswer.decision``.
"""

from repro.core.query import Grain, Measure

# Importing registers the bucket_time / rollup_aggregate derivations.
import repro.metrics.derive  # noqa: F401

from repro.metrics.compute import (
    MetricAnswer,
    finalize_metric,
    merge_metric_partials,
    metric_group_fields,
    metric_partials,
)
from repro.metrics.derive import BucketTime, RollupAggregate
from repro.metrics.rollup import Rollup, choose_rollup, rows_from_state

__all__ = [
    "Measure",
    "Grain",
    "MetricAnswer",
    "Rollup",
    "BucketTime",
    "RollupAggregate",
    "choose_rollup",
    "finalize_metric",
    "merge_metric_partials",
    "metric_group_fields",
    "metric_partials",
    "rows_from_state",
]
