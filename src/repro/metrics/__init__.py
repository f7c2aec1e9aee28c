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
  answer to the query's base relation (mergeable partials keyed at the
  grain from the first row, finalize once);
- :mod:`repro.metrics.derive` — the ``bucket_time`` derivation the
  serve tier puts on top of a metric query's base plan;
- :mod:`repro.metrics.rollup` — materialized :class:`Rollup` tables
  (``session.rollup(...)``) kept fresh incrementally as feeds
  advance, and :func:`choose_rollup`, the router that answers each
  metric query from the coarsest rollup that can — recorded as a
  ``rollup`` :class:`~repro.rdd.stats.Decision` (``choice`` is
  ``rollup`` or ``raw``; ``evidence`` names the rollup, both grains
  and the candidate count), which is also ``MetricAnswer.decision``.
"""

from repro.core.query import Grain, Measure

from repro.metrics.compute import (
    MetricAnswer,
    finalize_metric,
    merge_metric_partials,
    metric_group_fields,
    metric_partials,
)
# Importing registers the bucket_time derivation.
from repro.metrics.derive import BucketTime
from repro.metrics.rollup import Rollup, choose_rollup, rows_from_state

__all__ = [
    "Measure",
    "Grain",
    "MetricAnswer",
    "Rollup",
    "BucketTime",
    "choose_rollup",
    "finalize_metric",
    "merge_metric_partials",
    "metric_group_fields",
    "metric_partials",
    "rows_from_state",
]
