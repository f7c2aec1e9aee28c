"""ScrubJay (SC'17) reproduction — semantic derivation of relations
across heterogeneous HPC performance data.

Public API highlights:

- :class:`~repro.session.ScrubJaySession` — the analyst entry point;
- :class:`~repro.core.semantics.Schema` /
  :class:`~repro.core.semantics.SemanticType` — data semantics;
- :class:`~repro.core.query.Query` — logical queries over dimensions;
- :class:`~repro.core.dataset.ScrubJayDataset` — annotated distributed
  datasets on the :mod:`repro.rdd` engine;
- :class:`~repro.core.query.Measure` / :class:`~repro.core.query.Grain`
  — the semantic metrics layer (:mod:`repro.metrics`), with
  materialized :class:`~repro.metrics.rollup.Rollup` tables;
- :mod:`repro.sources` — lazy partitioned ingestion
  (``session.ingest().csv/sql/table/rows``);
- :mod:`repro.wrappers` — CSV/SQL/NoSQL unwrappers (export back to
  storage formats);
- :mod:`repro.datagen` — the synthetic HPC facility used by the case
  studies and benchmarks.
"""

from repro.session import ScrubJaySession
from repro.config import (
    KNOBS,
    ServeConfig,
    TuningProfile,
    diff as config_diff,
    knob_table,
)
from repro.core.semantics import DOMAIN, VALUE, Schema, SemanticType
from repro.core.dictionary import SemanticDictionary, default_dictionary
from repro.core.dataset import ScrubJayDataset
from repro.core.query import FilterTerm, Grain, Measure, Query, QueryBuilder
from repro.core.answer import Answer
from repro.sources import (
    ColumnPredicate,
    CSVSource,
    DataSource,
    IngestBuilder,
    RowsSource,
    SQLSource,
    TableSource,
)
from repro.core.engine import DerivationEngine, EngineConfig
from repro.core.pipeline import DerivationPlan
from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    to_chrome_trace,
    to_json_tree,
    to_prometheus,
)
from repro.rdd import (
    AdaptiveConfig,
    ExecutionReport,
    SJContext,
)
from repro.serve import (
    QueryClient,
    QueryServer,
    QueryService,
    ServiceSnapshot,
)
from repro.sources.feed_source import FeedSource
from repro.stream import DeltaPlan, Feed, FeedAdvance
from repro.metrics import MetricAnswer, Rollup
from repro.errors import (
    ConfigError,
    FeedError,
    FeedRewoundError,
    QueryTimeoutError,
    QueryValidationError,
    ScrubJayError,
    ServiceOverloadError,
    SourceError,
    UnsupportedOpError,
    WrapperError,
)
from repro.units import Quantity, Timestamp, TimeSpan

__version__ = "1.0.0"

__all__ = [
    "ScrubJaySession",
    "TuningProfile",
    "ServeConfig",
    "KNOBS",
    "config_diff",
    "knob_table",
    "ConfigError",
    "DOMAIN",
    "VALUE",
    "Schema",
    "SemanticType",
    "SemanticDictionary",
    "default_dictionary",
    "ScrubJayDataset",
    "Query",
    "QueryBuilder",
    "FilterTerm",
    "Measure",
    "Grain",
    "MetricAnswer",
    "Rollup",
    "Answer",
    "DataSource",
    "IngestBuilder",
    "ColumnPredicate",
    "CSVSource",
    "SQLSource",
    "TableSource",
    "RowsSource",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "to_json_tree",
    "to_chrome_trace",
    "to_prometheus",
    "DerivationEngine",
    "EngineConfig",
    "DerivationPlan",
    "SJContext",
    "AdaptiveConfig",
    "ExecutionReport",
    "QueryService",
    "QueryServer",
    "QueryClient",
    "ServiceSnapshot",
    "Feed",
    "FeedAdvance",
    "FeedSource",
    "DeltaPlan",
    "FeedError",
    "FeedRewoundError",
    "UnsupportedOpError",
    "ScrubJayError",
    "ServiceOverloadError",
    "QueryTimeoutError",
    "QueryValidationError",
    "WrapperError",
    "SourceError",
    "Quantity",
    "Timestamp",
    "TimeSpan",
    "__version__",
]
