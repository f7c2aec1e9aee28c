"""ScrubJay's core: semantics, datasets, derivations, and the engine.

This package is the paper's primary contribution:

- :mod:`repro.core.semantics` — field annotations
  (relation type / dimension / units) and dataset schemas;
- :mod:`repro.core.dictionary` — the synonym/homonym-free semantic
  dictionary that validates annotations;
- :mod:`repro.core.dataset` — :class:`ScrubJayDataset`, an annotated
  distributed dataset;
- :mod:`repro.core.derivation` and friends — transformations
  (explode, unit conversion, rate/ratio derivations) and combinations
  (natural join, interpolation join);
- :mod:`repro.core.engine` — the derivation engine (Algorithm 1):
  schema-level backward-chaining search with memoization;
- :mod:`repro.core.query` — the analyst-facing query type;
- :mod:`repro.core.pipeline` — reproducible JSON derivation sequences.
"""

from repro.core.semantics import DOMAIN, VALUE, SemanticType, Schema
from repro.core.dictionary import SemanticDictionary, default_dictionary
from repro.core.dataset import ScrubJayDataset
from repro.core.query import Query
from repro.core.knowledge import KnowledgeBase
from repro.core.taxonomy import DataSource, SourceCatalog

__all__ = [
    "KnowledgeBase",
    "DataSource",
    "SourceCatalog",
    "DOMAIN",
    "VALUE",
    "SemanticType",
    "Schema",
    "SemanticDictionary",
    "default_dictionary",
    "ScrubJayDataset",
    "Query",
]
