"""Derivation base classes and the derivation registry (paper §4.3).

Derivations are functions over *semantically annotated* datasets:

- a :class:`Transformation` takes one dataset and produces a modified
  dataset (deriving new elements or changing representation);
- a :class:`Combination` takes two datasets and infers a relation
  between their elements — a generalized JOIN driven by semantics
  rather than user-specified keys.

Each derivation exists at two levels:

- **schema level** — ``applies``/``derive_schema`` operate on schemas
  only, in (near-)constant time. The derivation engine plans entire
  sequences this way without touching data (paper §5.2);
- **data level** — ``apply`` runs the actual data-parallel operation
  on the RDD.

The registry maps operation names to classes so derivation sequences
can be serialized to JSON and re-instantiated (paper §5.4,
"Reproducible Derivation Sequences"); required constructor parameters
are gathered by code reflection, as in the paper.
"""

from __future__ import annotations

import functools
import inspect
import threading
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple, Type

from repro.errors import DerivationError, PipelineError
from repro.core.dataset import ScrubJayDataset
from repro.core.dictionary import SemanticDictionary
from repro.core.semantics import Schema


@functools.lru_cache(maxsize=None)
def _init_params(cls: type) -> Tuple[str, ...]:
    """The named constructor parameters of ``cls``, reflected once."""
    return tuple(
        name
        for name, p in inspect.signature(cls.__init__).parameters.items()
        if name != "self"
        and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    )


class Derivation(ABC):
    """Common base: named, parameterized, JSON-serializable."""

    #: unique operation name, set by subclasses
    op_name: str = ""
    #: "transformation" or "combination"
    kind: str = ""

    def params(self) -> dict:
        """The constructor parameters of this instance, via reflection.

        Subclasses whose constructor arguments are all stored as
        same-named attributes (the convention throughout this package)
        need not override anything to be serializable.
        """
        out = {}
        for name in _init_params(type(self)):
            if not hasattr(self, name):
                raise DerivationError(
                    f"{type(self).__name__} stores no attribute for "
                    f"constructor parameter {name!r}; override params()"
                )
            out[name] = getattr(self, name)
        return out

    def to_json_dict(self) -> dict:
        return {"op": self.op_name, **self.params()}

    def describe(self) -> str:
        ps = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{self.op_name}({ps})"

    def __repr__(self) -> str:
        return self.describe()

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.params() == self.params()  # type: ignore[union-attr]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(
            (k, repr(v)) for k, v in self.params().items()
        ))))


class Transformation(Derivation):
    """One-dataset derivation: infer new elements or re-represent."""

    kind = "transformation"

    @abstractmethod
    def applies(self, schema: Schema, dictionary: SemanticDictionary) -> bool:
        """Does ``schema`` contain the semantics this derivation requires?"""

    @abstractmethod
    def derive_schema(
        self, schema: Schema, dictionary: SemanticDictionary
    ) -> Schema:
        """The output schema (schema-level execution; near-constant time)."""

    @abstractmethod
    def apply(
        self, dataset: ScrubJayDataset, dictionary: SemanticDictionary
    ) -> ScrubJayDataset:
        """Run the derivation on actual data."""

    @classmethod
    def instantiations(
        cls, schema: Schema, dictionary: SemanticDictionary
    ) -> List["Transformation"]:
        """Enumerate applicable parameterizations for ``schema``.

        The engine calls this to discover candidate transformation
        steps. The default is empty: transformations with unbounded
        parameter spaces (e.g. unit conversion targets) are only
        instantiated purposefully by the engine.
        """
        return []

    def _check(self, dataset: ScrubJayDataset,
               dictionary: SemanticDictionary) -> None:
        if not self.applies(dataset.schema, dictionary):
            raise DerivationError(
                f"{self.describe()} does not apply to dataset "
                f"{dataset.name!r} with schema {dataset.schema!r}"
            )


class Combination(Derivation):
    """Two-dataset derivation: a semantics-driven generalized join."""

    kind = "combination"

    @abstractmethod
    def applies(
        self,
        left: Schema,
        right: Schema,
        dictionary: SemanticDictionary,
    ) -> bool:
        """May these two schemas be combined by this method?"""

    @abstractmethod
    def derive_schema(
        self,
        left: Schema,
        right: Schema,
        dictionary: SemanticDictionary,
    ) -> Schema:
        """The merged output schema."""

    @abstractmethod
    def apply(
        self,
        left: ScrubJayDataset,
        right: ScrubJayDataset,
        dictionary: SemanticDictionary,
    ) -> ScrubJayDataset:
        """Run the join on actual data."""

    def _check(
        self,
        left: ScrubJayDataset,
        right: ScrubJayDataset,
        dictionary: SemanticDictionary,
    ) -> None:
        if not self.applies(left.schema, right.schema, dictionary):
            raise DerivationError(
                f"{self.describe()} cannot combine {left.name!r} and "
                f"{right.name!r}"
            )


class DerivationRegistry:
    """Name → class mapping for (de)serializing derivation sequences.

    ScrubJay ships defaults; system experts register domain-specific
    derivations (like the heat derivation of §7.2) the same way.
    """

    def __init__(self) -> None:
        self._classes: Dict[str, Type[Derivation]] = {}
        # Registration may now race with lookups: the query service
        # plans on a shared session while experts register derivations,
        # and GLOBAL_REGISTRY itself is process-wide shared state. The
        # lock makes the check-then-set in register() atomic and lets
        # readers take consistent snapshots.
        self._lock = threading.RLock()

    def register(self, cls: Type[Derivation]) -> Type[Derivation]:
        """Register a derivation class (usable as a decorator).
        Thread-safe: the duplicate check and the insert are atomic."""
        if not cls.op_name:
            raise DerivationError(
                f"{cls.__name__} must define a non-empty op_name"
            )
        with self._lock:
            existing = self._classes.get(cls.op_name)
            if existing is not None and existing is not cls:
                raise DerivationError(
                    f"derivation name {cls.op_name!r} already registered "
                    f"by {existing.__name__}"
                )
            self._classes[cls.op_name] = cls
        return cls

    def get(self, op_name: str) -> Type[Derivation]:
        with self._lock:
            try:
                return self._classes[op_name]
            except KeyError:
                raise PipelineError(
                    f"unknown derivation operation {op_name!r}"
                ) from None

    def instantiate(self, spec: dict) -> Derivation:
        """Re-create a derivation from its JSON dict (``{"op": ..., **params}``)."""
        spec = dict(spec)
        try:
            op = spec.pop("op")
        except KeyError:
            raise PipelineError(f"derivation spec missing 'op': {spec}") from None
        cls = self.get(op)
        try:
            return cls(**spec)  # type: ignore[call-arg]
        except TypeError as exc:
            raise PipelineError(
                f"bad parameters for {op!r}: {exc}"
            ) from exc

    def transformations(self) -> List[Type[Transformation]]:
        with self._lock:
            classes = list(self._classes.values())
        return [c for c in classes if issubclass(c, Transformation)]

    def combinations(self) -> List[Type[Combination]]:
        with self._lock:
            classes = list(self._classes.values())
        return [c for c in classes if issubclass(c, Combination)]

    def op_names(self) -> List[str]:
        """Sorted registered operation names — part of the semantic
        fingerprint the session's plan memo keys on (an expert
        registration can change what plans are reachable)."""
        with self._lock:
            return sorted(self._classes)

    def copy(self) -> "DerivationRegistry":
        out = DerivationRegistry()
        with self._lock:
            out._classes = dict(self._classes)
        return out


#: The registry holding ScrubJay's built-in derivations; sessions copy
#: it so user registrations stay session-local.
GLOBAL_REGISTRY = DerivationRegistry()


def register_derivation(cls: Type[Derivation]) -> Type[Derivation]:
    """Class decorator adding a derivation to the global registry."""
    return GLOBAL_REGISTRY.register(cls)
