"""The unified, typed configuration layer.

ScrubJay grew performance knobs in four unrelated places: the engine's
:class:`~repro.core.engine.EngineConfig`, the RDD layer's
:class:`~repro.rdd.stats.AdaptiveConfig`, flat keyword arguments on
:class:`~repro.session.ScrubJaySession`, and untyped ``**kwargs``
forwarded into the serve tier. This module consolidates all of them
behind one introspectable surface:

- :class:`Knob` — one declared setting: dotted name, type, default,
  bounds, and documentation;
- :data:`KNOBS` — the full registry (the generated table in DESIGN.md
  is rendered from it by :func:`knob_table`);
- :class:`TuningProfile` — a validated knob store with per-knob
  provenance (``default`` | ``user-pinned``), a version counter,
  change listeners, and a JSON form. Sessions and the serve tier both
  read through it;
- :class:`ServeConfig` — the typed section handed to
  :class:`~repro.serve.QueryService`, replacing opaque ``**kwargs``;
- :func:`diff` — knob-level difference between two profiles.

Every rejected setting raises :class:`~repro.errors.ConfigError`
naming the offending knob at construction time, not deep inside the
engine or service.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigError
from repro.core.engine import EngineConfig
from repro.rdd.stats import AdaptiveConfig

__all__ = [
    "KNOBS",
    "Knob",
    "ServeConfig",
    "TuningProfile",
    "diff",
    "knob_table",
]

#: provenance states a knob value can be in
PROVENANCE_DEFAULT = "default"
PROVENANCE_USER = "user-pinned"

_EXECUTOR_KINDS = ("serial", "simulated")


@dataclass(frozen=True)
class Knob:
    """One declared configuration setting.

    ``kind`` is the value type: ``bool``, ``int``, ``float`` or
    ``str``. ``low``/``high`` are inclusive bounds for the numeric
    kinds; ``choices`` constrains ``str`` knobs; ``nullable`` admits
    ``None`` (meaning "unset / derive a default downstream").
    """

    name: str
    kind: str
    default: Any
    doc: str
    low: Optional[float] = None
    high: Optional[float] = None
    choices: Optional[Tuple[str, ...]] = None
    nullable: bool = False

    def bounds_str(self) -> str:
        if self.choices:
            return "{" + ", ".join(self.choices) + "}"
        if self.low is None and self.high is None:
            return "—"
        lo = "-inf" if self.low is None else f"{self.low:g}"
        hi = "+inf" if self.high is None else f"{self.high:g}"
        return f"[{lo}, {hi}]"


_ENGINE = EngineConfig()
_ADAPTIVE = AdaptiveConfig()


def _build_knobs() -> Dict[str, Knob]:
    e, a = _ENGINE, _ADAPTIVE
    knobs = [
        # -- engine ----------------------------------------------------
        Knob("engine.max_transform_depth", "int", e.max_transform_depth,
             "Transformation-closure depth per dataset before a "
             "combination.", low=1, high=8),
        Knob("engine.post_combine_depth", "int", e.post_combine_depth,
             "Transformation-closure depth applied after each "
             "combination.", low=0, high=8),
        Knob("engine.max_candidates", "int", e.max_candidates,
             "Candidates kept per dataset/subset during the solve "
             "(shortest first).", low=1, high=4096),
        Knob("engine.max_datasets", "int", e.max_datasets,
             "Maximum number of datasets combined to answer one "
             "query.", low=2, high=16),
        Knob("engine.interpolation_window", "float",
             e.interpolation_window,
             "Window (seconds) for engine-inserted interpolation "
             "joins.", low=1e-9, high=1e9),
        Knob("engine.explode_period", "float", e.explode_period,
             "Sampling period (seconds) for engine-inserted "
             "continuous explodes.", low=1e-9, high=1e9),
        Knob("engine.pushdown", "bool", e.pushdown,
             "Rewrite solved plans so filters collapse into the leaf "
             "scans."),
        Knob("engine.projection", "bool", e.projection,
             "Let the pushdown rewrite also prune scanned columns."),
        # -- adaptive execution ---------------------------------------
        Knob("adaptive.broadcast_threshold_rows", "int",
             a.broadcast_threshold_rows,
             "Broadcast the join side with fewer rows when it has at "
             "most this many rows; else shuffle.",
             low=0, high=10_000_000),
        # -- executor -------------------------------------------------
        Knob("executor.kind", "str", "serial",
             "Data-cluster executor the session builds when no "
             "ready-made ctx/executor object is injected.",
             choices=_EXECUTOR_KINDS),
        Knob("executor.num_workers", "int", None,
             "Simulated node count for the `simulated` executor "
             "(None = 1).", low=1, high=256, nullable=True),
        # -- serve tier ------------------------------------------------
        Knob("serve.num_workers", "int", 4,
             "Service worker threads (concurrent queries in "
             "execution).", low=1, high=64),
        Knob("serve.max_queue", "int", 64,
             "Admission bound across all tenants; beyond it "
             "submissions shed.", low=1, high=100_000),
        Knob("serve.default_timeout", "float", None,
             "Per-query deadline in seconds (queue wait + execution); "
             "None = no deadline.", low=1e-3, high=86_400,
             nullable=True),
        Knob("serve.result_cache_entries", "int", 128,
             "Result-cache capacity (materialized answers).",
             low=1, high=100_000),
        Knob("serve.result_ttl", "float", None,
             "Result-cache time-to-live in seconds; None = no TTL.",
             low=0.05, high=86_400, nullable=True),
        Knob("serve.metrics_window_s", "float", 30.0,
             "Sliding window (seconds) for recent-QPS and latency "
             "percentiles.", low=1, high=600),
    ]
    return {k.name: k for k in knobs}


#: the full knob registry, keyed by dotted name
KNOBS: Dict[str, Knob] = _build_knobs()


def _build_aliases() -> Dict[str, str]:
    leaf_owner: Dict[str, Optional[str]] = {}
    for name in KNOBS:
        leaf = name.split(".")[-1]
        leaf_owner[leaf] = None if leaf in leaf_owner else name
    aliases: Dict[str, str] = {}
    for name in KNOBS:
        aliases[name.replace(".", "_")] = name
    for leaf, owner in leaf_owner.items():
        if owner is not None and leaf not in aliases:
            aliases[leaf] = owner
    # historical spellings from the flat-kwargs era
    aliases["executor"] = "executor.kind"
    aliases["num_workers"] = "executor.num_workers"
    return aliases


_ALIASES: Dict[str, str] = _build_aliases()


def resolve(key: str) -> str:
    """Canonical dotted knob name for ``key`` (dotted name, unique
    leaf, underscored form, or historical alias); raises
    :class:`ConfigError` naming the unknown knob otherwise."""
    if key in KNOBS:
        return key
    target = _ALIASES.get(key)
    if target is not None:
        return target
    close = difflib.get_close_matches(
        key, list(KNOBS) + list(_ALIASES), n=3, cutoff=0.6
    )
    hint = f"; did you mean {', '.join(close)}?" if close else ""
    raise ConfigError(f"unknown configuration knob {key!r}{hint}",
                      knob=key)


def _validate(knob: Knob, value: Any) -> Any:
    """Type-check, coerce, and bounds-check ``value`` for ``knob``;
    returns the canonical value or raises :class:`ConfigError`."""
    if value is None:
        if knob.nullable:
            return None
        raise ConfigError(
            f"knob {knob.name!r} does not accept None", knob=knob.name
        )
    if knob.kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(
                f"knob {knob.name!r} expects a bool, got "
                f"{type(value).__name__} {value!r}", knob=knob.name,
            )
        return value
    if knob.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(
                f"knob {knob.name!r} expects an int, got "
                f"{type(value).__name__} {value!r}", knob=knob.name,
            )
    elif knob.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"knob {knob.name!r} expects a float, got "
                f"{type(value).__name__} {value!r}", knob=knob.name,
            )
        value = float(value)
        if math.isnan(value):
            # NaN compares false against both bounds, so it would
            # otherwise pass the range checks below
            raise ConfigError(
                f"knob {knob.name!r} must be a number, got nan",
                knob=knob.name,
            )
    elif knob.kind == "str":
        if not isinstance(value, str):
            raise ConfigError(
                f"knob {knob.name!r} expects a str, got "
                f"{type(value).__name__} {value!r}", knob=knob.name,
            )
        if knob.choices and value not in knob.choices:
            raise ConfigError(
                f"knob {knob.name!r} must be one of "
                f"{', '.join(knob.choices)}; got {value!r}",
                knob=knob.name,
            )
        return value
    else:  # pragma: no cover — registry invariant
        raise ConfigError(f"knob {knob.name!r} has unknown kind "
                          f"{knob.kind!r}", knob=knob.name)
    if knob.low is not None and value < knob.low:
        raise ConfigError(
            f"knob {knob.name!r} = {value!r} is below its lower bound "
            f"{knob.bounds_str()}", knob=knob.name,
        )
    if knob.high is not None and value > knob.high:
        raise ConfigError(
            f"knob {knob.name!r} = {value!r} is above its upper bound "
            f"{knob.bounds_str()}", knob=knob.name,
        )
    return value


# ----------------------------------------------------------------------
# the serve section as a typed object
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    """Typed serve-tier settings — the ``serve.*`` section of a
    profile, in the shape :class:`~repro.serve.QueryService` consumes.

    Construct directly, or derive one from a profile with
    :meth:`TuningProfile.serve_config`; ``with_overrides`` applies
    keyword overrides with full knob validation (unknown or
    out-of-bounds names raise :class:`~repro.errors.ConfigError` here,
    at construction time, not deep in the service).
    """

    num_workers: int = 4
    max_queue: int = 64
    default_timeout: Optional[float] = None
    result_cache_entries: int = 128
    result_ttl: Optional[float] = None
    metrics_window_s: float = 30.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            _validate(KNOBS[f"serve.{f.name}"], getattr(self, f.name))

    def with_overrides(self, **overrides: Any) -> "ServeConfig":
        fields = {f.name for f in dataclasses.fields(self)}
        for key, value in overrides.items():
            if key not in fields:
                close = difflib.get_close_matches(
                    key, sorted(fields), n=3, cutoff=0.6
                )
                hint = (f"; did you mean {', '.join(close)}?"
                        if close else "")
                raise ConfigError(
                    f"unknown serve knob {key!r} (valid: "
                    f"{', '.join(sorted(fields))}){hint}", knob=key,
                )
            _validate(KNOBS[f"serve.{key}"], value)
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# the profile
# ----------------------------------------------------------------------


class TuningProfile:
    """The unified knob store every layer reads through.

    A knob is ``default`` until a value is set at construction or via
    :meth:`set`, which makes it ``user-pinned``. Every write validates
    type and bounds, bumps :attr:`version`, and notifies registered
    listeners — the hook the session uses to swap the frozen
    :class:`EngineConfig`/:class:`AdaptiveConfig` objects the hot paths
    read.

    Keyword arguments accept canonical dotted names spelled with
    underscores (``adaptive_broadcast_threshold_rows``), unique leaf
    names (``pushdown``, ``projection``), and the historical flat-kwarg
    spellings (``executor``, ``num_workers``).
    """

    def __init__(self, **overrides: Any) -> None:
        self._lock = threading.RLock()
        self._values: Dict[str, Any] = {
            name: knob.default for name, knob in KNOBS.items()
        }
        self._provenance: Dict[str, str] = {
            name: PROVENANCE_DEFAULT for name in KNOBS
        }
        self._listeners: List[Callable[[str, Any, Any], None]] = []
        self.version = 0
        for key, value in overrides.items():
            self.set(key, value)

    # -- reads ---------------------------------------------------------

    def get(self, key: str) -> Any:
        with self._lock:
            return self._values[resolve(key)]

    def __getitem__(self, key: str) -> Any:
        return self.get(key)

    def provenance(self, key: str) -> str:
        with self._lock:
            return self._provenance[resolve(key)]

    def values(self) -> Dict[str, Any]:
        with self._lock:
            return dict(self._values)

    # -- writes --------------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        """Validate and store ``value``; the knob becomes
        ``user-pinned``."""
        name = resolve(key)
        value = _validate(KNOBS[name], value)
        with self._lock:
            old = self._values[name]
            self._values[name] = value
            self._provenance[name] = PROVENANCE_USER
            self.version += 1
            listeners = list(self._listeners)
        if old != value:
            for fn in listeners:
                fn(name, old, value)

    # -- listeners -----------------------------------------------------

    def on_change(
        self, fn: Callable[[str, Any, Any], None]
    ) -> Callable[[str, Any, Any], None]:
        """Register ``fn(name, old, new)``, called after every
        effective value change; returns ``fn`` for deregistration."""
        with self._lock:
            self._listeners.append(fn)
        return fn

    def remove_listener(
        self, fn: Callable[[str, Any, Any], None]
    ) -> None:
        with self._lock:
            try:
                self._listeners.remove(fn)
            except ValueError:
                pass

    # -- derived typed sections ---------------------------------------

    def engine_config(self) -> EngineConfig:
        v = self.values()
        return EngineConfig(**{
            f.name: v[f"engine.{f.name}"]
            for f in dataclasses.fields(EngineConfig)
        })

    def adaptive_config(self) -> AdaptiveConfig:
        v = self.values()
        return AdaptiveConfig(**{
            f.name: v[f"adaptive.{f.name}"]
            for f in dataclasses.fields(AdaptiveConfig)
        })

    def serve_config(self) -> ServeConfig:
        v = self.values()
        return ServeConfig(**{
            f.name: v[f"serve.{f.name}"]
            for f in dataclasses.fields(ServeConfig)
        })

    # -- introspection -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Effective values plus provenance — the
        ``session.profile`` / ``svc.snapshot().profile`` shape."""
        with self._lock:
            return {
                "version": self.version,
                "knobs": {
                    name: {
                        "value": self._values[name],
                        "provenance": self._provenance[name],
                    }
                    for name in KNOBS
                },
            }

    def describe(self, all_knobs: bool = False) -> str:
        """Human-readable listing; by default only knobs that moved
        off their defaults."""
        lines = []
        with self._lock:
            for name in KNOBS:
                prov = self._provenance[name]
                if not all_knobs and prov == PROVENANCE_DEFAULT:
                    continue
                lines.append(
                    f"{name} = {self._values[name]!r}  [{prov}]"
                )
        return "\n".join(lines) or "(all knobs at defaults)"

    # -- JSON form -----------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """The user-pinned values plus the version."""
        with self._lock:
            return {
                "version": self.version,
                "values": {
                    n: v for n, v in self._values.items()
                    if self._provenance[n] != PROVENANCE_DEFAULT
                },
            }

    @classmethod
    def from_json_dict(cls, state: Mapping[str, Any]) -> "TuningProfile":
        profile = cls()
        for name, value in (state.get("values") or {}).items():
            if name in KNOBS:  # forward compatibility: skip unknown knobs
                profile.set(name, value)
        profile.version = int(state.get("version", profile.version))
        return profile

    def __repr__(self) -> str:
        with self._lock:
            moved = sum(
                1 for p in self._provenance.values()
                if p != PROVENANCE_DEFAULT
            )
        return (
            f"TuningProfile(version={self.version}, "
            f"{moved}/{len(KNOBS)} knobs off defaults)"
        )


# ----------------------------------------------------------------------
# diffing & documentation
# ----------------------------------------------------------------------


def diff(
    a: Union[TuningProfile, Mapping[str, Any]],
    b: Union[TuningProfile, Mapping[str, Any]],
) -> Dict[str, Tuple[Any, Any]]:
    """Knob-level difference: ``{name: (a_value, b_value)}`` for every
    knob whose effective value differs. Accepts profiles or plain
    ``{name: value}`` mappings; a knob missing from a mapping is
    treated as at its default."""

    def as_values(p) -> Dict[str, Any]:
        if isinstance(p, TuningProfile):
            return p.values()
        out = {name: knob.default for name, knob in KNOBS.items()}
        for key, value in dict(p).items():
            out[resolve(key)] = value
        return out

    va, vb = as_values(a), as_values(b)
    return {
        name: (va[name], vb[name])
        for name in KNOBS
        if va[name] != vb[name]
    }


def knob_table() -> str:
    """The generated markdown table documenting every knob — embedded
    in DESIGN.md and kept in sync by a test."""
    rows = [
        "| Knob | Type | Default | Bounds | Meaning |",
        "|---|---|---|---|---|",
    ]
    for name, k in KNOBS.items():
        default = "None" if k.default is None else repr(k.default)
        rows.append(
            f"| `{name}` | {k.kind} | `{default}` | {k.bounds_str()} "
            f"| {k.doc} |"
        )
    return "\n".join(rows)
