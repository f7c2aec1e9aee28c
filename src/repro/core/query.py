"""The analyst-facing query (paper §5.1).

Unlike traditional query languages of table names and columns, a
ScrubJay query names only *dimensions*: the domain dimensions of
interest (what entities the answer should relate — CPUs, racks, jobs)
and the value dimensions of interest (what measurements to attach —
temperatures, frequencies, heat), with optional units. The derivation
engine finds a sequence of derivations producing a dataset containing
a relation between all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import QueryError, QueryValidationError

ValueSpec = Union[str, Tuple[str, str]]

#: aggregation functions a Measure may request; mirrors
#: repro.analysis.aggregate._AGGREGATORS
MEASURE_HOWS = ("sum", "mean", "min", "max", "count", "p50", "p95")

_DURATION_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_duration(spec: Union[str, int, float]) -> float:
    """Parse a time-span spec — ``"30s"``, ``"15m"``, ``"1h"``,
    ``"1d"``, or plain seconds — into seconds."""
    if isinstance(spec, (int, float)):
        seconds = float(spec)
    else:
        text = str(spec).strip().lower()
        try:
            if text and text[-1] in _DURATION_SUFFIXES:
                seconds = float(text[:-1]) * _DURATION_SUFFIXES[text[-1]]
            else:
                seconds = float(text)
        except ValueError:
            raise QueryError(
                f"cannot parse duration {spec!r}; expected seconds or "
                "a number suffixed with s/m/h/d (e.g. '1h', '15m')"
            ) from None
    if seconds <= 0:
        raise QueryError(f"duration must be positive, got {spec!r}")
    return seconds


@dataclass(frozen=True)
class Measure:
    """One requested aggregate: a value dimension reduced with ``how``.

    ``how`` is one of sum/mean/min/max/count/p50/p95. ``window``
    (seconds) makes it a *windowed* measure: at each time bucket the
    aggregate covers the trailing window of buckets rather than just
    the bucket itself (requires a grain). A measure names a
    *dimension* like the rest of the query; the metrics layer resolves
    it to the answer schema's field.
    """

    dimension: str
    how: str = "mean"
    window: Optional[float] = None

    def __post_init__(self) -> None:
        if self.how not in MEASURE_HOWS:
            raise QueryError(
                f"unknown measure aggregation {self.how!r}; expected "
                f"one of {list(MEASURE_HOWS)}"
            )
        if self.window is not None:
            object.__setattr__(
                self, "window", parse_duration(self.window)
            )

    def key(self) -> str:
        """Stable result-column key, e.g. ``power_p95``."""
        base = f"{self.dimension}_{self.how}"
        if self.window is not None:
            base += f"_w{self.window:g}"
        return base

    def to_json_dict(self) -> dict:
        out: dict = {"dimension": self.dimension, "how": self.how}
        if self.window is not None:
            out["window"] = self.window
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "Measure":
        return Measure(d["dimension"], d.get("how", "mean"),
                       d.get("window"))

    def __str__(self) -> str:
        s = f"{self.how}({self.dimension})"
        if self.window is not None:
            s += f" over {self.window:g}s"
        return s


@dataclass(frozen=True)
class Grain:
    """The time resolution of a metric answer: bucket width in seconds
    over a datetime domain dimension (default ``"time"``)."""

    seconds: float
    dimension: str = "time"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seconds", parse_duration(self.seconds))

    @staticmethod
    def of(spec: Union[str, int, float],
           dimension: str = "time") -> "Grain":
        return Grain(parse_duration(spec), dimension)

    def divides(self, other: "Grain") -> bool:
        """True when buckets of this grain nest exactly into buckets
        of the (coarser or equal) ``other`` grain."""
        if self.dimension != other.dimension:
            return False
        ratio = other.seconds / self.seconds
        return abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1

    def bucket(self, epoch: float) -> float:
        return (epoch // self.seconds) * self.seconds

    def to_json_dict(self) -> dict:
        return {"seconds": self.seconds, "dimension": self.dimension}

    @staticmethod
    def from_json_dict(d: dict) -> "Grain":
        return Grain(d["seconds"], d.get("dimension", "time"))

    def __str__(self) -> str:
        return f"{self.seconds:g}s/{self.dimension}"


@dataclass(frozen=True)
class ValueTerm:
    """One requested measurement: a dimension, optionally with units."""

    dimension: str
    units: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {"dimension": self.dimension, "units": self.units}


@dataclass(frozen=True)
class FilterTerm:
    """One restriction on a queried dimension.

    Like the rest of the query, it names a *dimension*, not a field —
    the engine resolves it against the solved plan's schema and appends
    the corresponding filter derivation (which the pushdown rewrite
    then collapses into the leaf scans). ``op`` is ``"eq"`` (field ==
    value) or ``"range"`` (low ≤ field < high, either bound optional).
    """

    dimension: str
    op: str = "eq"
    value: object = None
    low: Optional[float] = None
    high: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in ("eq", "range"):
            raise QueryError(f"unknown filter op {self.op!r}")
        if self.op == "range" and self.low is None and self.high is None:
            raise QueryError(
                "a range filter needs at least one of low/high"
            )

    def to_json_dict(self) -> dict:
        out: dict = {"dimension": self.dimension, "op": self.op}
        if self.op == "eq":
            out["value"] = self.value
        else:
            out["low"] = self.low
            out["high"] = self.high
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "FilterTerm":
        return FilterTerm(
            d["dimension"],
            d.get("op", "eq"),
            d.get("value"),
            d.get("low"),
            d.get("high"),
        )

    def __str__(self) -> str:
        if self.op == "eq":
            return f"{self.dimension} == {self.value!r}"
        lo = "" if self.low is None else f"{self.low} <= "
        hi = "" if self.high is None else f" < {self.high}"
        return f"{lo}{self.dimension}{hi}"


@dataclass(frozen=True)
class Query:
    """A set of domain dimensions and value dimensions of interest.

    Example — the paper's §7.2 heat query::

        Query(domains=("jobs", "racks"),
              values=("applications", "heat"))
    """

    domains: Tuple[str, ...]
    values: Tuple[ValueTerm, ...]
    #: optional restrictions on dimensions; the engine appends them to
    #: the solved plan (and the pushdown rewrite collapses them into
    #: the leaf scans). Default empty keeps pre-filter queries —
    #: including their JSON form and fingerprints — unchanged.
    filters: Tuple[FilterTerm, ...] = ()
    #: optional metric terms (see repro.metrics): requested aggregates,
    #: grouping domain dimensions, and time grain. All default-empty so
    #: plain queries serialize (and hash) exactly as before.
    measures: Tuple[Measure, ...] = ()
    per: Tuple[str, ...] = ()
    grain: Optional[Grain] = None

    @staticmethod
    def of(
        domains: Sequence[str],
        values: Sequence[ValueSpec],
        filters: Sequence[FilterTerm] = (),
        measures: Sequence[Measure] = (),
        per: Sequence[str] = (),
        grain: Optional[Grain] = None,
    ) -> "Query":
        """Build a query from plain strings / (dimension, units) pairs."""
        if not domains:
            raise QueryError("a query needs at least one domain dimension")
        if not values:
            raise QueryError("a query needs at least one value dimension")
        terms: List[ValueTerm] = []
        for v in values:
            if isinstance(v, str):
                terms.append(ValueTerm(v))
            else:
                dim, units = v
                terms.append(ValueTerm(dim, units))
        return Query(tuple(domains), tuple(terms), tuple(filters),
                     tuple(measures), tuple(per), grain)

    @property
    def is_metric(self) -> bool:
        """True when the query carries measure terms and should be
        answered by the metrics layer (bucket + aggregate), not as a
        raw relation."""
        return bool(self.measures)

    def base(self) -> "Query":
        """The raw relational part — what the derivation engine solves.
        Identity for plain queries."""
        if not self.is_metric:
            return self
        return Query(self.domains, self.values, self.filters)

    def validate(self, dictionary) -> None:
        """Check every referenced dimension/unit keyword exists."""
        for dim in self.domains:
            if not dictionary.has_dimension(dim):
                raise QueryError(f"unknown domain dimension {dim!r}")
        for term in self.values:
            if not dictionary.has_dimension(term.dimension):
                raise QueryError(
                    f"unknown value dimension {term.dimension!r}"
                )
            if term.units is not None and not dictionary.has_unit(term.units):
                raise QueryError(f"unknown units {term.units!r}")
        for flt in self.filters:
            if not dictionary.has_dimension(flt.dimension):
                raise QueryError(
                    f"unknown filter dimension {flt.dimension!r}"
                )
            if flt.op == "range" and \
                    not dictionary.dimension(flt.dimension).ordered:
                raise QueryError(
                    f"range filter on unordered dimension "
                    f"{flt.dimension!r}"
                )
        for m in self.measures:
            if not dictionary.has_dimension(m.dimension):
                raise QueryError(
                    f"unknown measure dimension {m.dimension!r}"
                )
        for dim in self.per:
            if not dictionary.has_dimension(dim):
                raise QueryError(f"unknown per dimension {dim!r}")
        if self.grain is not None and \
                not dictionary.has_dimension(self.grain.dimension):
            raise QueryError(
                f"unknown grain dimension {self.grain.dimension!r}"
            )

    def value_dimensions(self) -> List[str]:
        return [t.dimension for t in self.values]

    def to_json_dict(self) -> dict:
        out = {
            "domains": list(self.domains),
            "values": [t.to_json_dict() for t in self.values],
        }
        # Only present when used, so unfiltered queries serialize (and
        # hash, e.g. for serve-layer plan keys) exactly as before.
        if self.filters:
            out["filters"] = [f.to_json_dict() for f in self.filters]
        # Likewise metric terms: absent keys keep plain-query JSON
        # (and every derived cache key) byte-identical.
        if self.measures:
            out["measures"] = [m.to_json_dict() for m in self.measures]
            if self.per:
                out["per"] = list(self.per)
            if self.grain is not None:
                out["grain"] = self.grain.to_json_dict()
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "Query":
        grain = d.get("grain")
        return Query(
            tuple(d["domains"]),
            tuple(
                ValueTerm(t["dimension"], t.get("units"))
                for t in d["values"]
            ),
            tuple(
                FilterTerm.from_json_dict(f)
                for f in d.get("filters", ())
            ),
            tuple(
                Measure.from_json_dict(m)
                for m in d.get("measures", ())
            ),
            tuple(d.get("per", ())),
            Grain.from_json_dict(grain) if grain else None,
        )

    def __str__(self) -> str:
        vals = ", ".join(
            t.dimension + (f" [{t.units}]" if t.units else "")
            for t in self.values
        )
        out = f"Query(domains: {', '.join(self.domains)}; values: {vals}"
        if self.filters:
            out += "; where: " + ", ".join(str(f) for f in self.filters)
        if self.measures:
            out += "; measures: " + ", ".join(
                str(m) for m in self.measures
            )
            if self.per:
                out += "; per: " + ", ".join(self.per)
            if self.grain is not None:
                out += f"; grain: {self.grain}"
        return out + ")"


class QueryBuilder:
    """Fluent construction of a :class:`Query`.

    The builder is the primary analyst-facing way to phrase a
    question::

        q = (session.query()
             .across("jobs", "racks")
             .value("heat", units="W")
             .build())

    Each call appends and returns the builder; :meth:`build` freezes
    the accumulated terms into the immutable :class:`Query`
    (``Query.of`` remains as a thin one-shot delegate). Builders
    handed out by :meth:`ScrubJaySession.query` are session-bound and
    additionally offer the terminals :meth:`plan`, :meth:`ask`, and
    :meth:`explain`, which build and immediately hand the query to
    the session.
    """

    def __init__(self, session=None) -> None:
        self._session = session
        self._domains: List[str] = []
        self._values: List[ValueTerm] = []
        self._filters: List[FilterTerm] = []
        self._measures: List[Measure] = []
        self._per: List[str] = []
        self._grain: Optional[Grain] = None

    # -- accumulation --------------------------------------------------

    def across(self, *domains: str) -> "QueryBuilder":
        """Add domain dimensions the answer must relate."""
        self._domains.extend(domains)
        return self

    def value(
        self, dimension: str, units: Optional[str] = None
    ) -> "QueryBuilder":
        """Add one value dimension, optionally with requested units."""
        self._values.append(ValueTerm(dimension, units))
        return self

    def values(self, *dimensions: str) -> "QueryBuilder":
        """Add several value dimensions (default units)."""
        self._values.extend(ValueTerm(d) for d in dimensions)
        return self

    def where(
        self,
        dimension: str,
        equals: object = None,
        at_least: Optional[float] = None,
        below: Optional[float] = None,
        between: Optional[Tuple[float, float]] = None,
    ) -> "QueryBuilder":
        """Restrict a dimension: ``equals=`` for exact match, or
        ``at_least=``/``below=``/``between=(lo, hi)`` for a half-open
        range ``lo ≤ x < hi`` on an ordered dimension. The engine
        resolves the dimension against the answer's schema and the
        pushdown rewrite carries the restriction into the leaf scans.
        """
        range_args = [at_least, below, between]
        if equals is not None and any(a is not None for a in range_args):
            raise QueryError(
                "where() takes either equals= or range bounds, not both"
            )
        if between is not None and (at_least is not None
                                    or below is not None):
            raise QueryError(
                "where() takes either between= or at_least=/below=, "
                "not both"
            )
        if equals is not None:
            self._filters.append(FilterTerm(dimension, "eq", equals))
            return self
        if between is not None:
            at_least, below = between
        if at_least is None and below is None:
            raise QueryError(
                "where() needs equals=, at_least=, below=, or between="
            )
        # Timestamps compare by epoch in filter_range; accept them here.
        low = getattr(at_least, "epoch", at_least)
        high = getattr(below, "epoch", below)
        self._filters.append(FilterTerm(dimension, "range", None, low, high))
        return self

    # -- metric terms (see repro.metrics) ------------------------------

    def measure(
        self,
        dimension: str,
        how: str = "mean",
        window: Optional[Union[str, float]] = None,
    ) -> "QueryBuilder":
        """Request an aggregate of a value dimension: ``how`` is one of
        sum/mean/min/max/count/p50/p95; ``window`` (``"5m"``-style or
        seconds) makes it a trailing-window measure over the grain."""
        self._measures.append(Measure(dimension, how, window))
        return self

    def per(self, *dimensions: str) -> "QueryBuilder":
        """Group the measures per these domain dimensions (e.g.
        ``.per("rack")`` for per-rack aggregates)."""
        self._per.extend(dimensions)
        return self

    def grain(
        self,
        spec: Union[str, int, float],
        dimension: str = "time",
    ) -> "QueryBuilder":
        """Bucket the measures at this time resolution (``"1h"``,
        ``"15m"``, or seconds) over a datetime domain dimension."""
        self._grain = Grain.of(spec, dimension)
        return self

    # -- terminals -----------------------------------------------------

    def build(self) -> Query:
        """Freeze into an immutable :class:`Query`.

        Raises :class:`~repro.errors.QueryValidationError` (naming the
        missing clause) on an empty builder and on inconsistent metric
        terms — instead of failing deep in the engine."""
        if (self._per or self._grain is not None) and not self._measures:
            raise QueryValidationError(
                "per()/grain() shape measures, but no .measure(...) "
                "was added",
                clause="measure",
            )
        domains = list(self._domains)
        for dim in self._per:
            if dim not in domains:
                domains.append(dim)
        values = list(self._values)
        if self._measures:
            if self._grain is not None and \
                    self._grain.dimension not in domains:
                domains.append(self._grain.dimension)
            have = {t.dimension for t in values}
            for m in self._measures:
                if m.dimension not in have:
                    values.append(ValueTerm(m.dimension))
                    have.add(m.dimension)
            if self._grain is None and \
                    any(m.window is not None for m in self._measures):
                raise QueryValidationError(
                    "a windowed measure needs a time grain; add "
                    ".grain('1h') (or similar)",
                    clause="grain",
                )
        if not domains:
            raise QueryValidationError(
                "query has no domain dimensions; add .across(...) "
                "(or .per(...) for a metric query)",
                clause="across",
            )
        if not values:
            raise QueryValidationError(
                "query has no value dimensions; add .value(...) or "
                ".measure(...)",
                clause="value",
            )
        # filters may name columns the query does not select (the
        # engine resolves them against the answer's schema at plan
        # time), so no mention check here
        return Query(
            tuple(domains), tuple(values), tuple(self._filters),
            tuple(self._measures), tuple(self._per), self._grain,
        )

    def _require_session(self, what: str):
        if self._session is None:
            raise QueryError(
                f"this builder is not bound to a session; build() the "
                f"query and pass it to a session to {what} it"
            )
        return self._session

    def plan(self):
        """Build and plan (but do not execute) via the bound session."""
        return self._require_session("plan").plan(self.build())

    def ask(self):
        """Build, plan, and execute via the bound session; returns the
        session's :class:`~repro.core.answer.Answer`."""
        return self._require_session("ask").ask(self.build())

    def explain(self, analyze: bool = False) -> str:
        """Build and render the plan via the bound session (optionally
        EXPLAIN ANALYZE — see :meth:`ScrubJaySession.explain`)."""
        return self._require_session("explain").explain(
            self.build(), analyze=analyze
        )

    def __repr__(self) -> str:
        vals = ", ".join(
            t.dimension + (f"[{t.units}]" if t.units else "")
            for t in self._values
        )
        return (
            f"QueryBuilder(across: {', '.join(self._domains) or '-'}; "
            f"values: {vals or '-'})"
        )


def as_query(
    query: Union[Query, QueryBuilder, Sequence[str], None] = None,
    values: Optional[Sequence[ValueSpec]] = (),
    filters: Sequence[FilterTerm] = (),
    *,
    domains: Optional[Sequence[str]] = None,
) -> Query:
    """Coerce every accepted query spelling into a :class:`Query`.

    Accepts a built :class:`Query`, an unbuilt :class:`QueryBuilder`
    (built here, so its typed validation errors surface at the call
    site), or the legacy ``(domains, values)`` pair, positional or as
    ``domains=``/``values=`` keywords. Terms passed beside a query or
    builder raise :class:`~repro.errors.QueryValidationError` instead
    of being dropped: the query already carries its own.
    """
    if isinstance(query, (Query, QueryBuilder)):
        if values or filters or domains:
            raise QueryValidationError(
                "a query or builder carries its own domains, values "
                "and filters; add them on it, not beside it",
                clause="values",
            )
        return query.build() if isinstance(query, QueryBuilder) else query
    return Query.of(
        domains if query is None else query, values or (), filters
    )
