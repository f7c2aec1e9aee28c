"""Standing-query subscriptions: cached answers that refresh, not expire.

A :class:`Subscription` pins one logical query's answer to explicit
feed **watermarks**. When an upstream feed advances, the serve layer
refreshes the answer — incrementally (delta execution through
:class:`~repro.stream.DeltaPlan`) when the plan allows, by scoped
replay at the new watermarks otherwise — and bumps the subscription's
version so clients can long-poll ``updates(since_version)``.

Consistency contract (the "no mixed-watermark answers" rule): every
answer a subscription ever exposes is exactly ``plan`` evaluated with
*all* feed inputs bounded at the answer's recorded watermarks. Delta
refreshes read appended rows bounded to ``[old, new)`` and pin
unchanged feeds at their old watermark; replays pin everything at the
target. A concurrent writer can therefore never leak
past-the-watermark rows into an answer, and each appended row is
folded in by exactly one refresh interval (exactly-once-per-
watermark).

Refreshes of one subscription are serialized by a per-subscription
lock; reads (``current``/``updates``) are cheap snapshot copies under
a condition variable that also powers ``wait_for(version)``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.aggregate import (
    finalize_group_partials,
    merge_group_partials,
)
from repro.errors import SubscriptionError


@dataclass
class SubscriptionUpdate:
    """One consistent view of a subscription's standing answer."""

    sub_id: str
    version: int
    watermarks: Dict[str, int]
    schema: Any = None
    rows: Optional[List[Dict[str, Any]]] = None
    groups: Optional[Dict[Tuple, Any]] = None
    #: False when this update was produced by ``updates(since)`` and
    #: nothing changed since ``since`` (rows/groups omitted then)
    changed: bool = True
    refresh_mode: str = "initial"  # "initial" | "delta" | "replay"

    @property
    def data(self) -> Any:
        return self.groups if self.groups is not None else self.rows


class Subscription:
    """One standing query's live state (serve-layer side)."""

    def __init__(
        self,
        sub_id: str,
        tenant: str,
        query,
        plan,
        delta_plan,
        aggregate,
        feed_names: Tuple[str, ...],
        watermarks: Dict[str, int],
        schema,
        rows: Optional[List[Dict[str, Any]]] = None,
        partials: Optional[Dict[Tuple, Any]] = None,
    ) -> None:
        self.sub_id = sub_id
        self.tenant = tenant
        self.query = query
        self.plan = plan
        self.delta_plan = delta_plan
        self.aggregate = aggregate  # AggregateSpec | None
        self.feed_names = tuple(feed_names)
        self.schema = schema
        self.closed = False
        self.version = 1
        self.watermarks = dict(watermarks)
        self.delta_refreshes = 0
        self.replay_refreshes = 0
        self.last_refresh_mode = "initial"
        self._rows = list(rows) if rows is not None else None
        self._partials = dict(partials) if partials is not None else None
        self._cond = threading.Condition()
        # serializes refresh attempts; reads never take it
        self._refresh_lock = threading.Lock()

    # -- reads ---------------------------------------------------------

    def current(self) -> SubscriptionUpdate:
        """The standing answer at its pinned watermarks."""
        with self._cond:
            return self._snapshot(changed=True)

    def updates(
        self, since_version: int = 0, timeout: Optional[float] = None
    ) -> SubscriptionUpdate:
        """The answer if it changed past ``since_version``; with a
        timeout, long-polls for the change first. An unchanged answer
        comes back with ``changed=False`` and no data attached."""
        with self._cond:
            if timeout is not None and self.version <= since_version:
                self._cond.wait_for(
                    lambda: self.version > since_version or self.closed,
                    timeout,
                )
            if self.version <= since_version:
                return SubscriptionUpdate(
                    self.sub_id, self.version, dict(self.watermarks),
                    schema=self.schema, changed=False,
                    refresh_mode=self.last_refresh_mode,
                )
            return self._snapshot(changed=True)

    def wait_for(
        self, version: int, timeout: Optional[float] = None
    ) -> bool:
        """Block until the subscription reaches ``version``."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self.version >= version or self.closed, timeout
            )

    def _snapshot(self, changed: bool) -> SubscriptionUpdate:
        # caller holds self._cond
        groups = None
        rows = None
        if self._partials is not None:
            spec = self.aggregate
            if spec is not None and spec.partial:
                groups = dict(self._partials)
            else:
                groups = finalize_group_partials(
                    dict(self._partials), spec.how if spec else "mean"
                )
        elif self._rows is not None:
            rows = list(self._rows)
        return SubscriptionUpdate(
            self.sub_id, self.version, dict(self.watermarks),
            schema=self.schema, rows=rows, groups=groups,
            changed=changed, refresh_mode=self.last_refresh_mode,
        )

    # -- commits (service side; caller holds _refresh_lock) ------------

    def _commit_delta(
        self,
        watermarks: Dict[str, int],
        rows: Optional[List[Dict[str, Any]]] = None,
        partials: Optional[Dict[Tuple, Any]] = None,
    ) -> None:
        with self._cond:
            if rows is not None:
                if self._rows is None:
                    self._rows = []
                self._rows.extend(rows)
            if partials is not None:
                if self._partials is None:
                    self._partials = {}
                merge_group_partials(
                    self._partials, partials,
                    self.aggregate.how if self.aggregate else "mean",
                )
            self.watermarks = dict(watermarks)
            self.version += 1
            self.delta_refreshes += 1
            self.last_refresh_mode = "delta"
            self._cond.notify_all()

    def _commit_replace(
        self,
        watermarks: Dict[str, int],
        rows: Optional[List[Dict[str, Any]]] = None,
        partials: Optional[Dict[Tuple, Any]] = None,
    ) -> None:
        with self._cond:
            if rows is not None:
                self._rows = list(rows)
            if partials is not None:
                self._partials = dict(partials)
            self.watermarks = dict(watermarks)
            self.version += 1
            self.replay_refreshes += 1
            self.last_refresh_mode = "replay"
            self._cond.notify_all()

    def _close(self) -> None:
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def require_open(self) -> None:
        if self.closed:
            raise SubscriptionError(
                f"subscription {self.sub_id!r} is closed"
            )

    def __repr__(self) -> str:
        return (
            f"Subscription({self.sub_id!r}, tenant={self.tenant!r}, "
            f"v{self.version}, watermarks={self.watermarks}, "
            f"feeds={list(self.feed_names)})"
        )
