"""Feed handles: tailing an appendable source into a session dataset.

A :class:`Feed` owns one dataset's streaming state: the **watermark**
— the source offset up to which rows have been observed and folded
into the session. Watermarks are monotonic and always sit on committed
record boundaries (the append-capability contract of
:meth:`~repro.sources.base.DataSource.append_scan`), which yields the
exactly-once-per-watermark guarantee: a row is delivered by exactly
one ``advance`` interval, never split, never repeated.

Each advance bumps the dataset's per-session *data version* — the
serve layer keys result caches on it and refreshes subscriptions from
it — and publishes ``feed.watermark`` / ``feed.lag_rows`` gauges.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import FeedError


@dataclass
class FeedAdvance:
    """The outcome of one ``Feed.advance()``: the rows committed in
    ``[since, watermark)`` and the boundaries themselves."""

    name: str
    since: int
    watermark: int
    rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def rows_added(self) -> int:
        return len(self.rows)

    @property
    def advanced(self) -> bool:
        return self.watermark != self.since

    def __repr__(self) -> str:
        return (
            f"FeedAdvance({self.name!r}, {self.since}->{self.watermark},"
            f" +{len(self.rows)} rows)"
        )


class Feed:
    """A live dataset: an appendable source tailed into the catalog.

    Created by ``session.ingest()....tail(name)``. The handle is
    driver-side and thread-safe; the watermark only ever moves
    forward (a source that shrank raises
    :class:`~repro.errors.FeedRewoundError` from ``advance``).
    """

    def __init__(self, session, dataset, source, name: str) -> None:
        self.session = session
        self.dataset = dataset
        self.source = source
        self.name = name
        self._lock = threading.RLock()
        # everything committed at creation is the starting watermark:
        # it is already visible to plain scans of the dataset
        self.watermark: int = source.current_offset()
        self.rows_ingested = 0
        self._gauge(self.watermark, 0)

    # -- metrics -------------------------------------------------------

    @property
    def _metrics(self):
        return self.session.ctx.metrics

    def _gauge(self, watermark: int, lag_rows: int) -> None:
        labels = {"feed": self.name}
        self._metrics.set_gauge("feed.watermark", watermark,
                                labels=labels)
        self._metrics.set_gauge("feed.lag_rows", lag_rows,
                                labels=labels)

    # -- producing -----------------------------------------------------

    def push(self, rows: List[Dict[str, Any]]) -> FeedAdvance:
        """Push rows into a push-capable source (a
        :class:`~repro.sources.feed_source.FeedSource`) and advance
        over them in one step."""
        push = getattr(self.source, "push", None)
        if push is None:
            raise FeedError(
                f"feed {self.name!r} is tailing a "
                f"{type(self.source).__name__}, which has no push "
                "endpoint; append to the backing source instead and "
                "call advance()"
            )
        until = push(rows)
        return self.advance(until)

    # -- tailing -------------------------------------------------------

    def lag_rows(self) -> int:
        """Committed rows past the watermark, not yet advanced over
        (decodes the pending slice; also refreshes the lag gauge)."""
        with self._lock:
            rows, _ = self.source.append_scan(self.watermark, None)
            self._gauge(self.watermark, len(rows))
            return len(rows)

    def poll(self) -> FeedAdvance:
        """Alias for :meth:`advance` — tail whatever is committed."""
        return self.advance()

    def advance(self, until: Optional[int] = None) -> FeedAdvance:
        """Fold newly committed rows into the session.

        Scans ``[watermark, until)`` (``until=None`` = everything
        committed), moves the watermark to the boundary actually
        reached, bumps the dataset's data version so dependent caches
        churn, and refreshes the source's scan layout so subsequent
        plain queries see the new rows. Returns the
        :class:`FeedAdvance` (empty when nothing new was committed).
        """
        with self._lock:
            since = self.watermark
            rows, new = self.source.append_scan(since, until)
            if new < since:
                raise FeedError(
                    f"feed {self.name!r}: append_scan moved backwards "
                    f"({since} -> {new})"
                )
            if new != since:
                self.source.refresh()
                self.watermark = new
                self.rows_ingested += len(rows)
                # after refresh(): a digest read at the new version
                # already sees the new rows
                self.dataset._data_version = \
                    self.session._bump_data_version(self.name)
                # materialized rollups reading this feed fold the
                # delta in (repro.metrics.rollup); shard sessions
                # and other hosts without the hook skip it
                refresh = getattr(
                    self.session, "_refresh_rollups", None
                )
                if refresh is not None:
                    refresh(self.name)
            self._gauge(self.watermark, 0)
            return FeedAdvance(self.name, since, new, rows)

    def bounded_source(self, offset: Optional[int] = None):
        """A frozen snapshot source at ``offset`` (default: the
        current watermark) — what pinned-watermark execution scans."""
        with self._lock:
            return self.source.bounded(
                self.watermark if offset is None else offset
            )

    def data_version(self) -> int:
        return self.session.data_version(self.name)

    def __repr__(self) -> str:
        return (
            f"Feed({self.name!r}, watermark={self.watermark}, "
            f"ingested={self.rows_ingested})"
        )
