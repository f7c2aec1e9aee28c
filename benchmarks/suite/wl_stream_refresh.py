"""``stream_refresh`` — writes beside reads.

A store-backed feed (``ingest().table().tail()``) of rack power for 16
racks with a 12 h base, a 15-minute rollup, one metric subscription and
one row subscription on an in-process ``QueryService``. The mix appends
15 minutes of samples and advances the feed (sealing a segment and
delta-refreshing both subscriptions and the rollup), reads the hourly
metric routed to the rollup, and reads a 1-minute-grain metric over the
last two hours that no rollup can answer. The same store, metrics and
service code as ``store_scan``/``serve_wire`` used the other way round:
a segment format that speeds scans but slows seals shows here.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, List, Optional, Tuple

from repro import ScrubJaySession
from repro.datagen.dat import RACK_POWER_SCHEMA
from repro.datagen.facility import Facility, FacilityConfig
from repro.datagen.scheduler import JobScheduler, ScheduleConfig
from repro.datagen.sensors import RackSensorSimulator
from repro.store import WideColumnStore

import oracle
from common import (Request, Workload, mixed_cycle, non_default_knobs,
                    registry_counters, service_counters, unique_draws)

DATASET = "rack_power"
STEP_S = 30.0
BATCH_STEPS = 30  # one advance = 15 minutes of samples
WINDOW_S = 7200.0
SEGMENTS = 12


class StreamRefresh(Workload):
    name = "stream_refresh"
    kinds = ("rollup_read", "advance", "window_read")
    #: 50 % / 30 % / 20 %: p50 lands in the advance share, p90 in the
    #: raw window read
    mix = (("advance", 5), ("rollup_read", 3), ("window_read", 2))
    #: a cycle of 10 takes ~1 s
    cycles_per_second = 1.0

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.racks = 4 if smoke else 16
        self.base_hours = 2.0 if smoke else 12.0
        self.rng = random.Random(seed * 7919 + 4)
        self.session: Optional[ScrubJaySession] = None
        self.svc = None
        self.acked_rows = 0
        self.acked_digest = 0
        self.batches = 0

    # -- set-up --------------------------------------------------------

    def _power_rows(self, start: float, steps: int,
                    salt: int) -> List[Dict[str, Any]]:
        # a fresh simulator per call: its noise stream restarts on every
        # call, so the salt keeps batches from repeating each other
        sensors = RackSensorSimulator(
            self.facility, self.scheduler,
            seed=self.seed * 1000 + 8 + salt,
        )
        return sensors.power_rows(start, steps * STEP_S, STEP_S)

    def generate(self) -> None:
        self.facility = Facility(
            FacilityConfig(num_racks=self.racks, nodes_per_rack=8)
        )
        self.scheduler = JobScheduler(
            self.facility,
            ScheduleConfig(duration=48 * 3600.0, seed=self.seed * 10 + 8),
        )
        self.scheduler.schedule_random()
        self.cursor = self.base_hours * 3600.0
        self.base = self._power_rows(
            0.0, int(self.cursor / STEP_S), salt=0
        )

    def prepare_oracles(self) -> None:
        self.hourly = oracle.RunningBuckets(3600.0)
        self.minutely = oracle.RunningBuckets(60.0)
        self._acknowledge(self.base)
        self._jitter = unique_draws(self.rng, 60)

    def _acknowledge(self, rows: List[Dict[str, Any]]) -> None:
        for r in rows:
            t = r["time"].epoch
            self.hourly.add(r["rack"], t, r["power"])
            self.minutely.add(r["rack"], t, r["power"])
            self.acked_digest += oracle.row_hash(r)
        self.acked_rows += len(rows)

    def build(self) -> None:
        self.store_root = os.path.join(self.workdir, "store")
        store = WideColumnStore(self.store_root)
        self.table = store.create_table(
            "facility", DATASET, ["rack"], ["time"],
            memtable_limit=max(1, len(self.base) // SEGMENTS),
        )
        self.table.insert_many(self.base)
        self.table.flush()
        sj = self.session = ScrubJaySession()
        self.feed = sj.ingest().table(
            store, "facility", DATASET, RACK_POWER_SCHEMA
        ).tail(DATASET)
        self.rollup = sj.rollup(
            "power_15m",
            sj.query().measure("power", "mean").per("racks").grain("15m"),
        )
        self.svc = sj.serve()
        self.metric_sub = self.svc.subscribe(self._hourly_query())
        self.row_sub = self.svc.subscribe(["racks", "time"], ["power"])

    def _hourly_query(self):
        assert self.session is not None
        return (self.session.query().measure("power", "mean")
                .per("racks").grain("1h").build())

    def warm(self) -> List[Tuple[Request, Any]]:
        out = []
        for kind in ("advance", "rollup_read", "window_read"):
            request = self.before(0, (kind, None))
            out.append((request, self.execute(0, request)))
        return out

    # -- the loop ------------------------------------------------------

    def requests(self, caller: int) -> List[Request]:
        return [(kind, None) for kind in mixed_cycle(self.rng, self.mix)]

    def before(self, caller: int, request: Request) -> Request:
        kind = request[0]
        if kind == "advance":
            self.batches += 1
            batch = self._power_rows(
                self.cursor, BATCH_STEPS, salt=self.batches
            )
            self.cursor += BATCH_STEPS * STEP_S
            return kind, batch
        if kind == "window_read":
            # minute-aligned and never the same window twice: the end
            # moves with every advance, the start by a drawn offset
            hi = self.cursor
            return kind, (hi - WINDOW_S - 60.0 * next(self._jitter), hi)
        return request

    def execute(self, caller: int, request: Request) -> Any:
        kind, params = request
        svc, sj = self.svc, self.session
        assert svc is not None and sj is not None
        if kind == "advance":
            self.table.append_rows(params)
            return svc.advance(DATASET)
        if kind == "rollup_read":
            return svc.query(self._hourly_query()).groups
        lo, hi = params
        return svc.query(
            sj.query().measure("power", "mean").per("racks")
            .grain("1m").where("time", between=(lo, hi)).build()
        ).groups

    def check(self, caller: int, request: Request,
              result: Any) -> Optional[str]:
        kind, params = request
        if kind == "advance":
            if result.get("rows_added") != len(params):
                return (f"advance: {result.get('rows_added')} rows "
                        f"acknowledged of {len(params)} appended")
            self._acknowledge(params)
            if result.get("subscriptions_refreshed") != 2:
                return "advance: a subscription was not refreshed"
            return None
        got = {
            (rack, stamp.epoch): vals["power_mean"]
            for (rack, stamp), vals in result.items()
        }
        if kind == "rollup_read":
            want = self.hourly.means()
        else:
            want = self.minutely.means_between(*params)
        if not want:
            return f"{kind}: oracle has no groups for {params}"
        if not oracle.groups_close(got, want):
            return f"{kind}: {len(got)} groups differ from the oracle's " \
                   f"{len(want)}"
        return None

    # -- wrap-up / reporting -------------------------------------------

    def finish(self) -> List[str]:
        """Both standing answers must sit at the last acknowledged
        append, and a fresh session over the reopened store must find
        every acknowledged row."""
        problems = []
        standing = {
            (key[0], key[1].epoch): value
            for key, value in self.metric_sub.current().groups.items()
        }
        if not oracle.groups_close(standing, self.hourly.means()):
            problems.append("metric subscription differs from the oracle")
        want = (self.acked_rows, self.acked_digest & oracle.MASK)
        rows = self.row_sub.current().rows
        if oracle.digest_rows(rows, exact=True) != want:
            problems.append(
                f"row subscription holds {len(rows)} rows, "
                f"{self.acked_rows} were acknowledged"
            )
        fresh = ScrubJaySession()
        try:
            fresh.ingest().table(
                WideColumnStore(self.store_root), "facility", DATASET,
                RACK_POWER_SCHEMA,
            ).register(DATASET)
            stored = (fresh.query().across("racks", "time")
                      .value("power").ask().to_rows())
        finally:
            fresh.close()
        if oracle.digest_rows(stored, exact=True) != want:
            problems.append(
                f"reopened store holds {len(stored)} rows, "
                f"{self.acked_rows} were acknowledged"
            )
        return problems

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None
        if self.session is not None:
            self.session.close()
            self.session = None

    def sizes(self) -> Dict[str, Any]:
        return {
            "racks": self.racks,
            "base_rows": len(self.base),
            "base_hours": self.base_hours,
            "rows_per_advance": BATCH_STEPS * self.racks,
            "advances": self.batches,
            "rows_acknowledged": self.acked_rows,
            "window_s": WINDOW_S,
        }

    def input_rows(self):
        yield self.base

    def counters(self) -> Dict[str, float]:
        assert self.session is not None
        out = registry_counters(self.session.ctx)
        out.update(service_counters(self.svc))
        out["metrics.rollup.refreshes"] = self.rollup.refreshes
        out["metrics.rollup.delta_refreshes"] = self.rollup.delta_refreshes
        return out

    def rows_stored(self) -> int:
        return self.acked_rows

    def profile_knobs(self) -> Dict[str, Any]:
        assert self.session is not None
        return non_default_knobs(self.session.profile)
