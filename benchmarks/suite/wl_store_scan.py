"""``store_scan`` — reads from disk.

Six hours of DAT 1 rack temperatures land in an on-disk wide-column
table (partitioned by rack, clustered by time, flushed as 12 segments)
and are ingested lazily with ``ingest().table().register()``. The mix
asks a selective question (one rack, one time window), a time slice
over every rack, and an hourly per-rack mean over the whole table. The
store, the source readers, scan pushdown, row/columnar conversion and
the metrics layer dominate; joins and the serve tier are bypassed.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, List, Optional, Tuple

from repro import ScrubJaySession
from repro.datagen import generate_dat1
from repro.datagen.dat import RACK_TEMPERATURE_SCHEMA
from repro.store import WideColumnStore

import oracle
from common import (Request, Workload, mixed_cycle, non_default_knobs,
                    registry_counters, unique_draws)

DATASET = "rack_temperatures"
PERIOD_S = 120.0
SEGMENTS = 12


class StoreScan(Workload):
    name = "store_scan"
    kinds = ("selective", "slice", "full_metric")
    #: 40 % / 35 % / 25 %: p50 lands in the slice share, p90 in the
    #: full-table metric
    mix = (("selective", 8), ("slice", 7), ("full_metric", 5))
    #: a cycle of 20 takes ~4 s: 5 cycles at 20 s, 10 at 40 s
    cycles_per_second = 0.24

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.hours = 1.0 if smoke else 6.0
        if smoke:
            self.mix = (("selective", 3), ("slice", 2), ("full_metric", 1))
        self.selective_width = 4000.0 if not smoke else 1200.0
        self.slice_width = 2000.0 if not smoke else 600.0
        self.rng = random.Random(seed * 7919 + 2)
        self.session: Optional[ScrubJaySession] = None
        self._draws: Dict[str, Any] = {}

    # -- set-up --------------------------------------------------------

    def generate(self) -> None:
        self.duration = self.hours * 3600.0
        bundle = generate_dat1(
            duration=self.duration, include_aux_feeds=False,
            seed=self.seed * 10 + 5,
        )
        self.rows = bundle.rows(DATASET)
        self.racks = sorted({r["rack"] for r in self.rows})

    def prepare_oracles(self) -> None:
        ordered = sorted(self.rows, key=lambda r: r["time"].epoch)
        self.all_rows = oracle.PrefixDigest(
            [r["time"].epoch for r in ordered],
            [oracle.row_hash(r) for r in ordered],
        )
        self.rack_rows: Dict[int, oracle.PrefixDigest] = {}
        for rack in self.racks:
            mine = [r for r in ordered if r["rack"] == rack]
            self.rack_rows[rack] = oracle.PrefixDigest(
                [r["time"].epoch for r in mine],
                [oracle.row_hash(r) for r in mine],
            )
        buckets = oracle.RunningBuckets(3600.0)
        for r in self.rows:
            buckets.add(r["rack"], r["time"].epoch, r["temp"])
        self.hourly = buckets.means()
        # window bounds sit between samples (k periods + x.5 seconds),
        # so no boundary ever coincides with a row
        starts = int((self.duration - self.selective_width) / PERIOD_S)
        self._draws = {
            "selective": unique_draws(
                self.rng, len(self.racks) * starts * 100
            ),
            "slice": unique_draws(
                self.rng,
                int((self.duration - self.slice_width) / PERIOD_S) * 100,
            ),
        }

    def build(self) -> None:
        self.store_root = os.path.join(self.workdir, "store")
        store = WideColumnStore(self.store_root)
        table = store.create_table(
            "facility", DATASET, ["rack"], ["time"],
            memtable_limit=max(1, len(self.rows) // SEGMENTS),
        )
        table.insert_many(self.rows)
        table.flush()
        self.table = table
        self.session = ScrubJaySession()
        self.session.ingest().table(
            store, "facility", DATASET, RACK_TEMPERATURE_SCHEMA
        ).register(DATASET)

    def warm(self) -> List[Tuple[Request, Any]]:
        out = []
        for kind in self.kinds:
            request = self._request(kind)
            out.append((request, self.execute(0, request)))
        return out

    # -- the loop ------------------------------------------------------

    def _window(self, draw: int, width: float) -> Tuple[float, float]:
        k, frac = divmod(draw, 100)
        lo = k * PERIOD_S + 10.5 + frac
        return lo, lo + width

    def _request(self, kind: str) -> Request:
        if kind == "selective":
            draw = next(self._draws["selective"])
            rack = self.racks[draw % len(self.racks)]
            lo, hi = self._window(
                draw // len(self.racks), self.selective_width
            )
            return kind, (rack, lo, hi)
        if kind == "slice":
            return kind, self._window(
                next(self._draws["slice"]), self.slice_width
            )
        return kind, None

    def requests(self, caller: int) -> List[Request]:
        return [
            self._request(kind) for kind in mixed_cycle(self.rng, self.mix)
        ]

    def execute(self, caller: int, request: Request) -> Any:
        kind, params = request
        sj = self.session
        assert sj is not None
        if kind == "full_metric":
            return (sj.query().measure("temperature", "mean")
                    .per("racks").grain("1h").ask().groups)
        q = sj.query().across("racks", "time").value("temperature")
        if kind == "selective":
            rack, lo, hi = params
            q = q.where("racks", equals=rack).where(
                "time", between=(lo, hi)
            )
        else:
            lo, hi = params
            q = q.where("time", between=(lo, hi))
        return q.ask().to_rows()

    def check(self, caller: int, request: Request,
              result: Any) -> Optional[str]:
        kind, params = request
        if kind == "full_metric":
            got = {
                (rack, stamp.epoch): vals["temperature_mean"]
                for (rack, stamp), vals in result.items()
            }
            if not oracle.groups_close(got, self.hourly):
                return "full_metric: hourly means differ from the oracle"
            return None
        if kind == "selective":
            rack, lo, hi = params
            want = self.rack_rows[rack].between(lo, hi)
        else:
            lo, hi = params
            want = self.all_rows.between(lo, hi)
        if want[0] == 0:
            return f"{kind}: request window {params} selects no rows"
        if oracle.digest_rows(result, exact=True) != want:
            return (f"{kind}: {len(result)} rows for {params}, oracle "
                    f"has {want[0]} (or different ones)")
        return None

    # -- wrap-up / reporting -------------------------------------------

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def sizes(self) -> Dict[str, Any]:
        return {
            "rows": len(self.rows),
            "racks": len(self.racks),
            "hours": self.hours,
            "segments": self.table.segment_count(),
            "selective_width_s": self.selective_width,
            "slice_width_s": self.slice_width,
        }

    def input_rows(self):
        yield self.rows

    def counters(self) -> Dict[str, float]:
        assert self.session is not None
        out = registry_counters(self.session.ctx)
        out["store.segments"] = self.table.segment_count()
        return out

    def rows_stored(self) -> int:
        return len(self.rows)

    def profile_knobs(self) -> Dict[str, Any]:
        assert self.session is not None
        return non_default_knobs(self.session.profile)
