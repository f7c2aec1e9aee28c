#!/usr/bin/env python3
"""A live metrics dashboard: measures, grains, and rollup routing.

The question every facility dashboard asks — "mean and p95 rack
power, per rack, per hour" — phrased *in the query language* instead
of as a hand-written aggregation loop:

1. tail a push feed of 30-second rack power samples;
2. ask the metric query raw: `.measure("power", "mean")
   .measure("power", "p95").per("racks").grain("1h")` — the planner
   records a `rollup` decision (`answer.decision.choice == "raw"`,
   its `.evidence` naming the candidates) explaining that no rollup
   could answer;
3. materialize a 15-minute rollup with `session.rollup(...)` and ask
   again: the mean now routes through the rollup's pre-aggregated
   partials (re-aggregated 15m → 1h), while p95 keeps the exact
   percentile by staying on the raw route — decomposability decides,
   not a flag;
4. push another hour of samples: the feed advance refreshes the
   rollup incrementally (delta path, counted), and the routed answer
   matches a from-scratch recomputation group for group.

Run: python examples/dashboard_metrics.py
"""

import math

from repro import Schema, ScrubJaySession
from repro.core.semantics import domain, value
from repro.units.temporal import Timestamp

RACK_POWER_SCHEMA = Schema({
    "rack": domain("racks", "identifier"),
    "time": domain("time", "datetime"),
    "power": value("power", "watts"),
})

N_RACKS = 4
STEP_S = 30.0


def power_rows(start_s: float, hours: float):
    n = int(hours * 3600 / STEP_S)
    base = int(start_s / STEP_S)
    return [
        {"rack": r, "time": Timestamp(start_s + i * STEP_S),
         "power": 1000.0 + 150.0 * r + 40.0 * math.sin(
             (base + i) / 20.0) + (base + i) % 13}
        for r in range(N_RACKS)
        for i in range(n)
    ]


def hourly_query(sj):
    return (sj.query()
            .measure("power", "mean")
            .per("racks")
            .grain("1h")
            .build())


def show(title, answer, limit=4):
    print(f"\n{title}")
    print(f"  {answer.decision}")
    for key, vals in sorted(answer.groups.items())[:limit]:
        rack, bucket = key
        cells = "  ".join(f"{m}={v:8.1f}" for m, v in sorted(vals.items()))
        print(f"  rack {rack}  {bucket}  {cells}")
    if len(answer.groups) > limit:
        print(f"  ... {len(answer.groups) - limit} more groups")


def main() -> None:
    sj = ScrubJaySession()
    feed = (sj.ingest()
            .feed(RACK_POWER_SCHEMA, rows=power_rows(0.0, 3.0))
            .tail("rack_power"))
    print(f"tailing rack_power: {N_RACKS} racks, one sample / "
          f"{STEP_S:.0f}s, 3h backfill")

    # ------------------------------------------------------------------
    # raw route: no rollup registered yet
    # ------------------------------------------------------------------
    mean_and_p95 = (sj.query()
                    .measure("power", "mean")
                    .measure("power", "p95")
                    .per("racks")
                    .grain("1h")
                    .ask())
    show("hourly mean + p95 power per rack (raw route):", mean_and_p95)

    # ------------------------------------------------------------------
    # materialize a 15m rollup; the hourly mean re-aggregates from it
    # ------------------------------------------------------------------
    rollup = sj.rollup(
        "power_15m",
        sj.query().measure("power", "mean").per("racks").grain("15m"),
    )
    print(f"\nmaterialized {rollup.name}: "
          f"{len(rollup.state['power_mean'])} stored 15m partials")

    routed = sj.ask(hourly_query(sj))
    show("hourly mean power per rack (routed):", routed)
    assert routed.decision.choice == "rollup", routed.decision

    # p95 is not decomposable: re-aggregating 15m percentile state to
    # 1h would be wrong, so the planner keeps it exact on raw
    p95 = sj.ask(sj.query()
                 .measure("power", "p95").per("racks").grain("1h")
                 .build())
    print(f"\np95 at 1h grain stays exact: {p95.decision}")
    assert p95.decision.choice == "raw"

    # ------------------------------------------------------------------
    # the feed advances; the rollup refreshes incrementally
    # ------------------------------------------------------------------
    feed.push(power_rows(3 * 3600.0, 1.0))
    print(f"\npushed one more hour: rollup refreshed "
          f"{rollup.refreshes}x ({rollup.delta_refreshes} on the "
          f"delta path), watermark {feed.watermark} rows")

    fresh = sj.ask(hourly_query(sj))
    truth = ScrubJaySession()
    try:
        truth.register_rows(
            power_rows(0.0, 3.0) + power_rows(3 * 3600.0, 1.0),
            RACK_POWER_SCHEMA, "rack_power",
        )
        want = truth.ask(hourly_query(truth)).groups
    finally:
        truth.close()
    assert set(fresh.groups) == set(want)
    for k in want:
        assert math.isclose(fresh.groups[k]["power_mean"],
                            want[k]["power_mean"], rel_tol=1e-9)
    show("after the advance (routed, matches recomputation):", fresh)

    sj.close()


if __name__ == "__main__":
    main()
