#!/usr/bin/env python3
"""Case study 1 (paper §7.2): application impact on rack heat.

Simulates the first dedicated-access-time session — SLURM job-queue
log, administrator-provided node/rack layout, and the 2-minute OSIsoft
PI rack temperature feed — then asks ScrubJay for *application names
over jobs* and *heat over racks*. The engine derives Figure 5's
operations (explode the job log, join the layout, interpolation-join
in time, derive heat from the hot/cold aisle differential); of the
equally short sequences it keeps the one with the fewest estimated
rows, which joins the layout to the exploded job log before the time
join rather than fanning every rack reading out over the layout. The
analysis then reproduces Figure 4: rank (application, rack) pairs by
heat, spot the AMG outlier on rack 17, and render its top/middle/bottom
heat profiles over time.

Run: python examples/rack_heat.py
"""

from repro import ScrubJaySession
from repro.analysis import rank_groups, time_series, zscore_outliers
from repro.datagen import generate_dat1
from repro.datagen.facility import FacilityConfig

AMG_RACK = 17


def sparkline(values, width=60) -> str:
    """Render a value series as a unicode sparkline."""
    blocks = "▁▂▃▄▅▆▇█"
    if not values:
        return ""
    stride = max(1, len(values) // width)
    sampled = values[::stride]
    lo, hi = min(sampled), max(sampled)
    span = (hi - lo) or 1.0
    return "".join(
        blocks[int((v - lo) / span * (len(blocks) - 1))] for v in sampled
    )


def main() -> None:
    print("simulating the facility (20 racks × 8 nodes, 2.5 h DAT)...")
    dat = generate_dat1(
        facility_config=FacilityConfig(num_racks=20, nodes_per_rack=8),
        duration=2.5 * 3600.0,
        amg_rack=AMG_RACK,
        amg_start=1800.0,
        amg_duration=5400.0,
    )

    with ScrubJaySession() as sj:
        dat.register(sj)
        print(f"registered datasets: {', '.join(sorted(sj.schemas()))}\n")

        plan = (sj.query().across("jobs", "racks")
                .values("applications", "heat").plan())
        print("derivation sequence (Figure 5's operations, the layout "
              "joined to the job log before the time join):")
        print(plan.describe())

        result = sj.execute(plan).persist()
        print(f"\nderived relation: {result.count()} rows")

        # Figure 4's analysis: sort by heat, identify the outlier
        ranked = rank_groups(result, ["job_name", "rack"], "heat", "max")
        print("\n(application, rack) ranked by peak heat:")
        for (app, rack), heat in ranked[:6]:
            marker = "  ← outlier" if (app, rack) == ("AMG", AMG_RACK) else ""
            print(f"  {app:>10} rack {rack:>3}: {heat:7.2f} ΔC{marker}")

        outliers = zscore_outliers(result, ["job_name", "rack"], "heat",
                                   "max", threshold=2.0)
        if outliers:
            (app, rack), heat, z = outliers[0]
            print(f"\nz-score outlier: {app} on rack {rack} "
                  f"(peak {heat:.1f} ΔC, z={z:+.1f})")

        # Figure 4's plot: rack-17 heat profile, top/middle/bottom
        # (look the time field up by dimension; the engine is free to
        # pick either join orientation, which changes field names)
        time_field = result.schema.domain_field("time")
        series = time_series(
            result.where(lambda r: r.get("rack") == AMG_RACK),
            ["location"], time_field, "heat",
        )
        print(f"\nrack {AMG_RACK} heat profile during the DAT "
              "(AMG's regular climb):")
        for loc in ("top", "middle", "bottom"):
            values = [h for _t, h in series[(loc,)]]
            print(f"  {loc:>7} {sparkline(values)} "
                  f"(min {min(values):5.1f}, max {max(values):5.1f})")


if __name__ == "__main__":
    main()
