#!/usr/bin/env python3
"""Reproducible derivation sequences (§5.4).

Demonstrates the three destinations of a derivation result in the
paper's Figure 2:

1. **store the sequence, not the result** — serialize the plan to
   JSON, hand it to another analyst (here: a fresh session), and
   re-execute it on their data;
2. **edit the human-readable pipeline** — an advanced user tweaks the
   explode period and interpolation window directly in the JSON and
   re-runs the modified pipeline;
3. **unwrap the result** — dump the derived relation to CSV and to a
   SQL table for analysis with other tools.

Run: python examples/reproducible_pipeline.py
"""

import json
import os
import tempfile

from repro import ScrubJaySession
from repro.datagen import generate_dat1
from repro.datagen.facility import FacilityConfig
from repro.wrappers import CSVUnwrapper, SQLUnwrapper


def fresh_session(dat) -> ScrubJaySession:
    sj = ScrubJaySession()
    dat.register(sj)
    return sj


def run(workdir: str) -> None:
    dat = generate_dat1(
        facility_config=FacilityConfig(num_racks=8, nodes_per_rack=6),
        duration=3600.0, amg_rack=5, amg_start=600.0, amg_duration=2400.0,
        include_aux_feeds=False,
    )

    # ------------------------------------------------------------------
    # 1. analyst A plans a derivation and shares the JSON
    # ------------------------------------------------------------------
    plan_path = os.path.join(workdir, "heat_pipeline.json")
    with fresh_session(dat) as sj_a:
        plan = (sj_a.query().across("jobs", "racks")
                .values("applications", "heat").plan())
        sj_a.save_plan(plan, plan_path)
        count_a = sj_a.execute(plan).count()
    print(f"analyst A derived {count_a} rows; pipeline saved to "
          f"{plan_path}")

    # ------------------------------------------------------------------
    # 2. analyst B reloads and re-executes the identical pipeline
    # ------------------------------------------------------------------
    with fresh_session(dat) as sj_b:
        reloaded = sj_b.load_plan(plan_path)
        count_b = sj_b.execute(reloaded).count()
    assert count_a == count_b
    print(f"analyst B re-executed it bit-for-bit: {count_b} rows ✓")

    # ------------------------------------------------------------------
    # 3. an advanced user edits the JSON directly: a coarser job grid
    #    and a wider join window. An answer row is a rack reading
    #    joined to the job running on the rack, so the grid's period
    #    moves the count little, and the wider window admits readings
    #    the 120 s window left unmatched: the edit derives more rows.
    # ------------------------------------------------------------------
    with open(plan_path) as f:
        doc = json.load(f)

    def retune(node):
        if isinstance(node, dict):
            op = node.get("transform", node.get("combine", {}))
            if op.get("op") == "explode_continuous":
                op["period"] = 240.0  # was 60 s
            if op.get("op") == "interpolation_join":
                op["window"] = 240.0  # was 120 s
            for v in node.values():
                retune(v)

    retune(doc)
    tuned_path = os.path.join(workdir, "heat_pipeline_coarse.json")
    with open(tuned_path, "w") as f:
        json.dump(doc, f, indent=2)

    with fresh_session(dat) as sj_c:
        tuned = sj_c.load_plan(tuned_path)
        result = sj_c.execute(tuned)
        count_c = result.count()
        assert count_c > count_b
        print(f"hand-edited pipeline (240 s grid, 240 s window) derives "
              f"{count_c} rows, more than the original's {count_b} ✓")

        # ------------------------------------------------------------------
        # 4. unwrap the result for other tools
        # ------------------------------------------------------------------
        csv_path = os.path.join(workdir, "derived_heat.csv")
        CSVUnwrapper(csv_path, sj_c.dictionary).save(result)
        db_path = os.path.join(workdir, "derived.db")
        SQLUnwrapper(db_path, "derived_heat", sj_c.dictionary).save(result)
        back = (sj_c.ingest()
                .sql(db_path, result.schema, table="derived_heat")
                .load("derived_heat"))
        with open(csv_path) as f:
            csv_rows = sum(1 for _ in f) - 1  # minus the header
        assert back.count() == csv_rows == count_c
        print(f"unwrapped {count_c} rows to {csv_path} and sqlite table "
              f"'derived_heat' ✓")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="scrubjay-pipeline-") as d:
        run(d)


if __name__ == "__main__":
    main()
