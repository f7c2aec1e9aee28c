#!/usr/bin/env python3
"""Quickstart: from raw CSV files to an automatically derived relation.

Walks the full ScrubJay loop on a tiny, readable dataset:

1. write two raw "monitoring" CSVs (a job log and a per-node sensor
   feed) the way different tools would produce them;
2. annotate each file with semantics (relation type / dimension /
   units) and register them in a session;
3. ask a *logical* query — "application names over jobs, temperature
   over compute nodes" — and let the derivation engine figure out the
   explodes and joins;
4. execute the plan, print the derived rows and the reproducible JSON.

Run: python examples/quickstart.py
"""

import os
import tempfile

from repro import DOMAIN, VALUE, Schema, ScrubJaySession, SemanticType

JOBS_CSV = """\
job_id,job_name,nodelist,timespan
1,AMG,0;1,0.0..600.0
2,LULESH,2,120.0..720.0
3,Kripke,0;2,700.0..1300.0
"""

SENSOR_CSV = """\
node,time,temp
0,60.0,21.5
0,180.0,24.0
0,300.0,27.5
1,60.0,20.9
1,180.0,23.1
1,300.0,26.0
2,240.0,22.4
2,360.0,25.2
2,800.0,28.9
"""

JOBS_SCHEMA = Schema({
    "job_id": SemanticType(DOMAIN, "jobs", "identifier"),
    "job_name": SemanticType(VALUE, "applications", "label"),
    "nodelist": SemanticType(DOMAIN, "compute nodes", "list<identifier>"),
    "timespan": SemanticType(DOMAIN, "time", "timespan"),
})

SENSOR_SCHEMA = Schema({
    "node": SemanticType(DOMAIN, "compute nodes", "identifier"),
    "time": SemanticType(DOMAIN, "time", "datetime"),
    "temp": SemanticType(VALUE, "temperature", "degrees Celsius"),
})


def run(workdir: str) -> None:
    jobs_path = os.path.join(workdir, "job_log.csv")
    sensors_path = os.path.join(workdir, "node_temps.csv")
    with open(jobs_path, "w") as f:
        f.write(JOBS_CSV)
    with open(sensors_path, "w") as f:
        f.write(SENSOR_CSV)

    with ScrubJaySession() as sj:
        # 1-2: annotate + ingest as lazily scanned datasets (rows are
        # decoded inside workers, and query restrictions push into the
        # scan)
        sj.ingest().csv(jobs_path, JOBS_SCHEMA).register("job_log")
        sj.ingest().csv(sensors_path, SENSOR_SCHEMA).register("node_temps")

        # 3: a logical query — no table names, no join keys
        plan = (
            sj.query()
            .across("jobs", "compute nodes")
            .values("applications", "temperature")
            .plan()
        )
        print("derivation sequence the engine found:")
        print(plan.describe())

        # 4: execute and inspect — look fields up by *dimension*, since
        # the engine picks the join orientation (and hence field names)
        result = sj.execute(plan)
        node_f = result.schema.domain_field("compute nodes")
        time_f = result.schema.domain_field("time")
        print(f"\nderived rows ({result.count()}):")
        for row in sorted(
            result.collect(),
            key=lambda r: (r["job_id"], r[node_f], r[time_f]),
        )[:8]:
            print(
                f"  job {row['job_id']} ({row['job_name']:>7}) on node "
                f"{row[node_f]} at t={row[time_f].epoch:6.1f}s: "
                f"{row['temp']:.2f} °C"
            )

        # the same pipeline as shareable, editable JSON
        plan_path = os.path.join(workdir, "plan.json")
        sj.save_plan(plan, plan_path)
        print(f"\nreproducible plan written to {plan_path}")
        reloaded = sj.load_plan(plan_path)
        assert sj.execute(reloaded).count() == result.count()
        print("reloaded plan re-executes identically ✓")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="scrubjay-quickstart-") as d:
        run(d)


if __name__ == "__main__":
    main()
