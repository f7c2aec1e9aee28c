#!/usr/bin/env python3
"""Continuous ingestion into the NoSQL store, tailed live (§7.1).

The paper: "we employed a distributed ingestion framework to
continuously collect LDMS data into a distributed NoSQL database
store." This example replays that pipeline end to end on the
wide-column store — and keeps it *running*:

1. stream the first hour of LDMS node samples into a keyspace/table
   partitioned by node and clustered by time;
2. register the table as a **live** dataset
   (`session.ingest().table(...).tail("ldms")`): the feed's watermark
   is the sealed-segment count, and every later `append_rows()` seals
   fresh immutable segments without rewriting old ones;
3. install a standing query {jobs, compute nodes} → {applications,
   cpu utilization} as a serve-tier subscription;
4. keep collecting: each new batch of samples is appended to the
   store and `advance()`d through the service — the subscription's
   answer refreshes to the new watermark (incrementally when the
   derivation is delta-safe, by scoped replay otherwise) instead of
   being recomputed from a cold start;
5. correlate the final derived utilization with jobs' presence.

Run: python examples/nosql_ingestion.py
"""

import tempfile

from repro import ScrubJaySession, TuningProfile
from repro.analysis import group_aggregate
from repro.datagen.counters import CounterSimulator
from repro.datagen.dat import JOB_LOG_SCHEMA, LDMS_SCHEMA, ensure_semantics
from repro.datagen.facility import Facility, FacilityConfig
from repro.datagen.scheduler import JobScheduler
from repro.store import WideColumnStore


def run(store_dir: str) -> None:
    facility = Facility(FacilityConfig(num_racks=1, nodes_per_rack=4))
    sched = JobScheduler(facility)
    sched.pin("Kripke", [0, 1], 300.0, 2300.0)
    sched.pin("prime95", [2], 600.0, 2200.0)
    # node 3 stays idle for contrast

    # ------------------------------------------------------------------
    # 1. the first hour of ingestion into the wide-column store
    # ------------------------------------------------------------------
    store = WideColumnStore(store_dir)
    table = store.create_table(
        "perf", "ldms", partition_key=["nodeid"], clustering=["time"],
        memtable_limit=2000,
    )
    sim = CounterSimulator(facility, sched, seed=5)
    backfill = sim.ldms_rows(facility.nodes(), 0.0, 1200.0, period=5.0)
    table.insert_many(backfill)
    table.flush()   # seal: only sealed segments are feed-visible
    print(f"backfilled {table.count()} LDMS samples into perf.ldms "
          f"({len(table.partitions())} partitions, "
          f"{table.segment_count()} sealed segments)")

    # ------------------------------------------------------------------
    # 2-3. tail the table as a live dataset, subscribe a standing query
    # ------------------------------------------------------------------
    with ScrubJaySession(
        TuningProfile(interpolation_window=10.0)
    ) as sj:
        ensure_semantics(sj.dictionary)
        feed = sj.ingest().table(store, "perf", "ldms", LDMS_SCHEMA) \
                 .tail("ldms")
        sj.register_rows(sched.job_log_rows(), JOB_LOG_SCHEMA,
                         "job_queue_log")

        plan = (sj.query().across("jobs", "compute nodes")
                .values("applications", "cpu utilization").plan())
        print("\nderivation sequence:")
        print(plan.describe())

        with sj.serve(num_workers=2) as svc:
            sub = svc.subscribe(["jobs", "compute nodes"],
                                ["applications", "cpu utilization"])
            print(f"\nstanding query installed: "
                  f"{len(sub.current().rows)} rows at "
                  f"watermark {feed.watermark} "
                  f"(sealed segments)")

            # ----------------------------------------------------------
            # 4. ingestion keeps running: append, seal, advance, refresh
            # ----------------------------------------------------------
            for t0 in (1200.0, 1500.0, 1800.0, 2100.0):
                batch = sim.ldms_rows(facility.nodes(), t0, t0 + 300.0,
                                      period=5.0)
                store.append_rows("perf", "ldms", batch)
                out = svc.advance("ldms")
                upd = sub.current()
                print(f"  t={t0:6.0f}s  +{len(batch)} samples  "
                      f"watermark {out['since']} -> {out['watermark']}  "
                      f"answer v{upd.version}: {len(upd.rows)} rows")

            print(f"\nrefreshes: {sub.delta_refreshes} incremental, "
                  f"{sub.replay_refreshes} scoped replays")

            # the standing answer equals a from-scratch query at the
            # same watermark — the exactly-once-per-watermark guarantee
            fresh = sj.ask(["jobs", "compute nodes"],
                           ["applications", "cpu utilization"])
            result = fresh.dataset.persist()
            assert len(sub.current().rows) == result.count(), \
                "subscription answer must match a fresh query"

            # ----------------------------------------------------------
            # 5. analysis: utilization per application
            # ----------------------------------------------------------
            agg = group_aggregate(result, ["job_name"], "cpu_util",
                                  "mean")
            print("\nmean CPU utilization while each application ran:")
            for (app,), util in sorted(agg.items(),
                                       key=lambda kv: -kv[1]):
                print(f"  {app:>9}: {util:5.1f} %")
            assert all(util > 80.0 for util in agg.values()), \
                "busy nodes should show high utilization"
            print("\n(idle node 3 never appears: no job-instant "
                  "relates to it)")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="scrubjay-store-") as d:
        run(d)


if __name__ == "__main__":
    main()
