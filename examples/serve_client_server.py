#!/usr/bin/env python3
"""Serving queries: many clients, one shared session, two caches.

Spins up the whole repro.serve stack in one process:

1. build a session with two registered monitoring tables;
2. wrap it in a :class:`~repro.serve.QueryService` (worker pool,
   plan cache, result cache, admission control);
3. expose the service over the line-delimited-JSON TCP protocol with
   :class:`~repro.serve.QueryServer`;
4. hammer it from several socket clients in parallel, then read the
   service's own metrics: cache hit rates, latency percentiles, qps.

then does it again sharded: ``sj.serve(shards=2)`` forks two shard
processes each owning half the samples table (hash-split on the node
key), and the same queries scatter-gather across them — eq-filtered
ones pruned down to the single owning shard.

Run: python examples/serve_client_server.py
"""

import threading
import time

from repro import ScrubJaySession
from repro.core.query import FilterTerm
from repro.datagen.synthetic import (
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.serve import QueryClient, QueryServer


def main() -> None:
    # one shared session = one catalog + dictionary + executor
    sj = ScrubJaySession()
    samples, lookup = keyed_tables(5_000, num_keys=64)
    sj.register_rows(samples, KEYED_LEFT_SCHEMA, name="samples")
    sj.register_rows(lookup, KEYED_RIGHT_SCHEMA, name="lookup")

    with sj, sj.serve(num_workers=4, max_queue=256) as service, \
            QueryServer(service) as server:
        host, port = server.address
        print(f"serving on {host}:{port}\n")

        def client(i: int) -> None:
            # each client opens its own socket and replays a mix of a
            # cheap projection and the two-dataset natural join
            with QueryClient(host, port) as c:
                for _ in range(5):
                    c.query(
                        ["compute nodes"], ["temperature"],
                        tenant=f"client-{i}",
                    )
                    rows, schema = c.query(
                        ["compute nodes", "jobs"],
                        ["power", "temperature"],
                        tenant=f"client-{i}",
                        dictionary=sj.dictionary,
                    )
            print(
                f"client {i}: join returned {len(rows)} rows "
                f"({', '.join(sorted(schema.fields()))})"
            )

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0

        # one plan search and one execution per distinct query — the
        # other 58 requests were answered from the caches
        with QueryClient(host, port) as c:
            m = c.metrics()
        print(
            f"\n{m['completed']} queries in {wall:.2f}s "
            f"({m['completed'] / wall:.0f} qps)"
        )
        print(
            "plan cache: "
            f"{m['plan_cache']['hits']} hits / "
            f"{m['plan_cache']['misses']} misses; "
            "result cache: "
            f"{m['result_cache']['hits']} hits / "
            f"{m['result_cache']['misses']} misses"
        )
        lat = m["latency_s"]
        print(
            f"latency p50 {lat['p50'] * 1e3:.2f} ms, "
            f"p95 {lat['p95'] * 1e3:.2f} ms, "
            f"p99 {lat['p99'] * 1e3:.2f} ms"
        )

    sharded_main()


def sharded_main() -> None:
    """The same service scaled out: two shard processes, the samples
    table hash-split on its node key, queries scatter-gathered."""
    print("\n--- sharded: serve(shards=2) ---\n")
    sj = ScrubJaySession()
    samples, lookup = keyed_tables(5_000, num_keys=64)
    sj.register_rows(samples, KEYED_LEFT_SCHEMA, name="samples")
    sj.register_rows(lookup, KEYED_RIGHT_SCHEMA, name="lookup")

    with sj, sj.serve(
        shards=2,
        shard_on={"samples": ["node"]},  # hash-partitioned fleet-wide
        num_workers=2,
    ) as router:
        # an eq-filter on the shard key routes to exactly one shard —
        # the other is pruned without being asked
        for node in (3, 17, 42):
            ds = router.query(
                ["compute nodes", "jobs"], ["power", "temperature"],
                filters=(FilterTerm("compute nodes", value=node),),
            )
            print(f"node {node}: {len(ds.collect())} joined rows")

        # grouped aggregates merge per-shard partials — only small
        # (sum, count) pairs cross the wire, never rows
        means = router.aggregate(
            ["compute nodes", "jobs"], ["power", "temperature"],
            group_by=["node"], value_field="metric_b", how="mean",
        )
        print(f"mean metric_b over {len(means)} node groups")

        routing = router.snapshot().shards["routing"]
        print(
            f"routing: {routing['scattered']} scatters, "
            f"{routing['shard_requests']} shard requests, "
            f"{routing['pruned']} pruned"
        )


if __name__ == "__main__":
    main()
