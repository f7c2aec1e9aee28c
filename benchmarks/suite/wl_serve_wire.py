"""``serve_wire`` — socket to decoded rows.

``session.serve(shards=2)`` behind a ``QueryServer`` on localhost TCP:
48k timed samples over 192 nodes hash-sharded on the node key, plus a
192-row lookup table replicated to both shards. Two ``QueryClient``
connections each run a closed loop of hot point reads (four repeating
node keys: result-cache hits), cold point reads (an unseen node/window
pair: pruned to one shard), per-node aggregates over a time range
(partial scatter + merge) and a time-range join against the lookup
(both shards, ~4.8k rows back). The service, the shard router and the
wire codec dominate; the derivation kernels see small inputs.
"""

from __future__ import annotations

import bisect
import random
from typing import Any, Dict, List, Optional, Tuple

from repro import QueryClient, QueryServer, ScrubJaySession
from repro.core.query import FilterTerm
from repro.datagen.synthetic import (
    KEYED_RIGHT_SCHEMA,
    TIMED_LEFT_SCHEMA,
    keyed_tables,
    timed_tables,
)

import oracle
from common import (Request, Workload, mixed_cycle, non_default_knobs,
                    registry_counters, service_counters, unique_draws)

POINT = (["compute nodes", "time"], ["power"])
JOIN = (["compute nodes", "time"], ["power", "temperature"])
HOWS = ("mean", "max", "sum")
HOT_KEYS = 4


def _eq(node: int) -> FilterTerm:
    return FilterTerm("compute nodes", "eq", value=node)


def _between(lo: float, hi: float) -> FilterTerm:
    return FilterTerm("time", "range", None, lo, hi)


class ServeWire(Workload):
    name = "serve_wire"
    kinds = ("hot_point", "cold_point", "aggregate", "range_join")
    callers = 2  # this box has two cores: never more callers than cores
    #: 20 % / 50 % / 10 % / 20 %: p50 lands at the 60th percentile of
    #: the cold-point share and p90 in the middle of the range joins.
    #: Cold points have a long upper tail (two callers contend for the
    #: router and the shards), so a p50 placed in that tail jumps
    mix = (("hot_point", 4), ("cold_point", 10), ("aggregate", 2),
           ("range_join", 4))
    #: per client, a cycle of 20 takes ~1.9 s: 10 cycles at 20 s, 21
    #: at 40 s
    cycles_per_second = 0.52

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        if smoke:
            self.nodes, self.per_node, self.join_width = 16, 60, 10
            self.mix = (("hot_point", 1), ("cold_point", 2),
                        ("aggregate", 1), ("range_join", 1))
        else:
            self.nodes, self.per_node, self.join_width = 192, 250, 25
        self.rngs = [
            random.Random(seed * 7919 + 30 + c)
            for c in range(self.callers)
        ]
        self.session: Optional[ScrubJaySession] = None
        self.svc = None
        self.server: Optional[QueryServer] = None
        self.clients: List[QueryClient] = []

    # -- set-up --------------------------------------------------------

    def generate(self) -> None:
        self.samples, _ = timed_tables(
            self.nodes * self.per_node, num_keys=self.nodes,
            seed=self.seed * 10 + 6,
        )
        _, self.lookup = keyed_tables(
            1, num_keys=self.nodes, seed=self.seed * 10 + 7
        )

    def prepare_oracles(self) -> None:
        temp = {r["node"]: r["metric_b"] for r in self.lookup}
        by_node: Dict[int, List[dict]] = {}
        for r in self.samples:
            by_node.setdefault(r["node"], []).append(r)
        self.node_rows: Dict[int, oracle.PrefixDigest] = {}
        self.node_times: Dict[int, List[float]] = {}
        self.node_values: Dict[int, List[float]] = {}
        for node, rows in by_node.items():
            rows.sort(key=lambda r: r["time"].epoch)
            times = [r["time"].epoch for r in rows]
            self.node_rows[node] = oracle.PrefixDigest(
                times, [oracle.row_hash(r) for r in rows]
            )
            self.node_times[node] = times
            self.node_values[node] = [r["metric_a"] for r in rows]
        ordered = sorted(self.samples, key=lambda r: r["time"].epoch)
        self.joined = oracle.PrefixDigest(
            [r["time"].epoch for r in ordered],
            [oracle.row_hash(dict(r, metric_b=temp[r["node"]]))
             for r in ordered],
        )
        rng = random.Random(self.seed * 7919 + 3)
        self.hot_nodes = rng.sample(range(self.nodes), HOT_KEYS)
        # request spaces, split between the callers so that no request
        # is ever issued twice in a run (bounds sit at x.5 s, samples
        # at whole seconds +-0.1 s, so no bound coincides with a row)
        n, span = self.nodes, self.per_node
        self._spaces = {
            "cold_point": n * 10 * 10,
            "aggregate": len(HOWS) * (span // 3) * (span // 5),
            "range_join": (span - self.join_width - 1) * 3 * 11,
        }
        self._draws = [
            {
                kind: unique_draws(self.rngs[c], space // self.callers)
                for kind, space in self._spaces.items()
            }
            for c in range(self.callers)
        ]

    def build(self) -> None:
        sj = self.session = ScrubJaySession()
        sj.register_rows(self.samples, TIMED_LEFT_SCHEMA, "samples")
        sj.register_rows(self.lookup, KEYED_RIGHT_SCHEMA, "lookup")
        self.svc = sj.serve(shards=2, shard_on={"samples": ["node"]})
        self.server = QueryServer(self.svc).start()
        host, port = self.server.address
        self.clients = [
            QueryClient(host, port) for _ in range(self.callers)
        ]

    def warm(self) -> List[Tuple[Request, Any]]:
        out = []
        for node in self.hot_nodes:  # fill the result cache's hot set
            request = ("hot_point", node)
            out.append((request, self.execute(0, request)))
        for caller in range(self.callers):
            for kind in self.kinds[1:]:
                request = self._request(caller, kind)
                out.append((request, self.execute(caller, request)))
        return out

    # -- the loop ------------------------------------------------------

    def _request(self, caller: int, kind: str) -> Request:
        rng = self.rngs[caller]
        if kind == "hot_point":
            return kind, rng.choice(self.hot_nodes)
        draw = next(self._draws[caller][kind]) * self.callers + caller
        span = self.per_node
        if kind == "cold_point":
            draw, node = divmod(draw, self.nodes)
            a, b = divmod(draw, 10)
            return kind, (node, a - 0.5, span - 0.5 - b)
        if kind == "aggregate":
            draw, how = divmod(draw, len(HOWS))
            a, w = divmod(draw, span // 5)
            lo = a + 0.5
            return kind, (HOWS[how], lo, lo + span // 2 + w)
        draw, eps = divmod(draw, 11)
        k, dw = divmod(draw, 3)
        lo = k + 0.45 + eps * 0.01
        return kind, (lo, lo + self.join_width - 1 + dw)

    def requests(self, caller: int) -> List[Request]:
        return [
            self._request(caller, kind)
            for kind in mixed_cycle(self.rngs[caller], self.mix)
        ]

    def execute(self, caller: int, request: Request) -> Any:
        kind, params = request
        client = self.clients[caller]
        assert self.session is not None
        typed = self.session.dictionary  # decode on the caller's side
        if kind == "hot_point":
            return client.query(
                *POINT, filters=(_eq(params),), dictionary=typed
            )[0]
        if kind == "cold_point":
            node, lo, hi = params
            return client.query(
                *POINT, filters=(_eq(node), _between(lo, hi)),
                dictionary=typed,
            )[0]
        if kind == "aggregate":
            how, lo, hi = params
            return client.aggregate(
                *POINT, group_by=["node"], value_field="metric_a",
                how=how, filters=(_between(lo, hi),), dictionary=typed,
            )[0]
        lo, hi = params
        return client.query(
            *JOIN, filters=(_between(lo, hi),), dictionary=typed
        )[0]

    def check(self, caller: int, request: Request,
              result: Any) -> Optional[str]:
        kind, params = request
        if kind == "aggregate":
            how, lo, hi = params
            want = {}
            for node, times in self.node_times.items():
                i = bisect.bisect_left(times, lo)
                j = bisect.bisect_left(times, hi)
                if j > i:
                    want[(node,)] = oracle.aggregate(
                        self.node_values[node][i:j], how
                    )
            if not oracle.groups_close(result, want):
                return f"aggregate: {how} over [{lo}, {hi}) differs"
            return None
        if kind == "hot_point":
            want_digest = self.node_rows[params].between(
                float("-inf"), float("inf")
            )
        elif kind == "cold_point":
            node, lo, hi = params
            want_digest = self.node_rows[node].between(lo, hi)
        else:
            want_digest = self.joined.between(*params)
        if want_digest[0] == 0:
            return f"{kind}: request {params} selects no rows"
        if oracle.digest_rows(result, exact=True) != want_digest:
            return (f"{kind}: {len(result)} rows for {params}, oracle "
                    f"has {want_digest[0]} (or different ones)")
        return None

    # -- wrap-up / reporting -------------------------------------------

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.svc is not None:
            self.svc.close()
            self.svc = None
        if self.session is not None:
            self.session.close()
            self.session = None

    def sizes(self) -> Dict[str, Any]:
        return {
            "samples": len(self.samples),
            "nodes": self.nodes,
            "lookup_rows": len(self.lookup),
            "shards": 2,
            "callers": self.callers,
            "hot_keys": HOT_KEYS,
            "distinct_requests": dict(self._spaces),
            "join_width_s": self.join_width,
        }

    def input_rows(self):
        yield self.samples
        yield self.lookup

    def counters(self) -> Dict[str, float]:
        assert self.session is not None
        out = registry_counters(self.session.ctx)
        out.update(service_counters(self.svc))
        return out

    def wire_sample(self, request: Request, result: Any) -> Tuple[int, int]:
        """(bytes, rows) of one row reply as the server frames it:
        the public codec over the decoded rows, outside any timing."""
        import json

        from repro.serve.wire import encode_rows

        if request[0] == "aggregate" or not result:
            return 0, 0
        schema = TIMED_LEFT_SCHEMA if request[0] != "range_join" else \
            TIMED_LEFT_SCHEMA.merge(KEYED_RIGHT_SCHEMA, drop=["node"])
        assert self.session is not None
        text = json.dumps(
            encode_rows(result, schema, self.session.dictionary)
        )
        return len(text), len(result)

    def profile_knobs(self) -> Dict[str, Any]:
        assert self.session is not None
        return non_default_knobs(self.session.profile)
