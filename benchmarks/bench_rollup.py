"""Rollup-routing benchmark: materialized rollup vs raw aggregation.

The claim the metrics layer makes: once a rollup is materialized at a
grain that divides the query's grain, answering the metric query from
the rollup's pre-aggregated partial state (a handful of per-bucket
partials re-aggregated to the coarser grain) costs far less than
re-scanning the raw relation and re-aggregating every row. This
benchmark measures both routes on the *same session, same query, same
data* and writes machine-readable evidence to
``benchmarks/results/BENCH_rollup.json``:

- **raw route** — ``session.ask`` on the metric query before any
  rollup exists: base-relation solve + execute + per-row partial
  aggregation (``decision.choice == "raw"``, asserted not assumed);
- **rollup route** — the identical query after
  ``session.rollup("power_15m", ...)`` registers a 15-minute rollup:
  the planner routes to it and re-aggregates its stored partials up
  to the query's 1-hour grain (``decision.choice == "rollup"``);
- **correctness** — both routes must produce the same group set with
  values equal within ``math.isclose`` (the two routes sum in
  different orders, so last-ULP float drift is expected and allowed).

Timing uses the shared CI-interval machinery
(:mod:`repro.util.benchstats`), so the speedup gate compares interval
means, not single noisy runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_rollup.py          # full
    PYTHONPATH=src python benchmarks/bench_rollup.py --smoke  # CI

Acceptance: the rollup route >= 5x faster than the raw route (>= 2x
under ``--smoke``, where CI boxes are noisy), identical answers, and
both routing decisions confirmed via the ``rollup``
:class:`~repro.rdd.stats.Decision` on each answer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_rollup.json")

# allow `python benchmarks/bench_rollup.py` without PYTHONPATH
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import Grain, Measure, Query, Schema, ScrubJaySession  # noqa: E402
from repro.core.semantics import domain, value  # noqa: E402
from repro.units.temporal import Timestamp  # noqa: E402
from repro.util.benchstats import measure  # noqa: E402

RACK_POWER_SCHEMA = Schema({
    "rack": domain("racks", "identifier"),
    "time": domain("time", "datetime"),
    "power": value("power", "watts"),
})

STEP_S = 30.0  # one sample per rack every 30 seconds


def power_rows(racks: int, samples: int) -> List[Dict[str, Any]]:
    return [
        {"rack": r, "time": Timestamp(i * STEP_S),
         "power": 100.0 + 10.0 * r + (i % 11)}
        for r in range(racks)
        for i in range(samples)
    ]


def metric_query() -> Query:
    return Query.of(
        ["time", "racks"], ["power"],
        measures=[Measure("power", "mean")],
        per=["racks"], grain=Grain.of("1h"),
    )


def groups_identical(a: Dict, b: Dict) -> bool:
    if set(a) != set(b):
        return False
    for k in a:
        ga, gb = a[k], b[k]
        if set(ga) != set(gb):
            return False
        for m in ga:
            if not math.isclose(
                ga[m], gb[m], rel_tol=1e-9, abs_tol=1e-9
            ):
                return False
    return True


def run_route_phase(
    racks: int, samples: int, repeats: int
) -> Dict[str, Any]:
    sj = ScrubJaySession()
    try:
        sj.register_rows(
            power_rows(racks, samples), RACK_POWER_SCHEMA,
            name="rack_power",
        )
        q = metric_query()

        # raw route: no rollup registered yet, every ask re-scans
        # and re-aggregates the base relation
        raw_out: List[Any] = []

        def one_raw() -> float:
            t0 = time.perf_counter()
            ans = sj.ask(q)
            groups = dict(ans.groups)
            elapsed = time.perf_counter() - t0
            raw_out[:] = [(groups, ans.decision)]
            return elapsed

        raw = measure(
            one_raw, min_repeats=3,
            max_repeats=max(3, repeats), warmup=1,
        )
        raw_groups, raw_decision = raw_out[0]

        # materialize a 15m rollup (one-time cost, recorded but not
        # part of the per-query timing), then re-ask the same 1h
        # query: the planner re-aggregates the stored 15m partials
        t0 = time.perf_counter()
        rollup = sj.rollup(
            "power_15m",
            Query.of(
                ["time", "racks"], ["power"],
                measures=[Measure("power", "mean")],
                per=["racks"], grain=Grain.of("15m"),
            ),
        )
        materialize_s = time.perf_counter() - t0
        routed_out: List[Any] = []

        def one_routed() -> float:
            t0 = time.perf_counter()
            ans = sj.ask(q)
            groups = dict(ans.groups)
            elapsed = time.perf_counter() - t0
            routed_out[:] = [(groups, ans.decision)]
            return elapsed

        routed = measure(
            one_routed, min_repeats=3,
            max_repeats=max(3, repeats), warmup=1,
        )
        routed_groups, routed_decision = routed_out[0]

        return {
            "racks": racks,
            "samples_per_rack": samples,
            "rows": racks * samples,
            "rollup_grain_s": 900.0,
            "query_grain_s": 3600.0,
            "rollup_buckets": len(rollup.state.get("power_mean", {})),
            "query_groups": len(raw_groups),
            "materialize_s": materialize_s,
            "raw_s": {
                "mean": raw.mean,
                "ci_lo": raw.ci_low,
                "ci_hi": raw.ci_high,
                "samples": len(raw.samples),
                "converged": raw.converged,
            },
            "rollup_s": {
                "mean": routed.mean,
                "ci_lo": routed.ci_low,
                "ci_hi": routed.ci_high,
                "samples": len(routed.samples),
                "converged": routed.converged,
            },
            "speedup": (
                raw.mean / routed.mean if routed.mean > 0 else None
            ),
            "answers_identical": groups_identical(
                raw_groups, routed_groups
            ),
            "raw_decision": raw_decision.as_dict(),
            "rollup_decision": routed_decision.as_dict(),
        }
    finally:
        sj.close()


def run_all(smoke: bool) -> Dict[str, Any]:
    if smoke:
        racks, samples, repeats = 8, 720, 5  # 5,760 rows / 6 hours
        bar = 2.0
    else:
        racks, samples, repeats = 16, 2_880, 10  # 46,080 rows / 24 h
        bar = 5.0
    return {
        "figure": "BENCH_rollup",
        "benchmark": "rollup_routing",
        "description": (
            "metric query (mean power per rack at 1h grain) answered "
            "by re-aggregating a materialized 15m rollup's partials "
            "vs re-scanning raw rows; identical answers required"
        ),
        "smoke": smoke,
        "speedup_bar": bar,
        "route": run_route_phase(racks, samples, repeats),
    }


def check(payload: Dict[str, Any]) -> List[str]:
    problems: List[str] = []
    ph = payload["route"]
    bar = payload["speedup_bar"]
    if not ph["answers_identical"]:
        problems.append(
            "rollup-route answer diverged from the raw-route answer"
        )
    if ph["raw_decision"]["choice"] != "raw":
        problems.append(
            f"pre-rollup query did not take the raw route "
            f"({ph['raw_decision']})"
        )
    if ph["rollup_decision"]["choice"] != "rollup" or \
            ph["rollup_decision"]["rollup"] != "power_15m":
        problems.append(
            f"post-rollup query did not route through power_15m "
            f"({ph['rollup_decision']})"
        )
    speedup = ph["speedup"]
    if speedup is None or speedup < bar:
        problems.append(
            f"rollup route is only {speedup!r}x faster than the raw "
            f"route (acceptance bar: >= {bar}x)"
        )
    return problems


def write_json(payload: Dict[str, Any], path: str = JSON_PATH) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes and a relaxed 2x bar; exit non-zero on "
        "acceptance failures",
    )
    parser.add_argument(
        "--output", default=JSON_PATH, help="JSON output path"
    )
    args = parser.parse_args(argv)

    payload = run_all(smoke=args.smoke)
    path = write_json(payload, args.output)

    ph = payload["route"]
    print(
        f"{ph['rows']} rows, {ph['rollup_buckets']} rollup partials, "
        f"{ph['query_groups']} answer groups"
    )
    print(
        f"raw {ph['raw_s']['mean']*1e3:8.2f} ms   "
        f"rollup {ph['rollup_s']['mean']*1e3:8.2f} ms   "
        f"speedup {ph['speedup']:.1f}x "
        f"(bar {payload['speedup_bar']}x)"
    )
    print(f"wrote {path}")

    problems = check(payload)
    for p in problems:
        print(f"ACCEPTANCE FAIL: {p}")
    if args.smoke:
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
