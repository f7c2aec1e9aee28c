"""Machine-readable benchmark harness for the Figure 3 natural join.

Runs the natural-join benchmark twice per problem size — once with
adaptive execution on (the planner picks a broadcast-hash join for the
small lookup side) and once with the broadcast path disabled (the
classic shuffle join the paper's cluster pays for) — and writes
``benchmarks/results/BENCH_fig3.json``: the measured series, wall-clock
timings, the join strategy each run actually chose, and the full
:class:`~repro.rdd.stats.ExecutionReport` evidence.

Usage::

    PYTHONPATH=src python benchmarks/harness.py            # full series
    PYTHONPATH=src python benchmarks/harness.py --smoke    # CI gate

``--smoke`` runs the smallest size only and exits non-zero if the
adaptive path errors, produces wrong results, or the execution report
is missing its strategy decisions — the cheap CI check that the
optimizer is alive, decoupled from timing noise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_fig3.json")

# allow `python benchmarks/harness.py` without an explicit PYTHONPATH
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import ScrubJayDataset, SJContext, Tracer, default_dictionary  # noqa: E402
from repro.core.combinations import NaturalJoin  # noqa: E402
from repro.datagen.synthetic import (  # noqa: E402
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)
from repro.util.benchstats import measure, summarize  # noqa: E402

ROW_COUNTS = [20_000, 40_000, 80_000]
NUM_KEYS = 1024  # the right (lookup) side: always broadcast-sized
PARTITIONS = 20

_DICT = default_dictionary()


def adaptive_timing(sample_fn, cap: int):
    """Adaptive repetition (Mittal et al.'s stopping rule, see
    :mod:`repro.util.benchstats`): keep sampling until the 95% CI is
    tight relative to the mean or ``cap`` repeats have run. A cap of
    1–2 degenerates to plain fixed repetition (smoke mode)."""
    if cap <= 2:
        return summarize([sample_fn() for _ in range(max(1, cap))])
    return measure(
        sample_fn, min_repeats=3, max_repeats=cap, rel_ci=0.05, warmup=0
    )


def run_natural_join(
    num_rows: int,
    num_keys: int = NUM_KEYS,
    partitions: int = PARTITIONS,
    broadcast_threshold: Optional[int] = None,
    repeats: int = 1,
) -> Dict[str, Any]:
    """One measured run; returns the record that lands in the JSON.

    ``broadcast_threshold=None`` leaves the adaptive defaults in place
    (mode ``"adaptive"``); ``0`` disables the broadcast path so the
    join must shuffle (mode ``"forced-shuffle"``). ``repeats`` caps
    the adaptive stopping rule; ``wall_seconds`` is the best sample
    and the full interval statistics land under ``timing`` (with
    ``ci`` bounds).
    """
    left_rows, right_rows = keyed_tables(num_rows, num_keys=num_keys)
    state: Dict[str, Any] = {
        "best": float("inf"), "count": -1, "report": {},
        "joins": [], "shuffled": 0,
    }

    def sample() -> float:
        with SJContext(
            executor="serial",
            default_parallelism=partitions,
            broadcast_threshold=broadcast_threshold,
        ) as ctx:
            left = ScrubJayDataset.from_rows(
                ctx, left_rows, KEYED_LEFT_SCHEMA, "left", partitions
            )
            right = ScrubJayDataset.from_rows(
                ctx, right_rows, KEYED_RIGHT_SCHEMA, "right", partitions
            )
            start = time.perf_counter()
            state["count"] = NaturalJoin().apply(
                left, right, _DICT
            ).count()
            elapsed = time.perf_counter() - start
            if elapsed < state["best"]:
                state["best"] = elapsed
                state["report"] = ctx.report.as_dict()
                state["joins"] = ctx.report.of("join")
                state["shuffled"] = ctx.metrics.counter("rdd.shuffle.pairs")
        return elapsed

    timing = adaptive_timing(sample, max(1, repeats))
    joins = state["joins"]
    decision = joins[-1] if joins else None
    return {
        "mode": "adaptive" if broadcast_threshold is None
                else "forced-shuffle",
        "rows": num_rows,
        "num_keys": num_keys,
        "partitions": partitions,
        "wall_seconds": timing.best,
        "timing": timing.as_dict(),
        "output_rows": state["count"],
        "join_strategy": decision.choice if decision else None,
        # adaptive: the planner weighed the sides' sizes (a disabled
        # planner records its forced shuffle with no evidence)
        "strategy_adaptive": bool(decision.evidence) if decision else None,
        "strategy_reason": decision.reason if decision else None,
        "shuffled_pairs": state["shuffled"],
        "report": state["report"],
    }


# Tracing must not tax the untraced path: the gate allows 5% relative
# overhead plus a small absolute slack so sub-second runs don't fail
# on scheduler jitter. Best-of-N on both sides suppresses noise.
OVERHEAD_GATE_PCT = 5.0
OVERHEAD_SLACK_S = 0.015


def run_tracer_overhead(
    num_rows: int,
    num_keys: int = NUM_KEYS,
    partitions: int = PARTITIONS,
    repeats: int = 5,
) -> Dict[str, Any]:
    """Time the fig3 natural join untraced vs with tracing enabled.

    "Untraced" is the default context (its tracer exists but is
    disabled — the no-op path every normal run takes); "traced" flips
    the tracer on, so every stage/task records spans. Returns best-of-
    ``repeats`` wall clocks and the relative overhead.
    """
    left_rows, right_rows = keyed_tables(num_rows, num_keys=num_keys)

    def one(enabled: bool):
        with SJContext(
            executor="serial",
            default_parallelism=partitions,
            tracer=Tracer(enabled=enabled),
        ) as ctx:
            left = ScrubJayDataset.from_rows(
                ctx, left_rows, KEYED_LEFT_SCHEMA, "left", partitions
            )
            right = ScrubJayDataset.from_rows(
                ctx, right_rows, KEYED_RIGHT_SCHEMA, "right", partitions
            )
            start = time.perf_counter()
            count = NaturalJoin().apply(left, right, _DICT).count()
            elapsed = time.perf_counter() - start
            spans = sum(
                1 for root in ctx.tracer.roots() for _ in root.walk()
            )
        return elapsed, count, spans

    best_untraced = best_traced = float("inf")
    count_untraced = count_traced = -1
    spans = 0
    for _ in range(max(1, repeats)):
        # alternate to spread cache/allocator drift across both sides
        elapsed, count_untraced, _ = one(False)
        best_untraced = min(best_untraced, elapsed)
        elapsed, count_traced, spans = one(True)
        best_traced = min(best_traced, elapsed)
    overhead_pct = (
        (best_traced - best_untraced) / best_untraced * 100.0
        if best_untraced > 0 else 0.0
    )
    return {
        "rows": num_rows,
        "partitions": partitions,
        "repeats": max(1, repeats),
        "untraced_seconds": best_untraced,
        "traced_seconds": best_traced,
        "overhead_pct": overhead_pct,
        "gate_pct": OVERHEAD_GATE_PCT,
        "slack_seconds": OVERHEAD_SLACK_S,
        "spans_recorded": spans,
        "output_rows_match": count_untraced == count_traced,
    }


def run_comparison(
    row_counts: Sequence[int] = ROW_COUNTS, repeats: int = 1
) -> Dict[str, Any]:
    """Adaptive vs forced-shuffle across ``row_counts``; the payload
    for ``BENCH_fig3.json``."""
    runs: List[Dict[str, Any]] = []
    speedups: Dict[str, float] = {}
    for n in row_counts:
        adaptive = run_natural_join(n, repeats=repeats)
        forced = run_natural_join(
            n, broadcast_threshold=0, repeats=repeats
        )
        runs.extend([adaptive, forced])
        if adaptive["wall_seconds"] > 0:
            speedups[str(n)] = (
                forced["wall_seconds"] / adaptive["wall_seconds"]
            )
    return {
        "figure": "BENCH_fig3",
        "benchmark": "natural_join_broadcast_vs_shuffle",
        "description": (
            "Fig 3a natural join, adaptive (broadcast-hash selected "
            "from statistics) vs forced-shuffle, serial executor; "
            "adaptive repetition (95%% CI stopping rule, cap %d), "
            "wall_seconds is the best sample and `timing.ci` the "
            "interval" % max(1, repeats)
        ),
        "row_counts": list(row_counts),
        "runs": runs,
        "speedups": speedups,
    }


def write_json(payload: Dict[str, Any], path: str = JSON_PATH) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=False)
        f.write("\n")
    return path


def check_smoke(payload: Dict[str, Any]) -> List[str]:
    """The CI gate: failures as a list of human-readable messages."""
    problems: List[str] = []
    adaptive = [r for r in payload["runs"] if r["mode"] == "adaptive"]
    forced = [r for r in payload["runs"]
              if r["mode"] == "forced-shuffle"]
    if not adaptive or not forced:
        return ["harness produced no runs"]
    for r in adaptive:
        if r["output_rows"] != r["rows"]:
            problems.append(
                f"adaptive run at {r['rows']} rows returned "
                f"{r['output_rows']} joined rows (expected {r['rows']})"
            )
        if not r["report"].get("decisions"):
            problems.append(
                f"adaptive run at {r['rows']} rows recorded no "
                f"strategy decisions in its ExecutionReport"
            )
        if r["join_strategy"] != "broadcast" or not r["strategy_adaptive"]:
            problems.append(
                f"adaptive run at {r['rows']} rows chose "
                f"{r['join_strategy']!r} (adaptive="
                f"{r['strategy_adaptive']}); expected an adaptively "
                f"selected broadcast join"
            )
    for r in forced:
        if r["output_rows"] != r["rows"]:
            problems.append(
                f"forced-shuffle run at {r['rows']} rows returned "
                f"{r['output_rows']} joined rows (expected {r['rows']})"
            )
        if r["join_strategy"] != "shuffle":
            problems.append(
                f"forced-shuffle run at {r['rows']} rows chose "
                f"{r['join_strategy']!r}; expected shuffle"
            )
    overhead = payload.get("tracer_overhead")
    if overhead is not None:
        problems.extend(check_tracer_overhead(overhead))
    return problems


def check_tracer_overhead(o: Dict[str, Any]) -> List[str]:
    """Gate the tracing tax: traced must stay within ``gate_pct`` of
    untraced (plus absolute slack), record spans, and agree on rows."""
    problems: List[str] = []
    if not o["output_rows_match"]:
        problems.append(
            "traced and untraced runs disagree on joined row counts"
        )
    if o["spans_recorded"] <= 0:
        problems.append("traced run recorded no spans")
    limit = (
        o["untraced_seconds"] * (1 + o["gate_pct"] / 100.0)
        + o["slack_seconds"]
    )
    if o["traced_seconds"] > limit:
        problems.append(
            f"tracing overhead {o['overhead_pct']:.1f}% exceeds the "
            f"{o['gate_pct']:.0f}% gate (untraced "
            f"{o['untraced_seconds']:.4f}s, traced "
            f"{o['traced_seconds']:.4f}s, limit {limit:.4f}s)"
        )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smallest size only; exit non-zero on adaptive-path "
             "errors or missing report decisions",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="repeat cap per configuration (the adaptive stopping "
             "rule may finish earlier once the CI is tight)",
    )
    parser.add_argument(
        "--output", default=JSON_PATH, help="JSON output path"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        row_counts = [5_000]
        repeats = args.repeats or 1
    else:
        row_counts = ROW_COUNTS
        repeats = args.repeats or 10

    payload = run_comparison(row_counts, repeats=repeats)
    payload["smoke"] = bool(args.smoke)
    payload["tracer_overhead"] = run_tracer_overhead(
        row_counts[0], repeats=max(5, repeats)
    )
    path = write_json(payload, args.output)

    for r in payload["runs"]:
        print(
            f"{r['mode']:>14}  {r['rows']:>7} rows  "
            f"{r['wall_seconds']:.4f} s  strategy={r['join_strategy']}"
            f" adaptive={r['strategy_adaptive']}"
        )
    for n, s in payload["speedups"].items():
        print(f"speedup at {n} rows: {s:.2f}x (shuffle / adaptive)")
    o = payload["tracer_overhead"]
    print(
        f"tracer overhead at {o['rows']} rows: untraced "
        f"{o['untraced_seconds']:.4f}s, traced "
        f"{o['traced_seconds']:.4f}s ({o['overhead_pct']:+.1f}%, "
        f"{o['spans_recorded']} spans)"
    )
    print(f"wrote {path}")

    problems = check_smoke(payload)
    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
