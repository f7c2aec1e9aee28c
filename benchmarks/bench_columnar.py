"""Columnar execution benchmark: the fig3-style natural join, twice.

Registers the synthetic keyed tables (samples × per-node lookup, join
output size == left rows), solves the join query once, then executes
the same plan under ``TuningProfile(columnar=True)`` and
``columnar=False``. The columnar run decodes the catalog rows into
:class:`~repro.columnar.ColumnBatch` leaves (persisted, so the decode
is paid once, like a columnar file format pays it at write time) and
probes the vectorized hash join; the row run is the classic
dict-per-row path. Both answers are compared as row multisets — the
speedup only counts if the bytes agree.

Writes ``benchmarks/results/BENCH_columnar.json`` with timings, the
kernel decisions the columnar run recorded, and the equality verdict.

Usage::

    PYTHONPATH=src python benchmarks/bench_columnar.py          # full
    PYTHONPATH=src python benchmarks/bench_columnar.py --smoke  # CI

The full run enforces the >= 5x acceptance bar; ``--smoke`` shrinks
the tables and gates at >= 2x. Either exits non-zero on a miss or on
answers that differ.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_columnar.json")

# allow `python benchmarks/bench_columnar.py` without PYTHONPATH
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import ScrubJaySession, TuningProfile  # noqa: E402
from repro.datagen.synthetic import (  # noqa: E402
    KEYED_LEFT_SCHEMA,
    KEYED_RIGHT_SCHEMA,
    keyed_tables,
)

FULL_ROWS = 200_000
SMOKE_ROWS = 30_000
NUM_KEYS = 1024
REPEATS = 5


def row_multiset(rows: Sequence[Dict[str, Any]]) -> List[Any]:
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows
    )


def run_mode(
    columnar: bool,
    left: List[Dict[str, Any]],
    right: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Time REPEATS executions of the solved join plan in one mode."""
    sj = ScrubJaySession(TuningProfile(columnar=columnar))
    try:
        sj.register_rows(left, KEYED_LEFT_SCHEMA, "samples")
        sj.register_rows(right, KEYED_RIGHT_SCHEMA, "lookup")
        plan = sj.plan(
            sj.query()
            .across("compute nodes", "jobs")
            .value("power")
            .value("temperature")
            .build()
        )
        # warmup: pays one-time costs (columnar leaf decode) outside
        # the timed region, exactly once per mode
        count = sj.execute(plan).count()
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            count = sj.execute(plan).count()
        elapsed = (time.perf_counter() - t0) / REPEATS
        # identity check material, untimed
        rows = sj.execute(plan).collect()
        return {
            "mode": "columnar" if columnar else "row",
            "seconds": round(elapsed, 5),
            "result_rows": count,
            "kernels": [
                {"op": k.op, "choice": k.choice, "reason": k.reason}
                for k in sj.ctx.report.of("kernel")
            ],
            "rows": rows,
        }
    finally:
        sj.close()


def run_all(smoke: bool) -> Dict[str, Any]:
    num_rows = SMOKE_ROWS if smoke else FULL_ROWS
    left, right = keyed_tables(num_rows, num_keys=NUM_KEYS)
    columnar = run_mode(True, left, right)
    row = run_mode(False, left, right)
    identical = row_multiset(columnar.pop("rows")) == row_multiset(
        row.pop("rows")
    )
    speedup = (
        row["seconds"] / columnar["seconds"]
        if columnar["seconds"]
        else float("inf")
    )
    return {
        "benchmark": "columnar-natural-join",
        "smoke": smoke,
        "left_rows": num_rows,
        "right_rows": NUM_KEYS,
        "repeats": REPEATS,
        "columnar": columnar,
        "row": row,
        "speedup": round(speedup, 2),
        "results_identical": identical,
    }


def check(payload: Dict[str, Any]) -> List[str]:
    bar = 2.0 if payload["smoke"] else 5.0
    failures: List[str] = []
    if not payload["results_identical"]:
        failures.append("columnar and row answers differ")
    if payload["columnar"]["result_rows"] != payload["left_rows"]:
        failures.append(
            f"join produced {payload['columnar']['result_rows']} rows, "
            f"expected {payload['left_rows']}"
        )
    batch_ops = {
        k["op"]
        for k in payload["columnar"]["kernels"]
        if k["choice"] == "batch"
    }
    if "natural_join" not in batch_ops:
        failures.append("columnar run never chose the batch join kernel")
    if payload["row"]["kernels"]:
        failures.append("row run recorded kernel decisions")
    if payload["speedup"] < bar:
        failures.append(
            f"speedup {payload['speedup']}x below the {bar}x bar"
        )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Columnar vs row execution benchmark"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small tables + relaxed 2x gate (CI mode)",
    )
    args = parser.parse_args(argv)

    payload = run_all(args.smoke)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
    print(json.dumps(payload, indent=2))
    print(f"wrote {JSON_PATH}")

    failures = check(payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
