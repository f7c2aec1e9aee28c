#!/usr/bin/env python3
"""The repository's one benchmark: four end-to-end workloads, seven
end-to-end metrics, per-layer self time from a traced run.

Three ways in::

    # one workload, one run — the form BENCHMARK.json's driver uses;
    # the last line of stdout is one JSON object
    python3 benchmarks/suite/run.py --workload store_scan --seed 1 \\
        --seconds 20 --trace 0

    # the whole suite: every workload untraced then traced, each run a
    # fresh child process; prints every metric, writes one result JSON
    # (40 s phases unless --seconds says otherwise)
    python3 benchmarks/suite/run.py all [--smoke] [--seed N]
        [--seconds S] [--repeat K] [--out result.json]

    # apply the benchmark's own bounds to two suite results
    python3 benchmarks/suite/run.py compare A.json B.json

Load model: closed loop. One caller in-process (two socket clients for
``serve_wire``) replays a seeded request mix in whole cycles, the
constant number that fills ``--seconds`` on the seed commit; an
operation is timed from the call to typed rows or groups in the
caller's hands, and oracle checking happens after the clock stops. See
README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(SUITE_DIR, ".work")
OUT_DIR = os.path.join(SUITE_DIR, "out")

#: name -> (module, class, why this workload exists)
WORKLOADS: Dict[str, Tuple[str, str, str]] = {
    "paper_derive": (
        "wl_paper_derive", "PaperDerive",
        "the paper's Fig 3 joins and Fig 4-7 case studies in memory: "
        "engine, plan executor, rdd and operators only, no store or "
        "serve tier",
    ),
    "store_scan": (
        "wl_store_scan", "StoreScan",
        "selective, slice and full-table questions over an on-disk "
        "wide-column table: store, sources, pushdown and metrics "
        "dominate, joins and serve are bypassed",
    ),
    "serve_wire": (
        "wl_serve_wire", "ServeWire",
        "two socket clients against a 2-shard router: service, shard "
        "scatter and wire codec dominate; hot points stop at the "
        "result cache",
    ),
    "stream_refresh": (
        "wl_stream_refresh", "StreamRefresh",
        "appends sealed beside rollup and raw-window reads: the store "
        "and metrics code of store_scan used the other way round",
    ),
}

SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups


def _import_program() -> None:
    """Put the checkout's ``src/`` and this directory on the path. A
    checkout without the program cannot be benchmarked: exit non-zero
    before printing anything that looks like a result."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            f"benchmark: no program to measure ({SRC}/repro is missing)\n"
        )
        raise SystemExit(2)
    for path in (SRC, SUITE_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------

class Phase:
    """What one measured closed-loop phase observed."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = {}
        #: a traced run's operations, split by whether the cycle they
        #: ran in was recorded
        self.traced: Dict[str, List[float]] = {}
        self.plain: Dict[str, List[float]] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.cycles = 0
        self.wall_s = 0.0
        self.wire_bytes = [0, 0]
        self._lock = threading.Lock()

    def record(self, kind: str, seconds: float,
               traced: Optional[bool] = None) -> None:
        with self._lock:
            self.latencies.setdefault(kind, []).append(seconds)
            if traced is not None:
                side = self.traced if traced else self.plain
                side.setdefault(kind, []).append(seconds)

    def fail(self, message: str) -> None:
        with self._lock:
            self.failures.append(message)

    @property
    def correct(self) -> int:
        return sum(len(v) for v in self.latencies.values())


def flat(latencies: Dict[str, List[float]]) -> List[float]:
    return [v for values in latencies.values() for v in values]


def run_phase(workload: Any, seconds: float,
              recorder: Any = None) -> Phase:
    """Closed loop: every caller replays ``workload.cycles(seconds)``
    whole cycles of the request mix (stopping mid-cycle would skew it).
    The count is constant, never cut short by the clock: a run on a slow
    host, or of a slower change, takes longer and does the same work.

    With a ``recorder`` every second cycle of each caller is recorded
    and the others run plain, so the traced and untraced operations
    see the same store sizes and machine state."""
    phase = Phase()
    op_ids = itertools.count(1)
    target = workload.cycles(seconds)
    started = time.perf_counter()

    def caller_loop(caller: int) -> None:
        for cycle in range(target):
            for request in workload.requests(caller):
                request = workload.before(caller, request)
                kind = request[0]
                with phase._lock:
                    phase.attempted += 1
                op = next(op_ids)
                traced = None if recorder is None else cycle % 2 == 1
                try:
                    t0 = time.perf_counter()
                    if traced:
                        with recorder.operation(op, kind):
                            result = workload.execute(caller, request)
                    else:
                        result = workload.execute(caller, request)
                    elapsed = time.perf_counter() - t0
                except Exception as exc:  # an error or a refusal
                    phase.fail(f"{kind}: {type(exc).__name__}: {exc}")
                    continue
                # the clock has stopped: check the answer
                try:
                    problem = workload.check(caller, request, result)
                except Exception as exc:
                    problem = f"{kind}: check raised {exc!r}"
                if problem is not None:
                    phase.fail(problem)
                    continue
                phase.record(kind, elapsed, traced)
                if recorder is not None and cycle == 0:
                    size, rows = workload.wire_sample(request, result)
                    with phase._lock:
                        phase.wire_bytes[0] += size
                        phase.wire_bytes[1] += rows

    if workload.callers == 1:
        caller_loop(0)
    else:
        threads = [
            threading.Thread(target=caller_loop, args=(c,),
                             name=f"bench-caller-{c}")
            for c in range(workload.callers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    phase.wall_s = time.perf_counter() - started
    phase.cycles = target * workload.callers
    return phase


def set_up(cls: Any, seed: int, smoke: bool,
           workdir: str) -> Tuple[Any, float, List[str], int]:
    """generate → (oracles, untimed) → build → warm. Returns the
    workload, the timed seconds, warm-up failures and warm-up ops."""
    # what the program puts in a temp dir (the rollup tables) lands in
    # the workload's directory, where disk_state counts it
    tempfile.tempdir = workdir
    workload = cls(seed, smoke, workdir)
    t0 = time.perf_counter()
    workload.generate()
    timed = time.perf_counter() - t0
    workload.prepare_oracles()
    t0 = time.perf_counter()
    workload.build()
    warmed = workload.warm()
    timed += time.perf_counter() - t0
    failures = []
    for request, result in warmed:
        problem = workload.check(0, request, result)
        if problem is not None:
            failures.append("warm-up " + problem)
    return workload, timed, failures, len(warmed)


def input_digest(workload: Any) -> str:
    """sha256 over the generated rows, so a change to ``repro.datagen``
    that alters the inputs is visible in the result."""
    h = hashlib.sha256()
    for rows in workload.input_rows():
        for row in rows:
            h.update(repr(sorted(row.items())).encode("utf-8"))
    return h.hexdigest()[:16]


def peak_rss_mib() -> float:
    """High-water resident memory: this process plus its largest
    waited-for child (ru_maxrss is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def disk_state(workload: Any) -> Dict[str, float]:
    from common import dir_bytes

    size, files = dir_bytes(workload.workdir)
    return {"bytes": size, "files": files, "rows": workload.rows_stored()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run. Returns (the driver-contract result, a detail dict)."""
    _import_program()
    import importlib

    import layers

    module, cls_name, _why = WORKLOADS[name]
    cls = getattr(importlib.import_module(module), cls_name)
    run_dir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    detail: Dict[str, Any] = {"workload": name, "seed": seed,
                              "seconds": seconds, "trace": trace,
                              "smoke": smoke}
    failures: List[str] = []
    attempted = 0
    workload = None
    try:
        repeats = 1 if (trace or smoke) else SETUP_REPEATS
        setups = []
        for i in range(repeats):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            workload, timed, problems, warm_ops = set_up(
                cls, seed, smoke, os.path.join(run_dir, f"setup-{i}")
            )
            setups.append(timed)
            failures += problems
            attempted += warm_ops
        assert workload is not None
        detail["setup_samples_s"] = setups
        detail["input_digest"] = input_digest(workload)
        detail["profile_knobs"] = workload.profile_knobs()

        if not trace:
            phase = run_phase(workload, seconds)
            metrics = end_to_end_metrics(phase, setups)
        else:
            metrics, phase = traced_run(
                workload, seconds, name, layers, detail, failures
            )
        failures += phase.failures
        attempted += phase.attempted
        detail["disk_bytes_per_row"] = (
            disk_state(workload)["bytes"] / workload.rows_stored()
            if workload.rows_stored() else 0.0
        )
        problems = workload.finish()
        failures += ["finish: " + p for p in problems]
        attempted += 1  # the end-of-run checks count as one attempt
        detail["sizes"] = workload.sizes()
        detail["ops"] = phase.correct
        detail["cycles"] = phase.cycles
        detail["measured_s"] = phase.wall_s
        detail["samples"] = {k: len(v) for k, v in phase.latencies.items()}
    finally:
        if workload is not None:
            workload.close()
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)
    if not trace:
        # children (the shard processes) are waited for by now
        metrics["peak_rss_mb"] = {"value": peak_rss_mib(), "unit": "MiB"}
    detail["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, detail


def end_to_end_metrics(phase: Phase,
                       setups: List[float]) -> Dict[str, Dict[str, Any]]:
    import layers

    latencies = flat(phase.latencies)
    values = {
        "setup_s": statistics.median(setups),
        "answer_p50_s": layers.percentile(latencies, 0.5),
        "answer_p90_s": layers.percentile(latencies, 0.9),
        "ops_per_s": phase.correct / phase.wall_s if phase.wall_s else 0.0,
    }
    units = {name: unit for name, unit, _b, _x in layers.END_TO_END}
    return {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }


def traced_run(workload: Any, seconds: float, name: str, layers: Any,
               detail: Dict[str, Any], failures: List[str],
               ) -> Tuple[Dict[str, Dict[str, Any]], Phase]:
    """One phase, every second cycle recorded, between two readings of
    the public counters."""
    import tracing

    before = workload.counters()
    disk_before = disk_state(workload)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        phase = run_phase(workload, seconds, recorder)
    finally:
        recorder.uninstall()
    after = workload.counters()
    disk = disk_state(workload)
    disk["files_written"] = disk["files"] - disk_before["files"]
    disk["segments"] = after.get("store.segments", 0.0)
    delta = {k: v - before.get(k, 0.0) for k, v in after.items()}
    summary = tracing.summarize(recorder.spans)
    values = layers.per_layer_metrics(
        phase.traced, summary, recorder.sums, delta, phase.correct, disk,
        (phase.wire_bytes[0], phase.wire_bytes[1]),
        layers.percentile(flat(phase.plain), 0.5),
    )
    if values["trace.coverage_ratio"] < layers.MIN_COVERAGE:
        failures.append(
            f"trace coverage {values['trace.coverage_ratio']:.3f} is "
            f"below {layers.MIN_COVERAGE}: extend tracing.WRAP_TABLE"
        )
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{name}.json")
    events = tracing.write_chrome_trace(recorder.spans, trace_path)
    detail.update({
        "trace_file": os.path.relpath(trace_path, ROOT),
        "trace_events": events,
        "spans": len(recorder.spans),
        "layer_self_s_by_kind": summary["self_s_by_kind_layer"],
        "by_span": summary["by_span"],
        "traced_ops": summary["ops"],
    })
    units = {n: unit for n, unit, _b in layers.PER_LAYER}
    return {
        n: {"value": value, "unit": units[n]}
        for n, value in values.items()
    }, phase


# ----------------------------------------------------------------------
# the whole suite
# ----------------------------------------------------------------------

def environment(seconds: float, smoke: bool) -> Dict[str, Any]:
    _import_program()
    from repro.config import KNOBS

    try:
        commit: Optional[str] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "executor_kind": KNOBS["executor.kind"].default,
        "run_seconds": seconds,
        "smoke": smoke,
    }


def child_run(name: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run in a fresh child process (a clean heap and, for
    ``serve_wire``, a clean fork)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    detail_path = os.path.join(
        WORK_DIR, f"detail-{name}-{trace}-{os.getpid()}.json"
    )
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--detail", detail_path]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{name} (trace={trace}) exited {proc.returncode}:\n"
                + proc.stderr[-2000:]
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(detail_path, encoding="utf-8") as f:
            detail = json.load(f)
    finally:
        if os.path.exists(detail_path):
            os.remove(detail_path)
    return result, detail


def run_suite(args: argparse.Namespace) -> int:
    import layers

    seconds = args.seconds
    out: Dict[str, Any] = {
        "suite": "scrubjay-benchmark-suite",
        "schema": 1,
        "seed": args.seed,
        "repeat": args.repeat,
        "environment": environment(seconds, args.smoke),
        "bounds": dict(
            {n: bound for n, _u, _b, bound in layers.END_TO_END},
            fail_ratio=0.0,
            disk_bytes_per_row=layers.DISK_BYTES_BOUND,
        ),
        "workloads": {},
    }
    all_ok = True
    for name in WORKLOADS:
        runs = []
        for r in range(args.repeat):
            result, detail = child_run(
                name, args.seed + r, seconds, 0, args.smoke
            )
            runs.append({"result": result, "detail": detail})
        traced, traced_detail = child_run(
            name, args.seed, seconds, 1,
            args.smoke,
        )
        entry = summarize_workload(name, runs, traced, traced_detail)
        out["workloads"][name] = entry
        all_ok = all_ok and entry["correct"]
        print_workload(name, entry)
    claims = dominance_claims(out["workloads"])
    out["dominance"] = claims
    if claims:
        print("\ndominance (share of operation time, traced run)")
        for line in claims:
            print(f"  {line['claim']}: {line['value']:.3f} "
                  f"[{'holds' if line['holds'] else 'DOES NOT HOLD'}]")
    path = args.out or os.path.join(OUT_DIR, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {path}")
    return 0 if all_ok else 1


def summarize_workload(name: str, runs: List[Dict[str, Any]],
                       traced: Dict[str, Any],
                       traced_detail: Dict[str, Any]) -> Dict[str, Any]:
    import layers

    end_to_end: Dict[str, Any] = {}
    for metric, unit, better, bound in layers.END_TO_END:
        values = [r["result"]["metrics"][metric]["value"] for r in runs]
        end_to_end[metric] = {
            "unit": unit, "better": better, "bound": bound,
            "median": statistics.median(values), "values": values,
        }
    attempted = sum(r["result"]["attempted"] for r in runs) \
        + traced["attempted"]
    failed = sum(r["result"]["failed"] for r in runs) + traced["failed"]
    first = runs[0]["detail"]
    return {
        "why": WORKLOADS[name][2],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f for r in runs for f in r["detail"]["failures"]]
        + traced_detail["failures"],
        "end_to_end": end_to_end,
        "samples": [r["detail"]["samples"] for r in runs],
        "ops": [r["detail"]["ops"] for r in runs],
        "cycles": [r["detail"]["cycles"] for r in runs],
        "measured_s": [r["detail"]["measured_s"] for r in runs],
        "setup_samples_s": [r["detail"]["setup_samples_s"] for r in runs],
        "input_digest": [r["detail"]["input_digest"] for r in runs],
        "sizes": first["sizes"],
        "profile_knobs": first["profile_knobs"],
        "disk_bytes_per_row": first["disk_bytes_per_row"],
        "per_layer": {
            k: v["value"] for k, v in traced["metrics"].items()
        },
        "trace": {
            key: traced_detail.get(key) for key in (
                "trace_file", "trace_events", "spans", "ops",
                "traced_ops", "samples", "layer_self_s_by_kind",
                "by_span",
            )
        },
    }


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    import layers

    print(f"\n== {name} ==  ({entry['why']})")
    print(f"  ops {entry['ops']}  cycles {entry['cycles']}  measured "
          f"{[round(s, 1) for s in entry['measured_s']]} s  "
          f"samples/kind {entry['samples'][0]}")
    print(f"  fail_ratio {entry['fail_ratio']:.4f} ratio "
          f"({entry['failed']}/{entry['attempted']})   "
          f"disk_bytes_per_row {entry['disk_bytes_per_row']:.2f} B/row   "
          f"input_digest {entry['input_digest'][0]}")
    for failure in entry["failures"][:5]:
        print(f"  FAIL {failure}")
    for metric, _u, _b, _x in layers.END_TO_END:
        m = entry["end_to_end"][metric]
        print(f"  {metric:<34} {m['median']:>14.6g} {m['unit']:<6}"
              f" (n={len(m['values'])})")
    unit_of = {n: u for n, u, _b in layers.PER_LAYER}
    print("  -- per layer (traced run, per operation) --")
    for metric, value in entry["per_layer"].items():
        if value:
            print(f"  {metric:<34} {value:>14.6g} {unit_of[metric]}")
    zero = [m for m, v in entry["per_layer"].items() if not v]
    print(f"  zero here: {len(zero)} metrics of layers this workload "
          "does not enter")
    print(f"  trace: {entry['trace']['trace_file']}")


def dominance_claims(workloads: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The layer-dominance claims the workloads were chosen for, from
    the traced runs' self seconds per (operation kind, layer)."""
    def share(workload: str, kind: Optional[str],
              prefixes: Tuple[str, ...]) -> Optional[float]:
        entry = workloads.get(workload)
        by_kind = entry and entry["trace"]["layer_self_s_by_kind"]
        if not by_kind or (kind and kind not in by_kind):
            return None
        part = total = 0.0
        for k in ([kind] if kind else list(by_kind)):
            for layer, seconds in by_kind[k].items():
                total += seconds
                if layer.startswith(prefixes):
                    part += seconds
        return part / total if total else 0.0

    specs = [
        ("store+sources share of paper_derive < 0.02",
         ("paper_derive", None, ("store", "sources")), lambda v: v < 0.02),
        ("store+sources share of store_scan full_metric > 0.30",
         ("store_scan", "full_metric", ("store", "sources")),
         lambda v: v > 0.30),
        ("serve share of paper_derive == 0",
         ("paper_derive", None, ("serve",)), lambda v: v == 0.0),
        ("serve share of store_scan == 0",
         ("store_scan", None, ("serve",)), lambda v: v == 0.0),
        ("serve share of serve_wire hot_point > 0.50",
         ("serve_wire", "hot_point", ("serve",)), lambda v: v > 0.50),
    ]
    out = []
    for claim, where, test in specs:
        value = share(*where)
        if value is not None:
            out.append({"claim": claim, "value": value,
                        "holds": bool(test(value))})
    return out


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

MIN_RUNS = 8  # a side; the protocol is --repeat 10


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median; None below
    ``MIN_RUNS`` values (with four, one slow run moves a quartile by
    30 %)."""
    if len(values) < MIN_RUNS:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return abs(q3 - q1) / abs(med) if med else None


def compare(path_a: str, path_b: str) -> int:
    """A is the parent, B the change. Per (workload, metric): ``ok``
    when B's median is not worse than A's by more than the bound,
    ``regression`` when it is, ``unresolved`` when either side has fewer
    than ``MIN_RUNS`` runs or a run-to-run spread above the bound
    (unless every B run beats every A run). ``fail_ratio`` and
    ``disk_bytes_per_row`` repeat exactly and are judged as they are."""
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    verdicts = {"ok": 0, "regression": 0, "unresolved": 0}

    def report(verdict: str, name: str, metric: str, va: float,
               vb: float, worse: float, bound: float, note: str) -> None:
        verdicts[verdict] += 1
        print(f"{verdict:<11} {name:<15} {metric:<19} {va:>12.6g} "
              f"{vb:>12.6g} {worse:>+9.1%} {bound:>6.0%}  {note}")

    print(f"{'verdict':<11} {'workload':<15} {'metric':<19} "
          f"{'A':>12} {'B':>12} {'worse by':>9} {'bound':>6}  spread A/B")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            print(f"{'unresolved':<11} {name:<15} (missing in B)")
            verdicts["unresolved"] += 1
            continue
        rise = wb["fail_ratio"] - wa["fail_ratio"]
        report("regression" if rise > 0 else "ok", name, "fail_ratio",
               wa["fail_ratio"], wb["fail_ratio"], rise, 0.0, "")
        da, db = wa["disk_bytes_per_row"], wb["disk_bytes_per_row"]
        if da or db:
            bound = a["bounds"]["disk_bytes_per_row"]
            worse = (db - da) / da if da else float("inf")
            report("regression" if worse > bound else "ok", name,
                   "disk_bytes_per_row", da, db, worse, bound, "")
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"][metric]
            bound = ma["bound"]
            sign = 1.0 if ma["better"] == "lower" else -1.0
            worse = sign * (mb["median"] - ma["median"]) / ma["median"]
            sa, sb = spread(ma["values"]), spread(mb["values"])
            if sa is None or sb is None:
                report("unresolved", name, metric, ma["median"],
                       mb["median"], worse, bound,
                       f"fewer than {MIN_RUNS} runs a side")
                continue
            if ma["better"] == "lower":
                b_wins = max(mb["values"]) < min(ma["values"])
            else:
                b_wins = min(mb["values"]) > max(ma["values"])
            if max(sa, sb) > bound and not b_wins:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
            else:
                verdict = "ok"
            report(verdict, name, metric, ma["median"], mb["median"],
                   worse, bound, f"{sa:.3f}/{sb:.3f}")
    print(", ".join(f"{n} {k}" for k, n in verdicts.items()))
    return 1 if verdicts["regression"] or verdicts["unresolved"] else 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

#: ``run.py all`` measures longer than the driver's ``run_seconds``
#: (whose 92 runs share a 3420 s budget): at this length
#: ``paper_derive`` reaches 104 operations, and the phases take 40 s in
#: the host's fast hours and up to 60 s in its slow ones
SUITE_SECONDS = 40.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        args = p.parse_args(argv[1:])
        return compare(args.a, args.b)
    if argv and argv[0] == "all":
        p = argparse.ArgumentParser(prog="run.py all")
        p.add_argument("--smoke", action="store_true",
                       help="tiny sizes, two cycles a phase, oracles and "
                       "trace coverage still enforced, no timing "
                       "assertions")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=SUITE_SECONDS)
        p.add_argument("--repeat", type=int, default=1,
                       help="untraced runs per workload (seed, seed+1, "
                       f"...); compare needs >= {MIN_RUNS} a side")
        p.add_argument("--out", default=None)
        args = p.parse_args(argv[1:])
        return run_suite(args)

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--detail", default=None,
                   help="also write the run's detail JSON here")
    args = p.parse_args(argv)
    result, detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.smoke,
    )
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as f:
            json.dump(detail, f)
    for failure in detail["failures"]:
        print("FAIL", failure, file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{detail['ops']} ops in {detail['measured_s']:.2f} s, "
          f"{detail['cycles']} cycles, samples {detail['samples']}")
    for name, m in result["metrics"].items():
        if m["value"]:
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
