"""Smoke gate for the benchmark suite: ``run.py all --smoke`` on tiny
inputs with the oracles and the trace-coverage floor still enforced and
no timing assertions — what one CI job can run in place of the nine
per-feature smoke jobs.

    python -m pytest benchmarks/suite/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
RUN = os.path.join(SUITE_DIR, "run.py")

sys.path.insert(0, SUITE_DIR)
import layers  # noqa: E402


def test_manifest_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    assert manifest["paths"] == ["benchmarks/suite"]
    # the manifest's bounds are the driver's (wider: see README.md)
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]
    ] == [m[:3] for m in layers.END_TO_END]
    for m, suite in zip(manifest["end_to_end"], layers.END_TO_END):
        assert m["bound"] >= suite[3]
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == layers.PER_LAYER
    names = [m["name"] for m in manifest["per_layer"]]
    assert len(names) == len(set(names))


def test_smoke_suite_runs_clean():
    out = os.path.join(SUITE_DIR, ".work", f"smoke-{os.getpid()}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, RUN, "all", "--smoke", "--out", out],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        with open(out, encoding="utf-8") as f:
            result = json.load(f)
    finally:
        if os.path.exists(out):
            os.remove(out)
    assert set(result["workloads"]) == {
        "paper_derive", "store_scan", "serve_wire", "stream_refresh",
    }
    for key in ("cpu_count", "python", "platform", "executor_kind"):
        assert key in result["environment"]
    for name, entry in result["workloads"].items():
        assert entry["correct"], (name, entry["failures"])
        assert entry["fail_ratio"] == 0.0
        assert set(entry["end_to_end"]) == {m[0] for m in layers.END_TO_END}
        for metric in entry["end_to_end"].values():
            assert metric["median"] > 0
        assert set(entry["per_layer"]) == {m[0] for m in layers.PER_LAYER}
        assert entry["per_layer"]["trace.coverage_ratio"] >= \
            layers.MIN_COVERAGE
        assert entry["input_digest"][0]
    assert all(claim["holds"] for claim in result["dominance"]), \
        result["dominance"]


def _suite_result(p50s, disk=40.0):
    """A one-workload suite result with the given answer_p50_s runs."""
    import statistics

    return {
        "bounds": {"disk_bytes_per_row": layers.DISK_BYTES_BOUND},
        "workloads": {"store_scan": {
            "fail_ratio": 0.0,
            "disk_bytes_per_row": disk,
            "end_to_end": {"answer_p50_s": {
                "better": "lower", "bound": 0.10, "values": p50s,
                "median": statistics.median(p50s),
            }},
        }},
    }


def test_compare_verdicts(tmp_path, capsys):
    import run

    def verdicts(a, b):
        paths = []
        for name, result in (("a.json", a), ("b.json", b)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(result))
        code = run.compare(*map(str, paths))
        lines = capsys.readouterr().out.splitlines()
        return code, {
            line.split()[2]: line.split()[0] for line in lines[1:-1]
        }

    steady = [1.0 + 0.001 * i for i in range(10)]
    noisy = [1.0 + 0.05 * i for i in range(10)]
    assert verdicts(_suite_result(steady), _suite_result(steady)) == (
        0, {"fail_ratio": "ok", "disk_bytes_per_row": "ok",
            "answer_p50_s": "ok"})
    # too few runs, or a spread above the bound, resolves nothing
    assert verdicts(_suite_result(steady[:5]), _suite_result(steady))[1][
        "answer_p50_s"] == "unresolved"
    assert verdicts(_suite_result(steady), _suite_result(noisy))[1][
        "answer_p50_s"] == "unresolved"
    slower = [v * 1.2 for v in steady]
    assert verdicts(_suite_result(steady), _suite_result(slower))[1][
        "answer_p50_s"] == "regression"
    # three per cent more bytes a row is over the 2 % bound
    code, got = verdicts(_suite_result(steady),
                         _suite_result(steady, disk=41.2))
    assert code == 1 and got["disk_bytes_per_row"] == "regression"


def test_refuses_to_run_without_the_program(tmp_path):
    """In a tree that holds only the benchmark the runner must exit
    non-zero without printing anything that parses as a result."""
    import shutil

    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    for name in os.listdir(SUITE_DIR):
        if name.endswith(".py"):
            shutil.copy(os.path.join(SUITE_DIR, name), suite / name)
    proc = subprocess.run(
        [sys.executable, str(suite / "run.py"), "--workload", "store_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
