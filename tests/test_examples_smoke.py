"""Smoke tests keeping the runnable examples runnable.

Each example is executed as a subprocess, exactly as the README tells
users to run it; a non-zero exit (import error, API drift, assertion
inside the example) fails the suite. ``rack_heat.py`` runs the Figure
4 finding through the engine's costed heat plan in about a second; the
heavier examples (``cpu_throttling.py``, ``network_interference.py``,
``scaling_study.py``) are covered by the integration tests and the
benchmarks instead.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
)

FAST_EXAMPLES = [
    "quickstart.py",
    "reproducible_pipeline.py",
    "nosql_ingestion.py",
    "dashboard_metrics.py",
    "serve_client_server.py",
    "rack_heat.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, tmp_path):
    # a fresh, empty TMPDIR: whatever the example puts there it must
    # also remove
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    path = os.path.join(EXAMPLES_DIR, script)
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(tmpdir)},
    )
    assert proc.returncode == 0, (
        f"{script} failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"{script} printed nothing"
    assert os.listdir(tmpdir) == [], f"{script} left files in TMPDIR"


def test_every_example_has_a_docstring_and_main():
    for name in os.listdir(EXAMPLES_DIR):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(EXAMPLES_DIR, name)) as f:
            text = f.read()
        assert '"""' in text.split("\n", 2)[-1] or text.startswith(
            '#!'
        ), f"{name} lacks a docstring"
        assert 'if __name__ == "__main__":' in text, (
            f"{name} is not runnable as a script"
        )
