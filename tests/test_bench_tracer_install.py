"""The benchmark suite's tracer installs against the shipped program.

``benchmarks/suite/tracing.py`` wraps named boundaries of ``repro``
(its ``WRAP_TABLE``) in every traced benchmark run. A renamed or
deleted boundary makes ``Recorder.install()`` raise, so this test runs
install and uninstall in a subprocess — a half-applied patch cannot
leak into other tests — and checks that one patched boundary is the
original object again afterwards.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path.insert(0, "benchmarks/suite")
import tracing
from repro.core.engine import DerivationEngine

original = DerivationEngine.__dict__["solve"]
r = tracing.Recorder()
r.install()
assert DerivationEngine.__dict__["solve"] is not original
r.uninstall()
assert DerivationEngine.__dict__["solve"] is original
print("installed", len(tracing.WRAP_TABLE))
"""


def test_suite_tracer_installs_and_uninstalls():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.startswith("installed ")


ASK_SCRIPT = """
import sys
sys.path.insert(0, "benchmarks/suite")
import tracing
from repro import ScrubJaySession
from repro.datagen.synthetic import (
    TIMED_LEFT_SCHEMA, TIMED_RIGHT_SCHEMA, timed_tables,
)

left, right = timed_tables(200, num_keys=4)
sj = ScrubJaySession()
sj.register_rows(left, TIMED_LEFT_SCHEMA, "left")
sj.register_rows(right, TIMED_RIGHT_SCHEMA, "right")
q = sj.query().across("compute nodes", "time") \\
    .values("power", "temperature").build()
r = tracing.Recorder()
r.install()
try:
    for op in (1, 2):
        with r.operation(op, "ask"):
            sj.ask(q)
finally:
    r.uninstall()
names = [(s.op, s.name) for s in r.spans]
print(sorted({n for _, n in names if n.startswith("serve")}))
print(sum(1 for op, n in names if n == "core.engine.solve" and op == 2))
"""


def test_a_memoized_ask_lands_in_no_serve_layer():
    # the suite's "serve share of paper_derive == 0" claim: the
    # session's plan memo is core code, and a repeated ask solves once
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", ASK_SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.split("\n")[:2] == ["[]", "0"]
