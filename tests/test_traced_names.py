"""The benchmark's tracer rebinds pruw functions by name; every name it
lists must still resolve, or `perfbench/run.py --trace 1` breaks, and must
still run, or its counters read 0 without a word."""

import importlib
import inspect
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TARGETS = runpy.run_path(str(TRACER))["TARGETS"]

# traced names that no session or audit calls, with the reason
UNCALLED = {
    "poly.lagrange_interpolate": "a test reference; sessions use the cached oracle basis",
    "poly.solve_decode": "a test reference; sessions use the cached decoder inverse",
}

# Runs two-iteration sessions of every scheme (both top-r cases) and each
# scheme's audit battery under the installed tracer; prints the call counts.
TRACED_RUN = """
import json
from fractions import Fraction

from tracer import TARGETS, Tracer
from pruw import audit
from pruw.config import ExperimentConfig
from pruw.harness import run_session

tracer = Tracer("traced-names")
tracer.install()
half = Fraction(1, 2)
for kw in (dict(scheme="basic", n=4, l=8),
           dict(scheme="topr", n=10, p=8, case=1, r=half, r_prime=half),
           dict(scheme="topr", n=10, p=8, case=2, r=half, r_prime=half),
           dict(scheme="random", n=6, l=30, d_read=Fraction(1, 3), d_write=Fraction(1, 5))):
    assert run_session(ExperimentConfig(m=2, seed=3, iterations=2, **kw)).verdict
for scheme in ("basic", "topr", "random"):
    audit.default_audit_suite(scheme)
tracer.uninstall()
print(json.dumps({f"{m}.{a}": tracer.calls[f"{m}.{a}"] for m, a, _ in TARGETS}))
"""


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in TARGETS])
def test_traced_name_resolves(module_name, attr):
    # the same lookup the tracer's install() makes
    module = importlib.import_module(f"pruw.{module_name}")
    owner, _, fname = attr.rpartition(".")
    holder = getattr(module, owner) if owner else module
    assert inspect.isfunction(vars(holder).get(fname)), f"pruw.{module_name}.{attr}"


def test_every_traced_name_runs():
    # a fresh interpreter, so that no cache filled by an earlier test hides a call
    src = TRACER.parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(TRACER.parent)])}
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert [name for name, count in calls.items() if not count and name not in UNCALLED] == []
