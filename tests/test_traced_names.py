"""The benchmark's tracer rebinds pruw functions by name; every name it
lists must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TARGETS = runpy.run_path(str(TRACER))["TARGETS"]


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in TARGETS])
def test_traced_name_resolves(module_name, attr):
    # the same lookup the tracer's install() makes
    module = importlib.import_module(f"pruw.{module_name}")
    owner, _, fname = attr.rpartition(".")
    holder = getattr(module, owner) if owner else module
    assert inspect.isfunction(vars(holder).get(fname)), f"pruw.{module_name}.{attr}"
