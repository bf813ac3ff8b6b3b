"""Checks that need a fresh interpreter: the demo scripts, repeated re-imports and the
modules that importing infolab loads."""

import glob
import os
import subprocess
import sys

import pytest

import infolab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(infolab.__file__)))
ROOT = os.path.dirname(SRC)
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


@pytest.mark.parametrize(
    "demo", sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))), ids=os.path.basename
)
def test_demo_runs(demo):
    res = subprocess.run(
        [sys.executable, demo], env=ENV, capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr


REIMPORT = """
import gc, importlib, sys, weakref
classes = []
for _ in range(5):
    for name in [n for n in sys.modules if n == "infolab" or n.startswith("infolab.")]:
        del sys.modules[name]
    harness = importlib.import_module("infolab.harness")
    config = harness.parse_config({
        "version": 1, "scenario_id": "tiny", "horizons": [2], "replicates": 2,
        "master_seed": 1, "bounds": ["linreg_error"],
        "process": {"kind": "linreg", "d": 2, "noise_var": 0.5},
        "predictor": {"kind": "ensemble", "size": 8},
    })
    harness.run_scenario(config)
    classes.append(weakref.ref(sys.modules["infolab.processes"].LinReg))
    del harness, config
gc.collect()
print(sum(ref() is not None for ref in classes[:-1]))
"""


def test_reimport_frees_old_modules():
    """Re-importing infolab (as a benchmark set-up does) leaves no old classes alive."""
    res = subprocess.run(
        [sys.executable, "-c", REIMPORT], env=ENV, capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0"


NO_SCIPY = """
import importlib, pkgutil, sys
import infolab
for module in pkgutil.iter_modules(infolab.__path__):
    importlib.import_module("infolab." + module.name)
print(sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy.")))
"""


def test_importing_every_module_leaves_scipy_unloaded():
    """scipy is a test-only dependency: no infolab module imports it."""
    res = subprocess.run(
        [sys.executable, "-c", NO_SCIPY], env=ENV, capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
