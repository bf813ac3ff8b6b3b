"""Checks that need a fresh interpreter: the demo scripts, repeated re-imports and the
modules that importing infolab loads."""

import glob
import json
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


TRACED = """
import importlib.util, json, sys
import infolab, infolab.cli
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install(infolab)
print(json.dumps({"unwrapped": tracer.unwrapped, "spans": tracer.names}))
"""

# Names in the tracer's tables that the package no longer defines; the set may shrink, not grow.
UNWRAPPED = {
    "processes.meta_step", "estimators.run_meta_replicate", "predictors.EnumerationState.observe",
}


def test_benchmark_tracer_finds_every_entry_point():
    """perfbench traces by name: every name in its tables exists, and its auto-wrap of
    infolab.bounds finds every public bound and rate function."""
    from infolab import bounds as bnd

    tracing = os.path.join(ROOT, "perfbench", "tracing.py")
    res = subprocess.run(
        [sys.executable, "-c", TRACED, tracing], env=ENV, capture_output=True, text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    traced = json.loads(res.stdout)
    assert set(traced["unwrapped"]) <= UNWRAPPED
    declared = [fn for sides in bnd._BOUNDS.values() for _, fn in sides]
    declared.append(bnd.missing_feature_upper)
    public = {fn.__name__ for fn in declared if not fn.__name__.startswith("_")}
    assert len(public) == 22
    assert {f"bounds.{name}" for name in public} <= set(traced["spans"])
