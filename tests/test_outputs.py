"""Exact output of the scenario writers and of the bounds CLI, errors included."""

import hashlib
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from infolab import harness
from infolab.bounds import BoundReport
from infolab.cli import main as cli_main
from infolab.estimators import ErrorCurve
from infolab.predictors import Omniscient
from infolab.processes import PROCESS_KINDS, LinReg


def _golden_result():
    """Fixed floats, a bound without a value, a failed row and a negative margin."""
    config = harness.ScenarioConfig(
        scenario_id="golden",
        spec=LinReg(d=2, noise_var=0.5),
        predictor=Omniscient(),
        horizons=[10, 20],
        replicates=3,
        master_seed=1,
        bound_ids=["linreg_error"],
    )
    curve = ErrorCurve(
        horizons=[10, 20],
        mean_error=np.array([0.1, 1.0 / 3.0]),
        std_err=np.array([0.02, 2.5e-05]),
        replicates=3,
        scenario_id="golden",
    )
    params = {"d": 2, "noise_var": 0.5}
    reports = [
        BoundReport("linreg_error", "upper", {**params, "T": 10}, 0.15, True),
        BoundReport("linreg_error", "lower", {**params, "T": 10}, None, False, "requires d > 2"),
        BoundReport("linreg_error", "upper", {**params, "T": 20}, 0.3, True),
    ]
    rows = [
        harness.VerificationRow(
            "golden", 10, "linreg_error", "upper", 0.1, 0.02, 0.15, True, 0.15 - (0.1 - 0.06)
        ),
        harness.VerificationRow(
            "golden", 20, "linreg_error", "upper", 1.0 / 3.0, 2.5e-05, 0.3, False,
            0.3 - (1.0 / 3.0 - 7.5e-05),
        ),
    ]
    return harness.ScenarioResult(config, curve, reports, harness.VerificationReport(rows))


GOLDEN_CURVE_CSV = """\
horizon,mean_error,std_err,replicates,scenario_id
10,0.10000000000000001,0.02,3,golden
20,0.33333333333333331,2.5000000000000001e-05,3,golden
"""

GOLDEN_BOUNDS_CSV = """\
bound_id,side,params_json,value,valid
linreg_error,upper,"{""T"": 10, ""d"": 2, ""noise_var"": 0.5}",0.14999999999999999,true
linreg_error,lower,"{""T"": 10, ""d"": 2, ""noise_var"": 0.5}",,false
linreg_error,upper,"{""T"": 20, ""d"": 2, ""noise_var"": 0.5}",0.29999999999999999,true
"""

GOLDEN_VERIFICATION_CSV = """\
scenario_id,horizon,bound_id,side,empirical,std_err,bound,passed,margin
golden,10,linreg_error,upper,0.10000000000000001,0.02,0.14999999999999999,true,0.10999999999999999
golden,20,linreg_error,upper,0.33333333333333331,2.5000000000000001e-05,0.29999999999999999,false,-0.033258333333333334
"""


def _bound_json(T, value, valid):
    return f"""\
    {{
      "bound_id": "linreg_error",
      "side": "{'upper' if valid else 'lower'}",
      "params": {{
        "d": 2,
        "noise_var": 0.5,
        "T": {T}
      }},
      "value": {value},
      "valid": {'true' if valid else 'false'}
    }}"""


def _row_json(T, empirical, std_err, bound, passed, margin):
    return f"""\
    {{
      "horizon": {T},
      "bound_id": "linreg_error",
      "side": "upper",
      "empirical": {empirical},
      "std_err": {std_err},
      "bound": {bound},
      "passed": {passed},
      "margin": {margin}
    }}"""


GOLDEN_JSON = (
    """\
{
  "version": 1,
  "scenario_id": "golden",
  "curve": {
    "horizons": [
      10,
      20
    ],
    "mean_error": [
      0.1,
      0.3333333333333333
    ],
    "std_err": [
      0.02,
      2.5e-05
    ],
    "replicates": 3
  },
  "bounds": [
"""
    + ",\n".join(
        [
            _bound_json(10, "0.15", True),
            _bound_json(10, "null", False),
            _bound_json(20, "0.3", True),
        ]
    )
    + """
  ],
  "verification": [
"""
    + ",\n".join(
        [
            _row_json(10, "0.1", "0.02", "0.15", "true", "0.10999999999999999"),
            _row_json(
                20, "0.3333333333333333", "2.5e-05", "0.3", "false", "-0.033258333333333334"
            ),
        ]
    )
    + """
  ]
}"""
)


def test_scenario_files_golden(tmp_path):
    result = _golden_result()
    paths = harness.write_scenario_outputs(result, str(tmp_path), "csv")
    paths += harness.write_scenario_outputs(result, str(tmp_path), "json")
    texts = {os.path.basename(p): open(p, encoding="utf-8", newline="").read() for p in paths}
    assert texts == {
        "golden_curve.csv": GOLDEN_CURVE_CSV,
        "golden_bounds.csv": GOLDEN_BOUNDS_CSV,
        "golden_verification.csv": GOLDEN_VERIFICATION_CSV,
        "golden.json": GOLDEN_JSON,
    }


def test_cli_bounds_json_golden():
    res = CliRunner().invoke(
        cli_main, ["bounds", "logreg_error", "--params", '{"d": 3, "T": 100}', "--format", "json"]
    )
    assert res.exit_code == 0
    assert res.output == """\
[
  {
    "bound_id": "logreg_error",
    "side": "upper",
    "params": {
      "d": 3,
      "T": 100
    },
    "value": 0.04850388332260641,
    "valid": true,
    "note": ""
  }
]"""


@pytest.mark.parametrize(
    "bound_id, params, message",
    [
        ("logreg_error", "{d: 3}", "--params is not valid JSON: Expecting property name"),
        ("logreg_error", "[3, 100]", "--params must be a JSON object of bound parameters"),
        ("logreg_error", '{"d": 3}', "bound 'logreg_error' needs parameter(s): T"),
        (
            "deepnet_error",
            '{"d": 2}',
            "bound 'deepnet_error' needs parameter(s): width, depth, noise_var, T",
        ),
        ("rd_logreg", '{"d": 3}', "bound 'rd_logreg' needs parameter(s): eps"),
        ("rd_nope", "{}", "unknown bound_id: rd_nope"),
        (
            "rd_linreg_lower",
            '{"d": 2, "noise_var": 1, "eps": 0.1}',
            "bound 'rd_linreg_lower': requires d > 2",
        ),
        ("logreg_error", '{"d": null, "T": 5}', "bound 'logreg_error': int() argument must be"),
        (
            "linreg_error",
            '{"d": 5, "noise_var": NaN, "T": 100}',
            "bound 'linreg_error': parameter 'noise_var': nan is not a finite number",
        ),
        (
            "rd_linreg_upper",
            '{"d": 5, "noise_var": -Infinity, "eps": 0.1}',
            "bound 'rd_linreg_upper': parameter 'noise_var': -inf is not a finite number",
        ),
        ("rd_logreg", '{"d": 3, "eps": Infinity}',
         "bound 'rd_logreg': parameter 'eps': inf is not a finite number"),
        ("logreg_error", '{"d": true, "T": 100}',
         "bound 'logreg_error': parameter 'd': True is not an integer"),
        ("logreg_error", '{"d": 5.7, "T": 100}',
         "bound 'logreg_error': parameter 'd': 5.7 is not an integer"),
        ("rd_linrep_meta", '{"d": 6, "r": 2, "M": 8, "T": 0, "eps": 0.1}',
         "bound 'rd_linrep_meta': requires T >= 1"),
        # A rate at eps 0 divides by zero, and a negative eps gives no rate.
        ("rd_dirichlet", '{"d": 2, "K": 2.0, "noise_var": 0.5, "eps": 0}',
         "bound 'rd_dirichlet': requires eps > 0"),
        ("rd_deepnet", '{"d": 2, "width": 3, "depth": 2, "noise_var": 0.5, "eps": 0}',
         "bound 'rd_deepnet': requires eps > 0"),
        ("rd_linrep_intra", '{"r": 2, "eps": 0}', "bound 'rd_linrep_intra': requires eps > 0"),
        ("rd_linrep_meta", '{"d": 6, "r": 2, "M": 8, "T": 10, "eps": 0}',
         "bound 'rd_linrep_meta': requires eps > 0"),
        ("rd_transformer", '{"d": 3, "r": 3, "L": 1, "K": 2, "T": 10, "eps": 0}',
         "bound 'rd_transformer': requires eps > 0"),
        ("rd_ark", '{"d": 2, "K": 2, "eps": -0.5}', "bound 'rd_ark': requires eps > 0"),
        ("rd_icl", '{"d": 3, "r": 2, "L": 1, "K": 2, "R": 1, "N": 4, "M": 8, "T": 10, "eps": -1}',
         "bound 'rd_icl': requires eps > 0"),
    ],
)
def test_cli_bounds_errors_are_one_line(bound_id, params, message):
    res = CliRunner().invoke(cli_main, ["bounds", bound_id, "--params", params])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.splitlines()) == 1
    assert res.output.startswith("Error: " + message)


@pytest.mark.parametrize("bound_id, params, note", [
    ("logreg_error", '{"d": 3, "T": 0}', "requires T >= 1"),
    ("logreg_error", '{"d": 0, "T": 10}', "requires d >= 1"),
    ("linreg_error", '{"d": 3, "noise_var": 0, "T": 10}', "requires noise_var > 0"),
    ("deepnet_error", '{"d": 2, "width": 3, "depth": 2, "noise_var": 0, "T": 10}',
     "requires noise_var > 0"),
    ("dirichlet_error", '{"d": 2, "K": 0, "noise_var": 0.5, "T": 10}', "requires K > 0"),
    ("ark_error", '{"d": 2, "K": 0, "T": 10}', "requires K > 0"),
    ("linrep_error", '{"d": 6, "r": 2, "M": 0, "T": 10}', "requires M > 0"),
    ("linrep_error", '{"d": 6, "r": 0, "M": 8, "T": 10}', "requires r > 0"),
    ("icl_error", '{"d": 3, "r": 2, "L": 1, "K": 2, "R": 0, "N": 4, "M": 8, "T": 10}',
     "requires R > 0"),
    ("transformer_error", '{"d": 3, "r": 3, "L": 0, "K": 2, "T": 10}', "requires L > 0"),
    ("misspec_mean", '{"mu_sq_norm": -1, "T": 10}', "requires mu_sq_norm >= 0"),
])
def test_cli_bounds_outside_the_domain_print_the_note(bound_id, params, note):
    """A parameter outside the bounds' domain gives invalid reports, not a traceback."""
    res = CliRunner().invoke(cli_main, ["bounds", bound_id, "--params", params])
    assert res.exit_code == 0, res.output
    rows = res.output.splitlines()[1:]
    assert rows and all(line.endswith(",,false") for line in rows)
    res = CliRunner().invoke(
        cli_main, ["bounds", bound_id, "--params", params, "--format", "json"]
    )
    assert res.exit_code == 0, res.output
    reports = json.loads(res.output)
    assert reports and all(
        (r["valid"], r["value"], r["note"]) == (False, None, note) for r in reports
    )


_LINREG = {"kind": "linreg", "d": 3, "noise_var": 0.25}
_DEEPNET = {"kind": "deepnet", "d": 2, "width": 3, "depth": 2, "noise_var": 0.5}
_DIRICHLET = {"kind": "dirichlet", "d": 2, "scale": 2.0, "noise_var": 0.5}
_ARK = {"kind": "ark", "d": 2, "context": 2}
_TRANSFORMER = {"kind": "transformer", "vocab": 3, "attn_dim": 3, "depth": 1, "context": 2}
_ENSEMBLE = {"kind": "ensemble", "size": 16}
_OMNISCIENT = {"kind": "omniscient"}

# One small config per process/predictor pair a config can name -> sha256 of
# the files `simulate` writes in csv and in json, recorded under seed contract
# 3 (the ensemble ones with each loss the log-normaliser of its reweighting); the
# deepnet, dirichlet and transformer ones under contract 4, which draws each prior
# (the latent too) as one block.
# A config cannot name an omniscient on a discrete process (see
# test_cli_refuses_an_omniscient_without_an_irreducible_rate).
SIMULATE_DIGESTS = {
    "linreg_conjugate": (_LINREG, {"kind": "conjugate"},
        "35da2f01d2750f8045661a2356422d8f0c1823d752c634c9795845c6e5c3b739"),
    "linreg_ensemble": (_LINREG, _ENSEMBLE,
        "d6d65df48b2d978fe17550ff96399e2390a4bc9f33efad9c76b69a3981b03788"),
    "linreg_omniscient": (_LINREG, _OMNISCIENT,
        "2c8dea485ff2632c1efb626f792a266ea00569b15e431d0a595265a912ab25d6"),
    "linreg_misspecified_conjugate": (
        _LINREG, {"kind": "misspecified_conjugate", "prior_mean": [0.5, 0.0, 0.0]},
        "dd6ed3ba0e7c30125e629f5f9f4e89005131cee4c5affbf54bbaaef2186789c9"),
    # Re-recorded with the log1p form of the Bernoulli log-loss (as ark_ensemble): the
    # T=2 SE moved by 2.8e-17 and its row's margin by 2.2e-16.
    "logreg_ensemble": ({"kind": "logreg", "d": 3}, _ENSEMBLE,
        "0b93f85688a9018a62a11b61588c252764e86ec7179b26fc990f51f2464c57e9"),
    "deepnet_ensemble": (_DEEPNET, _ENSEMBLE,
        "ff705a68b968d1b53496786f5d4711b6fdfa09a3451c4ecee37ac783796546d6"),
    "deepnet_omniscient": (_DEEPNET, _OMNISCIENT,
        "976df80969652ff7a73432bba5fbc8de3b3c344b031828162e452cd4ccc3f8f8"),
    "dirichlet_ensemble": (_DIRICHLET, _ENSEMBLE,
        "1353258dcc0a5c732c4c8d9ec3702c99d888d37c17edf66bfb9ea65da75bbfcc"),
    "dirichlet_omniscient": (_DIRICHLET, _OMNISCIENT,
        "0cc51b9625a0557138134357dcf558807fa52a402e1c222417fc748296827f2a"),
    "dirichlet_misspecified_width": (
        _DIRICHLET, {"kind": "misspecified_width", "n": 3, "eps": 0.3, "size": 16},
        "950f0abc613c68b7e4c848865addb1658cda4146474a064c30eef66df13ea835"),
    # The T=5 mean moved by 1.4e-17.
    "ark_ensemble": (_ARK, _ENSEMBLE,
        "c74051bcd0999ff7a98e1048094a14d4f3f190f15ae4224869f2128711bf3d1b"),
    "transformer_ensemble": (_TRANSFORMER, _ENSEMBLE,
        "af5234c489b1782c252c3e62ebcdebac5bc99393abe3a285775b4403a439ed48"),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_DIGESTS))
def test_simulate_output_digests(case, tmp_path):
    process, predictor, digest = SIMULATE_DIGESTS[case]
    payload = {
        "version": 1, "scenario_id": case, "process": process, "predictor": predictor,
        "horizons": [2, 5], "replicates": 3, "master_seed": 11,
        "bounds": [PROCESS_KINDS[process["kind"]].bound_id],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    h = hashlib.sha256()
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        args = ["simulate", str(cfg), "--out", str(out), "--format", fmt]
        res = CliRunner().invoke(cli_main, args)
        assert res.exit_code == 0, res.output
        for name in sorted(os.listdir(out)):
            h.update(name.encode() + b"\n" + (out / name).read_bytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("process", [
    {"kind": "logreg", "d": 3}, _ARK, _TRANSFORMER, {"kind": "linrep", "d": 6, "r": 2, "tasks": 4},
], ids=lambda p: p["kind"])
def test_cli_refuses_an_omniscient_without_an_irreducible_rate(process, tmp_path):
    """On a process without an irreducible rate an omniscient is measured
    against an omniscient on the same rollout, so its curve is 0 on every seed:
    the config is refused before anything runs."""
    payload = {
        "version": 1, "scenario_id": "omni", "process": process, "predictor": _OMNISCIENT,
        "horizons": [2, 5], "replicates": 3, "master_seed": 11,
        "bounds": [PROCESS_KINDS[process["kind"]].bound_id],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    res = CliRunner().invoke(cli_main, ["simulate", str(cfg), "--out", str(tmp_path / "out")])
    assert res.exit_code != 0 and isinstance(res.exception, SystemExit)
    assert res.output == (
        f"Error: {cfg}: omniscient predictor needs a process with an irreducible rate; on "
        f"'{process['kind']}' it is scored against itself, so its curve is 0 on every seed\n"
    )
    assert not (tmp_path / "out").exists()
