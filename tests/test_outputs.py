"""Exact output of the scenario writers and of the bounds CLI, errors included."""

import os

import numpy as np
import pytest
from click.testing import CliRunner

from infolab import harness
from infolab.bounds import BoundReport
from infolab.cli import main as cli_main
from infolab.estimators import ErrorCurve
from infolab.predictors import Omniscient
from infolab.processes import LinReg


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
        per_step_error=np.array([0.05, 0.25]),
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
    ],
)
def test_cli_bounds_errors_are_one_line(bound_id, params, message):
    res = CliRunner().invoke(cli_main, ["bounds", bound_id, "--params", params])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.splitlines()) == 1
    assert res.output.startswith("Error: " + message)
