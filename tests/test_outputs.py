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
    ],
)
def test_cli_bounds_errors_are_one_line(bound_id, params, message):
    res = CliRunner().invoke(cli_main, ["bounds", bound_id, "--params", params])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.splitlines()) == 1
    assert res.output.startswith("Error: " + message)


_LINREG = {"kind": "linreg", "d": 3, "noise_var": 0.25}
_DEEPNET = {"kind": "deepnet", "d": 2, "width": 3, "depth": 2, "noise_var": 0.5}
_DIRICHLET = {"kind": "dirichlet", "d": 2, "scale": 2.0, "noise_var": 0.5}
_ARK = {"kind": "ark", "d": 2, "context": 2}
_TRANSFORMER = {"kind": "transformer", "vocab": 3, "attn_dim": 3, "depth": 1, "context": 2}
_ENSEMBLE = {"kind": "ensemble", "size": 16}
_OMNISCIENT = {"kind": "omniscient"}

# One small config per process/predictor pair a config can name -> sha256 of
# the files `simulate` writes in csv and in json, recorded before iid and
# meta processes shared one step and CSV cells one formatter.
SIMULATE_DIGESTS = {
    "linreg_conjugate": (_LINREG, {"kind": "conjugate"},
        "15e07e0af7826de1bb718feeafe6ac93f6c27770762aa8c45618438492a27789"),
    "linreg_ensemble": (_LINREG, _ENSEMBLE,
        "8097a85a02c319431bad36bc33a4093d1de61a8394e9c2d99b44700d82d146d3"),
    "linreg_omniscient": (_LINREG, _OMNISCIENT,
        "46b7da9245ab4511942ca6f4bb5052e357d86db1bf40a630bfa7fa7aec3d7daf"),
    "linreg_misspecified_conjugate": (
        _LINREG, {"kind": "misspecified_conjugate", "prior_mean": [0.5, 0.0, 0.0]},
        "7bec620bbec1357a6aa8d82fb6a367d10c85ae31cbddafd576f36be123607cce"),
    "logreg_ensemble": ({"kind": "logreg", "d": 3}, _ENSEMBLE,
        "6e568c4289062fc41a28ede9f296e90a74e35809452a335142f2866fcda4f3f6"),
    "logreg_omniscient": ({"kind": "logreg", "d": 3}, _OMNISCIENT,
        "67ae03d3ff5e58b600fcd3f6b6c65e33fd1b8b69bc1838bd3a207f1c46703ddd"),
    "deepnet_ensemble": (_DEEPNET, _ENSEMBLE,
        "857bbd6a3d4a2b1a5eef4287dd710c22a80377aa79be97fbbda12acebd59bc83"),
    "deepnet_omniscient": (_DEEPNET, _OMNISCIENT,
        "16488ce4a5f3e8e06e152530d895d36f3c482fcc240d6f33dfb72524ea51ff4c"),
    "dirichlet_ensemble": (_DIRICHLET, _ENSEMBLE,
        "730f77444e209f9752fe5249a7af0976268025dea03cf23d3d440dd4580462ce"),
    "dirichlet_omniscient": (_DIRICHLET, _OMNISCIENT,
        "8f6de4564dba812fbf95bfc7997efe4b13312f6a4c77cc7b56448ad1cdc98632"),
    "dirichlet_misspecified_width": (
        _DIRICHLET, {"kind": "misspecified_width", "n": 3, "eps": 0.3, "size": 16},
        "7c97378c594aaeb6aec4c679759834741271d270da93f1376b56f515a73bc367"),
    "ark_ensemble": (_ARK, _ENSEMBLE,
        "40d660e817db0dad6992fea811402610a0c68f4e3f151834b1b63ad2f21e3469"),
    "ark_omniscient": (_ARK, _OMNISCIENT,
        "f8a08a6982b6fb77ea76c4d2a808ef9720a618818a08536138bc74c211377630"),
    "transformer_ensemble": (_TRANSFORMER, _ENSEMBLE,
        "6c0ff00e159dddef4267d80271cfb85e2b45bb74df691ae65eb4747fe20d3841"),
    "transformer_omniscient": (_TRANSFORMER, _OMNISCIENT,
        "4976b1398a848975cfe3db121fe150e94abfc7310524f79025f61d9dbdb172d4"),
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
