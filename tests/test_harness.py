"""Tests for scenario configs, verification, file output, and the CLI."""

import json
import math
import os
import re

import numpy as np
import pytest
from click.testing import CliRunner

from infolab import harness
from infolab.cli import main as cli_main
from infolab.estimators import ErrorCurve
from infolab.predictors import PREDICTOR_KINDS, ConjugateLinReg, Omniscient
from infolab.processes import BinaryARK, DirichletNet, LinRep, LinReg, Transformer
from infolab.rng import RngStream, SeedSpec


def _tiny_config(seed=11, replicates=16):
    return harness.parse_config(
        {
            "version": 1,
            "scenario_id": "tiny",
            "process": {"kind": "linreg", "d": 2, "noise_var": 0.25},
            "predictor": {"kind": "conjugate"},
            "horizons": [3, 6],
            "replicates": replicates,
            "master_seed": seed,
            "bounds": ["linreg_error"],
        }
    )


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------


def test_unknown_config_key_named_in_error():
    payload = {
        "version": 1,
        "scenario_id": "x",
        "process": {"kind": "logreg", "d": 2},
        "predictor": {"kind": "omniscient"},
        "horizons": [2, 4],
        "replicates": 4,
        "master_seed": 0,
        "bogus_key": 1,
    }
    with pytest.raises(ValueError, match="bogus_key"):
        harness.parse_config(payload)


def test_unknown_process_and_predictor_keys_rejected():
    with pytest.raises(ValueError, match="typo_field"):
        harness.parse_process({"kind": "linreg", "d": 3, "noise_var": 1.0, "typo_field": 2})
    with pytest.raises(ValueError, match="oops"):
        harness.parse_predictor({"kind": "ensemble", "oops": 1}, LinReg(d=2, noise_var=1.0))


def test_version_required_and_checked():
    payload = {
        "scenario_id": "x",
        "process": {"kind": "logreg", "d": 2},
        "predictor": {"kind": "omniscient"},
        "horizons": [2],
        "replicates": 4,
        "master_seed": 0,
    }
    with pytest.raises(ValueError, match="version"):
        harness.parse_config(payload)
    payload["version"] = 99
    with pytest.raises(ValueError, match="version"):
        harness.parse_config(payload)


def test_scenario_config_invariants():
    with pytest.raises(ValueError, match="replicates"):
        harness.ScenarioConfig(
            "x", LinReg(d=2, noise_var=1.0), Omniscient(), [2, 4], 1, 0
        )
    with pytest.raises(ValueError, match="horizons"):
        harness.ScenarioConfig(
            "x", LinReg(d=2, noise_var=1.0), Omniscient(), [4, 4], 4, 0
        )


def test_parse_process_kinds_and_defaults():
    ark = harness.parse_process({"kind": "ark", "d": 2, "context": 2})
    assert isinstance(ark, BinaryARK)
    assert np.array_equal(ark.phi0, [1.0, 0.0]) and np.array_equal(ark.phi1, [0.0, 1.0])
    tf = harness.parse_process(
        {"kind": "transformer", "vocab": 3, "attn_dim": 4, "depth": 2, "context": 3}
    )
    assert isinstance(tf, Transformer) and tf.embeddings.shape == (3, 4)
    lr = harness.parse_process({"kind": "linrep", "d": 6, "r": 2, "tasks": 4})
    assert isinstance(lr, LinRep)
    with pytest.raises(ValueError, match="kind"):
        harness.parse_process({"kind": "made_up"})


def test_parse_predictor_compatibility():
    with pytest.raises(ValueError, match="linreg"):
        harness.parse_predictor(
            {"kind": "conjugate"}, harness.parse_process({"kind": "logreg", "d": 2})
        )
    pred = harness.parse_predictor({"kind": "conjugate"}, LinReg(d=3, noise_var=0.5))
    assert isinstance(pred, ConjugateLinReg)
    assert pred.prior_cov[0, 0] == pytest.approx(1.0 / 3.0)


PARSED_PREDICTORS = {
    "conjugate": (
        {"kind": "conjugate"},
        {"prior_mean": [0.0, 0.0], "prior_cov": [[0.5, 0.0], [0.0, 0.5]], "noise_var": 0.25},
    ),
    "ensemble": (
        {"kind": "ensemble", "size": "64", "resample_ess_frac": 0.25},
        {"size": 64, "resample_ess_frac": 0.25},
    ),
    "omniscient": ({"kind": "omniscient"}, {}),
    "misspecified_conjugate": (
        {"kind": "misspecified_conjugate", "prior_diag": [2.0, 0.0]},
        {"prior_mean": [0.0, 0.0], "prior_cov": [[2.0, 0.0], [0.0, 0.0]], "noise_var": 0.25},
    ),
    "misspecified_width": (
        {"kind": "misspecified_width", "n": 3},
        {"n": 3, "eps": 0.0, "size": 2048, "resample_ess_frac": 0.5},
    ),
}


@pytest.mark.parametrize("kind", sorted(PARSED_PREDICTORS))
def test_parse_predictor_builds_each_kind(kind):
    assert set(PARSED_PREDICTORS) == set(PREDICTOR_KINDS)
    payload, expected = PARSED_PREDICTORS[kind]
    spec = LinReg(d=2, noise_var=0.25, prior_var=0.5)
    if kind == "misspecified_width":  # the width-n prior reduces a Dirichlet-process net
        spec = DirichletNet(d=2, scale=2.0, noise_var=0.25)
    pred = harness.parse_predictor(payload, spec)
    assert type(pred) is PREDICTOR_KINDS[kind]
    for name, value in expected.items():
        got = np.asarray(getattr(pred, name))
        assert np.array_equal(got, value) and got.dtype == np.asarray(value).dtype, name


def test_bounds_for_incompatible_id():
    with pytest.raises(ValueError, match="bound_id"):
        harness.bounds_for(LinReg(d=2, noise_var=1.0), "logreg_error", 10)
    reps = harness.bounds_for(LinReg(d=5, noise_var=0.25), "linreg_error", 100)
    assert {r.side for r in reps} == {"upper", "lower"}


# ---------------------------------------------------------------------------
# execution and determinism
# ---------------------------------------------------------------------------


def test_scenario_outputs_deterministic_and_atomic(tmp_path):
    cfg = _tiny_config()
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        result = harness.run_scenario(cfg)
        paths = harness.write_scenario_outputs(result, str(out), "csv")
        assert sorted(os.path.basename(p) for p in paths) == [
            "tiny_bounds.csv",
            "tiny_curve.csv",
            "tiny_verification.csv",
        ]
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
        texts.append({os.path.basename(p): open(p).read() for p in paths})
    assert texts[0] == texts[1]
    curve = texts[0]["tiny_curve.csv"]
    # floats carry 17 significant digits
    cell = curve.splitlines()[1].split(",")[2]
    assert len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 15


@pytest.mark.parametrize(
    "process, predictor, inits",
    [
        ({"kind": "linreg", "d": 2, "noise_var": 0.25}, {"kind": "conjugate"}, 0),
        ({"kind": "logreg", "d": 2}, {"kind": "ensemble", "size": 16}, 3),
    ],
    ids=["linreg", "logreg"],
)
def test_scenario_runs_an_omniscient_only_without_irreducible_rate(
    process, predictor, inits, monkeypatch
):
    """LinReg's excess is measured against its irreducible rate; LogReg has
    none, so each replicate also scores the omniscient predictor."""
    calls, init = [], Omniscient.init

    def counting_init(self, *args):
        calls.append(1)
        return init(self, *args)

    monkeypatch.setattr(Omniscient, "init", counting_init)
    config = harness.parse_config({
        "version": 1, "scenario_id": "baseline", "process": process, "predictor": predictor,
        "horizons": [2, 4], "replicates": 3, "master_seed": 12, "bounds": [],
    })
    harness.run_scenario(config)
    assert len(calls) == inits


@pytest.mark.parametrize("replicates", [0, -2])
def test_run_replicates_refuses_no_replicates(replicates):
    spec = LinReg(d=2, noise_var=0.25)
    stream = RngStream(SeedSpec(13))
    with pytest.raises(ValueError, match=r"^replicates must be >= 1, not -?\d+$"):
        harness.run_replicates(spec, (Omniscient(),), 4, replicates, stream)


def test_run_replicates_refuses_no_kinds():
    spec = LinReg(d=2, noise_var=0.25)
    stream = RngStream(SeedSpec(13))
    with pytest.raises(ValueError, match="^kinds must name at least one predictor kind$"):
        harness.run_replicates(spec, (), 4, 3, stream)


def test_scenario_json_output(tmp_path):
    result = harness.run_scenario(_tiny_config())
    (path,) = harness.write_scenario_outputs(result, str(tmp_path), "json")
    payload = json.loads(open(path).read())
    assert payload["version"] == harness.CONFIG_VERSION
    assert payload["curve"]["horizons"] == [3, 6]
    assert all(row["passed"] in (True, False) for row in payload["verification"])
    with pytest.raises(ValueError, match="format"):
        harness.write_scenario_outputs(result, str(tmp_path), "xml")


def test_manifest_loading(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenarios": []}))
    with pytest.raises(ValueError, match="version"):
        harness.load_manifest(str(bad))
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"version": 1, "scenarios": [], "extra": 2}))
    with pytest.raises(ValueError, match="extra"):
        harness.load_manifest(str(odd))
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "version": 1,
                "scenarios": [
                    {
                        "version": 1,
                        "scenario_id": "s1",
                        "process": {"kind": "logreg", "d": 2},
                        "predictor": {"kind": "ensemble", "size": 64},
                        "horizons": [4],
                        "replicates": 4,
                        "master_seed": 5,
                    }
                ],
            }
        )
    )
    configs = harness.load_manifest(str(good))
    assert len(configs) == 1 and configs[0].scenario_id == "s1"
    builtins = harness.load_manifest("desk_suite")
    assert [c.scenario_id for c in builtins] == harness.DESK_SUITE


def test_sweep_scaling_validation_and_shape():
    with pytest.raises(ValueError, match="decades"):
        harness.sweep_scaling(4, 4.0, 1e6, 1e8, 5)
    with pytest.raises(ValueError, match="grid points"):
        harness.sweep_scaling(4, 4.0, 1e6, 1e10, 2)
    sweep = harness.sweep_scaling(4, 4.0, 1e6, 1e10, 9)
    assert np.all(np.diff(sweep.n_star) > 0)
    assert len(sweep.c_values) == 9
    assert 0.3 < sweep.slope < 0.6
    assert sweep.slope_half_width >= 0


def test_write_sweep_output_refuses_an_unknown_format(tmp_path):
    sweep = harness.ScalingSweep(
        c_values=np.array([1e6]), n_star=np.array([3]), t_star=np.array([1e5]),
        bound_value=np.array([0.5]), slope=0.5, slope_half_width=0.0,
    )
    with pytest.raises(ValueError, match="^format must be 'csv' or 'json'$"):
        harness.write_sweep_output(sweep, str(tmp_path), "xml")
    assert os.listdir(tmp_path) == []


def _verification_rows(emp, se):
    """Verification rows, by side, of a one-horizon curve against linreg_error at T=20."""
    config = harness.ScenarioConfig(
        scenario_id="edge", spec=LinReg(d=5, noise_var=0.25), predictor=Omniscient(),
        horizons=[20], replicates=2, master_seed=1, bound_ids=["linreg_error"],
    )
    curve = ErrorCurve(
        horizons=[20], mean_error=np.array([emp]), std_err=np.array([se]), replicates=2
    )
    report, _ = harness.verify_curve(config, curve)
    return {row.side: row for row in report.rows}


@pytest.mark.parametrize("side, sign", [("upper", 1.0), ("lower", -1.0)])
def test_verify_curve_passes_on_the_bound_and_fails_one_ulp_past(side, sign):
    """emp - k SE equal to the upper bound (emp + k SE equal to the lower one)
    passes with margin 0; one ulp further to the curve's side fails."""
    reports = harness.bounds_for(LinReg(d=5, noise_var=0.25), "linreg_error", 20)
    bound = {r.side: r.value for r in reports}[side]
    se = 2.0**-50  # k SE = 3 SE is exact and a few dozen ulps of either bound
    emp = bound + sign * 3.0 * se
    assert emp - sign * 3.0 * se == bound
    row = _verification_rows(emp, se)[side]
    assert row.passed and row.margin == 0.0
    row = _verification_rows(float(np.nextafter(emp, sign * math.inf)), se)[side]
    assert not row.passed and row.margin < 0.0


def test_atomic_write_overwrites_cleanly(tmp_path):
    path = tmp_path / "out.txt"
    harness.atomic_write_text(str(path), "first")
    harness.atomic_write_text(str(path), "second")
    assert path.read_text() == "second"
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_bounds_stdout_and_file(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        cli_main,
        ["bounds", "logreg_error", "--params", '{"d": 3, "T": 200}'],
    )
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == ",".join(
        ["bound_id", "side", "params_json", "value", "valid"]
    )
    res = runner.invoke(
        cli_main,
        [
            "bounds", "logreg_error", "--params", '{"d": 3, "T": 200}',
            "--out", str(tmp_path), "--format", "json",
        ],
    )
    assert res.exit_code == 0
    payload = json.loads(open(os.path.join(tmp_path, "bound_logreg_error.json")).read())
    assert payload[0]["bound_id"] == "logreg_error"
    res = runner.invoke(cli_main, ["bounds", "nope", "--params", "{}"])
    assert res.exit_code != 0


def test_cli_simulate(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "version": 1,
                "scenario_id": "cli_tiny",
                "process": {"kind": "linreg", "d": 2, "noise_var": 0.25},
                "predictor": {"kind": "conjugate"},
                "horizons": [3, 6],
                "replicates": 16,
                "master_seed": 11,
                "bounds": ["linreg_error"],
            }
        )
    )
    runner = CliRunner()
    res = runner.invoke(
        cli_main,
        ["simulate", str(cfg_path), "--out", str(tmp_path), "--seed", "12"],
    )
    assert res.exit_code == 0, res.output
    assert os.path.exists(tmp_path / "cli_tiny_curve.csv")
    assert "cli_tiny:" in res.output


def test_cli_verify_empty_manifest(tmp_path):
    manifest = tmp_path / "empty.json"
    manifest.write_text(json.dumps({"version": 1, "scenarios": []}))
    res = CliRunner().invoke(cli_main, ["verify", str(manifest)])
    assert res.exit_code == 0
    assert "trivial pass" in res.output


def test_cli_sweep_scaling(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        cli_main,
        [
            "sweep-scaling", "--d", "4", "--k", "4",
            "--c-min", "1e6", "--c-max", "1e10", "--points", "9",
            "--out", str(tmp_path),
        ],
    )
    assert res.exit_code == 0, res.output
    assert "slope=" in res.output
    assert os.path.exists(tmp_path / "scaling_sweep.csv")
    res = runner.invoke(
        cli_main,
        ["sweep-scaling", "--d", "4", "--k", "4", "--c-min", "1e6", "--c-max", "1e7"],
    )
    assert res.exit_code != 0


def test_cli_selftest():
    res = CliRunner().invoke(cli_main, ["selftest", "--seed", "7"])
    assert res.exit_code == 0, res.output
    assert res.output.count("pass") >= 4 and "FAIL" not in res.output


@pytest.mark.parametrize(
    "command",
    [["simulate", "CONFIG", "--seed", str(2**64)], ["verify", "desk_suite", "--seed", "-1"],
     ["selftest", "--seed", "-1"]],
    ids=["simulate", "verify", "selftest"],
)
def test_cli_seed_out_of_range_is_one_line_error(command, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config_payload()))
    args = [str(cfg_path) if a == "CONFIG" else a for a in command] + (
        ["--out", str(tmp_path)] if command[0] == "simulate" else []
    )
    res = CliRunner().invoke(cli_main, args)
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: ") and len(res.output.splitlines()) == 1
    assert "master_seed must be a 64-bit unsigned integer" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "command",
    [["simulate", "CONFIG"], ["bounds", "logreg_error", "--params", '{"d": 3, "T": 5}'],
     ["verify", "desk_suite"],
     ["sweep-scaling", "--d", "4", "--k", "4", "--c-min", "1e6", "--c-max", "1e10"]],
    ids=["simulate", "bounds", "verify", "sweep-scaling"],
)
def test_cli_out_naming_a_file_is_refused_before_any_work(command, tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config_payload()))
    afile = tmp_path / "afile"
    afile.write_text("kept")
    monkeypatch.setattr(harness, "run_scenario", None)  # any run would raise
    monkeypatch.setattr(harness, "verify_suite", None)
    args = [str(cfg_path) if a == "CONFIG" else a for a in command] + ["--out", str(afile)]
    res = CliRunner().invoke(cli_main, args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    errors = [line for line in res.output.splitlines() if line.startswith("Error: ")]
    assert errors == [f"Error: Invalid value for '--out': Directory '{afile}' is a file."]
    assert "Traceback" not in res.output and afile.read_text() == "kept"


# (d, K, c_min, c_max) outside the sweep's domain -> the start of its message.
_GRID = "budget grid must be positive, finite and span at least 3 decades"
BAD_SWEEPS = {
    "d_zero": ((0, 4.0, 1e6, 1e10), "the scaling bound requires d >= 1"),
    "k_zero": ((4, 0.0, 1e6, 1e10), "the scaling bound requires n >= 3, K >= 2"),
    "k_below_two": ((4, 1.5, 1e6, 1e10), "the scaling bound requires n >= 3, K >= 2"),
    "k_nan": ((4, math.nan, 1e6, 1e10), "the scaling bound requires n >= 3, K >= 2"),
    "k_inf": ((4, math.inf, 1e6, 1e10), "the scaling bound requires n >= 3, K >= 2"),
    "c_min_zero": ((4, 4.0, 0.0, 1e10), _GRID),
    "c_min_nan": ((4, 4.0, math.nan, 1e10), _GRID),
    "c_max_inf": ((4, 4.0, 1e6, math.inf), _GRID),
    "no_feasible_budget": ((4, 4.0, 1e-3, 1.0), "0 of the 9 budgets admit a width n >= 3"),
    "two_feasible_budgets": ((4, 4.0, 0.1, 100.0), "2 of the 9 budgets admit a width n >= 3"),
}


@pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
def test_sweep_scaling_refuses_inputs_outside_the_bound_domain(case):
    (d, K, c_min, c_max), message = BAD_SWEEPS[case]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        harness.sweep_scaling(d, K, c_min, c_max, 9)
    res = CliRunner().invoke(cli_main, [
        "sweep-scaling", "--d", str(d), "--k", str(K), "--c-min", str(c_min), "--c-max", str(c_max),
    ])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"Error: {message}") and len(res.output.splitlines()) == 1


# ---------------------------------------------------------------------------
# bad configs fail at parse time with one line
# ---------------------------------------------------------------------------


def _config_payload(**changes):
    payload = {
        "version": 1,
        "scenario_id": "bad",
        "process": {"kind": "linreg", "d": 2, "noise_var": 0.25},
        "predictor": {"kind": "conjugate"},
        "horizons": [3, 6],
        "replicates": 4,
        "master_seed": 1,
        "bounds": ["linreg_error"],
    }
    payload.update(changes)
    return payload


BAD_CONFIGS = {
    "missing_process_key": (
        _config_payload(process={"kind": "linreg", "noise_var": 0.25}),
        "missing key.*: d",
    ),
    "zero_horizon": (_config_payload(horizons=[0]), "horizons"),
    "predictor_not_object": (_config_payload(predictor="conjugate"), "predictor must be"),
    "null_value": (_config_payload(replicates=None), "key 'replicates' is null"),
    "null_process_value": (
        _config_payload(process={"kind": "linreg", "d": None, "noise_var": 0.25}),
        "process 'linreg' key 'd' is null",
    ),
    "wrong_length_prior": (
        _config_payload(predictor={"kind": "misspecified_conjugate", "prior_diag": [1.0]}),
        "key 'prior_diag' must list d = 2 numbers",
    ),
    "null_in_prior": (
        _config_payload(predictor={"kind": "misspecified_conjugate", "prior_mean": [0.0, None]}),
        "key 'prior_mean'.*not a finite number",
    ),
    "bool_in_prior": (
        _config_payload(predictor={"kind": "misspecified_conjugate", "prior_mean": [True, 0.0]}),
        "key 'prior_mean': True is not a finite number",
    ),
    "negative_prior_variance": (
        _config_payload(predictor={"kind": "misspecified_conjugate", "prior_diag": [1.0, -1.0]}),
        "key 'prior_diag' must be nonnegative",
    ),
    "string_bool": (
        _config_payload(
            process={"kind": "dirichlet", "d": 3, "scale": 2.0, "noise_var": 1.0,
                     "plus_one_scaling": "false"},
        ),
        "process 'dirichlet' key 'plus_one_scaling': 'false' is not a boolean",
    ),
    "fractional_int": (
        _config_payload(process={"kind": "linreg", "d": 3.7, "noise_var": 0.25}),
        "process 'linreg' key 'd': 3.7 is not an integer",
    ),
    "fractional_horizon": (
        _config_payload(horizons=[3, 6.5]), "config key 'horizons': 6.5 is not an integer"
    ),
    "bool_float": (
        _config_payload(process={"kind": "linreg", "d": 2, "noise_var": True}),
        "process 'linreg' key 'noise_var': True is not a finite number",
    ),
    "nan_float": (
        _config_payload(process={"kind": "linreg", "d": 2, "noise_var": "nan"}),
        "process 'linreg' key 'noise_var': 'nan' is not a finite number",
    ),
    "infinite_predictor_float": (
        _config_payload(predictor={"kind": "ensemble", "resample_ess_frac": "inf"}),
        "predictor 'ensemble' key 'resample_ess_frac': 'inf' is not a finite number",
    ),
    "bool_se_multiplier": (
        _config_payload(se_multiplier=False), "config key 'se_multiplier': False is not a finite"
    ),
    "numeric_scenario_id": (
        _config_payload(scenario_id=7), "config key 'scenario_id': 7 is not a string"
    ),
    "numeric_bound_name": (_config_payload(bounds=[3]), "config key 'bounds': 3 is not a string"),
    "string_horizons": (
        _config_payload(horizons="36"), "config key 'horizons': '36' is not a list"
    ),
    "negative_prior_var_conjugate": (
        _config_payload(process={"kind": "linreg", "d": 2, "noise_var": 0.25, "prior_var": -1}),
        "linreg process key 'prior_var' must be nonnegative",
    ),
    "negative_prior_var_ensemble": (
        _config_payload(
            process={"kind": "linreg", "d": 2, "noise_var": 0.25, "prior_var": -1},
            predictor={"kind": "ensemble", "size": 16},
        ),
        "linreg process key 'prior_var' must be nonnegative",
    ),
    "negative_prior_var_omniscient": (
        _config_payload(
            process={"kind": "linreg", "d": 2, "noise_var": 0.25, "prior_var": -1},
            predictor={"kind": "omniscient"},
        ),
        "linreg process key 'prior_var' must be nonnegative",
    ),
    "tail_tol_above_one": (
        _config_payload(
            process={"kind": "dirichlet", "d": 2, "scale": 2.0, "noise_var": 1.0, "tail_tol": 2},
            predictor={"kind": "omniscient"},
            bounds=["dirichlet_error"],
        ),
        r"dirichlet process key 'tail_tol' must lie in \(0, 1\)",
    ),
    "cover_eps_too_small": (
        _config_payload(
            process={"kind": "dirichlet", "d": 2, "scale": 2.0, "noise_var": 1.0},
            predictor={"kind": "misspecified_width", "n": 3, "eps": 0.01, "size": 16},
            bounds=["dirichlet_error"],
        ),
        "misspecified_width predictor key 'eps': eps must be >= 0.05",
    ),
    "cover_dimension_too_large": (
        _config_payload(
            process={"kind": "dirichlet", "d": 4, "scale": 2.0, "noise_var": 1.0},
            predictor={"kind": "misspecified_width", "n": 3, "eps": 0.3, "size": 16},
            bounds=["dirichlet_error"],
        ),
        "misspecified_width predictor key 'eps': covers are built only for d <= 3",
    ),
    "width_predictor_on_logreg": (
        _config_payload(
            process={"kind": "logreg", "d": 2},
            predictor={"kind": "misspecified_width", "n": 3},
            bounds=["logreg_error"],
        ),
        "misspecified_width predictor applies to the dirichlet process",
    ),
    "foreign_bound": (_config_payload(bounds=["logreg_error"]), "logreg_error"),
    "repeated_bound": (
        _config_payload(bounds=["linreg_error", "linreg_error"]),
        "bound 'linreg_error' is listed more than once",
    ),
    "negative_master_seed": (
        _config_payload(master_seed=-3), "master_seed must be a 64-bit unsigned integer"
    ),
    "meta_process": (
        _config_payload(
            process={"kind": "linrep", "d": 6, "r": 2, "tasks": 4},
            predictor={"kind": "ensemble", "size": 16},
            bounds=[],
        ),
        "meta_error_split",
    ),
    "config_not_object": ([1, 2], r"config must be a JSON object, not \[1, 2\]"),
    "escaping_scenario_id": (
        _config_payload(scenario_id="../escaped"), r"scenario_id '\.\./escaped' must name a file"
    ),
    "empty_scenario_id": (_config_payload(scenario_id=""), "scenario_id '' must name a file"),
    "ark_one_embedding": (
        _config_payload(process={"kind": "ark", "d": 2, "context": 2, "phi0": [1.0, 0.0]},
                        bounds=["ark_error"]),
        "ark embeddings phi0 and phi1 must both be given, or neither",
    ),
    **{
        f"embed_seed_{name}": (
            _config_payload(process={"kind": "transformer", "vocab": 3, "attn_dim": 3,
                                     "depth": 1, "context": 2, "embed_seed": seed}),
            f"process 'transformer' key 'embed_seed': {seed} is not a 64-bit unsigned integer",
        )
        for name, seed in (("negative", -1), ("too_large", 2**64))
    },
}


def test_numeric_strings_parse_as_numbers():
    payload = _config_payload(process={"kind": "linreg", "d": "2", "noise_var": "0.25"},
                              se_multiplier="2.5")
    config = harness.parse_config(payload)
    assert config.spec == harness.parse_config(_config_payload()).spec
    assert config.se_multiplier == 2.5


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_parse_config_rejects_bad_config(case):
    payload, message = BAD_CONFIGS[case]
    with pytest.raises(ValueError, match=message):
        harness.parse_config(payload)


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_cli_bad_config_is_one_line_error(case, tmp_path):
    payload, message = BAD_CONFIGS[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"version": 1, "scenarios": [payload]}))
    runner = CliRunner()
    for args in (["simulate", str(cfg_path), "--out", str(tmp_path)], ["verify", str(manifest)]):
        res = runner.invoke(cli_main, args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # a ClickException, not a traceback
        assert res.output.startswith("Error: ") and len(res.output.splitlines()) == 1


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"version": 1, "scenarios": None}, "'scenarios' must be a list"),
        ([1, 2], "manifest must be a JSON object, not [1, 2]"),
        (
            {"version": 1, "scenarios": [
                _config_payload(scenario_id="same"),
                _config_payload(scenario_id="same", process={"kind": "logreg", "d": 2},
                                predictor={"kind": "ensemble", "size": 16},
                                bounds=["logreg_error"]),
            ]},
            "scenario id 'same' is used more than once",
        ),
    ],
    ids=["scenarios_not_list", "manifest_not_object", "repeated_scenario_id"],
)
def test_cli_bad_manifest_is_one_line_error(payload, message, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(payload))
    res = CliRunner().invoke(cli_main, ["verify", str(manifest)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: ") and len(res.output.splitlines()) == 1
    assert message in res.output


def test_cli_simulate_of_a_directory_is_one_line_error(tmp_path):
    res = CliRunner().invoke(cli_main, ["simulate", str(tmp_path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"Error: {tmp_path}: ") and len(res.output.splitlines()) == 1


def test_cli_warns_on_config_without_bounds(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    payload = _config_payload(bounds=[])
    cfg_path.write_text(json.dumps(payload))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"version": 1, "scenarios": [payload]}))
    runner = CliRunner()
    for args in (["simulate", str(cfg_path), "--out", str(tmp_path)], ["verify", str(manifest)]):
        res = runner.invoke(cli_main, args)
        assert res.exit_code == 0, res.output
        assert "warning: scenario bad names no bounds" in res.output
