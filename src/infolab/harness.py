"""Scenario orchestration: configs, verification, sweeps, and file output.

Scenario configs are versioned JSON; unknown keys are rejected so typos fail
loudly.  All file writes are atomic (temp file + rename) and floats are
emitted with 17 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds as bnd
from .estimators import ErrorCurve, aggregate_error_curve, score_rollouts
from .predictors import PREDICTOR_KINDS, Omniscient
from .processes import (
    PROCESS_KINDS, Process, irreducible_rate, strict_float, strict_int, strict_list, strict_str,
)
from .rng import RngStream, SeedSpec

CONFIG_VERSION = 1


def _reject_unknown(payload: Dict, allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) in {context}: {', '.join(unknown)}")


def _require(payload: Dict, keys: Sequence[str], context: str) -> None:
    missing = [k for k in keys if k not in payload]
    if missing:
        raise ValueError(f"missing key(s) in {context}: {', '.join(missing)}")


def _convert(convert, value, key: str, context: str):
    """convert(value), failing with a ValueError that names the key."""
    if value is None:
        raise ValueError(f"{context} key '{key}' is null")
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{context} key '{key}': {exc}") from exc


def _check_object(payload, context: str) -> None:
    if not isinstance(payload, dict):
        raise ValueError(f"{context} must be a JSON object, not {payload!r}")


def _parse_kind(payload: Dict, kinds: Dict, context: str, *spec):
    """Build the class that payload["kind"] names in `kinds` from its config table."""
    _check_object(payload, context)
    kind = payload.get("kind")
    if kind not in kinds:
        raise ValueError(f"unknown {context} kind: {kind}")
    cls = kinds[kind]
    _reject_unknown(payload, ["kind", *cls.config], context)
    context = f"{context} '{kind}'"
    _require(payload, cls.required(), context)
    return cls.from_config(
        {k: _convert(cv, payload[k], k, context) for k, cv in cls.config.items() if k in payload},
        *spec,
    )


def parse_process(payload: Dict) -> Process:
    """Build a process spec from its JSON form."""
    return _parse_kind(payload, PROCESS_KINDS, "process")


def parse_predictor(payload: Dict, spec: Process):
    """Build a predictor kind from its JSON form, given the process spec."""
    return _parse_kind(payload, PREDICTOR_KINDS, "predictor", spec)


@dataclass
class ScenarioConfig:
    scenario_id: str
    spec: Process
    predictor: object  # a predictor kind from infolab.predictors
    horizons: List[int]
    replicates: int
    master_seed: int
    bound_ids: List[str] = field(default_factory=list)
    se_multiplier: float = 3.0

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2")
        if not self.horizons or self.horizons[0] < 1:
            raise ValueError("horizons must be a non-empty list of positive integers")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError("horizons must be strictly increasing")
        if self.spec.meta:
            raise ValueError(
                f"{type(self.spec).__name__} is a meta process and cannot run as a "
                "scenario; use estimators.meta_error_split"
            )
        SeedSpec(self.master_seed)  # refuses a seed outside its range
        for i, bound_id in enumerate(self.bound_ids):
            if bound_id in self.bound_ids[:i]:
                raise ValueError(f"bound '{bound_id}' is listed more than once")
            if bound_id != self.spec.bound_id:
                raise ValueError(
                    f"bound '{bound_id}' does not apply to process '{self.spec.kind}' "
                    f"(its bound family is '{self.spec.bound_id}')"
                )


# Conversions of the config's scalar and list values.
CONFIG_VALUES = {
    "scenario_id": strict_str,
    "horizons": lambda v: [strict_int(t) for t in strict_list(v)],
    "replicates": strict_int,
    "master_seed": strict_int,
    "bounds": lambda v: [strict_str(b) for b in strict_list(v)],
    "se_multiplier": strict_float,
}
CONFIG_KEYS = ["version", "process", "predictor", *CONFIG_VALUES]


def parse_config(payload: Dict) -> ScenarioConfig:
    """Parse and validate a scenario config dict."""
    _check_object(payload, "config")
    if payload.get("version") != CONFIG_VERSION:
        raise ValueError("config version missing or unsupported")
    _reject_unknown(payload, CONFIG_KEYS, "config")
    _require(
        payload,
        ["scenario_id", "process", "predictor", "horizons", "replicates", "master_seed"],
        "config",
    )
    values = {
        k: _convert(cv, payload[k], k, "config") for k, cv in CONFIG_VALUES.items() if k in payload
    }
    spec = parse_process(payload["process"])
    bound_ids = values.pop("bounds", [])
    predictor = parse_predictor(payload["predictor"], spec)
    return ScenarioConfig(spec=spec, predictor=predictor, bound_ids=bound_ids, **values)


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(json.load(f))


# ---------------------------------------------------------------------------
# Bound lookup for verification
# ---------------------------------------------------------------------------


def bounds_for(spec: Process, bound_id: str, T: int) -> List[bnd.BoundReport]:
    """Evaluate the process's bound family at horizon T: upper side first,
    then the lower side where it is valid."""
    if bound_id != spec.bound_id:
        raise ValueError(f"unknown or incompatible bound_id: {bound_id}")
    reports = bnd.evaluate_bound(bound_id, {**spec.bound_params(), "T": T})
    upper = [r for r in reports if r.side == "upper"]
    return upper + [r for r in reports if r.side == "lower" and r.valid]


@dataclass
class VerificationRow:
    scenario_id: str
    horizon: int
    bound_id: str
    side: str
    empirical: float
    std_err: float
    bound: float
    passed: bool
    margin: float


@dataclass
class VerificationReport:
    rows: List[VerificationRow]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def verify_curve(
    config: ScenarioConfig, curve: ErrorCurve
) -> Tuple[VerificationReport, List[bnd.BoundReport]]:
    """Check the empirical curve against every requested bound."""
    rows: List[VerificationRow] = []
    reports: List[bnd.BoundReport] = []
    k = config.se_multiplier
    for i, T in enumerate(curve.horizons):
        emp = float(curve.mean_error[i])
        se = float(curve.std_err[i])
        for bound_id in config.bound_ids:
            for rep in bounds_for(config.spec, bound_id, T):
                reports.append(rep)
                if not rep.valid:
                    continue
                if rep.side == "upper":
                    margin = rep.value - (emp - k * se)
                else:
                    margin = (emp + k * se) - rep.value
                rows.append(
                    VerificationRow(
                        scenario_id=config.scenario_id,
                        horizon=T,
                        bound_id=rep.bound_id,
                        side=rep.side,
                        empirical=emp,
                        std_err=se,
                        bound=rep.value,
                        passed=margin >= 0,
                        margin=margin,
                    )
                )
    return VerificationReport(rows=rows), reports


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def run_replicates(
    spec: Process, kinds: Sequence, T: int, replicates: int, stream: RngStream
) -> np.ndarray:
    """(replicates, len(kinds), T * tasks) losses; replicate i reads stream path ("rep", i).

    Rolled out and scored a chunk of replicates at a time (`estimators.score_rollouts`).
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, not {replicates}")
    return score_rollouts(spec, kinds, T, [stream.derive(("rep", i)) for i in range(replicates)])


def excess_over_omniscient(spec: Process, kind, T: int, R: int, stream: RngStream) -> np.ndarray:
    """(R, T * tasks) losses of `kind` minus an omniscient's on the same R rollouts."""
    losses = run_replicates(spec, (kind, Omniscient()), T, R, stream)
    return losses[:, 0] - losses[:, 1]


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    curve: ErrorCurve
    bound_reports: List[bnd.BoundReport]
    verification: VerificationReport


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Simulate, aggregate, and verify one scenario: the predictor's excess loss over
    the spec's irreducible rate, or where it has none over an omniscient on the same rollout."""
    stream = RngStream(SeedSpec(config.master_seed, (("scenario", 0),)))
    T = max(config.horizons)
    spec, kind, R = config.spec, config.predictor, config.replicates
    irr = irreducible_rate(spec)
    if irr is None:
        excess = excess_over_omniscient(spec, kind, T, R, stream)
    else:
        excess = run_replicates(spec, (kind,), T, R, stream)[:, 0] - irr
    curve = aggregate_error_curve(excess, config.horizons, scenario_id=config.scenario_id)
    verification, reports = verify_curve(config, curve)
    return ScenarioResult(
        config=config, curve=curve, bound_reports=reports, verification=verification
    )


# ---------------------------------------------------------------------------
# Built-in scenarios and the desk manifest
# ---------------------------------------------------------------------------


# Built-in scenario -> (process, predictor, horizons, replicates, bound id).
BUILTIN_SCENARIOS = {
    "linreg_baseline": ({"kind": "linreg", "d": 5, "noise_var": 0.25}, {"kind": "conjugate"},
                        [20, 100, 500], 2000, "linreg_error"),
    "logreg_small": ({"kind": "logreg", "d": 3}, {"kind": "ensemble", "size": 1024},
                     [50, 200], 200, "logreg_error"),
    "ark_small": ({"kind": "ark", "d": 2, "context": 2}, {"kind": "ensemble", "size": 1024},
                  [50, 200], 200, "ark_error"),
}


def builtin_scenario(name: str, master_seed: int = 20240817) -> ScenarioConfig:
    """Named scenario configs shipped with the library."""
    if name not in BUILTIN_SCENARIOS:
        raise ValueError(f"unknown built-in scenario: {name}")
    process, predictor, horizons, replicates, bound_id = BUILTIN_SCENARIOS[name]
    return parse_config(
        {
            "version": CONFIG_VERSION,
            "scenario_id": name,
            "process": process,
            "predictor": predictor,
            "horizons": horizons,
            "replicates": replicates,
            "master_seed": master_seed,
            "bounds": [bound_id],
        }
    )


DESK_SUITE = list(BUILTIN_SCENARIOS)


def load_manifest(name_or_path: str, master_seed: int = 20240817) -> List[ScenarioConfig]:
    """Resolve a manifest: the built-in name or a JSON file of configs."""
    if name_or_path == "desk_suite":
        return [builtin_scenario(n, master_seed) for n in DESK_SUITE]
    with open(name_or_path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    _check_object(payload, "manifest")
    if payload.get("version") != CONFIG_VERSION:
        raise ValueError("manifest version missing or unsupported")
    _reject_unknown(payload, ["version", "scenarios"], "manifest")
    if not isinstance(payload.get("scenarios"), list):
        raise ValueError("manifest key 'scenarios' must be a list of scenario configs")
    return [parse_config(p) for p in payload["scenarios"]]


def verify_suite(configs: Sequence[ScenarioConfig]) -> Tuple[bool, List[ScenarioResult]]:
    """Run every scenario; overall pass iff every verification row passes."""
    results = [run_scenario(c) for c in configs]
    ok = all(r.verification.passed for r in results)
    return ok, results


# ---------------------------------------------------------------------------
# Scaling sweep
# ---------------------------------------------------------------------------


@dataclass
class ScalingSweep:
    c_values: np.ndarray
    n_star: np.ndarray
    t_star: np.ndarray
    bound_value: np.ndarray
    slope: float
    slope_half_width: float


def sweep_scaling(d: int, K: float, c_min: float, c_max: float, points: int) -> ScalingSweep:
    """Compute-optimal width along a FLOP-budget grid and the fitted slope."""
    note = bnd.scaling_domain(d, K)
    if note:
        raise ValueError(f"the scaling bound {note}, not d={d}, K={K}")
    if not (0 < c_min and c_max < math.inf and c_max / c_min >= 10.0**3):
        raise ValueError("budget grid must be positive, finite and span at least 3 decades")
    if points < 3:
        raise ValueError("need at least 3 grid points")
    rows = []  # (C, n_star, T_star, value) of each budget that admits a width n >= 3
    for C in map(float, np.geomspace(c_min, c_max, points)):
        try:
            rows.append((C, *bnd.scaling_optimal_width(d, K, C)))
        except ValueError:
            continue
    if len(rows) < 3:
        raise ValueError(f"{len(rows)} of the {points} budgets admit a width n >= 3; a fit needs 3")
    cs, ns, ts, vs = (np.array(column) for column in zip(*rows))
    coef, cov = np.polyfit(np.log(cs), np.log(ns.astype(float)), 1, cov=True)
    return ScalingSweep(
        c_values=cs,
        n_star=ns,
        t_star=ts,
        bound_value=vs,
        slope=float(coef[0]),
        slope_half_width=float(1.96 * math.sqrt(cov[0, 0])),
    )


# ---------------------------------------------------------------------------
# Atomic output
# ---------------------------------------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_cell(value) -> str:
    """One CSV cell: true/false, floats with 17 significant digits, None empty."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_text(header: List[str], rows: List[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def bounds_csv(reports: Sequence[bnd.BoundReport]) -> str:
    """Bound reports as CSV text, their parameters as one sorted JSON cell."""
    return _csv_text(
        ["bound_id", "side", "params_json", "value", "valid"],
        [[r.bound_id, r.side, json.dumps(r.params, sort_keys=True), r.value, r.valid]
         for r in reports],
    )


def _record(obj, *drop: str) -> Dict:
    """A dataclass as a JSON-ready dict, without the fields in `drop`."""
    return {k: v for k, v in asdict(obj).items() if k not in drop}


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, default=lambda a: a.tolist())


def write_scenario_outputs(result: ScenarioResult, out_dir: str, fmt: str = "csv") -> List[str]:
    """Write curve, bound, and verification files; returns written paths."""
    sid = result.config.scenario_id
    rows = result.verification.rows
    if fmt == "csv":
        curve = result.curve
        header = [f.name for f in fields(VerificationRow)]
        texts = {
            f"{sid}_curve.csv": _csv_text(
                ["horizon", "mean_error", "std_err", "replicates", "scenario_id"],
                [[t, mean, se, curve.replicates, curve.scenario_id]
                 for t, mean, se in zip(curve.horizons, curve.mean_error, curve.std_err)],
            ),
            f"{sid}_bounds.csv": bounds_csv(result.bound_reports),
            f"{sid}_verification.csv": _csv_text(
                header, [[getattr(r, name) for name in header] for r in rows]
            ),
        }
    elif fmt == "json":
        payload = {
            "version": CONFIG_VERSION,
            "scenario_id": sid,
            "curve": _record(result.curve, "scenario_id"),
            "bounds": [_record(r, "note") for r in result.bound_reports],
            "verification": [_record(r, "scenario_id") for r in rows],
        }
        texts = {f"{sid}.json": _json_text(payload)}
    else:
        raise ValueError("format must be 'csv' or 'json'")
    paths = [os.path.join(out_dir, name) for name in texts]
    for path, text in zip(paths, texts.values()):
        atomic_write_text(path, text)
    return paths


def write_sweep_output(sweep: ScalingSweep, out_dir: str, fmt: str = "csv") -> str:
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    header = ["C", "n_star", "T_star", "bound"]
    rows = [
        [float(c), int(n), float(t), float(v)]
        for c, n, t, v in zip(sweep.c_values, sweep.n_star, sweep.t_star, sweep.bound_value)
    ]
    path = os.path.join(out_dir, f"scaling_sweep.{fmt}")
    if fmt == "json":
        payload = {
            "version": CONFIG_VERSION,
            "rows": [dict(zip(header, row)) for row in rows],
            "slope": sweep.slope,
            "slope_half_width": sweep.slope_half_width,
        }
        atomic_write_text(path, _json_text(payload))
        return path
    rows.append(["slope", sweep.slope, "half_width", sweep.slope_half_width])
    atomic_write_text(path, _csv_text(header, rows))
    return path
