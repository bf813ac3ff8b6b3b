"""Closed-form estimation-error and rate-distortion bounds.

Pure evaluation of every analytic bound in the library, with validity-domain
checks.  All values are in nats per step unless stated otherwise.  Each bound is
declared once, by `_bound` with its family and side.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .info import lambert_w
from .processes import strict_float, strict_int


@dataclass
class BoundReport:
    bound_id: str
    side: str  # "upper" | "lower"
    params: Dict[str, float]
    value: Optional[float]
    valid: bool
    note: str = ""

    def __post_init__(self):
        if self.side not in ("upper", "lower"):
            raise ValueError("side must be 'upper' or 'lower'")
        if self.valid and (self.value is None or not self.value >= 0):  # NaN fails too
            raise ValueError("valid bounds must carry a nonnegative value")


def _pos(x: float) -> float:
    return x if x > 0 else 0.0


def _finite(value):
    """strict_float's check; an int or float passes unchanged, so an int echoes as an int."""
    number = strict_float(value)
    return value if isinstance(value, (int, float)) else number


# The config rule of a parameter, by its annotation.
_RULES = {"int": strict_int, "float": _finite}


def _read(bound_id: str, fn, params: Dict, *given: str) -> list:
    """fn's arguments but `given`, read from params and checked by their annotation's rule."""
    wanted = [p for p in inspect.signature(fn).parameters.values() if p.name not in given]
    missing = [p.name for p in wanted if p.name not in params]
    if missing:
        raise KeyError(f"bound '{bound_id}' needs parameter(s): {', '.join(missing)}")
    args = []
    for p in wanted:
        try:
            args.append(_RULES[p.annotation](params[p.name]))
        except ValueError as exc:
            raise ValueError(f"parameter '{p.name}': {exc}") from exc
    return args


# Bound id -> (side, declared function) of each side, in declaration order.
_BOUNDS: Dict[str, List[Tuple]] = {}


def _bound(bound_id: str, side: str):
    """Declare one side of the bound family `bound_id`: a rate-distortion function
    (id rd_<kind>, last parameter eps) as it is; any other function, which returns the
    value or a note outside its domain, as the function returning its BoundReport."""

    def declare(fn):
        declared = fn if bound_id.startswith("rd_") else _reporting(bound_id, side, fn)
        _BOUNDS.setdefault(bound_id, []).append((side, declared))
        return declared

    return declare


def _domain(params: Dict) -> str:
    """The note of a parameter outside the domain of every bound: a horizon T or a
    dimension d below 1, a negative mu_sq_norm, or any other parameter at or below 0."""
    for k in ("T", "d"):
        if params.get(k, 1) < 1:
            return f"requires {k} >= 1"
    if params.get("mu_sq_norm", 0) < 0:
        return "requires mu_sq_norm >= 0"
    return next((f"requires {k} > 0" for k, v in params.items()
                 if k not in ("T", "d", "mu_sq_norm") and not v > 0), "")


def _reporting(bound_id: str, side: str, fn):
    """fn, returning the BoundReport whose params are the call's arguments in signature order."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def report(*args, **kwargs) -> BoundReport:
        params = signature.bind(*args, **kwargs).arguments
        value = _domain(params) or fn(*args, **kwargs)
        note = value if isinstance(value, str) else ""
        return BoundReport(bound_id, side, params, None if note else value, not note, note)

    report.__signature__ = signature.replace(return_annotation="BoundReport")
    return report


# ---------------------------------------------------------------------------
# Estimation-error bounds
# ---------------------------------------------------------------------------


@_bound("linreg_error", "lower")
def linreg_error_lower(d: int, noise_var: float, T: int):
    """Lambert-W estimation-error lower bound for the linear-Gaussian model."""
    if d <= 2:
        return "requires d > 2"
    arg = 2.0 * T / (d * (8.0 + d / (d - 2.0) * noise_var))
    return d / (2.0 * T) * lambert_w(arg)


@_bound("linreg_error", "upper")
def linreg_error_upper(d: int, noise_var: float, T: int):
    return _pos(d / (2.0 * T) * math.log(T / (noise_var * d))) + 1.0 / (
        2.0 * T
    ) * math.log1p(d / T)


@_bound("logreg_error", "upper")
def logreg_error_upper(d: int, T: int):
    return d / (2.0 * T) * (1.0 + math.log1p(T / (4.0 * d)))


def _deepnet_param_count(d: int, width: int, depth: int) -> int:
    return (depth - 2) * width**2 + width + d * width


@_bound("deepnet_error", "upper")
def deepnet_error_upper(d: int, width: int, depth: int, noise_var: float, T: int):
    P = _deepnet_param_count(d, width, depth)
    if P <= 0:
        return "nonpositive parameter count"
    return P / (2.0 * T) * (1.0 + math.log1p(2.0 * depth * T / (noise_var * P)))


@_bound("dirichlet_error", "upper")
def dirichlet_error_upper(d: int, K: float, noise_var: float, T: int):
    a = math.log1p(T / (noise_var * d))
    return _pos(K / T * a * math.log(T / (noise_var * d))) + 2.0 * d * K / T * (
        1.0 + a * math.log1p(T / (d * K))
    )


@_bound("ark_error", "upper")
def ark_error_upper(d: int, K: int, T: int):
    return d * K / (2.0 * T) * (1.0 + math.log1p(T / (4.0 * d * K)))


@_bound("transformer_error", "upper")
def transformer_error_upper(d: int, r: int, L: int, K: int, T: int):
    rm = r * max(r, d)
    return rm * L**2 * math.log(8.0 * math.e * K * (1.0 + 16.0 * K)) / T + rm * L * math.log(
        2.0 * K * T**2 / L
    ) / T


@_bound("linrep_error", "upper")
def linrep_error_upper(d: int, r: int, M: int, T: int):
    return linrep_meta_term(d, r, M, T) + linrep_intra_term(r, T)


def linrep_meta_term(d: int, r: int, M: int, T: int) -> float:
    return d * r * math.log(math.e * (1.0 + M / r)) / (2.0 * M * T)


def linrep_intra_term(r: int, T: int) -> float:
    return r * math.log(math.e * (1.0 + 2.0 * T / r)) / (2.0 * T)


@_bound("icl_error", "upper")
def icl_error_upper(d: int, r: int, L: int, K: int, R: float, N: int, M: int, T: int):
    if R > N:
        return "requires R <= N"
    rm = r * max(r, d)
    lnM = math.log1p(M / R)
    t1 = rm * R * L**2 * lnM * math.log(8.0 * K * math.e * (1.0 + 16.0 * K)) / (M * T)
    t2 = rm * R * L * lnM * math.log(2.0 * K * M * T**2 / L) / (M * T)
    t3 = math.log(N) / T
    return t1 + t2 + t3


@_bound("misspec_mean", "upper")
def misspec_mean_upper(mu_sq_norm: float, T: int):
    """Excess-loss bound for inference under a mean-shifted prior."""
    return mu_sq_norm / (2.0 * T)


@_bound("missing_feature", "upper")
def _missing_feature(d: int, noise_var: float, T: int):
    if d < 2:
        return "requires d >= 2"
    return (d - 1.0) / (2.0 * T) * (math.log(T) + 1.0 / (d * noise_var)) + _floor(d, noise_var)


def _floor(d: int, noise_var: float) -> float:
    return 1.0 / (2.0 * d * noise_var)


def missing_feature_upper(d: int, noise_var: float, T: int) -> Tuple[BoundReport, float]:
    """Total-error bound for the agent whose prior omits one feature.

    Returns the report and, separately, the persistent floor 1/(2 d noise_var)
    the bound converges to as T grows.
    """
    report = _missing_feature(d, noise_var, T)
    return report, _floor(d, noise_var) if report.valid else math.nan


# ---------------------------------------------------------------------------
# Rate-distortion bounds H_eps (nats, not per step unless noted)
# ---------------------------------------------------------------------------


@_bound("rd_linreg_upper", "upper")
def linreg_rd_upper(d: int, noise_var: float, eps: float) -> float:
    """Gaussian-quantizer rate; identically 0 above the zero-rate threshold."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps >= 0.5 * math.log1p(1.0 / noise_var):
        return 0.0
    return _pos(0.5 * d * math.log(1.0 / (noise_var * math.expm1(2.0 * eps))))


@_bound("rd_linreg_lower", "lower")
def linreg_rd_lower(d: int, noise_var: float, eps: float) -> float:
    if d <= 2:
        raise ValueError("requires d > 2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _pos(
        0.5 * d * math.log(1.0 / ((8.0 + d / (d - 2.0) * noise_var) * eps))
    )


@_bound("rd_logreg", "upper")
def logreg_rd_upper(d: int, eps: float) -> float:
    return 0.5 * d * math.log1p(1.0 / (8.0 * eps))


@_bound("rd_deepnet", "upper")
def deepnet_rd_upper(d: int, width: int, depth: int, noise_var: float, eps: float) -> float:
    P = _deepnet_param_count(d, width, depth)
    return 0.5 * P * math.log1p(1.0 / (noise_var * math.expm1(2.0 * eps / depth)))


@_bound("rd_dirichlet", "upper")
def dirichlet_rd_upper(d: int, K: float, noise_var: float, eps: float) -> float:
    a = math.log1p(2.0 / (noise_var * eps))
    return _pos(K * a * math.log(2.0 * K / (noise_var * eps))) + 2.0 * d * K * a * math.log1p(
        4.0 / eps
    )


@_bound("rd_ark", "upper")
def ark_rd_upper(d: int, K: int, eps: float) -> float:
    return 0.5 * d * K * math.log1p(1.0 / (8.0 * eps))


@_bound("rd_transformer", "upper")
def transformer_rd_upper(d: int, r: int, L: int, K: int, T: int, eps: float) -> float:
    rm = r * max(r, d)
    return rm * L * math.log1p(rm * K * L * T * (8.0 * K * (1.0 + 16.0 * K)) ** L / eps)


@_bound("rd_linrep_meta", "upper")
def linrep_meta_rd_upper(d: int, r: int, M: int, T: int, eps: float) -> float:
    """Per-step meta rate for the representation process (already /MT)."""
    return d * r / (2.0 * M * T) * math.log1p(
        d / (r * math.expm1(2.0 * eps * T / r))
    )


@_bound("rd_linrep_intra", "upper")
def linrep_intra_rd_upper(r: int, eps: float) -> float:
    return 0.5 * r * math.log1p(1.0 / eps)


@_bound("rd_icl", "upper")
def icl_rd_upper(
    d: int, r: int, L: int, K: int, R: float, N: int, M: int, T: int, eps: float
) -> float:
    rm = r * max(r, d)
    return M * math.log(N) + R * math.log1p(M / R) * rm * L * math.log1p(
        rm * K * L * T * (8.0 * K * (1.0 + 16.0 * K)) ** L / eps
    )


def _rate_args(kind: str, params: Dict[str, float], *given: str):
    """The rate function of `kind` and its arguments but `given`, read from params."""
    if f"rd_{kind}" not in _BOUNDS:
        raise KeyError(f"unknown rate-distortion bound: {kind}")
    [(_, rate)] = _BOUNDS[f"rd_{kind}"]
    return rate, _read_rate(f"rd_{kind}", rate, params, *given)


def _read_rate(bound_id: str, rate, params: Dict, *given: str) -> list:
    """_read of a rate function's arguments, refusing any outside the domain (`_domain`)."""
    args = _read(bound_id, rate, params, *given)
    note = _domain(dict(zip(inspect.signature(rate).parameters, args)))
    if note:
        raise ValueError(note)
    return args


# Distortion grid of the sandwich bounds: 64 points per decade over [1e-6, 10].
EPS_GRID = np.geomspace(1e-6, 10.0, 449)


def rd_sandwich_upper(kind: str, params: Dict[str, float], T: int) -> Tuple[float, float]:
    """inf over the grid of H_eps/T + eps; returns (value, argmin eps)."""
    rate, args = _rate_args(kind, params, "eps")
    best, best_eps = math.inf, math.nan
    for eps in EPS_GRID:
        v = rate(*args, float(eps)) / T + float(eps)
        if v < best:
            best, best_eps = v, float(eps)
    return best, best_eps


def rd_sandwich_lower(kind: str, params: Dict[str, float], T: int) -> float:
    """sup over the grid of min(H_eps/T, eps): an error lower bound only when H_eps is
    a rate-distortion lower bound, and only `linreg_lower` is one.  For other kinds it
    bounds nothing: `icl` at T=100 gives 10.0, the last EPS_GRID point (upper: 90.4)."""
    rate, args = _rate_args(kind, params, "eps")
    best = 0.0
    for eps in EPS_GRID:
        v = min(rate(*args, float(eps)) / T, float(eps))
        best = max(best, v)
    return best


# ---------------------------------------------------------------------------
# Compute-optimal scaling
# ---------------------------------------------------------------------------


def scaling_domain(d: int, K: float, n: float = 3.0) -> str:
    """'' where the width-n scaling bound is defined at (d, K), else the note saying why not."""
    if n < 3 or not 2 <= K < math.inf:
        return "requires n >= 3, K >= 2"
    return "" if d >= 1 else "requires d >= 1"


@_bound("scaling_loss", "upper")
def scaling_bound_eval(d: int, K: float, n: int, T: float):
    """Width-n misspecified-learner loss bound: estimation term plus 3K/n."""
    return scaling_domain(d, K, n) or _scaling_loss(d, K, n, T)


def _scaling_loss(d: int, K: float, n: float, T: float) -> float:
    est = d * K * math.log1p(n / K) * (
        math.log(math.e * 36.0 * T * K) + 2.0 / d * math.log(2.0 * n)
    ) / (2.0 * T)
    return est + 3.0 * K / n


def _scaling_value(d: int, K: float, n: float, C: float) -> float:
    """The loss bound at width n when the whole budget C buys T = C / (d n) steps."""
    return _scaling_loss(d, K, n, C / (d * n))


def scaling_optimal_width(d: int, K: float, C: float) -> Tuple[int, float, float]:
    """Integer width minimizing the loss bound under the budget d * n * T <= C.

    Golden-section search on the continuous relaxation in ln n, then an exact
    scan over the +-8 integer neighborhood.  Returns (n_star, T_star, value).
    """
    note = scaling_domain(d, K)
    if note:
        raise ValueError(f"the scaling bound {note}")
    if not math.isfinite(C):
        raise ValueError(f"budget C must be a finite number, not {C}")
    n_max = C / (3.0 * d)  # T >= 3 keeps the log arguments sane
    if n_max < 3.0:
        raise ValueError("budget too small for any feasible width")
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(3.0), math.log(n_max)
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    f1 = _scaling_value(d, K, math.exp(c1), C)
    f2 = _scaling_value(d, K, math.exp(c2), C)
    for _ in range(200):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = _scaling_value(d, K, math.exp(c1), C)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = _scaling_value(d, K, math.exp(c2), C)
        if b - a < 1e-12:
            break
    n_cont = math.exp(0.5 * (a + b))
    best_n, best_v = None, math.inf
    lo_n = max(3, int(math.floor(n_cont)) - 8)
    hi_n = min(int(math.floor(n_max)), int(math.ceil(n_cont)) + 8)
    for n in range(lo_n, hi_n + 1):
        v = _scaling_value(d, K, float(n), C)
        if v < best_v:
            best_n, best_v = n, v
    return best_n, C / (d * best_n), best_v


# ---------------------------------------------------------------------------
# Name-based dispatch
# ---------------------------------------------------------------------------


def evaluate_bound(bound_id: str, params: Dict[str, float]) -> List[BoundReport]:
    """Evaluate a bound family by id from a flat parameter dict.

    Estimation-error ids: linreg_error, logreg_error, deepnet_error,
    dirichlet_error, ark_error, transformer_error, linrep_error, icl_error,
    misspec_mean, missing_feature, scaling_loss.  Rate-distortion ids use the
    prefix rd_ (e.g. rd_linreg_upper) and require an "eps" entry.  Unknown ids
    and missing parameters raise KeyError; the message names the missing keys.
    A parameter its config rule refuses raises a ValueError that names it.
    """
    if bound_id not in _BOUNDS:
        raise KeyError(f"unknown bound_id: {bound_id}")
    if not bound_id.startswith("rd_"):
        return [report(*_read(bound_id, report, params)) for _, report in _BOUNDS[bound_id]]
    [(side, rate)] = _BOUNDS[bound_id]
    value = rate(*_read_rate(bound_id, rate, params))
    return [BoundReport(bound_id, side, dict(params), value, True)]
