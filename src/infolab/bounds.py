"""Closed-form estimation-error and rate-distortion bounds.

Pure evaluation of every analytic bound in the library, with validity-domain
checks.  All values are in nats per step unless stated otherwise.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .info import lambert_w


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
        if self.valid and (self.value is None or self.value < 0):
            raise ValueError("valid bounds must carry a nonnegative value")


def _pos(x: float) -> float:
    return x if x > 0 else 0.0


# ---------------------------------------------------------------------------
# Estimation-error bounds
# ---------------------------------------------------------------------------


def linreg_error_lower(d: int, noise_var: float, T: int) -> BoundReport:
    """Lambert-W estimation-error lower bound for the linear-Gaussian model."""
    params = {"d": d, "noise_var": noise_var, "T": T}
    if d <= 2:
        return BoundReport("linreg_error", "lower", params, None, False, "requires d > 2")
    arg = 2.0 * T / (d * (8.0 + d / (d - 2.0) * noise_var))
    value = d / (2.0 * T) * lambert_w(arg)
    return BoundReport("linreg_error", "lower", params, value, True)


def linreg_error_upper(d: int, noise_var: float, T: int) -> BoundReport:
    params = {"d": d, "noise_var": noise_var, "T": T}
    value = _pos(d / (2.0 * T) * math.log(T / (noise_var * d))) + 1.0 / (
        2.0 * T
    ) * math.log1p(d / T)
    return BoundReport("linreg_error", "upper", params, value, True)


def logreg_error_upper(d: int, T: int) -> BoundReport:
    params = {"d": d, "T": T}
    value = d / (2.0 * T) * (1.0 + math.log1p(T / (4.0 * d)))
    return BoundReport("logreg_error", "upper", params, value, True)


def deepnet_param_count(d: int, width: int, depth: int) -> int:
    return (depth - 2) * width**2 + width + d * width


def deepnet_error_upper(d: int, width: int, depth: int, noise_var: float, T: int) -> BoundReport:
    params = {"d": d, "width": width, "depth": depth, "noise_var": noise_var, "T": T}
    P = deepnet_param_count(d, width, depth)
    if P <= 0:
        return BoundReport(
            "deepnet_error", "upper", params, None, False, "nonpositive parameter count"
        )
    value = P / (2.0 * T) * (1.0 + math.log1p(2.0 * depth * T / (noise_var * P)))
    return BoundReport("deepnet_error", "upper", params, value, True)


def dirichlet_error_upper(d: int, K: float, noise_var: float, T: int) -> BoundReport:
    params = {"d": d, "K": K, "noise_var": noise_var, "T": T}
    a = math.log1p(T / (noise_var * d))
    value = _pos(K / T * a * math.log(T / (noise_var * d))) + 2.0 * d * K / T * (
        1.0 + a * math.log1p(T / (d * K))
    )
    return BoundReport("dirichlet_error", "upper", params, value, True)


def ark_error_upper(d: int, K: int, T: int) -> BoundReport:
    params = {"d": d, "K": K, "T": T}
    value = d * K / (2.0 * T) * (1.0 + math.log1p(T / (4.0 * d * K)))
    return BoundReport("ark_error", "upper", params, value, True)


def transformer_error_upper(d: int, r: int, L: int, K: int, T: int) -> BoundReport:
    params = {"d": d, "r": r, "L": L, "K": K, "T": T}
    rm = r * max(r, d)
    value = rm * L**2 * math.log(8.0 * math.e * K * (1.0 + 16.0 * K)) / T + rm * L * math.log(
        2.0 * K * T**2 / L
    ) / T
    return BoundReport("transformer_error", "upper", params, value, True)


def linrep_error_upper(d: int, r: int, M: int, T: int) -> BoundReport:
    params = {"d": d, "r": r, "M": M, "T": T}
    value = linrep_meta_term(d, r, M, T) + linrep_intra_term(r, T)
    return BoundReport("linrep_error", "upper", params, value, True)


def linrep_meta_term(d: int, r: int, M: int, T: int) -> float:
    return d * r * math.log(math.e * (1.0 + M / r)) / (2.0 * M * T)


def linrep_intra_term(r: int, T: int) -> float:
    return r * math.log(math.e * (1.0 + 2.0 * T / r)) / (2.0 * T)


def icl_error_upper(
    d: int, r: int, L: int, K: int, R: float, N: int, M: int, T: int
) -> BoundReport:
    params = {"d": d, "r": r, "L": L, "K": K, "R": R, "N": N, "M": M, "T": T}
    if R > N:
        return BoundReport("icl_error", "upper", params, None, False, "requires R <= N")
    rm = r * max(r, d)
    lnM = math.log1p(M / R)
    t1 = rm * R * L**2 * lnM * math.log(8.0 * K * math.e * (1.0 + 16.0 * K)) / (M * T)
    t2 = rm * R * L * lnM * math.log(2.0 * K * M * T**2 / L) / (M * T)
    t3 = math.log(N) / T
    return BoundReport("icl_error", "upper", params, t1 + t2 + t3, True)


def misspec_mean_upper(mu_sq_norm: float, T: int) -> BoundReport:
    """Excess-loss bound for inference under a mean-shifted prior."""
    params = {"mu_sq_norm": mu_sq_norm, "T": T}
    return BoundReport("misspec_mean", "upper", params, mu_sq_norm / (2.0 * T), True)


def missing_feature_upper(d: int, noise_var: float, T: int) -> Tuple[BoundReport, float]:
    """Total-error bound for the agent whose prior omits one feature.

    Returns the report and, separately, the persistent floor 1/(2 d noise_var)
    the bound converges to as T grows.
    """
    params = {"d": d, "noise_var": noise_var, "T": T}
    if d < 2:
        return (
            BoundReport("missing_feature", "upper", params, None, False, "requires d >= 2"),
            math.nan,
        )
    floor = 1.0 / (2.0 * d * noise_var)
    value = (d - 1.0) / (2.0 * T) * (math.log(T) + 1.0 / (d * noise_var)) + floor
    return BoundReport("missing_feature", "upper", params, value, True), floor


# ---------------------------------------------------------------------------
# Rate-distortion bounds H_eps (nats, not per step unless noted)
# ---------------------------------------------------------------------------


def linreg_rd_upper(d: int, noise_var: float, eps: float) -> float:
    """Gaussian-quantizer rate; identically 0 above the zero-rate threshold."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps >= 0.5 * math.log1p(1.0 / noise_var):
        return 0.0
    return _pos(0.5 * d * math.log(1.0 / (noise_var * math.expm1(2.0 * eps))))


def linreg_rd_lower(d: int, noise_var: float, eps: float) -> float:
    if d <= 2:
        raise ValueError("requires d > 2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _pos(
        0.5 * d * math.log(1.0 / ((8.0 + d / (d - 2.0) * noise_var) * eps))
    )


def logreg_rd_upper(d: int, eps: float) -> float:
    return 0.5 * d * math.log1p(1.0 / (8.0 * eps))


def deepnet_rd_upper(d: int, width: int, depth: int, noise_var: float, eps: float) -> float:
    P = deepnet_param_count(d, width, depth)
    return 0.5 * P * math.log1p(1.0 / (noise_var * math.expm1(2.0 * eps / depth)))


def dirichlet_rd_upper(d: int, K: float, noise_var: float, eps: float) -> float:
    a = math.log1p(2.0 / (noise_var * eps))
    return _pos(K * a * math.log(2.0 * K / (noise_var * eps))) + 2.0 * d * K * a * math.log1p(
        4.0 / eps
    )


def ark_rd_upper(d: int, K: int, eps: float) -> float:
    return 0.5 * d * K * math.log1p(1.0 / (8.0 * eps))


def transformer_rd_upper(d: int, r: int, L: int, K: int, T: int, eps: float) -> float:
    rm = r * max(r, d)
    return rm * L * math.log1p(rm * K * L * T * (8.0 * K * (1.0 + 16.0 * K)) ** L / eps)


def linrep_meta_rd_upper(d: int, r: int, M: int, T: int, eps: float) -> float:
    """Per-step meta rate for the representation process (already /MT)."""
    return d * r / (2.0 * M * T) * math.log1p(
        d / (r * math.expm1(2.0 * eps * T / r))
    )


def linrep_intra_rd_upper(r: int, eps: float) -> float:
    return 0.5 * r * math.log1p(1.0 / eps)


def icl_rd_upper(
    d: int, r: int, L: int, K: int, R: float, N: int, M: int, T: int, eps: float
) -> float:
    rm = r * max(r, d)
    return M * math.log(N) + R * math.log1p(M / R) * rm * L * math.log1p(
        rm * K * L * T * (8.0 * K * (1.0 + 16.0 * K)) ** L / eps
    )


def rd_bound_eval(kind: str, params: Dict[str, float], eps: float) -> float:
    """Dispatch a rate-distortion bound by name."""
    if kind not in _RD_BOUNDS:
        raise KeyError(f"unknown rate-distortion bound: {kind}")
    return _call(_RD_BOUNDS[kind], params, eps)


# Distortion grid of the sandwich bounds: 64 points per decade over [1e-6, 10].
EPS_GRID = np.geomspace(1e-6, 10.0, 449)


def rd_sandwich_upper(kind: str, params: Dict[str, float], T: int) -> Tuple[float, float]:
    """inf over the grid of H_eps/T + eps; returns (value, argmin eps)."""
    best, best_eps = math.inf, math.nan
    for eps in EPS_GRID:
        v = rd_bound_eval(kind, params, float(eps)) / T + float(eps)
        if v < best:
            best, best_eps = v, float(eps)
    return best, best_eps


def rd_sandwich_lower(kind: str, params: Dict[str, float], T: int) -> float:
    """sup over the grid of min(H_eps/T, eps)."""
    best = 0.0
    for eps in EPS_GRID:
        v = min(rd_bound_eval(kind, params, float(eps)) / T, float(eps))
        best = max(best, v)
    return best


# ---------------------------------------------------------------------------
# Compute-optimal scaling
# ---------------------------------------------------------------------------


def scaling_bound_eval(d: int, K: float, n: int, T: float) -> BoundReport:
    """Width-n misspecified-learner loss bound: estimation term plus 3K/n."""
    params = {"d": d, "K": K, "n": n, "T": T}
    if n < 3 or K < 2:
        return BoundReport(
            "scaling_loss", "upper", params, None, False, "requires n >= 3, K >= 2"
        )
    return BoundReport("scaling_loss", "upper", params, _scaling_loss(d, K, n, T), True)


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
    n_max = C / (3.0 * d)  # T >= 3 keeps the log arguments sane
    if n_max < 3.0:
        raise ValueError("budget too small for any feasible width")
    lo, hi = math.log(3.0), math.log(n_max)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
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


def _bound_function(fn, *given: str):
    """fn and its (parameter name, cast) pairs, read from its signature once.

    Parameters annotated int are cast with int(); the others pass as given.
    Names in `given` (eps) are supplied by the caller, not the params dict.
    """
    args = tuple(
        (p.name, int if p.annotation == "int" else None)
        for p in inspect.signature(fn).parameters.values()
        if p.name not in given
    )
    return fn, args


def _missing_feature_report(d: int, noise_var: float, T: int) -> BoundReport:
    return missing_feature_upper(d, noise_var, T)[0]


# Estimation-error bound id -> the functions giving its reports, in order.
_ERROR_BOUNDS = {
    bound_id: [_bound_function(fn) for fn in fns]
    for bound_id, fns in {
        "linreg_error": (linreg_error_lower, linreg_error_upper),
        "logreg_error": (logreg_error_upper,),
        "deepnet_error": (deepnet_error_upper,),
        "dirichlet_error": (dirichlet_error_upper,),
        "ark_error": (ark_error_upper,),
        "transformer_error": (transformer_error_upper,),
        "linrep_error": (linrep_error_upper,),
        "icl_error": (icl_error_upper,),
        "misspec_mean": (misspec_mean_upper,),
        "missing_feature": (_missing_feature_report,),
        "scaling_loss": (scaling_bound_eval,),
    }.items()
}

# Rate-distortion kind (bound id without its rd_ prefix) -> rate function of eps.
_RD_BOUNDS = {
    kind: _bound_function(fn, "eps")
    for kind, fn in {
        "linreg_upper": linreg_rd_upper,
        "linreg_lower": linreg_rd_lower,
        "logreg": logreg_rd_upper,
        "deepnet": deepnet_rd_upper,
        "dirichlet": dirichlet_rd_upper,
        "ark": ark_rd_upper,
        "transformer": transformer_rd_upper,
        "linrep_meta": linrep_meta_rd_upper,
        "linrep_intra": linrep_intra_rd_upper,
        "icl": icl_rd_upper,
    }.items()
}


def _call(entry, params: Dict[str, float], *given):
    fn, args = entry
    return fn(*[params[n] if cast is None else cast(params[n]) for n, cast in args], *given)


def evaluate_bound(bound_id: str, params: Dict[str, float]) -> List[BoundReport]:
    """Evaluate a bound family by id from a flat parameter dict.

    Estimation-error ids: linreg_error, logreg_error, deepnet_error,
    dirichlet_error, ark_error, transformer_error, linrep_error, icl_error,
    misspec_mean, missing_feature, scaling_loss.  Rate-distortion ids use the
    prefix rd_ (e.g. rd_linreg_upper) and require an "eps" entry.  Unknown ids
    and missing parameters raise KeyError; the message names the missing keys.
    """
    kind = bound_id[len("rd_"):] if bound_id.startswith("rd_") else None
    entries = [_RD_BOUNDS[kind]] if kind in _RD_BOUNDS else _ERROR_BOUNDS.get(bound_id)
    if entries is None:
        raise KeyError(f"unknown bound_id: {bound_id}")
    needed = [n for _, args in entries for n, _ in args] + (["eps"] if kind else [])
    missing = [n for n in dict.fromkeys(needed) if n not in params]
    if missing:
        raise KeyError(f"bound '{bound_id}' needs parameter(s): {', '.join(missing)}")
    if kind is None:
        return [_call(entry, params) for entry in entries]
    value = rd_bound_eval(kind, params, float(params["eps"]))
    side = "lower" if kind.endswith("_lower") else "upper"
    return [BoundReport(bound_id, side, dict(params), value, True)]
