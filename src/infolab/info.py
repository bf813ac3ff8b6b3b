"""Closed-form information-theoretic primitives.

Entropies and KL divergences in nats, the binary-KL quadratic bound, the
principal Lambert W branch, the exact Gaussian linear-model mutual
information, and Dirichlet-multinomial unique-class counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processes import bernoulli_log_loss, sigmoid
from .rng import check_pmf


@dataclass(frozen=True)
class GaussianParams:
    """Mean vector and symmetric PSD covariance of a multivariate Gaussian."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        check_psd(self.covariance)


def check_psd(cov: np.ndarray, name: str = "covariance") -> None:
    """Refuse a non-finite matrix, or one not symmetric and positive semi-definite within 1e-10."""
    cov = np.asarray(cov, dtype=float)
    finite = np.all(np.isfinite(cov))
    if finite and np.max(np.abs(cov - cov.T)) > 1e-10:
        raise ValueError(f"{name} must be symmetric")
    if not finite or np.min(np.linalg.eigvalsh(cov)) < -1e-10:
        raise ValueError(f"{name} must be positive semi-definite")


def entropy_pmf(p: np.ndarray) -> float:
    """Entropy H(p) in nats with the 0 ln 0 = 0 convention."""
    p = check_pmf(p)
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def kl_pmf(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats; +inf when p puts mass where q has none."""
    p = check_pmf(p)
    q = check_pmf(q)
    if len(p) != len(q):
        raise ValueError("pmf supports must have equal size")
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def kl_gaussian(p: GaussianParams, q: GaussianParams) -> float:
    """KL divergence between multivariate Gaussians, standard closed form."""
    mu_p = np.asarray(p.mean, dtype=float)
    mu_q = np.asarray(q.mean, dtype=float)
    cov_p = np.asarray(p.covariance, dtype=float)
    cov_q = np.asarray(q.covariance, dtype=float)
    d = len(mu_p)
    try:
        chol_q = np.linalg.cholesky(cov_q)
    except np.linalg.LinAlgError as exc:
        raise ValueError("q covariance must be positive definite") from exc
    solve = np.linalg.solve
    diff = mu_q - mu_p
    trace_term = np.trace(solve(cov_q, cov_p))
    quad = diff @ solve(cov_q, diff)
    sign_p, logdet_p = np.linalg.slogdet(cov_p)
    logdet_q = 2.0 * np.sum(np.log(np.diag(chol_q)))
    if sign_p <= 0:
        return math.inf
    return float(0.5 * (trace_term + quad - d + logdet_q - logdet_p))


def binary_kl_logits(x: float, y: float) -> float:
    """KL(Bernoulli(sigmoid(x)) || Bernoulli(sigmoid(y))) in nats.

    Computed in the log domain; always lies in [0, (x - y)^2 / 8].
    """
    px = sigmoid(x)
    loss = bernoulli_log_loss
    return float(px * (loss(y, 1) - loss(x, 1)) + (1.0 - px) * (loss(y, 0) - loss(x, 0)))


def lambert_w(x: float) -> float:
    """Principal branch of the Lambert W function for x >= 0.

    Halley iteration seeded at ln(1 + x), bisection fallback; relative
    tolerance 1e-12 on w e^w = x.
    """
    if not x >= 0:
        raise ValueError("principal branch requires x >= 0")
    if x == 0:
        return 0.0
    w = math.log1p(x)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 1e-12 * max(x, 1e-300):
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 1e-15 * max(abs(w), 1.0):
            ew = math.exp(w)
            if abs(w * ew - x) <= 1e-12 * max(x, 1e-300):
                return w
    # Fallback: bisect on the monotone map w -> w e^w.
    lo, hi = 0.0, max(1.0, math.log1p(x) + 1.0)
    while hi * math.exp(hi) < x:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def linreg_mi_given_inputs(X: np.ndarray, prior_var: float, noise_var: float) -> float:
    """Exact I(theta; H_T) for the linear-Gaussian model, conditional on inputs.

    Equals (1/2) ln det(I_T + prior_var X X^T / noise_var), evaluated through
    the d x d Gram form for numerical economy.
    """
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    gram = np.eye(d) + (prior_var / noise_var) * (X.T @ X)
    chol = np.linalg.cholesky(gram)
    return float(np.sum(np.log(np.diag(chol))))


def linreg_mi_stepwise(X: np.ndarray, prior_var: float, noise_var: float) -> float:
    """Telescoped per-step evaluation of the same mutual information.

    Sums (1/2) ln(1 + x_t^T S_t x_t / noise_var) along the recursive posterior
    covariance S_t; agrees with the determinant form by the matrix-determinant
    lemma.
    """
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    cov = prior_var * np.eye(d)
    total = 0.0
    for x in X:
        cx = cov @ x
        s = float(x @ cx)
        total += 0.5 * math.log1p(s / noise_var)
        cov = cov - np.outer(cx, cx) / (noise_var + s)
    return total


def dirmult_expected_unique(n: int, K: float, N: int) -> float:
    """Exact expected unique-class count of DirMult(n, [K/N, ..., K/N])."""
    if n < 1 or K < 1 or N < 1:
        raise ValueError("n, K, N must be >= 1")
    i = np.arange(n, dtype=float)
    return float(N * (1.0 - np.prod(1.0 - (K / N) / (K + i))))


def crp_expected_unique(n: int, K: float) -> float:
    """Exact expected unique-atom count after n draws, N -> infinity limit."""
    if n < 1 or K < 1:
        raise ValueError("n and K must be >= 1")
    i = np.arange(n, dtype=float)
    return float(np.sum(K / (K + i)))
