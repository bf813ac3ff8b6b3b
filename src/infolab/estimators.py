"""Exact and Monte-Carlo estimation of predictive error and information.

Replicate rollouts, error-curve aggregation, exact enumeration of finite iid
models over label-count vectors (mutual information, per-step information,
misspecification decomposition), the linear-model MI estimator, and the meta
error split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .info import linreg_mi_given_inputs
from .predictors import (
    Omniscient,
    OracleMetaEnsemble,
    PriorEnsemble,
    init_predictor,
    log_loss,
    predict,
)
from .processes import (
    LinRep,
    Process,
    initial_history,
    irreducible_rate,
    sample_latent,
    step,
)
from .rng import RngStream

MAX_ENUM_STATES = 10**7


# ---------------------------------------------------------------------------
# Replicates and error curves
# ---------------------------------------------------------------------------


@dataclass
class ReplicateRecord:
    """Per-step log-losses of the predictor and the paired omniscient baseline."""

    losses: np.ndarray
    omniscient_losses: np.ndarray


@dataclass
class ErrorCurve:
    """Cumulative mean excess log-loss per horizon, with standard errors."""

    horizons: List[int]
    mean_error: np.ndarray
    std_err: np.ndarray
    replicates: int
    scenario_id: str = ""

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError("horizons must be strictly increasing")
        if np.any(self.std_err < 0):
            raise ValueError("standard errors must be nonnegative")


def run_replicate(spec: Process, kind, T: int, stream: RngStream) -> ReplicateRecord:
    """Roll out one replicate: fresh latent, T observations, paired losses.

    Meta processes visit their tasks round-robin, T observations per task;
    step i of either kind draws from stream path ("step", i).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    tasks = spec.tasks if spec.meta else 1
    latent = sample_latent(spec, stream.derive(("latent", 0)))
    history = initial_history(spec, latent, stream.derive(("init", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=stream.derive(("pred", 0)))
    omni = init_predictor(Omniscient(), spec, latent=latent)
    for obs in history.observations:
        state.observe(spec, obs)
        omni.observe(spec, obs)
    losses = np.empty(T * tasks)
    omni_losses = np.empty(T * tasks)
    for i, sub in enumerate(stream.children("step", T * tasks)):
        m = i % tasks if spec.meta else None
        obs = step(spec, latent, history, sub, m)
        losses[i] = log_loss(predict(state, spec, obs.x, m), obs.y)
        omni_losses[i] = log_loss(predict(omni, spec, obs.x, m), obs.y)
        state.observe(spec, obs)
        omni.observe(spec, obs)
        history.append(obs)
    return ReplicateRecord(losses=losses, omniscient_losses=omni_losses)


def aggregate_error_curve(
    records: Sequence[ReplicateRecord],
    horizons: Sequence[int],
    irreducible: Optional[float] = None,
    scenario_id: str = "",
) -> ErrorCurve:
    """Mean cumulative excess (1/t) sum(loss - irreducible) per horizon.

    With irreducible=None the paired omniscient losses stand in for the
    irreducible rate (variance-reduced estimator for discrete labels).
    """
    if len(records) < 2:
        raise ValueError("need at least 2 replicates")
    T = len(records[0].losses)
    if any(len(r.losses) != T for r in records):
        raise ValueError("replicates have mismatched lengths")
    horizons = list(horizons)
    losses = np.stack([r.losses for r in records])  # (R, T)
    if irreducible is None:
        excess = losses - np.stack([r.omniscient_losses for r in records])
    else:
        excess = losses - irreducible
    cum = np.cumsum(excess, axis=1)
    R = len(records)
    means, ses = [], []
    for t in horizons:
        if not 1 <= t <= T:
            raise ValueError("horizon outside the simulated range")
        per_rep = cum[:, t - 1] / t
        means.append(float(np.mean(per_rep)))
        ses.append(float(np.std(per_rep, ddof=1) / math.sqrt(R)))
    return ErrorCurve(
        horizons=horizons,
        mean_error=np.array(means),
        std_err=np.array(ses),
        replicates=R,
        scenario_id=scenario_id,
    )


# ---------------------------------------------------------------------------
# Exact enumeration models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationModel:
    """Finite iid model: hypothesis prior and per-hypothesis label pmfs."""

    prior: np.ndarray  # (H,)
    cond: np.ndarray  # (H, A): P(Y = a | hypothesis h)

    def __post_init__(self):
        p = np.asarray(self.prior, dtype=float)
        c = np.asarray(self.cond, dtype=float)
        if p.ndim != 1 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("prior must be a pmf")
        if c.ndim != 2 or c.shape[0] != len(p) or np.any(c < 0):
            raise ValueError("cond must be (H, A) with nonnegative entries")
        if np.max(np.abs(c.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("conditional rows must be pmfs")
        object.__setattr__(self, "prior", p)
        object.__setattr__(self, "cond", c)

    @property
    def n_hyp(self) -> int:
        return len(self.prior)

    @property
    def alphabet(self) -> int:
        return self.cond.shape[1]


def _safe_log(x: np.ndarray) -> np.ndarray:
    """log(x) where x > 0, and 0 elsewhere."""
    return np.log(np.where(x > 0, x, 1.0))


def _normalise(log_w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-normalised exp(log_w) and the log row sums; all -inf rows stay zero."""
    m = log_w.max(axis=1, keepdims=True)
    w = np.exp(log_w - np.where(np.isfinite(m), m, 0.0))
    z = w.sum(axis=1, keepdims=True)
    return w / np.where(z > 0, z, 1.0), (m + _safe_log(z))[:, 0]


def _count_pass(model: EnumerationModel, T: int, q: Optional[np.ndarray] = None):
    """One forward pass over the label-count vectors n with |n| = t, t = 0..T.

    An iid posterior depends on a sequence only through its counts, so each
    count vector stands for its multinomial coefficient's worth of sequences.
    Returns per-step arrays (information I(Y_{t+1}; theta | H_t), excess
    log-loss of the posterior predictive and of q's, and the KL between
    them) and the terminal I(theta; Y_{1:T}), checked against the excess.
    """
    H, A = model.n_hyp, model.alphabet
    if H * math.comb(T + A - 1, A - 1) > MAX_ENUM_STATES:
        raise ResourceWarning("label-count space exceeds the exact-enumeration cap")
    cond, log_cond, zero = model.cond, _safe_log(model.cond), model.cond == 0
    neg_ent = np.sum(cond * log_cond, axis=1)  # (H,)
    irreducible = -float(model.prior @ neg_ent)
    log_fact = np.array([math.lgamma(k + 1) for k in range(T + 1)])
    info, excess, excess_q, kl = (np.zeros(T) for _ in range(4))
    counts = np.zeros((1, A), dtype=int)
    for t in range(T + 1):
        loglik = counts @ log_cond.T  # (S, H)
        dead = ((counts > 0) @ zero.T) > 0  # the hypothesis forbids a label seen in n
        log_joint = np.where(dead | (model.prior == 0), -np.inf, _safe_log(model.prior) + loglik)
        live = np.isfinite(log_joint.max(axis=1))  # zero-mass counts have zero-mass extensions
        counts, loglik, dead = counts[live], loglik[live], dead[live]
        post, log_marg = _normalise(log_joint[live])
        mass = np.exp(log_fact[t] - log_fact[counts].sum(axis=1) + log_marg)
        if t == T:
            mi = float(mass @ np.sum(post * (loglik - log_marg[:, None]), axis=1))
            gap = float(np.sum(excess))
            if abs(mi - gap) > 1e-9:
                raise AssertionError(f"information/loss identity violated: {mi} vs {gap}")
            return info, excess, excess_q, kl, mi
        mix = post @ cond  # (S, A) posterior predictive
        log_mix = _safe_log(mix)
        info[t] = mass @ np.sum(post * (neg_ent - log_mix @ cond.T), axis=1)
        excess[t] = -mass @ np.sum(mix * log_mix, axis=1) - irreducible
        if q is not None:
            post_q, _ = _normalise(np.where(dead | (q == 0), -np.inf, _safe_log(q) + loglik))
            log_q = np.log(np.maximum(post_q @ cond, 1e-300))
            excess_q[t] = -mass @ np.sum(mix * log_q, axis=1) - irreducible
            kl[t] = mass @ np.sum(mix * (log_mix - log_q), axis=1)
        counts = np.unique((counts[:, None, :] + np.eye(A, dtype=int)).reshape(-1, A), axis=0)


def exact_mi_enumeration(model: EnumerationModel, T: int) -> Tuple[float, float]:
    """Exact I(theta; Y_{1:T}) and the cumulative Bayes loss gap.

    Returns (mi, loss_gap) where loss_gap is the exact cumulative posterior
    predictive log-loss minus the irreducible entropy; the two agree to 1e-9
    (asserted).
    """
    _, excess, _, _, mi = _count_pass(model, T)
    return mi, float(np.sum(excess))


def per_step_info(model: EnumerationModel, T: int) -> np.ndarray:
    """Exact I(Y_{t+1}; theta | H_t) for t = 0..T-1."""
    return _count_pass(model, T)[0]


@dataclass
class DecompositionReport:
    """Exact loss decomposition under a misspecified hypothesis prior."""

    total_loss: float  # cumulative excess over irreducible, per step
    information_term: float  # I(theta; Y_{1:T}) / T
    misspecification_term: float  # mean_t E KL(posterior pred || misspec pred)
    residual: float
    prior_kl_bound: float  # KL(prior || misspecified prior) / T


def misspec_decomposition(
    model: EnumerationModel, misspec_prior: np.ndarray, T: int
) -> DecompositionReport:
    """Exact decomposition of the misspecified-prior Bayes loss.

    total = information + misspecification, with residual below 1e-9; also
    evaluates the KL(prior || misspecified prior)/T upper bound on the
    misspecification term (+inf when the misspecified prior kills a
    hypothesis of positive true mass).
    """
    q = np.asarray(misspec_prior, dtype=float)
    if len(q) != model.n_hyp or np.any(q < 0) or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("misspecified prior must be a pmf over the same support")
    _, _, excess_q, kl, mi = _count_pass(model, T, q)
    total, info, misspec = float(np.sum(excess_q)) / T, mi / T, float(np.sum(kl)) / T
    p = model.prior
    kills = np.any(q[p > 0] == 0)
    bound = math.inf if kills else float(p @ (_safe_log(p) - _safe_log(q))) / T
    return DecompositionReport(total, info, misspec, total - info - misspec, bound)


# ---------------------------------------------------------------------------
# Linear-model MI and the meta split
# ---------------------------------------------------------------------------


def linreg_mi_mc(
    d: int,
    noise_var: float,
    T: int,
    replicates: int,
    stream: RngStream,
    prior_var: Optional[float] = None,
) -> Tuple[float, float]:
    """MC mean of the exact conditional MI over input draws, with SE."""
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    if prior_var is None:
        prior_var = 1.0 / d
    vals = np.empty(replicates)
    for i, sub in enumerate(stream.children("rep", replicates)):
        X = sub.gen.normal(size=(T, d))
        vals[i] = linreg_mi_given_inputs(X, prior_var, noise_var)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(replicates))


@dataclass
class MetaSplit:
    """MC estimates (value, SE) of the meta decomposition terms, per step."""

    total: Tuple[float, float]
    intra: Tuple[float, float]
    meta: Tuple[float, float]


def meta_error_split(
    spec: LinRep,
    T: int,
    replicates: int,
    stream: RngStream,
    ensemble_size: int = 4096,
) -> MetaSplit:
    """Total / intra-task / meta error split for the representation process.

    Total error uses the prior-ensemble posterior over (psi, xi); the
    intra-task term reruns the same replicates with the shared representation
    revealed (oracle-meta predictor); meta = total - intra, computed per
    replicate so the difference SE reflects the pairing.
    """
    totals = np.empty(replicates)
    intras = np.empty(replicates)
    kind_total = PriorEnsemble(size=ensemble_size)
    kind_intra = OracleMetaEnsemble(size=ensemble_size)
    n = spec.tasks * T
    for i in range(replicates):
        sub = stream.derive(("rep", i))
        rec_total = run_replicate(spec, kind_total, T, sub.derive(("total", 0)))
        totals[i] = float(np.sum(rec_total.losses - rec_total.omniscient_losses)) / n
        rec_intra = run_replicate(spec, kind_intra, T, sub.derive(("total", 0)))
        intras[i] = float(np.sum(rec_intra.losses - rec_intra.omniscient_losses)) / n
    diffs = totals - intras
    rse = lambda v: float(np.std(v, ddof=1) / math.sqrt(replicates))
    return MetaSplit(
        total=(float(np.mean(totals)), rse(totals)),
        intra=(float(np.mean(intras)), rse(intras)),
        meta=(float(np.mean(diffs)), rse(diffs)),
    )
