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

from .info import linreg_mi_given_grams
from .predictors import Omniscient, OracleMetaEnsemble, PriorEnsemble, init_predictor
from .processes import LinRep, Process, _Categorical, mean_se, sample_latent, step
from .rng import RngStream, check_pmf

MAX_ENUM_STATES = 10**7
# Most bytes of history arrays a chunk of rollouts holds; a rollout larger
# than the cap alone is a chunk of its own.  Scoring holds about as much
# again (the conjugate kinds stack the chunk's inputs), so the cap bounds the
# engine's memory: at 512 KiB a chunk of 500-step LinReg rollouts with d = 5
# holds 21 replicates.
CHUNK_BYTES = 2**19


# ---------------------------------------------------------------------------
# Replicates and error curves
# ---------------------------------------------------------------------------


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


def _rollout(spec: Process, n: int, stream: RngStream):
    """One replicate's latent and history: seed context, then n steps (meta
    processes visit their tasks round-robin), drawn in blocks from its paths."""
    latent = sample_latent(spec, stream.derive(("latent", 0)))
    return latent, step(spec, latent, n, stream)


def _score_chunk(spec: Process, kinds: Sequence, n: int, rollouts, streams):
    """(len(streams), len(kinds), n) log-losses of one chunk of rolled-out replicates."""
    histories = [history for _, history in rollouts]
    losses = np.empty((len(streams), len(kinds), n))
    for j, kind in enumerate(kinds):
        states = (
            init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
            for (latent, _), s in zip(rollouts, streams)
        )
        losses[:, j] = kind.score(spec, states, histories, n)
    return losses


def score_rollouts(spec: Process, kinds: Sequence, T: int, streams: Sequence[RngStream]):
    """(len(streams), len(kinds), T * tasks) log-losses of every kind in
    `kinds` on one rollout per replicate stream.

    Replicates are rolled out one at a time into a chunk; before a rollout
    would take the chunk's histories past CHUNK_BYTES, each kind scores the
    chunk (`PredictorKind.score`) with states built from path ("pred", 0).  Process and predictor draws
    read disjoint paths, so neither the phases, the chunk size nor the
    kinds beside a kind change its losses.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not kinds:
        raise ValueError("kinds must name at least one predictor kind")
    n = T * (spec.tasks if spec.meta else 1)
    losses = np.empty((len(streams), len(kinds), n))
    start, chunk, held = 0, [], 0
    for i, stream in enumerate(streams):
        rollout = _rollout(spec, n, stream)
        if chunk and held + rollout[1].nbytes > CHUNK_BYTES:
            losses[start:i] = _score_chunk(spec, kinds, n, chunk, streams[start:i])
            start, chunk, held = i, [], 0
        chunk.append(rollout)
        held += rollout[1].nbytes
    if chunk:
        losses[start:] = _score_chunk(spec, kinds, n, chunk, streams[start:])
    return losses


def run_replicate(spec: Process, kinds: Sequence, T: int, stream: RngStream) -> np.ndarray:
    """One replicate's (len(kinds), T * tasks) log-losses: its process rolled
    out once, then every kind in `kinds` scored on it (see `score_rollouts`)."""
    return score_rollouts(spec, kinds, T, [stream])[0]


def aggregate_error_curve(
    excess: np.ndarray, horizons: Sequence[int], scenario_id: str = ""
) -> ErrorCurve:
    """Mean cumulative excess (1/t) sum_{s<=t} excess[:, s] per horizon, with SE.

    `excess` is (R, T): per-step losses of R replicates minus the irreducible
    rate or minus an omniscient's losses on the same rollout (as chosen by
    `harness.run_scenario`).
    """
    R, T = np.shape(excess)
    if R < 2:
        raise ValueError("need at least 2 replicates")
    horizons = list(horizons)
    cum = np.cumsum(excess, axis=1)
    if not all(1 <= t <= T for t in horizons):
        raise ValueError("horizon outside the simulated range")
    means, ses = np.array([mean_se(cum[:, t - 1] / t) for t in horizons]).reshape(-1, 2).T
    return ErrorCurve(
        horizons=horizons,
        mean_error=means,
        std_err=ses,
        replicates=R,
        scenario_id=scenario_id,
    )


# ---------------------------------------------------------------------------
# Exact enumeration models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationModel(_Categorical):
    """Finite iid model: hypothesis prior and per-hypothesis label pmfs.

    As a process its particles carry a hypothesis index `h`, so the
    weighted-particle state scores it over Particles(model, H, h=np.arange(H)).
    """

    prior: np.ndarray  # (H,)
    cond: np.ndarray  # (H, A): P(Y = a | hypothesis h)

    def __post_init__(self):
        p = check_pmf(self.prior, "prior")
        c = np.asarray(self.cond, dtype=float)
        if c.ndim != 2 or c.shape[0] != len(p) or np.any(c < 0):
            raise ValueError("cond must be (H, A) with nonnegative entries")
        if not np.max(np.abs(c.sum(axis=1) - 1.0)) <= 1e-9:  # a NaN row fails too
            raise ValueError("conditional rows must be pmfs")
        object.__setattr__(self, "prior", p)
        object.__setattr__(self, "cond", c)

    @property
    def n_hyp(self) -> int:
        return len(self.prior)

    @property
    def alphabet(self) -> int:
        return self.cond.shape[1]

    def particle_stat(self, particles, history, n):
        return self.cond[particles.h]


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
    if T < 0:
        raise ValueError(f"horizon T must be >= 0, not {T}")
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
            if not abs(mi - gap) <= 1e-9:  # NaN fails too
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
    if T < 1:
        raise ValueError(f"horizon T must be >= 1, not {T}")
    q = check_pmf(misspec_prior, "misspecified prior")
    if len(q) != model.n_hyp:
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
    d: int, noise_var: float, T: int, replicates: int, stream: RngStream
) -> Tuple[float, float]:
    """MC mean of the exact conditional MI over input draws, with SE, under
    the prior N(0, I_d / d).

    Replicate i draws its (T, d) standard-normal inputs from child
    ``("rep", i)`` and keeps only their Gram X^T X; one batched
    ``linreg_mi_given_grams`` call then scores the (replicates, d, d) stack.
    Memory is one draw plus replicates * d^2 floats, and every value equals
    the per-replicate ``linreg_mi_given_inputs`` loop bit for bit.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    if d < 1:
        raise ValueError("need d >= 1 input dimensions")
    if T < 0:
        raise ValueError("need T >= 0 steps")
    if not noise_var > 0:
        raise ValueError("noise variance must be positive")
    grams = np.empty((replicates, d, d))
    for i, sub in enumerate(stream.children("rep", replicates)):
        X = sub.gen.normal(size=(T, d))
        grams[i] = X.T @ X
    return mean_se(linreg_mi_given_grams(grams, 1.0 / d, noise_var))


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

    Replicate i is one rollout on stream path ("rep", i), ("total", 0) that
    the prior ensemble over (psi, xi) (total), the oracle-meta filter with
    the shared representation revealed (intra) and the omniscient baseline
    of both score through `score_rollouts`, one state at a time; meta =
    total - intra per replicate, so its SE reflects the pairing.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    kinds = (
        PriorEnsemble(size=ensemble_size), OracleMetaEnsemble(size=ensemble_size), Omniscient()
    )
    streams = [stream.derive(("rep", i), ("total", 0)) for i in range(replicates)]
    total, intra, omni = score_rollouts(spec, kinds, T, streams).transpose(1, 0, 2)
    n = spec.tasks * T
    totals = np.sum(total - omni, axis=1) / n
    intras = np.sum(intra - omni, axis=1) / n
    return MetaSplit(total=mean_se(totals), intra=mean_se(intras), meta=mean_se(totals - intras))
