"""Sequential predictive distributions.

Exact conjugate posterior for the linear-Gaussian model, exact enumeration
posterior over finite latent supports, importance-weighted prior-ensemble
posterior for everything else, the omniscient baseline, and misspecified
variants (wrong conjugate prior; reduced-width function prior).  Each
predictor kind builds its own state; the process spec supplies every
family-specific piece (particle statistics, log-likelihoods).  A latent is
a one-particle `Particles`: the omniscient holds the true one, and an
enumeration support is one block of them.  Enumeration, ensembles and
the oracle-meta filter all hold one kind of state: weighted particles
(`EnsembleState`).  `predict(spec, history, n)` and
`observe(spec, history, n)` read the caller's history, a rollout's
arrays: label n, given the labels before it (seed context included).  No
state copies it.  `predict` is a query with no side effects; `observe`
conditions on label n and returns the log-loss that `predict` gave it
before, so a rollout is scored by observing alone.  A kind's `score` runs a
chunk of states along their rollouts' histories: one state at a time by
default, all at once for the conjugate kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .info import check_psd

# The predictive types (`Mixture`, and `GaussianPred` for the conjugate) live
# in processes with the log-likelihoods they mix, and are re-exported here for
# callers of the predictors.
from .processes import (
    Configurable,
    DirichletNet,
    GaussianPred,
    History,
    LinRep,
    LinReg,
    Mixture,
    Particles,
    Process,
    float_array,
    gaussian_log_loss,
    logsumexp,
    softmax,
    strict_float,
    strict_int,
)
from .quantizers import check_cover_domain, width_reduce
from .rng import RngStream, check_pmf


# ---------------------------------------------------------------------------
# Predictor kinds; each builds its own prior state
# ---------------------------------------------------------------------------


class PredictorKind:
    """A predictor kind: `init` builds its prior state, `score` scores states."""

    def score(self, spec: Process, states, histories: Sequence[History], n: int):
        """(C, n) log-losses on the last n labels of each of C histories.

        The iterator `states` yields each history's prior state.  Each state
        observes its history one step at a time, scored by the loss each
        `observe` returns, and is done before the next is built.
        """
        losses = np.empty((len(histories), n))
        for row, history in zip(losses, histories):
            state, start = next(states), len(history.y) - n
            for i in range(start, start + n):
                row[i - start] = state.observe(spec, history, i)
            del state  # free it before the next one is built
        return losses


@dataclass(frozen=True)
class ConjugateLinReg(PredictorKind, Configurable):
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    noise_var: float

    kind = "conjugate"
    config = {}

    @classmethod
    def required(cls):
        return []  # from_config takes every default from the linreg spec

    @classmethod
    def from_config(cls, values, spec=None) -> "ConjugateLinReg":
        """Prior N(prior_mean, diag(prior_diag)); both default to the spec's prior."""
        if not isinstance(spec, LinReg):
            raise ValueError(f"{cls.kind} predictor applies to the linreg process")
        mean = values.get("prior_mean", np.zeros(spec.d))
        diag = values.get("prior_diag", np.full(spec.d, spec.prior_var))
        for key, value in (("prior_mean", mean), ("prior_diag", diag)):
            if np.shape(value) != (spec.d,):
                raise ValueError(
                    f"{cls.kind} predictor key '{key}' must list d = {spec.d} numbers, "
                    f"not {np.size(value)}"
                )
        if np.any(diag < 0):
            raise ValueError(f"{cls.kind} predictor key 'prior_diag' must be nonnegative")
        return cls(prior_mean=mean, prior_cov=np.diag(diag), noise_var=spec.noise_var)

    def __post_init__(self):
        check_psd(self.prior_cov, "prior covariance")

    def init(self, spec, latent, stream) -> "ConjugateState":
        mean = np.asarray(self.prior_mean, dtype=float).copy()
        cov = np.asarray(self.prior_cov, dtype=float).copy()
        return ConjugateState(kind=self, mean=mean, cov=cov)

    def score(self, spec, states, histories, n):
        """The default's losses, the C states stepped together through the
        recurrence that `ConjugateState` runs."""
        states = list(states)
        mean = np.stack([s.mean for s in states])[:, None, :]
        cov = np.stack([s.cov for s in states])
        xs = np.stack([h.x[-n:] for h in histories], axis=1)  # (n, C, d)
        rows, cols = xs[..., None, :], xs[..., None]
        ys = np.stack([h.y[-n:] for h in histories], axis=1)[..., None, None]  # (n, C, 1, 1)
        means, variances = np.empty_like(ys), np.empty_like(ys)
        for i in range(n):
            means[i], variances[i] = conjugate_moments(mean, cov, self.noise_var, rows[i], cols[i])
            mean, cov = conjugate_update(
                mean, cov, self.noise_var, rows[i], cols[i], ys[i], means[i]
            )
        return gaussian_log_loss(means, variances, ys)[..., 0, 0].T


@dataclass(frozen=True)
class Enumeration(PredictorKind):
    """Exact posterior over a finite support: one `Particles` block, such as a
    prior block `spec.sample_particles(K, stream)` or hand-built arrays.

    Every state this kind builds holds the one block, so its `once` memo
    (LinRep's task pmfs) persists across replicates.  That is sound: a kept
    statistic reads only the particles, and enumeration never resamples.
    """

    support: Particles
    prior: np.ndarray

    def __post_init__(self):
        p = check_pmf(self.prior, "prior")
        if self.support.size != len(p):
            raise ValueError("prior must be a pmf over the support")
        object.__setattr__(self, "prior", p)

    def init(self, spec, latent, stream) -> "EnsembleState":
        """The support weighted by the prior; never resampled."""
        logp = np.where(self.prior > 0, np.log(np.maximum(self.prior, 1e-300)), -np.inf)
        return EnsembleState(self, self.support, logp - logsumexp(logp), resampler=None)


@dataclass(frozen=True)
class PriorEnsemble(PredictorKind, Configurable):
    size: int = 2048
    resample_ess_frac: float = 0.5

    kind = "ensemble"
    config = {"size": strict_int, "resample_ess_frac": strict_float}

    def __post_init__(self):
        if self.size < 2 or not 0 < self.resample_ess_frac <= 1:
            raise ValueError("size >= 2 and 0 < resample_ess_frac <= 1 required")

    def init(self, spec, latent, stream) -> "EnsembleState":
        if stream is None:
            raise ValueError("PriorEnsemble requires a stream")
        particles = spec.sample_particles(self.size, stream.derive(("particles", 0)))
        return EnsembleState.start(self, particles, Resampler(stream))


@dataclass(frozen=True)
class Omniscient(PredictorKind, Configurable):
    """The true latent's predictive, the baseline of a process's irreducible loss."""

    kind = "omniscient"
    config = {}

    @classmethod
    def from_config(cls, values, spec=None) -> "Omniscient":
        if spec.irreducible_rate() is None:
            raise ValueError(
                f"{cls.kind} predictor needs a process with an irreducible rate; on "
                f"'{spec.kind}' it is scored against itself, so its curve is 0 on every seed"
            )
        return cls()

    def init(self, spec, latent, stream) -> "OmniscientState":
        if latent is None:
            raise ValueError("Omniscient requires the true latent")
        return OmniscientState(latent=latent)


@dataclass(frozen=True)
class MisspecifiedConjugate(ConjugateLinReg):
    """Conjugate updates under a wrong Gaussian prior; cov may be singular."""

    kind = "misspecified_conjugate"
    config = {"prior_mean": float_array, "prior_diag": float_array}


@dataclass(frozen=True)
class MisspecifiedWidth(PredictorKind, Configurable):
    """Ensemble posterior whose particles come from the width-n snapped prior.

    Its `size` full-width nets are one `DirichletNet.sample_particles` block,
    reduced to width n by one batched `quantizers.width_reduce` (and snapped
    to an eps-cover when eps > 0).  Each particle is a DirichletNet draw of n
    atoms with weights 1/n and no tail mass, so the process spec scores them
    as it scores its own.
    """

    n: int
    eps: float = 0.0
    size: int = 2048
    resample_ess_frac: float = 0.5

    kind = "misspecified_width"
    config = {"n": strict_int, "eps": strict_float, "size": strict_int}

    def __post_init__(self):
        if self.n < 1 or self.size < 2 or self.eps < 0:
            raise ValueError("n >= 1, size >= 2, eps >= 0 required")

    @classmethod
    def from_config(cls, values, spec=None) -> "MisspecifiedWidth":
        if not isinstance(spec, DirichletNet):
            raise ValueError(f"{cls.kind} predictor applies to the dirichlet process")
        if values.get("eps", 0.0) > 0:
            try:
                check_cover_domain(spec.d, values["eps"])
            except ValueError as exc:
                raise ValueError(f"{cls.kind} predictor key 'eps': {exc}") from exc
        return cls(**values)

    def init(self, spec, latent, stream) -> "EnsembleState":
        if stream is None:
            raise ValueError("MisspecifiedWidth requires a stream")
        nets = spec.sample_particles(self.size, stream.derive(("particles", 0)))
        nets = width_reduce(spec, nets, self.n, stream.derive(("reduce", 0)), self.eps)
        return EnsembleState.start(self, nets, Resampler(stream))


# Config "kind" -> predictor kind, for every predictor a scenario config can name.
PREDICTOR_KINDS = {
    cls.kind: cls
    for cls in (
        ConjugateLinReg, PriorEnsemble, Omniscient, MisspecifiedConjugate, MisspecifiedWidth
    )
}


@dataclass(frozen=True)
class _KnownRepresentation:
    """Prior of the oracle's task particles xi: label pmfs under the true psi."""

    psi: np.ndarray

    def particle_stat(self, particles, history, n):
        task = int(history.task[n])
        return particles.once(task, lambda: softmax(particles.xi @ self.psi.T, axis=1))


@dataclass(frozen=True)
class OracleMetaEnsemble(PredictorKind):
    """Per-task ensemble over task latents with the shared representation known.

    Implements the oracle-meta predictor used to isolate the intra-task error
    term of meta processes.
    """

    size: int = 2048
    resample_ess_frac = 0.5

    def init(self, spec, latent, stream) -> "OracleMetaState":
        if latent is None or stream is None or not isinstance(spec, LinRep):
            raise ValueError("OracleMetaEnsemble requires a LinRep latent and stream")
        prior = _KnownRepresentation(psi=latent.psi[0])
        sd = math.sqrt(1.0 / spec.r)
        # Task m's particles are one draw from stream path ("task", m) (seed contract 2).
        xi = [stream.derive(("task", m)).gen.normal(0.0, sd, size=(self.size, spec.r))
              for m in range(spec.tasks)]
        # One resampler for all tasks: draw k reads ("resample", k) whichever
        # task's filter asks for it.
        resampler = Resampler(stream)
        return OracleMetaState(
            [EnsembleState.start(self, Particles(prior, self.size, xi=x), resampler) for x in xi]
        )


# ---------------------------------------------------------------------------
# Predictor states
# ---------------------------------------------------------------------------


def conjugate_moments(mean, cov, noise_var, row, col):
    """Predictive mean and variance, each (..., 1, 1), of the label at an input.

    The conjugate recurrence (this and `conjugate_update`) takes any leading
    axes: mean (..., 1, d), cov (..., d, d), the input as a row (..., 1, d)
    and a column (..., d, 1).  numpy's matmul hands each product to the same
    BLAS dot or gemv with or without leading axes, so a state stepped in a
    chunk gets the bits it gets alone.
    """
    return mean @ col, noise_var + (row @ cov) @ col


def conjugate_update(mean, cov, noise_var, row, col, y, mean_x):
    """Posterior mean and covariance after label y at an input (a rank-one
    update); mean_x is the predictive mean `conjugate_moments` gave there."""
    cx = cov @ col
    s = noise_var + row @ cx
    cx_row = cx.swapaxes(-1, -2)
    return mean + cx_row * ((y - mean_x) / s), cov - cx * cx_row / s


@dataclass
class ConjugateState:
    """Gaussian posterior N(mean, cov) of theta: mean (d,), cov (d, d)."""

    kind: ConjugateLinReg
    mean: np.ndarray
    cov: np.ndarray

    def observe(self, spec: Process, history: History, n: int) -> float:
        x = history.x[n]
        mean, row, col = self.mean[None], x[None], x[:, None]
        pred = self.predict(spec, history, n)
        mean, self.cov = conjugate_update(
            mean, self.cov, self.kind.noise_var, row, col, history.y[n], mean @ col
        )
        self.mean = mean[0]
        return pred.log_loss(history.y[n])

    def predict(self, spec: Process, history: History, n: int) -> GaussianPred:
        x = history.x[n]
        mean, variance = conjugate_moments(
            self.mean[None], self.cov, self.kind.noise_var, x[None], x[:, None]
        )
        return GaussianPred(mean=float(mean[0, 0]), variance=float(variance[0, 0]))


class Resampler:
    """Multinomial resampling; draw k reads path ("sis", 0), ("resample", k) of its stream.

    Filters that share one resampler share its draw counter.
    """

    def __init__(self, stream: RngStream):
        self.stream = stream.derive(("sis", 0))
        self.count = 0

    def indices(self, weights: np.ndarray) -> np.ndarray:
        u = self.stream.derive(("resample", self.count)).gen.random(len(weights))
        cdf = np.cumsum(weights)
        cdf[-1] = 1.0
        self.count += 1
        # The search of sorted uniforms walks the cdf in order: at 4096 particles it took
        # 164 us against 412 us unsorted (2-CPU Xeon, numpy 2.4.6), with the same indices.
        order, idx = np.argsort(u), np.empty(len(u), dtype=np.intp)
        idx[order] = np.searchsorted(cdf, u[order], side="right")
        return idx


@dataclass
class EnsembleState:
    """Weighted particles: the posterior of enumeration, ensemble and oracle kinds.

    Its predictive is the `Mixture` of the particle statistics under the
    weights.  `observe` reweights by each particle's likelihood of the label
    and returns minus the log of the normaliser, which is that mixture's
    log-loss; summed over a history it is -log p(H_T), exact for enumeration
    and the SMC evidence estimate for ensembles.  One exp pass over the
    particles gives both the normaliser and the effective sample size `ess`,
    (sum w)^2 / sum w^2 of the new weights, set by every `observe`.  After
    each reweighting the particles are resampled when `ess` falls below
    `kind.resample_ess_frac` of the ensemble; a state without a resampler
    (exact enumeration) keeps its weights.
    """

    kind: object
    particles: Particles
    log_weights: np.ndarray
    resampler: Optional[Resampler]

    @classmethod
    def start(cls, kind, particles: Particles, resampler: Resampler) -> "EnsembleState":
        """Uniform weights over fresh particles, resampled by `resampler`."""
        return cls(
            kind=kind,
            particles=particles,
            log_weights=np.full(particles.size, -math.log(particles.size)),
            resampler=resampler,
        )

    @property
    def resamples(self) -> int:
        """Draws made by this state's resampler (shared ones count every sharer's)."""
        return 0 if self.resampler is None else self.resampler.count

    def _maybe_resample(self) -> None:
        size = self.particles.size
        if self.ess < self.kind.resample_ess_frac * size:
            indices = self.resampler.indices(np.exp(self.log_weights))
            self.particles = self.particles.resample(indices)
            self.log_weights = np.full(size, -math.log(size))
            self.ess = float(size)

    def observe(self, spec: Process, history: History, n: int) -> float:
        stat = self.particles.prior.particle_stat(self.particles, history, n)
        log_weights = self.log_weights + spec.loglik(stat, history.y[n])
        # `logsumexp`, keeping its exp pass.  The array methods are np.max's and
        # np.sum's reductions without their Python wrapper; a sum, unlike a BLAS
        # dot, gives the ESS the same bits on any thread count.
        m = log_weights.max()
        e = np.exp(log_weights - m)
        total = e.sum()
        log_norm = float(m + np.log(total)) if np.isfinite(m) else float(m)
        self.log_weights = log_weights - log_norm
        self.ess = float(total * total / (e * e).sum())
        if self.resampler is not None:
            self._maybe_resample()
        return -log_norm

    def predict(self, spec: Process, history: History, n: int) -> Mixture:
        stat = self.particles.prior.particle_stat(self.particles, history, n)
        return Mixture(spec, stat, self.log_weights)


@dataclass
class OmniscientState:
    latent: object

    def observe(self, spec: Process, history: History, n: int) -> float:
        stat = np.asarray(spec.conditional(self.latent, history, n))
        return -spec.loglik(stat[None], history.y[n])[0]  # the latent stays

    def predict(self, spec: Process, history: History, n: int) -> Mixture:
        stat = np.asarray(spec.conditional(self.latent, history, n))
        return Mixture(spec, stat[None], np.zeros(1))


@dataclass
class OracleMetaState:
    """One weighted-particle filter per task over its latent xi, psi known.

    Every filter reads the one history; its particles ignore other tasks.
    """

    tasks: List[EnsembleState]

    def observe(self, spec: Process, history: History, n: int) -> float:
        return self.tasks[spec.check_task(history, n)].observe(spec, history, n)

    def predict(self, spec: Process, history: History, n: int):
        return self.tasks[spec.check_task(history, n)].predict(spec, history, n)

    # Read-only health views over all tasks.
    @property
    def resamples(self) -> int:
        return self.tasks[0].resamples  # the tasks share one resampler

    @property
    def log_weights(self) -> np.ndarray:
        return np.stack([t.log_weights for t in self.tasks])  # (tasks, S)

    @property
    def xi_particles(self) -> np.ndarray:
        return np.stack([t.particles.xi for t in self.tasks])  # (tasks, S, r)


# ---------------------------------------------------------------------------
# Functional interface
# ---------------------------------------------------------------------------


def init_predictor(kind, spec: Process, latent=None, stream: Optional[RngStream] = None):
    """Build the prior state of a predictor kind (no observations seen)."""
    return kind.init(spec, latent, stream)


def predict(state, spec: Process, history: History, n: int):
    """Posterior (or prior) predictive distribution of label n of the history."""
    return state.predict(spec, history, n)


def log_loss(pred, y: Union[float, int]) -> float:
    """Negative log-probability of y in nats (density for Gaussian kinds)."""
    return pred.log_loss(y)
