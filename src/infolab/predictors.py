"""Sequential predictive distributions.

Exact conjugate posterior for the linear-Gaussian model, exact enumeration
posterior over finite latent supports, importance-weighted prior-ensemble
posterior for everything else, the omniscient baseline, and misspecified
variants (wrong conjugate prior; reduced-width function prior).  Each
predictor kind builds its own state; the process spec supplies every
family-specific piece (conditionals, particle statistics, predictives).
Enumeration, ensembles and the oracle-meta filter all hold one kind of
state: weighted particles (`EnsembleState`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

# The predictive types live with their output families in processes and are
# re-exported here for callers of the predictors.
from .processes import (
    BernoulliLogitPred,
    CategoricalPred,
    Configurable,
    DirichletNet,
    GaussianMixturePred,
    GaussianPred,
    History,
    LinRep,
    LinReg,
    Observation,
    Particles,
    Process,
    float_array,
    logsumexp,
    softmax,
    strict_float,
    strict_int,
)
from .quantizers import check_cover_domain, misspecified_width_prior_sample
from .rng import RngStream


def _normalized_log_weights(logw: np.ndarray) -> np.ndarray:
    return logw - logsumexp(logw)


# ---------------------------------------------------------------------------
# Predictor kinds; each builds its own prior state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateLinReg(Configurable):
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

    def init(self, spec, latent, stream) -> "ConjugateState":
        mean = np.asarray(self.prior_mean, dtype=float).copy()
        cov = np.asarray(self.prior_cov, dtype=float).copy()
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10:
            raise ValueError("prior covariance must be PSD")
        return ConjugateState(kind=self, mean=mean, cov=cov)


@dataclass(frozen=True)
class Enumeration:
    support: Sequence
    prior: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.prior, dtype=float)
        if len(self.support) != len(p) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("prior must be a pmf over the support")
        object.__setattr__(self, "prior", p)

    def init(self, spec, latent, stream) -> "EnsembleState":
        """The support as particles weighted by the prior; never resampled."""
        logp = np.where(self.prior > 0, np.log(np.maximum(self.prior, 1e-300)), -np.inf)
        particles = Particles.stack(spec, list(self.support))
        return EnsembleState(self, particles, _normalized_log_weights(logp), resampler=None)


@dataclass(frozen=True)
class PriorEnsemble(Configurable):
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
        return EnsembleState.start(self, particles, stream)


@dataclass(frozen=True)
class Omniscient(Configurable):
    kind = "omniscient"
    config = {}

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
class MisspecifiedWidth(Configurable):
    """Ensemble posterior whose particles come from the width-n snapped prior.

    The kind is also the particles' prior: it stacks the width-n nets and
    evaluates their outputs.
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
        nets = [
            misspecified_width_prior_sample(spec, self.n, self.eps, sub)
            for sub in stream.children("particle", self.size)
        ]
        return EnsembleState.start(self, Particles.stack(self, nets), stream)

    def stack_particles(self, nets):
        return {
            "net_atoms": np.stack([net.atoms for net in nets]),  # (S, n, d)
            "net_signs": np.stack([net.signs for net in nets]),  # (S, n)
        }

    def particle_stat(self, particles, history, x, task):
        # The nets share one width and scale.
        scale = particles.latents[0].scale / particles.net_signs.shape[1]
        acts = np.maximum(np.einsum("snd,d->sn", particles.net_atoms, x), 0.0)
        return scale * np.einsum("sn,sn->s", particles.net_signs, acts)


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

    def particle_stat(self, particles, history, x, task):
        return particles.once(task, lambda: softmax(particles.xi @ self.psi.T, axis=1))


@dataclass(frozen=True)
class OracleMetaEnsemble:
    """Per-task ensemble over task latents with the shared representation known.

    Implements the oracle-meta predictor used to isolate the intra-task error
    term of meta processes.
    """

    size: int = 2048
    resample_ess_frac: float = 0.5

    def init(self, spec, latent, stream) -> "OracleMetaState":
        if latent is None or stream is None or not isinstance(spec, LinRep):
            raise ValueError("OracleMetaEnsemble requires a LinRep latent and stream")
        prior = _KnownRepresentation(psi=latent.psi)
        sd = math.sqrt(1.0 / spec.r)
        # Task m's particles are one draw from stream path ("task", m) (seed contract 2).
        xi = [stream.derive(("task", m)).gen.normal(0.0, sd, size=(self.size, spec.r))
              for m in range(spec.tasks)]
        # One resampler for all tasks: draw k reads ("resample", k) whichever
        # task's filter asks for it.
        resampler = Resampler(stream.derive(("sis", 0)))
        uniform = np.full(self.size, -math.log(self.size))
        return OracleMetaState(
            [
                EnsembleState(self, Particles(prior, self.size, xi=x), uniform, resampler)
                for x in xi
            ]
        )


# ---------------------------------------------------------------------------
# Predictor states
# ---------------------------------------------------------------------------


@dataclass
class ConjugateState:
    kind: ConjugateLinReg
    mean: np.ndarray
    cov: np.ndarray

    def observe(self, spec: Process, obs: Observation) -> None:
        x, y = obs.x, float(obs.y)
        noise_var = self.kind.noise_var
        cx = self.cov @ x
        s = noise_var + float(x @ cx)
        self.mean = self.mean + cx * ((y - float(self.mean @ x)) / s)
        self.cov = self.cov - np.outer(cx, cx) / s

    def predict(
        self, spec: Process, x: np.ndarray, task: Optional[int] = None
    ) -> GaussianPred:
        return GaussianPred(
            mean=float(self.mean @ x),
            variance=self.kind.noise_var + float(x @ self.cov @ x),
        )


class Resampler:
    """Multinomial resampling; draw k reads stream path ("resample", k).

    Filters that share one resampler share its draw counter.
    """

    def __init__(self, stream: RngStream):
        self.stream = stream
        self.count = 0

    def indices(self, weights: np.ndarray) -> np.ndarray:
        u = self.stream.derive(("resample", self.count)).gen.random(len(weights))
        cdf = np.cumsum(weights)
        cdf[-1] = 1.0
        self.count += 1
        return np.searchsorted(cdf, u, side="right")


@dataclass
class EnsembleState:
    """Weighted particles: the posterior of enumeration, ensemble and oracle kinds.

    After each reweighting the particles are resampled when the effective
    sample size falls below `kind.resample_ess_frac` of the ensemble; a
    state without a resampler (exact enumeration) keeps its weights.  The
    statistic that `predict` computes is kept as `(x, task, stat)` and
    reused by the next `observe` at the same input object and task, so a
    predict-then-observe step computes it once.
    """

    kind: object
    particles: Particles
    log_weights: np.ndarray
    resampler: Optional[Resampler]
    history: History = field(default_factory=History)
    _predicted: Optional[tuple] = field(default=None, init=False, repr=False)

    @classmethod
    def start(cls, kind, particles: Particles, stream: RngStream) -> "EnsembleState":
        """Uniform weights over fresh particles; resampling draws from stream."""
        return cls(
            kind=kind,
            particles=particles,
            log_weights=np.full(particles.size, -math.log(particles.size)),
            resampler=Resampler(stream.derive(("sis", 0))),
        )

    @property
    def resamples(self) -> int:
        """Draws made by this state's resampler (shared ones count every sharer's)."""
        return 0 if self.resampler is None else self.resampler.count

    def _maybe_resample(self) -> None:
        w = np.exp(self.log_weights)
        size = self.particles.size
        if 1.0 / float(np.sum(w * w)) < self.kind.resample_ess_frac * size:
            self.particles = self.particles.resample(self.resampler.indices(w))
            self.log_weights = np.full(size, -math.log(size))

    def observe(self, spec: Process, obs: Observation) -> None:
        predicted, self._predicted = self._predicted, None
        if len(self.history) < spec.seed_tokens:
            # Seed context tokens are prior-independent; no reweighting.
            self.history.append(obs)
            return
        if predicted is not None and predicted[0] is obs.x and predicted[1] == obs.task:
            stat = predicted[2]
        else:
            stat = self.particles.stat(self.history, obs.x, obs.task)
        ll = spec.loglik(stat, obs.y)
        self.log_weights = _normalized_log_weights(self.log_weights + ll)
        self.history.append(obs)
        if self.resampler is not None:
            self._maybe_resample()

    def predict(self, spec: Process, x: Optional[np.ndarray], task: Optional[int] = None):
        stat = self.particles.stat(self.history, x, task)
        self._predicted = (x, task, stat)
        return spec.mixture(stat, self.log_weights)


@dataclass
class OmniscientState:
    latent: object
    history: History = field(default_factory=History)

    def observe(self, spec: Process, obs: Observation) -> None:
        self.history.append(obs)

    def predict(self, spec: Process, x: Optional[np.ndarray], task: Optional[int] = None):
        return spec.point(spec.conditional(self.latent, self.history, x, task))


@dataclass
class OracleMetaState:
    """One weighted-particle filter per task over its latent xi, psi known."""

    tasks: List[EnsembleState]

    def observe(self, spec: Process, obs: Observation) -> None:
        self.tasks[obs.task].observe(spec, obs)

    def predict(self, spec: Process, x: Optional[np.ndarray], task: Optional[int] = None):
        return self.tasks[task].predict(spec, x, task)

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


def predict(state, spec: Process, x: Optional[np.ndarray] = None, task: Optional[int] = None):
    """Posterior (or prior) predictive distribution for the next label."""
    return state.predict(spec, x, task)


def log_loss(pred, y: Union[float, int]) -> float:
    """Negative log-probability of y in nats (density for Gaussian kinds)."""
    return pred.log_loss(y)
