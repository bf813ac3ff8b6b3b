"""Sequential predictive distributions.

Exact conjugate posterior for the linear-Gaussian model, exact enumeration
posterior over finite latent supports, importance-weighted prior-ensemble
posterior for everything else, the omniscient baseline, and misspecified
variants (wrong conjugate prior; reduced-width function prior).  Each
predictor kind builds its own state; the process spec supplies every
family-specific piece (conditionals, particle statistics, predictives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

# The predictive types live with their output families in processes and are
# re-exported here for callers of the predictors.
from .processes import (
    BernoulliLogitPred,
    CategoricalPred,
    DirichletNet,
    GaussianMixturePred,
    GaussianPred,
    History,
    LinRep,
    Observation,
    Particles,
    Process,
    logsumexp,
)
from .rng import RngStream


def _normalized_log_weights(logw: np.ndarray) -> np.ndarray:
    return logw - logsumexp(logw)


# ---------------------------------------------------------------------------
# Predictor kinds; each builds its own prior state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateLinReg:
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    noise_var: float

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

    def init(self, spec, latent, stream) -> "EnumerationState":
        logp = np.where(self.prior > 0, np.log(np.maximum(self.prior, 1e-300)), -np.inf)
        return EnumerationState(kind=self, log_weights=_normalized_log_weights(logp))


@dataclass(frozen=True)
class PriorEnsemble:
    size: int = 2048
    resample_ess_frac: float = 0.5

    def __post_init__(self):
        if self.size < 2 or not 0 < self.resample_ess_frac <= 1:
            raise ValueError("size >= 2 and 0 < resample_ess_frac <= 1 required")

    def init(self, spec, latent, stream) -> "EnsembleState":
        if stream is None:
            raise ValueError("PriorEnsemble requires a stream")
        particles = spec.sample_particles(self.size, stream.derive(("particles", 0)))
        return EnsembleState.start(self, particles, stream)


@dataclass(frozen=True)
class Omniscient:
    def init(self, spec, latent, stream) -> "OmniscientState":
        if latent is None:
            raise ValueError("Omniscient requires the true latent")
        return OmniscientState(latent=latent)


@dataclass(frozen=True)
class MisspecifiedConjugate(ConjugateLinReg):
    """Conjugate updates under a wrong Gaussian prior; cov may be singular."""


@dataclass(frozen=True)
class MisspecifiedWidth:
    """Ensemble posterior whose particles come from the width-n snapped prior.

    The kind is also the particles' prior: it stacks the width-n nets and
    evaluates their outputs.
    """

    n: int
    eps: float
    size: int = 2048
    resample_ess_frac: float = 0.5

    def __post_init__(self):
        if self.n < 1 or self.size < 2 or self.eps < 0:
            raise ValueError("n >= 1, size >= 2, eps >= 0 required")

    def init(self, spec, latent, stream) -> "EnsembleState":
        if stream is None:
            raise ValueError("MisspecifiedWidth requires a stream")
        if not isinstance(spec, DirichletNet):
            raise TypeError("MisspecifiedWidth applies to the Dirichlet-process net")
        from .quantizers import misspecified_width_prior_sample

        nets = [
            misspecified_width_prior_sample(
                spec, self.n, self.eps, stream.derive(("particle", i))
            )
            for i in range(self.size)
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
        xi = np.stack(
            [
                np.stack(
                    [
                        stream.derive(("task", m), ("particle", i)).gen.normal(
                            0.0, math.sqrt(1.0 / spec.r), size=spec.r
                        )
                        for i in range(self.size)
                    ]
                )
                for m in range(spec.tasks)
            ]
        )
        return OracleMetaState(
            kind=self,
            spec=spec,
            psi=latent.psi,
            xi_particles=xi,
            log_weights=np.full((spec.tasks, self.size), -math.log(self.size)),
            stream=stream.derive(("sis", 0)),
        )


# ---------------------------------------------------------------------------
# Predictor states
# ---------------------------------------------------------------------------


@dataclass
class ConjugateState:
    kind: Union[ConjugateLinReg, MisspecifiedConjugate]
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


@dataclass
class EnumerationState:
    kind: Enumeration
    log_weights: np.ndarray
    history: History = field(default_factory=History)

    def observe(self, spec: Process, obs: Observation) -> None:
        if len(self.history) < spec.seed_tokens:
            # Seed context tokens are prior-independent; no reweighting.
            self.history.append(obs)
            return
        ll = np.array(
            [
                spec.logprob(latent, self.history, obs.x, obs.y, obs.task)
                for latent in self.kind.support
            ]
        )
        self.log_weights = _normalized_log_weights(self.log_weights + ll)
        self.history.append(obs)

    def predict(self, spec: Process, x: Optional[np.ndarray], task: Optional[int] = None):
        return spec.support_predictive(
            self.kind.support, self.history, x, task, self.log_weights
        )


@dataclass
class EnsembleState:
    kind: Union[PriorEnsemble, MisspecifiedWidth]
    particles: Particles
    log_weights: np.ndarray
    stream: RngStream
    history: History = field(default_factory=History)
    resamples: int = 0

    @classmethod
    def start(cls, kind, particles: Particles, stream: RngStream) -> "EnsembleState":
        """Uniform weights over fresh particles; resampling draws from stream."""
        return cls(
            kind=kind,
            particles=particles,
            log_weights=np.full(particles.size, -math.log(particles.size)),
            stream=stream.derive(("sis", 0)),
        )

    def _maybe_resample(self) -> None:
        w = np.exp(self.log_weights)
        ess = 1.0 / float(np.sum(w * w))
        if ess < self.kind.resample_ess_frac * self.particles.size:
            u = self.stream.derive(("resample", self.resamples)).gen.random(
                self.particles.size
            )
            cdf = np.cumsum(w)
            cdf[-1] = 1.0
            idx = np.searchsorted(cdf, u, side="right")
            self.particles = self.particles.resample(idx)
            self.log_weights = np.full(
                self.particles.size, -math.log(self.particles.size)
            )
            self.resamples += 1

    def observe(self, spec: Process, obs: Observation) -> None:
        if len(self.history) < spec.seed_tokens:
            # Seed context tokens are prior-independent; no reweighting.
            self.history.append(obs)
            return
        ll = spec.loglik(self.particles.stat(self.history, obs.x, obs.task), obs.y)
        self.log_weights = _normalized_log_weights(self.log_weights + ll)
        self.history.append(obs)
        self._maybe_resample()

    def predict(self, spec: Process, x: Optional[np.ndarray], task: Optional[int] = None):
        return spec.mixture(self.particles.stat(self.history, x, task), self.log_weights)


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
    """Independent per-task particle filters over task latents, shared psi known."""

    kind: OracleMetaEnsemble
    spec: LinRep
    psi: np.ndarray
    xi_particles: np.ndarray  # (tasks, S, r)
    log_weights: np.ndarray  # (tasks, S)
    stream: RngStream
    resamples: int = 0

    def observe(self, spec: Process, obs: Observation) -> None:
        m = obs.task
        logits = self.xi_particles[m] @ self.psi.T  # (S, d)
        logits -= logits.max(axis=1, keepdims=True)
        pmfs = np.exp(logits)
        pmfs /= pmfs.sum(axis=1, keepdims=True)
        ll = np.log(np.maximum(pmfs[:, int(obs.y) - 1], 1e-300))
        lw = self.log_weights[m] + ll
        lw -= logsumexp(lw)
        w = np.exp(lw)
        size = len(w)
        ess = 1.0 / float(np.sum(w * w))
        if ess < self.kind.resample_ess_frac * size:
            u = self.stream.derive(("resample", self.resamples)).gen.random(size)
            cdf = np.cumsum(w)
            cdf[-1] = 1.0
            idx = np.searchsorted(cdf, u, side="right")
            self.xi_particles[m] = self.xi_particles[m][idx]
            lw = np.full(size, -math.log(size))
            self.resamples += 1
        self.log_weights[m] = lw

    def predict(
        self,
        spec: Process,
        x: Optional[np.ndarray],
        task: Optional[int] = None,
    ) -> CategoricalPred:
        logits = self.xi_particles[task] @ self.psi.T
        logits -= logits.max(axis=1, keepdims=True)
        pmfs = np.exp(logits)
        pmfs /= pmfs.sum(axis=1, keepdims=True)
        w = np.exp(self.log_weights[task])
        return CategoricalPred(pmf=w @ pmfs)


# ---------------------------------------------------------------------------
# Functional interface
# ---------------------------------------------------------------------------


def init_predictor(kind, spec: Process, latent=None, stream: Optional[RngStream] = None):
    """Build the prior state of a predictor kind (no observations seen)."""
    return kind.init(spec, latent, stream)


def observe(state, spec: Process, obs: Observation):
    """Advance the predictor state by one observation (in place; returned)."""
    state.observe(spec, obs)
    return state


def predict(state, spec: Process, x: Optional[np.ndarray] = None, task: Optional[int] = None):
    """Posterior (or prior) predictive distribution for the next label."""
    return state.predict(spec, x, task)


def log_loss(pred, y: Union[float, int]) -> float:
    """Negative log-probability of y in nats (density for Gaussian kinds)."""
    return pred.log_loss(y)
