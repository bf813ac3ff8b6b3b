"""Data-generating processes behind one process protocol.

Every process spec owns what differs between processes: its config keys,
prior sampling (one latent, or a batch of particles), the rollout of one
replicate into a `History` of arrays, the true conditional of the next label
given latent and history, the per-particle form of that conditional, and the
parameters of its bound family.  The output family a spec derives from
(Gaussian, Bernoulli or categorical) turns the conditional into a label and
a log-likelihood; every predictive but the conjugate's closed form is a
`Mixture` of that log-likelihood, so predictors and the harness never ask
which process they hold.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Optional

import numpy as np

from .rng import (
    RngStream,
    SeedSpec,
    StickBreakingDraw,
    categorical_indices,
    sample_gaussian,
    sample_stick_breaking,
    sample_unit_sphere,
)

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Predictive distributions
# ---------------------------------------------------------------------------


def logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(a - m))))


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """exp(a) normalized along `axis`, computed after subtracting the maximum."""
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def mean_se(values: np.ndarray):
    """(mean, standard error) of replicate values; the SE uses the n - 1 sample std."""
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


def gaussian_log_loss(mean, variance, y):
    """-log N(y; mean, variance) in nats, elementwise over means, variances and labels.

    The residual is squared by a product, since a numpy scalar's `** 2` calls
    libm pow and an array's multiplies: so one loss gets the same bits alone
    and in a batch.
    """
    residual = y - mean
    return 0.5 * (LOG_2PI + np.log(variance)) + residual * residual / (2.0 * variance)


def sigmoid(z: float) -> float:
    """The logistic function of a scalar, branching on the sign so exp never
    overflows; `sigmoids` is the elementwise form."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def sigmoids(z: np.ndarray) -> np.ndarray:
    """The logistic function elementwise over an array; `sigmoid` is the scalar
    form.  Rollout labels are pinned to these bits: np.exp can differ from
    math.exp in the last bit."""
    return 1.0 / (1.0 + np.exp(-z))


def bernoulli_log_loss(logits, y):
    """-log P(y | logit) of binary labels, elementwise over logits and labels."""
    return np.logaddexp(0.0, (1 - 2 * y) * logits)  # the sign flips the logit of label 1


@dataclass
class GaussianPred:
    """The closed-form predictive N(mean, variance) of the conjugate posterior."""

    mean: float
    variance: float

    def log_loss(self, y: float) -> float:
        return gaussian_log_loss(self.mean, self.variance, y)


@dataclass
class Mixture:
    """The predictive of every family: the label law at each statistic in
    `stats` (a spec's `loglik`), mixed by the weights exp(log_weights).

    Its log-loss is the log-normaliser of the Bayes reweighting by that
    label, so a weighted-particle state's `observe` returns the same number.
    The omniscient predicts with one component at the true statistic.
    """

    spec: Process
    stats: np.ndarray
    log_weights: np.ndarray

    def log_loss(self, y) -> float:
        return -logsumexp(self.log_weights + self.spec.loglik(self.stats, y))


# ---------------------------------------------------------------------------
# Particles: batches of prior draws
# ---------------------------------------------------------------------------


def _once(memo: dict, key, compute) -> np.ndarray:
    """compute(), stored read-only in memo on the first call per key."""
    if key not in memo:
        memo[key] = value = compute()
        value.flags.writeable = False
    return memo[key]


class Particles:
    """Prior draws as a latent list, stacked per-particle arrays, or both.

    `prior` (a process spec, or a predictor kind with its own prior) gives
    the per-particle statistic.  Every array in `arrays` has the particle
    axis first, so resampling indexes them all alike; each is also an
    attribute of the same name.  `once` keeps statistics that read only the
    particles, read-only, until resampling builds new particles.
    """

    def __init__(self, prior, size: int, latents: Optional[List] = None, **arrays):
        self.prior = prior
        self.size = size
        self.latents = latents
        self.arrays = arrays
        for name, value in arrays.items():
            setattr(self, name, value)
        self._memo = {}

    def once(self, key, compute) -> np.ndarray:
        """compute(), computed on the first call per key and kept read-only."""
        return _once(self._memo, key, compute)

    @classmethod
    def stack(cls, prior, latents: List) -> "Particles":
        return cls(prior, len(latents), latents, **prior.stack_particles(latents))

    def resample(self, indices: np.ndarray) -> "Particles":
        latents = None if self.latents is None else [self.latents[i] for i in indices]
        arrays = {name: a[indices] for name, a in self.arrays.items()}
        return Particles(self.prior, len(indices), latents, **arrays)


# ---------------------------------------------------------------------------
# The process protocol and its output families
# ---------------------------------------------------------------------------


class Configurable:
    """A class that a config table names.

    `kind` is its name in configs and `config` maps each config key to its
    conversion.  Keys naming a dataclass field without a default are required;
    absent keys take the field defaults.  Predictor kinds are built for a
    process spec, which `from_config` receives.
    """

    @classmethod
    def required(cls) -> List[str]:
        return [f.name for f in fields(cls) if f.name in cls.config and f.default is MISSING]

    @classmethod
    def from_config(cls, values: Dict, spec=None):
        return cls(**values)


class Process(Configurable):
    """Generator interface shared by every process spec.

    A spec sets `kind` and `config` (see `Configurable`), `bound_id` and
    `bound_args` (bound parameter -> attribute).  It implements
    `sample_latent`, `rollout` (one replicate's `History`, drawn in blocks)
    and `conditional`: the statistic of label n of a history given the latent
    and the labels before it.  Specs with array latents batch
    `sample_particles`, vectorize `particle_stat` and name the latent fields
    it reads stacked in `particle_arrays`.  The output family supplies
    `label_draws`, `label` and `loglik` (elementwise over statistics), which
    `Mixture` mixes into a predictive; meta processes read the task of each
    step from the history and iid ones their input.
    """

    meta = False
    particle_arrays = ()  # latent fields that particle_stat reads as stacked arrays

    def bound_params(self) -> Dict:
        return {name: getattr(self, attr) for name, attr in self.bound_args.items()}

    def irreducible_rate(self) -> Optional[float]:
        return None

    def sample_particles(self, size: int, stream: RngStream) -> Particles:
        """`size` iid prior draws; processes with array latents batch this."""
        return Particles.stack(
            self, [self.sample_latent(sub) for sub in stream.children("particle", size)]
        )

    def stack_particles(self, latents: List) -> Dict[str, np.ndarray]:
        """Per-particle arrays for given latents, e.g. an enumeration support:
        the latent fields named in `particle_arrays`, stacked."""
        return {n: np.stack([getattr(l, n) for l in latents]) for n in self.particle_arrays}

    def particle_stat(self, particles: Particles, history: "History", n: int) -> np.ndarray:
        # Latent-list particles, e.g. Dirichlet draws whose atom counts differ.
        return np.array([self.conditional(l, history, n) for l in particles.latents])


class _Gaussian(Process):
    """Y = conditional mean + N(0, noise_var), inputs X ~ N(0, I_d)."""

    def label_draws(self, stream: RngStream, n: int) -> np.ndarray:
        return stream.gen.normal(0.0, math.sqrt(self.noise_var), size=n)

    def label(self, means, noises):
        return means + noises

    def loglik(self, means, y):
        return -gaussian_log_loss(means, self.noise_var, y)

    def irreducible_rate(self) -> float:
        return 0.5 * math.log(2.0 * math.pi * math.e * self.noise_var)


class _Bernoulli(Process):
    """Binary labels with P(Y = 1) = sigmoid(conditional logit)."""

    def label_draws(self, stream: RngStream, n: int) -> np.ndarray:
        return stream.gen.random(n)

    def label(self, logits, u):
        """1 where the uniform u falls below P(Y = 1), else 0."""
        return (u < sigmoids(logits)).astype(int)

    def loglik(self, logits, y):
        return -bernoulli_log_loss(logits, y)


class _Categorical(Process):
    """Labels 1..V drawn from the conditional pmf; inputs are absent."""

    def label_draws(self, stream: RngStream, n: int) -> np.ndarray:
        return stream.gen.random(n)

    def label(self, pmf: np.ndarray, u):
        """The labels that uniforms u draw from one pmf."""
        return categorical_indices(pmf, u) + 1

    def loglik(self, pmfs, y):
        """log pmf(y) per row of pmfs (S, V), floored at log 1e-300: a label that
        every component forbids costs a mixture 690.8 nats, not +inf."""
        return np.log(np.maximum(pmfs[:, int(y) - 1], 1e-300))


class _Iid:
    """Processes whose label depends on the latent and its own input alone.

    `stats(latent, x)` gives the statistic at an input (d,) or at each row of
    inputs (n, d).  It sums by einsum, which gives a row the same bits in any
    batch, so a rollout of T steps is a prefix of a longer one.
    """

    def conditional(self, latent, history: "History", n: int):
        return self.stats(latent, history.x[n])

    def rollout(self, latent, n: int, stream: RngStream) -> "History":
        """Inputs from path ("inputs", 0), label noises or uniforms from ("noise", 0)."""
        x = stream.derive(("inputs", 0)).gen.normal(size=(n, self.d))
        draws = self.label_draws(stream.derive(("noise", 0)), n)
        return History(y=self.label(self.stats(latent, x), draws), x=x)


class _Sequence:
    """Token processes: the next label depends on the last `context` labels.

    A rollout opens with `context` uniform seed labels from path ("init", 0);
    then label i is drawn by the i-th uniform of path ("noise", 0).
    """

    def rollout(self, latent, n: int, stream: RngStream) -> "History":
        k = self.context
        y = np.empty(k + n, dtype=int)
        y[:k] = self.seed_labels(stream.derive(("init", 0)), k)
        history, draws = History(y=y), self.label_draws(stream.derive(("noise", 0)), n)
        for i in range(k, k + n):
            y[i] = self.label(self.conditional(latent, history, i), draws[i - k])
        return history


# ---------------------------------------------------------------------------
# Process specifications
# ---------------------------------------------------------------------------


class _GaussianTheta:
    """Specs whose latent is theta, iid N(0, prior_var) entries shaped theta_shape."""

    particle_arrays = ("theta",)  # (S, *theta_shape)

    def sample_latent(self, stream: RngStream) -> "ThetaLatent":
        return ThetaLatent(self._theta(stream, self.theta_shape))

    def sample_particles(self, size: int, stream: RngStream) -> Particles:
        return Particles(self, size, theta=self._theta(stream, (size,) + self.theta_shape))

    def _theta(self, stream: RngStream, shape) -> np.ndarray:
        return stream.gen.normal(0.0, math.sqrt(self.prior_var), size=shape)


class _Linear(_GaussianTheta, _Iid):
    """The statistic theta^T x of linear and logistic regression, theta shaped (d,)."""

    @property
    def theta_shape(self):
        return (self.d,)

    def stats(self, latent, x):
        return np.einsum("...d,d->...", x, latent.theta)

    def particle_stat(self, particles, history, n):
        return particles.theta @ history.x[n]


def _check_unit_rows(arr: np.ndarray, name: str) -> None:
    norms = np.linalg.norm(np.atleast_2d(arr), axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-12:
        raise ValueError(f"{name} rows must have unit norm")


def strict_int(value) -> int:
    """int(value), refusing booleans and numbers with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def strict_seed(value) -> int:
    """strict_int(value), refusing a seed outside the 64-bit unsigned range."""
    seed = strict_int(value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{value!r} is not a 64-bit unsigned integer")
    return seed


def strict_float(value) -> float:
    """float(value) of a number or numeric string, refusing booleans, NaN and infinities."""
    number = isinstance(value, (int, float, str)) and not isinstance(value, bool)
    if not number or not math.isfinite(float(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _exactly(kind: type, what: str):
    """The config conversion that accepts only values of `kind`, unchanged."""
    def convert(value):
        if not isinstance(value, kind):
            raise ValueError(f"{value!r} is not {what}")
        return value
    return convert


strict_bool = _exactly(bool, "a boolean (true or false)")
strict_str = _exactly(str, "a string")
strict_list = _exactly(list, "a list")


def float_array(value) -> np.ndarray:
    """A list of finite numbers, each read as strict_float reads it."""
    return np.array([strict_float(v) for v in strict_list(value)])


@dataclass(frozen=True)
class LinReg(_Linear, _Gaussian):
    """Linear regression: theta ~ N(0, prior_var I_d), Y = theta^T X + W."""

    d: int
    noise_var: float
    prior_var: Optional[float] = None

    kind = "linreg"
    config = {"d": strict_int, "noise_var": strict_float, "prior_var": strict_float}
    bound_id = "linreg_error"
    bound_args = {"d": "d", "noise_var": "noise_var"}

    def __post_init__(self):
        if self.d < 1 or self.noise_var <= 0:
            raise ValueError("d >= 1 and noise_var > 0 required")
        if self.prior_var is None:
            object.__setattr__(self, "prior_var", 1.0 / self.d)
        if self.prior_var < 0:
            raise ValueError("linreg process key 'prior_var' must be nonnegative")


@dataclass(frozen=True)
class LogReg(_Linear, _Bernoulli):
    """Logistic regression: theta ~ N(0, I_d/d), P(Y=1) = sigmoid(theta^T X)."""

    d: int

    kind = "logreg"
    config = {"d": strict_int}
    bound_id = "logreg_error"
    bound_args = {"d": "d"}

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d >= 1 required")

    @property
    def prior_var(self) -> float:
        return 1.0 / self.d


@dataclass(frozen=True)
class DeepNet(_Iid, _Gaussian):
    """ReLU stack with Gaussian weight priors and linear scalar output."""

    d: int
    width: int
    depth: int
    noise_var: float

    kind = "deepnet"
    config = {"d": strict_int, "width": strict_int, "depth": strict_int, "noise_var": strict_float}
    bound_id = "deepnet_error"
    bound_args = {"d": "d", "width": "width", "depth": "depth", "noise_var": "noise_var"}

    def __post_init__(self):
        if min(self.d, self.width, self.depth) < 1 or self.noise_var <= 0:
            raise ValueError("dimensions >= 1 and noise_var > 0 required")

    def _layers(self):
        """(shape, prior standard deviation) of each weight matrix, input first."""
        d, n = self.d, self.width
        if self.depth == 1:
            return [((1, d), math.sqrt(1.0 / d))]
        hidden = [((n, n), math.sqrt(1.0 / n))] * (self.depth - 2)
        return [((n, d), math.sqrt(1.0 / d))] + hidden + [((1, n), math.sqrt(1.0 / n))]

    def sample_latent(self, stream: RngStream) -> "DeepNetLatent":
        weights = []
        for layer, (shape, sd) in enumerate(self._layers()):
            weights.append(stream.derive(("layer", layer)).gen.normal(0.0, sd, size=shape))
        return DeepNetLatent(weights=weights)

    def sample_particles(self, size: int, stream: RngStream) -> Particles:
        # Layer i is the array w{i}, shaped (S, out, in); arrays keep layer order.
        weights = {
            f"w{i}": stream.gen.normal(0.0, sd, size=(size,) + shape)
            for i, (shape, sd) in enumerate(self._layers())
        }
        return Particles(self, size, **weights)

    def stack_particles(self, latents):
        return {
            f"w{i}": np.stack([l.weights[i] for l in latents]) for i in range(self.depth)
        }

    def stats(self, latent, x):
        return relu_forward(latent.weights, x)

    def particle_stat(self, particles, history, n):
        x = history.x[n]
        u = np.broadcast_to(x, (particles.size, len(x)))
        for i, w in enumerate(particles.arrays.values()):
            u = np.einsum("soi,si->so", w, u)
            if i < self.depth - 1:
                u = np.maximum(u, 0.0)
        return u[:, 0]


@dataclass(frozen=True)
class DirichletNet(_Iid, _Gaussian):
    """Infinite-width net drawn from a Dirichlet process over sphere atoms.

    Y = W + c sum_w theta_w ReLU(w^T X) with c = sqrt(scale) by default or
    sqrt(scale + 1) when plus_one_scaling is set (the convention of the
    scaling-law analysis).
    """

    d: int
    scale: float
    noise_var: float
    tail_tol: float = 1e-8
    plus_one_scaling: bool = False

    kind = "dirichlet"
    config = {
        "d": strict_int, "scale": strict_float, "noise_var": strict_float, "tail_tol": strict_float,
        "plus_one_scaling": strict_bool,
    }
    bound_id = "dirichlet_error"
    bound_args = {"d": "d", "K": "scale", "noise_var": "noise_var"}

    def __post_init__(self):
        if self.d < 1 or self.scale <= 0 or self.noise_var <= 0:
            raise ValueError("d >= 1, scale > 0, noise_var > 0 required")
        if not 0 < self.tail_tol < 1:
            raise ValueError("dirichlet process key 'tail_tol' must lie in (0, 1)")

    @property
    def output_scale(self) -> float:
        return math.sqrt(self.scale + 1.0 if self.plus_one_scaling else self.scale)

    def sample_latent(self, stream: RngStream) -> "DirichletNetLatent":
        draw = sample_stick_breaking(stream, self.scale, self.d, self.tail_tol)
        signs = np.where(stream.gen.random(len(draw.weights)) < 0.5, 1.0, -1.0)
        return DirichletNetLatent(draw=draw, signs=signs)

    def stats(self, latent, x):
        return dirichlet_net_output(self, latent, x)


def _default_ark_embeddings(d: int):
    if d == 1:
        return np.array([1.0]), np.array([-1.0])
    phi0 = np.zeros(d)
    phi1 = np.zeros(d)
    phi0[0] = 1.0
    phi1[1] = 1.0
    return phi0, phi1


@dataclass(frozen=True)
class BinaryARK(_Sequence, _GaussianTheta, _Bernoulli):
    """Binary AR(K): P(X_{t+1}=1) = sigmoid(sum_k theta_k^T phi_{t-k+1})."""

    d: int
    context: int
    phi0: Optional[np.ndarray] = None  # both default to _default_ark_embeddings(d)
    phi1: Optional[np.ndarray] = None

    kind = "ark"
    config = {"d": strict_int, "context": strict_int, "phi0": float_array, "phi1": float_array}
    bound_id = "ark_error"
    bound_args = {"d": "d", "K": "context"}

    def __post_init__(self):
        if self.phi0 is None and self.phi1 is None:
            phi0, phi1 = _default_ark_embeddings(self.d)
            object.__setattr__(self, "phi0", phi0)
            object.__setattr__(self, "phi1", phi1)
        object.__setattr__(self, "phi0", np.asarray(self.phi0, dtype=float))
        object.__setattr__(self, "phi1", np.asarray(self.phi1, dtype=float))
        if self.d < 1 or self.context < 1:
            raise ValueError("d >= 1 and context >= 1 required")
        if self.phi0.shape != (self.d,) or self.phi1.shape != (self.d,):
            raise ValueError("embeddings must have shape (d,)")
        _check_unit_rows(self.phi0, "phi0")
        _check_unit_rows(self.phi1, "phi1")

    @property
    def prior_var(self) -> float:
        return 1.0 / self.context

    @property
    def theta_shape(self):
        return (self.context, self.d)  # theta[k-1] pairs with phi_{t-k+1}

    def seed_labels(self, stream: RngStream, k: int) -> np.ndarray:
        return stream.gen.integers(2, size=k)

    def conditional(self, latent, history, n) -> float:
        return ark_logit(self, latent, history.y[:n])

    def particle_stat(self, particles, history, n):
        ctx = _context(self, history.y[:n])
        phis = np.where(ctx[::-1, None] == 1, self.phi1, self.phi0)  # (K, d), row k-1 for bit -k
        return np.einsum("skd,kd->s", particles.theta, phis)


@dataclass(frozen=True)
class Transformer(_Sequence, _Categorical):
    """Autoregressive token process driven by a clipped softmax-attention stack.

    embeddings has shape (vocab, attn_dim) with unit-norm rows; v_prior selects
    the prior on value-matrix rows (uniform sphere rows by default, or iid
    Gaussian entries of variance 1/attn_dim).
    """

    vocab: int
    attn_dim: int
    depth: int
    context: int
    embeddings: np.ndarray
    v_prior: str = "sphere_rows"

    kind = "transformer"
    # embed_seed (default 0) seeds the embeddings built by from_config.
    config = {
        "vocab": strict_int, "attn_dim": strict_int, "depth": strict_int, "context": strict_int,
        "v_prior": strict_str, "embed_seed": strict_seed,
    }
    bound_id = "transformer_error"
    bound_args = {"d": "vocab", "r": "attn_dim", "L": "depth", "K": "context"}

    def __post_init__(self):
        object.__setattr__(self, "embeddings", np.asarray(self.embeddings, dtype=float))
        if min(self.vocab, self.attn_dim, self.depth, self.context) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.embeddings.shape != (self.vocab, self.attn_dim):
            raise ValueError("embeddings must have shape (vocab, attn_dim)")
        _check_unit_rows(self.embeddings, "embeddings")
        if self.v_prior not in ("sphere_rows", "gaussian"):
            raise ValueError("v_prior must be 'sphere_rows' or 'gaussian'")

    @classmethod
    def from_config(cls, values: Dict, spec=None) -> "Transformer":
        seed = values.pop("embed_seed", 0)
        stream = RngStream(SeedSpec(seed, (("embed", 0),)))
        emb = make_embeddings(values["vocab"], values["attn_dim"], stream)
        return cls(embeddings=emb, **values)

    def seed_labels(self, stream: RngStream, k: int) -> np.ndarray:
        return stream.gen.integers(self.vocab, size=k) + 1

    def sample_latent(self, stream: RngStream) -> "TransformerLatent":
        attn = []
        value = []
        r = self.attn_dim
        for layer in range(self.depth):
            sub = stream.derive(("layer", layer))
            attn.append(sub.gen.normal(size=(r, r)))
            out_rows = self.vocab if layer == self.depth - 1 else r
            if self.v_prior == "sphere_rows":
                rows = [sample_unit_sphere(sub, r) for _ in range(out_rows)]
                value.append(np.array(rows))
            else:
                value.append(sub.gen.normal(0.0, math.sqrt(1.0 / r), size=(out_rows, r)))
        return TransformerLatent(attn=attn, value=value)

    def conditional(self, latent, history, n) -> np.ndarray:
        return transformer_next_pmf(self, latent, history.y[:n])


@dataclass(frozen=True)
class LinRep(_Categorical):
    """Linear representation learning: theta_m = psi xi_m, iid softmax draws.

    A meta process over `tasks` tasks: step i of a rollout belongs to task
    i % tasks.  `conditional` and `particle_stat` check the history's task,
    so they refuse a task outside [0, tasks) alike.
    """

    d: int
    r: int
    tasks: int

    kind = "linrep"
    config = {"d": strict_int, "r": strict_int, "tasks": strict_int}
    bound_id = "linrep_error"
    bound_args = {"d": "d", "r": "r", "M": "tasks"}
    particle_arrays = ("psi", "xi")  # (S, d, r), (S, M, r)
    meta = True

    def __post_init__(self):
        if self.r < 1 or self.tasks < 1:
            raise ValueError("r >= 1 and tasks >= 1 required")
        if self.d <= self.r:
            raise ValueError("LinRep requires d > r")

    def check_task(self, history: "History", n: int) -> int:
        """The task of step n of the history, refused unless it lies in [0, tasks)."""
        task = None if history.task is None else int(history.task[n])
        if task is None or not 0 <= task < self.tasks:
            raise ValueError(f"{type(self).__name__} steps need a task index in [0, {self.tasks})")
        return task

    def sample_latent(self, stream: RngStream) -> "LinRepLatent":
        psi = orthonormal_columns(stream.derive(("psi", 0)).gen.normal(size=(self.d, self.r)))
        xi = np.stack(
            [
                sample_gaussian(stream.derive(("xi", m)), self.r, 1.0 / self.r)
                for m in range(self.tasks)
            ]
        )
        return LinRepLatent(psi=psi, xi=xi)

    def sample_particles(self, size: int, stream: RngStream) -> Particles:
        psi = orthonormal_columns(stream.gen.normal(size=(size, self.d, self.r)))
        xi = stream.gen.normal(0.0, math.sqrt(1.0 / self.r), size=(size, self.tasks, self.r))
        return Particles(self, size, psi=psi, xi=xi)

    def rollout(self, latent, n: int, stream: RngStream) -> "History":
        """n steps, each task's labels drawn by its uniforms of path ("noise", 0)."""
        M, u = self.tasks, self.label_draws(stream.derive(("noise", 0)), n)
        y = np.empty(n, dtype=int)
        for m in range(M):
            y[m::M] = self.label(linrep_task_pmf(latent, m), u[m::M])
        return History(y=y, task=np.arange(n) % M)

    def conditional(self, latent, history, n) -> np.ndarray:
        return linrep_task_pmf(latent, self.check_task(history, n))

    def particle_stat(self, particles, history, n):
        task = self.check_task(history, n)
        return particles.once(task, lambda: softmax(
            np.einsum("sdr,sr->sd", particles.psi, particles.xi[:, task]), axis=1
        ))


# Config "kind" -> spec class, for every process a scenario config can name.
PROCESS_KINDS = {
    cls.kind: cls
    for cls in (LinReg, LogReg, DeepNet, DirichletNet, BinaryARK, Transformer, LinRep)
}


def make_embeddings(vocab: int, attn_dim: int, stream: RngStream) -> np.ndarray:
    """Deterministic unit-norm token embeddings.

    Standard basis vectors when vocab <= attn_dim, otherwise an orthonormal-ish
    frame from the QR of a seeded Gaussian matrix with normalized rows.
    """
    if vocab <= attn_dim:
        emb = np.zeros((vocab, attn_dim))
        emb[np.arange(vocab), np.arange(vocab)] = 1.0
        return emb
    g = stream.gen.normal(size=(vocab, attn_dim))
    q, _ = np.linalg.qr(g.T)  # (attn_dim, attn_dim) orthonormal columns
    frame = g @ q  # rotate for determinism of sign structure
    return frame / np.linalg.norm(frame, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Latent parameters
# ---------------------------------------------------------------------------


@dataclass
class ThetaLatent:
    theta: np.ndarray  # shaped by the spec's theta_shape


@dataclass
class DeepNetLatent:
    weights: List[np.ndarray]


@dataclass
class DirichletNetLatent:
    draw: StickBreakingDraw
    signs: np.ndarray  # +-1 per atom, drawn once and frozen


@dataclass
class TransformerLatent:
    attn: List[np.ndarray]  # A^(l), each (r, r)
    value: List[np.ndarray]  # V^(l): (r, r) for l < L, (vocab, r) for l = L


@dataclass
class LinRepLatent:
    psi: np.ndarray  # (d, r), orthonormal columns
    xi: np.ndarray  # (tasks, r)
    # Task pmfs, computed once per task (linrep_task_pmf); psi and xi stay fixed.
    _pmfs: dict = field(default_factory=dict, init=False, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Histories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class History:
    """A replicate's observations as arrays, seed context first.

    y (N,) labels, x (N, d) inputs or None, task (N,) task indices or None.
    At step n a predictor's history is the first n entries: it predicts label
    n (at input x[n], for task[n]) and then observes it.
    """

    y: np.ndarray
    x: Optional[np.ndarray] = None
    task: Optional[np.ndarray] = None

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.y, self.x, self.task) if a is not None)


# ---------------------------------------------------------------------------
# Prior sampling helpers
# ---------------------------------------------------------------------------


def orthonormal_columns(g: np.ndarray) -> np.ndarray:
    """Q of g = QR over (..., d, r), column signs set so diag(R) >= 0 (a zero counts as +1)."""
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


# ---------------------------------------------------------------------------
# Forward maps
# ---------------------------------------------------------------------------


def relu_forward(weights: List[np.ndarray], x: np.ndarray):
    """Deterministic forward pass at an input (d,), or at each row of inputs (n, d);
    hidden layers ReLU, output layer linear."""
    u = np.asarray(x, dtype=float)
    for layer, w in enumerate(weights):
        if w.shape[1] != u.shape[-1]:
            raise ValueError("weight/input shape mismatch")
        u = np.einsum("...i,oi->...o", u, w)
        if layer < len(weights) - 1:
            u = np.maximum(u, 0.0)
    return u[..., 0]


def dirichlet_net_output(spec: DirichletNet, latent: DirichletNetLatent, x: np.ndarray):
    """Noiseless output c sum_w theta_w ReLU(w^T x) of the truncated draw, at an
    input (d,) or at each row of inputs (n, d)."""
    acts = np.maximum(np.einsum("...d,ad->...a", x, latent.draw.atoms), 0.0)
    # quantizers._squared_gap writes the batched form `acts @ (signs * weights)`; the two
    # orders differ in the last bit, and each is pinned (rollouts here, width reduction there).
    return spec.output_scale * np.sum(latent.signs * latent.draw.weights * acts, axis=-1)


def _clip_columns(u: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(u, axis=0, keepdims=True)
    factor = np.minimum(1.0, 1.0 / np.maximum(norms, 1e-300))
    return u * factor


def attention_layer(U: np.ndarray, A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """One transformer layer: Clip(V U Softmax(U^T A U / sqrt(r)))."""
    r = A.shape[0]
    if U.shape[0] != r or A.shape != (r, r) or V.shape[1] != U.shape[0]:
        raise ValueError("shape mismatch in attention layer")
    attn = softmax((U.T @ A @ U) / math.sqrt(r), axis=0)
    return _clip_columns(V @ (U @ attn))


def _context(spec, labels: np.ndarray) -> np.ndarray:
    """The last `spec.context` labels; a shorter history has no next label law."""
    if len(labels) < spec.context:
        raise ValueError("history shorter than the context length")
    return np.asarray(labels[len(labels) - spec.context:])


def transformer_next_pmf(
    spec: Transformer, latent: TransformerLatent, tokens: List[int]
) -> np.ndarray:
    """Next-token pmf given the last `context` tokens (1-based indices)."""
    u = spec.embeddings[_context(spec, tokens) - 1].T  # (r, K)
    for layer in range(spec.depth):
        u = attention_layer(u, latent.attn[layer], latent.value[layer])
    return softmax(u[:, -1])


def ark_logit(spec: BinaryARK, latent: ThetaLatent, bits: List[int]) -> float:
    """Logit of P(next bit = 1) given the last `context` bits."""
    ctx = _context(spec, bits)
    total = 0.0
    for k in range(1, spec.context + 1):
        phi = spec.phi1 if ctx[-k] == 1 else spec.phi0
        total += float(latent.theta[k - 1] @ phi)
    return total


def linrep_task_pmf(latent: LinRepLatent, m: int) -> np.ndarray:
    """Task m's label pmf, kept read-only on the latent after its first call."""
    return _once(latent._pmfs, m, lambda: softmax(latent.psi @ latent.xi[m]))


# ---------------------------------------------------------------------------
# Generator interface
# ---------------------------------------------------------------------------


def sample_latent(spec: Process, stream: RngStream):
    """Draw latent parameters exactly from the process prior."""
    return spec.sample_latent(stream)


def initial_history(spec: Process, latent, stream: RngStream) -> History:
    """A replicate's seed context: K uniform bits/tokens for sequence processes, else empty."""
    return step(spec, latent, 0, stream)


def step(spec: Process, latent, n: int, stream: RngStream) -> History:
    """A replicate's history from its stream: seed context, then n steps of the true process."""
    return spec.rollout(latent, n, stream)


def irreducible_rate(spec: Process) -> Optional[float]:
    """Per-step conditional entropy of labels given the latent.

    Closed form for Gaussian-noise processes; None marks discrete-label
    processes whose irreducible rate must be estimated via the omniscient
    predictor's Monte-Carlo loss.
    """
    return spec.irreducible_rate()
