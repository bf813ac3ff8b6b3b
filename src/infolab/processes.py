"""Data-generating processes behind one process protocol.

Every process spec owns what differs between processes: its config keys,
prior sampling (a batch of particles; the latent is a batch of one), the
rollout of one replicate into a `History` of arrays, the per-particle
statistic of the next label given the history, and the parameters of its
bound family.  The output family a spec derives from
(Gaussian, Bernoulli or categorical) turns the conditional into a label and
a log-likelihood; every predictive but the conjugate's closed form is a
`Mixture` of that log-likelihood, so predictors and the harness never ask
which process they hold.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Dict, List, Optional

import numpy as np

from .rng import (
    RngStream,
    SeedSpec,
    categorical_indices,
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
    """-log P(y | logit) of binary labels, elementwise over logits and labels.

    log(1 + e^z) as max(z, 0) + log1p(e^-|z|): numpy's vector exp and log1p
    took 29 us on 4096 logits against `np.logaddexp`'s 122 us (2-CPU Xeon,
    numpy 2.4.6), within 4.4e-16 of it.
    """
    z = (1 - 2 * y) * logits  # the sign flips the logit of label 1
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


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


class Particles:
    """Prior draws as stacked per-particle arrays.

    Every latent is a one-particle `Particles`, and an ensemble or an
    enumeration support is many:
    `prior` (a process spec, or the oracle's known-representation prior)
    gives the per-particle statistic.  Every array in `arrays` has the particle
    axis first, so resampling indexes them all alike; each is also an
    attribute of the same name.  An array may be laid out with the particle
    axis contiguous (DeepNet's weights are), and resampling keeps each
    array's layout.  `once` keeps statistics that read only the particles,
    read-only, and they survive resampling, carried along by row.  It holds
    at most `tasks` entries for LinRep and one for the oracle's filter of a
    task.
    """

    # Particles keep no draw list; the name stays, always None, because
    # perfbench's unique_particle_frac still reads it.
    latents = None

    def __init__(self, prior, size: int, **arrays):
        self.prior = prior
        self.size = size
        self.arrays = arrays
        for name, value in arrays.items():
            setattr(self, name, value)
        self._memo = {}

    def once(self, key, compute) -> np.ndarray:
        """compute(), computed on the first call per key and kept read-only; its
        row of a particle must read that particle alone, as `resample` carries rows."""
        if key not in self._memo:
            self._memo[key] = value = compute()
            value.flags.writeable = False
        return self._memo[key]

    def resample(self, indices: np.ndarray) -> "Particles":
        """The particles and kept statistics at `indices`, each in its array's
        memory layout: the bits of `a[indices]`, several times faster."""
        arrays = {name: _take_rows(a, indices) for name, a in self.arrays.items()}
        out = Particles(self.prior, len(indices), **arrays)
        for key, value in self._memo.items():
            out.once(key, lambda: _take_rows(value, indices))  # called at once, in the loop
        return out


def _take_rows(a: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """a[indices] along axis 0, in a's layout: a C-contiguous array by `take` on
    axis 0, any other by `take` along its contiguous axis (26 us on an F-contiguous
    (4096, 3, 3) array, against 74 us for `take` on axis 0, whose result is C)."""
    if a.flags.c_contiguous:
        return a.take(indices, axis=0)
    return a.T.take(indices, axis=-1).T


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

    A latent is a one-particle draw from the prior, so adding a process
    means writing one spec class.  A spec sets `kind` and `config` (see
    `Configurable`), `bound_id` and `bound_args` (bound parameter ->
    attribute).  It implements `sample_particles(size, stream)` (`size` iid
    prior draws as block draws from the one stream; `sample_latent` is its
    block of one), `rollout` (one replicate's `History`, drawn in blocks)
    and `particle_stat`: per particle, the statistic of label n of a history
    given the labels before it, for all particles at once.  Neither has a
    per-draw default.  The output family supplies `label_draws`, `label` and
    `loglik` (elementwise over statistics), which `Mixture` mixes into a
    predictive; meta processes read the task of each step from the history
    and iid ones their input.
    """

    meta = False

    def bound_params(self) -> Dict:
        return {name: getattr(self, attr) for name, attr in self.bound_args.items()}

    def irreducible_rate(self) -> Optional[float]:
        return None

    def conditional(self, latent: Particles, history: "History", n: int):
        """The statistic of label n given the latent and the labels before it."""
        return self.particle_stat(latent, history, n)[0]

    def conditional_losses(self, latent: Particles, history: "History", n: int) -> np.ndarray:
        """(n,) log-losses of the history's last n labels, each under its
        conditional given the latent and the labels before it: the omniscient's."""
        end = len(history.y)
        return np.array([
            -self.loglik(np.asarray(self.conditional(latent, history, i))[None], history.y[i])[0]
            for i in range(end - n, end)
        ])


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

    `stats(latent, x)` gives the one-particle latent's statistic at an input
    (d,) or at each row of inputs (n, d), for the rollout.  It sums by
    einsum, which gives a row the same bits in any batch, so a rollout of T
    steps is a prefix of a longer one.  The conditional is that statistic, so
    the omniscient predicts with the rollout's own means, and its losses on a
    history are one `stats` and one `loglik` call with the bits of n steps.
    """

    def rollout(self, latent, n: int, stream: RngStream) -> "History":
        """Inputs from path ("inputs", 0), label noises or uniforms from ("noise", 0)."""
        x = stream.derive(("inputs", 0)).gen.normal(size=(n, self.d))
        draws = self.label_draws(stream.derive(("noise", 0)), n)
        return History(y=self.label(self.stats(latent, x), draws), x=x)

    def conditional(self, latent, history, n):
        return self.stats(latent, history.x[n])

    def conditional_losses(self, latent, history, n):
        start = len(history.y) - n
        return -self.loglik(self.stats(latent, history.x[start:]), history.y[start:])


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

    def sample_particles(self, size: int, stream: RngStream) -> Particles:
        theta = stream.gen.normal(0.0, math.sqrt(self.prior_var), size=(size,) + self.theta_shape)
        return Particles(self, size, theta=theta)


class _Linear(_GaussianTheta, _Iid):
    """The statistic theta^T x of linear and logistic regression, theta shaped (d,)."""

    @property
    def theta_shape(self):
        return (self.d,)

    # Two forms of one statistic.  The rollout and the omniscient sum by einsum
    # over the inputs, which keeps a row's bits independent of the batch.
    def stats(self, latent, x):
        return np.einsum("...d,d->...", x, latent.theta[0])

    # The ensemble multiplies by BLAS: at d = 3 and 4096 particles `theta @ x`
    # took 4.6 us against the einsum's 27 us (2-CPU box, numpy 2.4.6).
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

    # Layer i is the array w{i}, shaped (S, out, in); arrays keep layer order.  Each
    # is stored particle-contiguous (Fortran order, the same draws), so the einsums
    # of `particle_stat` run over the particles innermost: 49 us a step against
    # 174 us in C order at width 3, depth 3 and 4096 particles (2-CPU box, numpy 2.4.6).
    def sample_particles(self, size: int, stream: RngStream) -> Particles:
        return Particles(self, size, **{
            f"w{i}": np.asfortranarray(stream.gen.normal(0.0, sd, size=(size,) + shape))
            for i, (shape, sd) in enumerate(self._layers())
        })

    # Two forms of one statistic, as for LinReg and LogReg: the rollout contracts
    # the latent's weights in C order, so its labels do not depend on how particles
    # are stored (the summation order differs in the last bits); the particles
    # contract in their own layout.
    def stats(self, latent, x):
        return relu_forward([np.ascontiguousarray(w[0]) for w in latent.arrays.values()], x)

    def particle_stat(self, particles, history, n):
        return relu_forward(list(particles.arrays.values()), history.x[n])


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

    # atoms (S, A, d) unit rows, weights (S, A), signs (S, A) +-1 and tail_mass (S,).
    # Draws differ in their atom count; A is the largest, and a shorter draw has zero
    # weights past its own count, which add nothing to the output.
    def sample_particles(self, size: int, stream: RngStream) -> Particles:
        weights, atoms, tail_mass = sample_stick_breaking(
            stream, size, self.scale, self.d, self.tail_tol
        )
        signs = np.where(stream.gen.random(weights.shape) < 0.5, 1.0, -1.0)
        return Particles(self, size, atoms=atoms, weights=weights, signs=signs, tail_mass=tail_mass)

    def stats(self, latent, x):
        return dirichlet_net_output(self, latent, x)[..., 0]

    def particle_stat(self, particles, history, n):
        return dirichlet_net_output(self, particles, history.x[n])


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
        if (self.phi0 is None) != (self.phi1 is None):
            raise ValueError("ark embeddings phi0 and phi1 must both be given, or neither")
        if self.phi0 is None:
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

    def particle_stat(self, particles, history, n):
        ctx = _context(self, history.y[:n])
        phis = np.where(ctx[::-1, None] == 1, self.phi1, self.phi0)  # (K, d), row k-1 for bit -k
        # One BLAS gemv over the flattened (K d) axis: 8 us against einsum's 23 us
        # at 4096 particles and context 2, where the two give the same bits.
        return particles.theta.reshape(particles.size, -1) @ phis.ravel()


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

    # Layer l is the attention matrix a{l} (S, r, r) and the value matrix v{l}
    # (S, out, r): out is r below the last layer and vocab at it.
    def sample_particles(self, size: int, stream: RngStream) -> Particles:
        arrays, r = {}, self.attn_dim
        for layer in range(self.depth):
            arrays[f"a{layer}"] = stream.gen.normal(size=(size, r, r))
            rows = self.vocab if layer == self.depth - 1 else r
            arrays[f"v{layer}"] = (
                sample_unit_sphere(stream, r, (size, rows)) if self.v_prior == "sphere_rows"
                else stream.gen.normal(0.0, math.sqrt(1.0 / r), size=(size, rows, r))
            )
        return Particles(self, size, **arrays)

    def particle_stat(self, particles, history, n) -> np.ndarray:
        return transformer_next_pmf(self, particles, history.y[:n])


@dataclass(frozen=True)
class LinRep(_Categorical):
    """Linear representation learning: theta_m = psi xi_m, iid softmax draws.

    A meta process over `tasks` tasks: step i of a rollout belongs to task
    i % tasks.  `particle_stat` checks the history's task, so the latent and
    the particles refuse a task outside [0, tasks) alike.
    """

    d: int
    r: int
    tasks: int

    kind = "linrep"
    config = {"d": strict_int, "r": strict_int, "tasks": strict_int}
    bound_id = "linrep_error"
    bound_args = {"d": "d", "r": "r", "M": "tasks"}
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

    # psi (S, d, r) has orthonormal columns; xi is (S, tasks, r).
    def sample_particles(self, size: int, stream: RngStream) -> Particles:
        psi = orthonormal_columns(stream.gen.normal(size=(size, self.d, self.r)))
        xi = stream.gen.normal(0.0, math.sqrt(1.0 / self.r), size=(size, self.tasks, self.r))
        return Particles(self, size, psi=psi, xi=xi)

    def task_pmfs(self, particles: Particles, task: int) -> np.ndarray:
        """(S, d) label pmfs of the task, one per particle, computed once per task."""
        return particles.once(task, lambda: softmax(
            np.einsum("sdr,sr->sd", particles.psi, particles.xi[:, task]), axis=1
        ))

    def rollout(self, latent, n: int, stream: RngStream) -> "History":
        """n steps, each task's labels drawn by its uniforms of path ("noise", 0)."""
        M, u = self.tasks, self.label_draws(stream.derive(("noise", 0)), n)
        y = np.empty(n, dtype=int)
        for m in range(M):
            y[m::M] = self.label(self.task_pmfs(latent, m)[0], u[m::M])
        return History(y=y, task=np.arange(n) % M)

    def particle_stat(self, particles, history, n):
        return self.task_pmfs(particles, self.check_task(history, n))


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
    """Deterministic forward pass; hidden layers ReLU, output layer linear.

    Weights (out, in) give the output at an input (d,) or at each row of
    inputs (n, d); weights (S, out, in) give each of S nets' output at an input.
    """
    u = np.asarray(x, dtype=float)
    for layer, w in enumerate(weights):
        if w.shape[-1] != u.shape[-1]:
            raise ValueError("weight/input shape mismatch")
        u = np.einsum("...i,...oi->...o", u, w)
        if layer < len(weights) - 1:
            u = np.maximum(u, 0.0)
    return u[..., 0]


def dirichlet_net_output(spec: DirichletNet, particles: Particles, x: np.ndarray):
    """Noiseless output c sum_w theta_w ReLU(w^T x) of each particle's truncated
    draw, at an input (d,) or at each row of inputs (n, d): shape (S,) or (n, S)."""
    acts = np.maximum(np.einsum("...d,sad->...sa", x, particles.atoms), 0.0)
    # quantizers._net_outputs writes each net at many inputs as `acts @ (signs * weights)`;
    # the two orders differ in the last bit, and each is pinned (rollouts here, width
    # reduction there).
    return spec.output_scale * np.sum(particles.signs * particles.weights * acts, axis=-1)


def _clip_columns(u: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(u, axis=-2, keepdims=True)
    factor = np.minimum(1.0, 1.0 / np.maximum(norms, 1e-300))
    return u * factor


def attention_layer(U: np.ndarray, A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """One transformer layer: Clip(V U Softmax(U^T A U / sqrt(r))) of U (..., r, K), A (..., r, r)
    and V (..., out, r); leading (particle) axes broadcast, each slice with its 2-D bits."""
    r = A.shape[-1]
    if U.shape[-2] != r or A.shape[-2:] != (r, r) or V.shape[-1] != r:
        raise ValueError("shape mismatch in attention layer")
    attn = softmax((U.swapaxes(-1, -2) @ A @ U) / math.sqrt(r), axis=-2)
    return _clip_columns(V @ (U @ attn))


def _context(spec, labels: np.ndarray) -> np.ndarray:
    """The last `spec.context` labels; a shorter history has no next label law."""
    if len(labels) < spec.context:
        raise ValueError("history shorter than the context length")
    return np.asarray(labels[len(labels) - spec.context:])


def transformer_next_pmf(spec: Transformer, particles: Particles, tokens: List[int]) -> np.ndarray:
    """(S, vocab) next-token pmfs of the particles given the last `context`
    tokens (1-based indices)."""
    u = spec.embeddings[_context(spec, tokens) - 1].T  # (r, K)
    for layer in range(spec.depth):
        u = attention_layer(u, particles.arrays[f"a{layer}"], particles.arrays[f"v{layer}"])
    return softmax(u[..., -1])


# ---------------------------------------------------------------------------
# Generator interface
# ---------------------------------------------------------------------------


def sample_latent(spec: Process, stream: RngStream) -> Particles:
    """Draw latent parameters exactly from the process prior: its block of one particle."""
    return spec.sample_particles(1, stream)


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
