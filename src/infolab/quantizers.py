"""Operational rate-distortion constructions.

Gaussian latent quantizers, multinomial width reduction of Dirichlet-process
networks, greedy sphere covers, and the reduced-width misspecified prior
sampler built from them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .processes import DirichletNet, Particles, mean_se, sample_latent
from .rng import RngStream, categorical_indices

# Distortion figures below are the squared-function-gap surrogate the
# analytic bounds control, not a raw mutual information.


@dataclass
class QuantizerReport:
    rate_nats: float
    empirical_distortion: float
    distortion_se: float
    distortion_bound: Optional[float] = None

    def __post_init__(self):
        if self.rate_nats < 0:
            raise ValueError("rate must be nonnegative")

    @classmethod
    def from_samples(cls, rate_nats: float, distortions: np.ndarray, bound: Optional[float]):
        """The report whose distortion is the mean, with its SE, of the samples."""
        return cls(rate_nats, *mean_se(distortions), bound)


@dataclass
class SphereCover:
    atoms: np.ndarray  # (n_atoms, d), unit rows
    radius: float  # probe-verified covering radius estimate


def gaussian_quantize(
    theta: np.ndarray,
    delta2: float,
    stream: RngStream,
    prior_var: Optional[float] = None,
    noise_var: Optional[float] = None,
    mc_draws: int = 1000,
) -> Tuple[np.ndarray, QuantizerReport]:
    """Additive-noise quantizer theta_tilde = theta + V, V ~ N(0, delta2/d I).

    Analytic rate is the Gaussian channel information (d/2) ln(1 + d
    prior_var / delta2); the reported distortion bound is the per-step
    surrogate (1/2) ln(1 + delta2 / ((1 + delta2) noise_var)) when noise_var
    is given.  Empirical distortion is the MC mean of ||V||^2 (target delta2).
    """
    theta = np.asarray(theta, dtype=float)
    if delta2 <= 0:
        raise ValueError("delta2 must be positive")
    d = len(theta)
    if prior_var is None:
        prior_var = 1.0 / d
    noise = stream.gen.normal(0.0, math.sqrt(delta2 / d), size=(mc_draws, d))
    sq = np.sum(noise * noise, axis=1)
    rate = 0.5 * d * math.log1p(d * prior_var / delta2)
    bound = None
    if noise_var is not None:
        bound = 0.5 * math.log1p(delta2 / ((1.0 + delta2) * noise_var))
    return theta + noise[0], QuantizerReport.from_samples(rate, sq, bound)


def linreg_quantizer_delta2(eps: float, noise_var: float) -> float:
    """The delta2 achieving per-step distortion eps in the Gaussian quantizer.

    Defined for eps below the threshold (1/2) ln(1 + 1/noise_var), above
    which zero rate already suffices.
    """
    s = noise_var * math.expm1(2.0 * eps)
    if s >= 1.0:
        raise ValueError("eps at or above the zero-rate threshold")
    return s / (1.0 - s)


def width_reduce(spec: DirichletNet, latent: Particles, m: int, stream: RngStream) -> Particles:
    """Multinomial width reduction of a one-particle latent: m atom draws from its
    stick weights, by m uniforms, as a one-particle net of weights 1/m and no tail."""
    if m < 1:
        raise ValueError("m must be >= 1")
    w = latent.weights[0] / (1.0 - latent.tail_mass[0])
    idx = categorical_indices(w, stream.gen.random(m))
    return Particles(spec, 1, atoms=latent.atoms[:, idx], weights=np.full((1, m), 1.0 / m),
                     signs=latent.signs[:, idx], tail_mass=np.zeros(1))


def _reduce(spec, latent, m: int, eps: float, stream: RngStream) -> Particles:
    """The latent reduced to width m, snapped to an eps-cover of the sphere when eps > 0."""
    net = width_reduce(spec, latent, m, stream.derive(("reduce", 0)))
    return snap_to_cover(net, get_sphere_cover(spec.d, eps)) if eps > 0 else net


def _net_outputs(spec: DirichletNet, net: Particles, X: np.ndarray) -> np.ndarray:
    """processes.dirichlet_net_output of a one-particle net at each row of inputs X (n, d)."""
    # Written apart as two BLAS matmuls: over an input batch the einsum over a particle
    # axis is about 6x slower, and its sum order differs in the last bit.
    acts = np.maximum(X @ net.atoms[0].T, 0.0)  # (n, atoms)
    return spec.output_scale * (acts @ (net.signs[0] * net.weights[0]))


def _squared_gap(spec, latent, net, n_inputs: int, stream: RngStream) -> np.ndarray:
    """(F - F_m)^2 of the latent's net and the reduced one at fresh standard-normal inputs."""
    X = stream.derive(("inputs", 0)).gen.normal(size=(n_inputs, spec.d))
    return (_net_outputs(spec, latent, X) - _net_outputs(spec, net, X)) ** 2


def multinomial_width_reduce(
    spec: DirichletNet,
    latent: Particles,
    m: int,
    stream: RngStream,
    n_inputs: int = 512,
) -> Tuple[Particles, QuantizerReport]:
    """Width reduction plus an MC report of the squared function gap.

    The gap E[(F - F_m)^2] is estimated over fresh standard-normal inputs for
    this latent and this reduction draw; the analytic target is K/m averaged
    over everything, so grid tests additionally average over latents.
    """
    net = _reduce(spec, latent, m, 0.0, stream)
    gap = _squared_gap(spec, latent, net, n_inputs, stream)
    return net, QuantizerReport.from_samples(0.0, gap, spec.scale / m)


def width_reduction_distortion(
    spec: DirichletNet,
    m: int,
    stream: RngStream,
    n_latents: int = 64,
    n_inputs: int = 256,
    eps: float = 0.0,
) -> Tuple[float, float]:
    """Full-MC squared function gap, averaged over latents, reductions, inputs.

    Returns (mean, standard error) with replicate-level (per-latent) variance.
    With eps > 0 the reduced net's atoms are additionally snapped to an
    eps-cover of the sphere.
    """
    means = np.empty(n_latents)
    for i, sub in enumerate(stream.children("latent", n_latents)):
        latent = sample_latent(spec, sub.derive(("prior", 0)))
        net = _reduce(spec, latent, m, eps, sub)
        means[i] = np.mean(_squared_gap(spec, latent, net, n_inputs, sub))
    return mean_se(means)


# ---------------------------------------------------------------------------
# Sphere covers
# ---------------------------------------------------------------------------


def _sphere_grid(d: int, n: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # Fibonacci spiral for d = 3.
    i = np.arange(n) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def check_cover_domain(d: int, eps: float) -> None:
    """Raise ValueError unless an eps-cover of the unit sphere in R^d is built here."""
    if d > 3:
        raise ValueError("covers are built only for d <= 3")
    if eps < 0.05:
        raise ValueError("eps must be >= 0.05 at desk scale")


def build_sphere_cover(d: int, eps: float) -> SphereCover:
    """Greedy farthest-point eps-cover of the unit sphere, probe-verified."""
    check_cover_domain(d, eps)
    grid_n = 4096 if d == 2 else 200_000
    grid = _sphere_grid(d, grid_n)
    budget = int(8 * (3.0 / eps**2) ** d) + 16
    atoms = [grid[0]]
    min_dist = np.linalg.norm(grid - grid[0], axis=1)
    while np.max(min_dist) > eps * 0.98:
        if len(atoms) > budget:
            raise RuntimeError("cover budget exhausted")
        nxt = grid[int(np.argmax(min_dist))]
        atoms.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(grid - nxt, axis=1))
    atom_arr = np.array(atoms)
    d2 = np.min(_sq_dists(_sphere_grid(d, 100_000), atom_arr), axis=1)  # at probe points
    radius = float(math.sqrt(max(np.max(d2), 0.0)))
    return SphereCover(atoms=atom_arr, radius=radius)


def _sq_dists(points: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (n, m) from each of n points to each of m atoms."""
    return (
        np.sum(points * points, axis=1, keepdims=True)
        - 2.0 * points @ atoms.T
        + np.sum(atoms * atoms, axis=1)
    )


def snap_to_cover(net: Particles, cover: SphereCover) -> Particles:
    """The one-particle net with each atom replaced by its nearest cover atom."""
    idx = np.argmin(_sq_dists(net.atoms[0], cover.atoms), axis=1)
    return Particles(net.prior, 1, **{**net.arrays, "atoms": cover.atoms[idx][None]})


@functools.cache
def get_sphere_cover(d: int, eps: float) -> SphereCover:
    """Deterministic cached cover for (d, eps)."""
    return build_sphere_cover(d, eps)


def misspecified_width_prior_sample(
    spec: DirichletNet, n: int, eps: float, stream: RngStream
) -> Particles:
    """One draw from the reduced-width function prior, a one-particle net.

    Samples a fresh process latent, reduces it to width n by multinomial
    draws, and (for eps > 0) snaps each atom to an eps-cover.
    """
    return _reduce(spec, sample_latent(spec, stream.derive(("prior", 0))), n, eps, stream)
