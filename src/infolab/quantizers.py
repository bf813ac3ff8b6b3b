"""Operational rate-distortion constructions.

Gaussian latent quantizers, multinomial width reduction of Dirichlet-process
networks (a block of nets at once, optionally snapped to a greedy sphere
cover), and the squared function gap it costs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .processes import DirichletNet, Particles, mean_se
from .rng import RngStream

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
    return theta + noise[0], QuantizerReport(rate, *mean_se(sq), bound)


def linreg_quantizer_delta2(eps: float, noise_var: float) -> float:
    """The delta2 achieving per-step distortion eps in the Gaussian quantizer.

    Defined for eps below the threshold (1/2) ln(1 + 1/noise_var), above
    which zero rate already suffices.
    """
    s = noise_var * math.expm1(2.0 * eps)
    if s >= 1.0:
        raise ValueError("eps at or above the zero-rate threshold")
    return s / (1.0 - s)


def width_reduce(
    spec: DirichletNet, nets: Particles, m: int, stream: RngStream, eps: float = 0.0
) -> Particles:
    """Multinomial width reduction of each of the nets: m atom draws from its stick
    weights, by its row of one (S, m) block of uniforms, as nets of weights 1/m and
    no tail.  With eps > 0 each drawn atom is snapped to an eps-cover of the sphere.

    Row by row this is `rng.categorical_indices`: a uniform at or past a net's last
    partial sum (by rounding) takes its last atom with mass, never a zero-weight pad.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    w = nets.weights / (1.0 - nets.tail_mass[:, None])
    u = stream.gen.random((nets.size, m))
    # searchsorted(side="right") in each row's cdf, as a count of the partial sums <= u
    idx = np.sum(np.cumsum(w, axis=1)[:, None, :] <= u[..., None], axis=2)
    with_mass = np.maximum.accumulate(np.where(w > 0, np.arange(w.shape[1]), 0), axis=1)
    idx = np.take_along_axis(with_mass, np.minimum(idx, w.shape[1] - 1), axis=1)
    rows = np.arange(nets.size)[:, None]
    reduced = Particles(spec, nets.size, atoms=nets.atoms[rows, idx], signs=nets.signs[rows, idx],
                        weights=np.full((nets.size, m), 1.0 / m), tail_mass=np.zeros(nets.size))
    return snap_to_cover(reduced, get_sphere_cover(spec.d, eps)) if eps > 0 else reduced


def _net_outputs(spec: DirichletNet, nets: Particles, X: np.ndarray) -> np.ndarray:
    """processes.dirichlet_net_output of each of S nets at its own rows of inputs X
    (S, n, d): shape (S, n)."""
    # Written apart as two BLAS matmuls per net: over an input batch the einsum over a
    # particle axis is about 6x slower, and its sum order differs in the last bit.  One
    # net at a time keeps one net's (n, atoms) activations, not all S nets' (at S = 64,
    # n = 256 and m = 128 the batched form peaked 44 MB higher, and was no faster).
    return spec.output_scale * np.stack([
        np.maximum(x @ atoms.T, 0.0) @ (signs * weights)
        for x, atoms, signs, weights in zip(X, nets.atoms, nets.signs, nets.weights)
    ])


def _squared_gap(spec, latents, nets, n_inputs: int, stream: RngStream) -> np.ndarray:
    """(S, n_inputs) squared gaps (F - F_m)^2 of each latent's net and its reduced net,
    at fresh standard-normal inputs of its own from path ("inputs", 0)."""
    X = stream.derive(("inputs", 0)).gen.normal(size=(latents.size, n_inputs, spec.d))
    return (_net_outputs(spec, latents, X) - _net_outputs(spec, nets, X)) ** 2


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
    The latents are one prior block from path ("prior", 0), reduced by the
    uniforms of ("reduce", 0); with eps > 0 the reduced nets' atoms are
    additionally snapped to an eps-cover of the sphere.
    """
    latents = spec.sample_particles(n_latents, stream.derive(("prior", 0)))
    nets = width_reduce(spec, latents, m, stream.derive(("reduce", 0)), eps)
    return mean_se(np.mean(_squared_gap(spec, latents, nets, n_inputs, stream), axis=1))


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


def snap_to_cover(nets: Particles, cover: SphereCover) -> Particles:
    """The nets with each atom replaced by its nearest cover atom."""
    atoms = nets.atoms.reshape(-1, nets.atoms.shape[-1])
    idx = np.argmin(_sq_dists(atoms, cover.atoms), axis=1).reshape(nets.atoms.shape[:-1])
    return Particles(nets.prior, nets.size, **{**nets.arrays, "atoms": cover.atoms[idx]})


@functools.cache
def get_sphere_cover(d: int, eps: float) -> SphereCover:
    """Deterministic cached cover for (d, eps)."""
    return build_sphere_cover(d, eps)

