"""Tests for operational quantizers: Gaussian channels, width reduction, covers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from infolab import bounds as bnd
from infolab import quantizers as qt
from infolab.processes import DirichletNet, Particles, dirichlet_net_output, sample_latent
from infolab.rng import SeedSpec, categorical_indices, derive_stream, sample_categorical


# ---------------------------------------------------------------------------
# Gaussian latent quantizer
# ---------------------------------------------------------------------------


def test_gaussian_quantize_rate_matches_rd_curve():
    # at the matched delta2(eps) the channel rate reproduces the analytic
    # rate-distortion upper bound and the distortion bound equals eps exactly
    d, s2 = 5, 0.25
    theta = np.zeros(d)
    for eps in (0.01, 0.1, 0.4):
        delta2 = qt.linreg_quantizer_delta2(eps, s2)
        _, rep = qt.gaussian_quantize(
            theta, delta2, derive_stream(SeedSpec(1)), noise_var=s2
        )
        assert rep.rate_nats == pytest.approx(bnd.linreg_rd_upper(d, s2, eps), rel=1e-12)
        assert rep.distortion_bound == pytest.approx(eps, rel=1e-12)


def test_gaussian_quantize_coarse_limit_and_validation():
    theta = np.ones(3)
    _, rep = qt.gaussian_quantize(theta, 1e9, derive_stream(SeedSpec(2)))
    assert rep.rate_nats < 1e-6
    with pytest.raises(ValueError):
        qt.gaussian_quantize(theta, 0.0, derive_stream(SeedSpec(2)))


def test_gaussian_quantize_empirical_distortion():
    d, delta2 = 4, 0.7
    _, rep = qt.gaussian_quantize(
        np.zeros(d), delta2, derive_stream(SeedSpec(3)), mc_draws=10**4
    )
    assert abs(rep.empirical_distortion - delta2) <= 3.0 * rep.distortion_se


def test_delta2_threshold_rejected():
    s2 = 0.25
    thr = 0.5 * math.log1p(1.0 / s2)
    with pytest.raises(ValueError):
        qt.linreg_quantizer_delta2(thr * 1.01, s2)
    assert qt.linreg_quantizer_delta2(thr * 0.99, s2) > 0


# ---------------------------------------------------------------------------
# Multinomial width reduction
# ---------------------------------------------------------------------------


def _dirichlet_spec(d, K):
    return DirichletNet(d=d, scale=K, noise_var=1.0)


def test_width_reduce_draws_what_one_draw_per_atom_draws():
    """The m atoms of one call are the m sample_categorical draws of the same stream."""
    spec = _dirichlet_spec(3, 2.0)
    stream = derive_stream(SeedSpec(4))
    latent = sample_latent(spec, stream.derive(0))
    w = latent.weights[0] / (1.0 - latent.tail_mass[0])
    sequential, draws = derive_stream(SeedSpec(4)).derive(1), []
    for _ in range(64):
        draws.append(sample_categorical(sequential, w))
    net = qt.width_reduce(spec, latent, 64, stream.derive(1))
    assert np.array_equal(net.atoms[0], latent.atoms[0][draws])
    assert np.array_equal(net.signs[0], latent.signs[0][draws])


def test_width_reduce_validation_and_output():
    spec = _dirichlet_spec(3, 2.0)
    stream = derive_stream(SeedSpec(4))
    latent = sample_latent(spec, stream.derive(0))
    with pytest.raises(ValueError):
        qt.width_reduce(spec, latent, 0, stream.derive(1))
    net = qt.width_reduce(spec, latent, 16, stream.derive(1))
    assert net.size == 1 and net.signs.shape == (1, 16) and net.atoms.shape == (1, 16, 3)
    assert np.all(net.weights == 1 / 16) and net.tail_mass[0] == 0.0
    x = stream.derive(2).gen.normal(size=3)
    manual = spec.output_scale / 16 * np.sum(net.signs[0] * np.maximum(net.atoms[0] @ x, 0.0))
    assert dirichlet_net_output(spec, net, x)[0] == pytest.approx(manual, rel=1e-12)
    X = stream.derive(3).gen.normal(size=(4, 3))
    np.testing.assert_allclose(
        qt._net_outputs(spec, net, X[None])[0],
        [dirichlet_net_output(spec, net, row)[0] for row in X],
        rtol=1e-12,
    )


def test_width_reduction_distortion_meets_bound():
    spec = _dirichlet_spec(3, 2.0)
    stream = derive_stream(SeedSpec(5))
    prev = None
    for m in (8, 32, 128):
        mean, se = qt.width_reduction_distortion(spec, m, stream.derive(("m", m)))
        assert mean <= spec.scale / m + 3.0 * se
        if prev is not None:
            # doubling twice should cut the gap roughly fourfold; allow slack
            assert mean < prev
        prev = mean


def test_width_reduction_halving_ratio():
    spec = _dirichlet_spec(3, 2.0)
    stream = derive_stream(SeedSpec(6))
    m16, _ = qt.width_reduction_distortion(spec, 16, stream.derive(0), n_latents=128)
    m32, _ = qt.width_reduction_distortion(spec, 32, stream.derive(0), n_latents=128)
    assert 0.35 <= m32 / m16 <= 0.7


def _uniforms(u):
    """A stand-in stream whose one block of uniforms is u."""
    return SimpleNamespace(gen=SimpleNamespace(random=lambda shape: np.asarray(u).reshape(shape)))


def test_batched_width_reduce_is_categorical_indices_row_by_row():
    """Each net's atoms are the ones `categorical_indices` draws from its own weights
    by its own row of uniforms: atoms with mass only, and a uniform at or past the
    last partial sum takes the last atom with mass, never a zero-weight pad."""
    spec = _dirichlet_spec(2, 2.0)
    weights = np.array([[0.5, 0.0, 0.3, 0.0], [0.2, 0.2, 0.2, 0.2], [0.6, 0.2, 0.0, 0.0]])
    angles = np.arange(12.0).reshape(3, 4)
    nets = Particles(spec, 3, atoms=np.stack([np.cos(angles), np.sin(angles)], axis=2),
                     weights=weights, signs=np.ones((3, 4)), tail_mass=1.0 - weights.sum(axis=1))
    w = weights / weights.sum(axis=1, keepdims=True)
    u = np.hstack([np.cumsum(w, axis=1), np.tile([0.0, 0.33, 1.0 - 2.0**-53, 1.0], (3, 1))])
    reduced = qt.width_reduce(spec, nets, 8, _uniforms(u))
    for s in range(3):
        idx = categorical_indices(w[s], u[s])
        assert np.all(w[s][idx] > 0) and idx[-1] == np.flatnonzero(w[s])[-1]
        assert np.array_equal(reduced.atoms[s], nets.atoms[s][idx])
    # a block of prior draws, whose shorter draws are padded with zero weights
    nets = spec.sample_particles(64, derive_stream(SeedSpec(7)).derive(0))
    assert np.any(nets.weights == 0)
    reduced = qt.width_reduce(spec, nets, 32, derive_stream(SeedSpec(7)).derive(1))
    u = derive_stream(SeedSpec(7)).derive(1).gen.random((64, 32))
    for s in range(64):
        idx = categorical_indices(nets.weights[s] / (1.0 - nets.tail_mass[s]), u[s])
        assert np.all(nets.weights[s][idx] > 0)
        assert np.array_equal(reduced.atoms[s], nets.atoms[s][idx])
        assert np.array_equal(reduced.signs[s], nets.signs[s][idx])
    assert np.all(reduced.weights == 1 / 32) and np.all(reduced.tail_mass == 0.0)


@pytest.mark.parametrize(
    "eps, recorded",
    [(0.0, (0.08175982184469509, 0.03135782463292335)),
     (0.3, (0.0955049537721932, 0.030925677603946086))],
)
def test_width_reduction_distortion_equals_recorded_values(eps, recorded):
    """Recorded under seed contract 4: the latents are one prior block, reduced by one
    block of uniforms."""
    spec = DirichletNet(d=2, scale=2.0, noise_var=1.0)
    got = qt.width_reduction_distortion(
        spec, 8, derive_stream(SeedSpec(47)), n_latents=8, n_inputs=32, eps=eps
    )
    assert got == recorded


# ---------------------------------------------------------------------------
# Sphere covers
# ---------------------------------------------------------------------------


def test_cover_d1_is_sign_pair():
    cover = qt.build_sphere_cover(1, 0.3)
    assert sorted(cover.atoms[:, 0].tolist()) == [-1.0, 1.0]
    assert cover.radius == 0.0


def test_cover_d2_radius_and_size():
    cover = qt.build_sphere_cover(2, 0.3)
    assert cover.radius <= 0.3
    assert len(cover.atoms) <= 64
    norms = np.linalg.norm(cover.atoms, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_cover_validation():
    with pytest.raises(ValueError):
        qt.build_sphere_cover(4, 0.3)
    with pytest.raises(ValueError):
        qt.build_sphere_cover(2, 0.01)


def test_quantize_to_cover_within_radius():
    cover = qt.get_sphere_cover(3, 0.3)
    stream = derive_stream(SeedSpec(9))
    for _ in range(200):
        v = stream.gen.normal(size=3)
        v /= np.linalg.norm(v)
        net = Particles(None, 1, atoms=v[None, None, :], signs=np.ones((1, 1)))
        q = qt.snap_to_cover(net, cover).atoms[0, 0]
        assert np.linalg.norm(q - v) <= cover.radius + 1e-12
        assert any(np.array_equal(q, a) for a in cover.atoms)


def test_snap_to_cover_preserves_signs_and_weights():
    spec = _dirichlet_spec(2, 2.0)
    stream = derive_stream(SeedSpec(10))
    latent = sample_latent(spec, stream.derive(0))
    net = qt.width_reduce(spec, latent, 16, stream.derive(1))
    cover = qt.get_sphere_cover(2, 0.3)
    snapped = qt.snap_to_cover(net, cover)
    assert np.array_equal(snapped.signs, net.signs)
    assert np.array_equal(snapped.weights, net.weights) and snapped.prior is spec
    gaps = np.linalg.norm(snapped.atoms[0] - net.atoms[0], axis=1)
    assert np.max(gaps) <= cover.radius + 1e-12


def test_get_sphere_cover_cached():
    a = qt.get_sphere_cover(2, 0.3)
    b = qt.get_sphere_cover(2, 0.3)
    assert a is b


# ---------------------------------------------------------------------------
# Reduced-width misspecified prior
# ---------------------------------------------------------------------------


def test_snapped_reduction_is_the_plain_reduction_snapped():
    spec = _dirichlet_spec(2, 2.0)
    nets = spec.sample_particles(16, derive_stream(SeedSpec(11)).derive(0))
    snapped = qt.width_reduce(spec, nets, 8, derive_stream(SeedSpec(11)).derive(1), eps=0.3)
    plain = qt.width_reduce(spec, nets, 8, derive_stream(SeedSpec(11)).derive(1))
    ref = qt.snap_to_cover(plain, qt.get_sphere_cover(2, 0.3))
    assert np.array_equal(snapped.atoms, ref.atoms)
    assert np.array_equal(snapped.signs, plain.signs)


def test_snapped_reduction_meets_composite_bound():
    # reduction to width n plus eps-snapping: gap <= 3K(1 + d eps^2)/n
    d, K, n, eps = 2, 2.0, 32, 0.3
    spec = _dirichlet_spec(d, K)
    mean, se = qt.width_reduction_distortion(
        spec, n, derive_stream(SeedSpec(12)), eps=eps
    )
    assert mean <= 3.0 * K * (1.0 + d * eps**2) / n + 3.0 * se


def test_batched_gap_output_agrees_with_the_process_output():
    """The two writings of the Dirichlet-net output (sum and dot order) agree to 1e-12."""
    spec = _dirichlet_spec(3, 2.0)
    stream = derive_stream(SeedSpec(12))
    latent = sample_latent(spec, stream.derive(0))
    zero = Particles(spec, 1, atoms=np.zeros((1, 1, 3)), weights=np.ones((1, 1)),
                     signs=np.zeros((1, 1)), tail_mass=np.zeros(1))
    gap = qt._squared_gap(spec, latent, zero, 64, stream.derive(1))[0]
    X = stream.derive(1).derive(("inputs", 0)).gen.normal(size=(64, 3))
    single = np.array([dirichlet_net_output(spec, latent, x)[0] for x in X])
    np.testing.assert_allclose(np.sqrt(gap), np.abs(single), rtol=1e-12)


def test_squared_gap_of_a_reduced_net_against_itself_is_zero():
    spec = _dirichlet_spec(2, 2.0)
    stream = derive_stream(SeedSpec(13))
    nets = spec.sample_particles(4, stream.derive(0))
    nets = qt.width_reduce(spec, nets, 8, stream.derive(1), eps=0.3)
    gap = qt._squared_gap(spec, nets, nets, 64, stream.derive(2))
    assert np.array_equal(gap, np.zeros((4, 64)))
