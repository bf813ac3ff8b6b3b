"""Tests for operational quantizers: Gaussian channels, width reduction, covers."""

import math

import numpy as np
import pytest

from infolab import bounds as bnd
from infolab import quantizers as qt
from infolab.processes import DirichletNet, dirichlet_net_output, sample_latent
from infolab.rng import SeedSpec, derive_stream, sample_categorical


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
    assert np.array_equal(net.atoms, latent.atoms[0][draws])
    assert np.array_equal(net.signs, latent.signs[0][draws])


def test_width_reduce_validation_and_output():
    spec = _dirichlet_spec(3, 2.0)
    stream = derive_stream(SeedSpec(4))
    latent = sample_latent(spec, stream.derive(0))
    with pytest.raises(ValueError):
        qt.width_reduce(spec, latent, 0, stream.derive(1))
    net = qt.width_reduce(spec, latent, 16, stream.derive(1))
    assert net.signs.shape == (16,) and net.atoms.shape == (16, 3)
    x = stream.derive(2).gen.normal(size=3)
    manual = net.scale / 16 * np.sum(net.signs * np.maximum(net.atoms @ x, 0.0))
    assert net.output(x) == pytest.approx(manual, rel=1e-12)
    X = stream.derive(3).gen.normal(size=(4, 3))
    np.testing.assert_allclose(net.output(X), [net.output(row) for row in X], rtol=1e-12)


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


def test_multinomial_width_reduce_report():
    spec = _dirichlet_spec(2, 2.0)
    stream = derive_stream(SeedSpec(7))
    latent = sample_latent(spec, stream.derive(0))
    net, rep = qt.multinomial_width_reduce(spec, latent, 32, stream.derive(1))
    assert rep.distortion_bound == pytest.approx(spec.scale / 32)
    assert rep.empirical_distortion >= 0 and rep.distortion_se >= 0
    assert len(net.signs) == 32


@pytest.mark.parametrize(
    "eps, recorded",
    [(0.0, (0.07741066517158618, 0.031147737328931852)),
     (0.3, (0.07547075420849216, 0.02765032641697495))],
)
def test_width_reduction_distortion_equals_recorded_values(eps, recorded):
    """Recorded before one width-n net output served every caller."""
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
        net = qt.FiniteWidthNet(signs=np.ones(1), atoms=v[None, :], scale=1.0)
        q = qt.snap_to_cover(net, cover).atoms[0]
        assert np.linalg.norm(q - v) <= cover.radius + 1e-12
        assert any(np.array_equal(q, a) for a in cover.atoms)


def test_snap_to_cover_preserves_signs_and_scale():
    spec = _dirichlet_spec(2, 2.0)
    stream = derive_stream(SeedSpec(10))
    latent = sample_latent(spec, stream.derive(0))
    net = qt.width_reduce(spec, latent, 16, stream.derive(1))
    cover = qt.get_sphere_cover(2, 0.3)
    snapped = qt.snap_to_cover(net, cover)
    assert np.array_equal(snapped.signs, net.signs)
    assert snapped.scale == net.scale
    gaps = np.linalg.norm(snapped.atoms - net.atoms, axis=1)
    assert np.max(gaps) <= cover.radius + 1e-12


def test_get_sphere_cover_cached():
    a = qt.get_sphere_cover(2, 0.3)
    b = qt.get_sphere_cover(2, 0.3)
    assert a is b


# ---------------------------------------------------------------------------
# Reduced-width misspecified prior
# ---------------------------------------------------------------------------


def test_misspecified_width_prior_eps_zero_is_plain_reduction():
    spec = _dirichlet_spec(2, 2.0)
    net = qt.misspecified_width_prior_sample(spec, 8, 0.0, derive_stream(SeedSpec(11)))
    stream = derive_stream(SeedSpec(11))
    latent = sample_latent(spec, stream.derive(("prior", 0)))
    ref = qt.width_reduce(spec, latent, 8, stream.derive(("reduce", 0)))
    assert np.array_equal(net.atoms, ref.atoms)
    assert np.array_equal(net.signs, ref.signs)


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
    zero = qt.FiniteWidthNet(signs=np.zeros(1), atoms=np.zeros((1, 3)), scale=spec.output_scale)
    gap = qt._squared_gap(spec, latent, zero, 64, stream.derive(1))
    X = stream.derive(1).derive(("inputs", 0)).gen.normal(size=(64, 3))
    single = np.array([dirichlet_net_output(spec, latent, x)[0] for x in X])
    np.testing.assert_allclose(np.sqrt(gap), np.abs(single), rtol=1e-12)
