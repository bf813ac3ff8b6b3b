"""Tests for closed-form information-theoretic primitives.

Derived quantities are checked against independent oracles (direct
summation, Monte Carlo, scipy); invariants run as property tests.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from infolab.info import (
    GaussianParams,
    binary_kl_logits,
    crp_expected_unique,
    dirmult_expected_unique,
    entropy_pmf,
    kl_gaussian,
    kl_pmf,
    lambert_w,
    linreg_mi_given_grams,
    linreg_mi_given_inputs,
    linreg_mi_stepwise,
)


def random_pmf(gen, n):
    return gen.dirichlet(np.ones(n))


# ---------------------------------------------------------------------------
# entropy / KL basics
# ---------------------------------------------------------------------------


def test_entropy_point_mass_and_uniform():
    assert entropy_pmf(np.array([1.0, 0.0, 0.0])) == 0.0
    assert entropy_pmf(np.array([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_matches_direct_summation():
    gen = np.random.default_rng(0)
    for _ in range(50):
        p = random_pmf(gen, 5)
        direct = -sum(pi * math.log(pi) for pi in p if pi > 0)
        assert entropy_pmf(p) == pytest.approx(direct, abs=1e-12)


def test_kl_pmf_basics():
    p = np.array([0.5, 0.5])
    assert kl_pmf(p, p) == 0.0
    assert kl_pmf(np.array([1.0, 0.0]), p) == pytest.approx(math.log(2), abs=1e-12)
    assert kl_pmf(p, np.array([1.0, 0.0])) == math.inf
    with pytest.raises(ValueError):
        kl_pmf(p, np.array([0.5, 0.25, 0.25]))


def test_kl_pmf_matches_direct_summation():
    gen = np.random.default_rng(1)
    for _ in range(50):
        p = random_pmf(gen, 4)
        q = random_pmf(gen, 4)
        direct = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)
        assert kl_pmf(p, q) == pytest.approx(direct, abs=1e-12)


def test_invalid_pmf_rejected():
    with pytest.raises(ValueError):
        entropy_pmf(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        entropy_pmf(np.array([1.5, -0.5]))


# ---------------------------------------------------------------------------
# Gaussian KL
# ---------------------------------------------------------------------------


def test_kl_gaussian_identity_and_mean_shift():
    p = GaussianParams(mean=np.zeros(3), covariance=np.eye(3))
    assert kl_gaussian(p, p) == pytest.approx(0.0, abs=1e-12)
    mu = np.array([0.3, -1.2, 0.5])
    q = GaussianParams(mean=mu, covariance=np.eye(3))
    assert kl_gaussian(q, p) == pytest.approx(0.5 * float(mu @ mu), abs=1e-12)


def test_kl_gaussian_matches_mc_oracle():
    gen = np.random.default_rng(2)
    a = gen.normal(size=(3, 3))
    cov_p = a @ a.T + 0.5 * np.eye(3)
    b = gen.normal(size=(3, 3))
    cov_q = b @ b.T + 0.5 * np.eye(3)
    mu_p = gen.normal(size=3)
    mu_q = gen.normal(size=3)
    p = GaussianParams(mean=mu_p, covariance=cov_p)
    q = GaussianParams(mean=mu_q, covariance=cov_q)
    n = 10**6
    x = gen.multivariate_normal(mu_p, cov_p, size=n)

    def logpdf(xs, mu, cov):
        diff = xs - mu
        sol = np.linalg.solve(cov, diff.T).T
        _, logdet = np.linalg.slogdet(cov)
        return -0.5 * (3 * math.log(2 * math.pi) + logdet + np.sum(diff * sol, axis=1))

    ratio = logpdf(x, mu_p, cov_p) - logpdf(x, mu_q, cov_q)
    est = float(np.mean(ratio))
    se = float(np.std(ratio, ddof=1) / math.sqrt(n))
    assert abs(kl_gaussian(p, q) - est) <= 3 * se


def test_kl_gaussian_singular_q_rejected():
    p = GaussianParams(mean=np.zeros(2), covariance=np.eye(2))
    q = GaussianParams(mean=np.zeros(2), covariance=np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        kl_gaussian(p, q)


# ---------------------------------------------------------------------------
# binary KL and its quadratic bound
# ---------------------------------------------------------------------------


def test_binary_kl_point_values():
    assert binary_kl_logits(1.3, 1.3) == pytest.approx(0.0, abs=1e-15)
    # direct high-precision evaluation of the defining formula at (2, 0)
    px = 1.0 / (1.0 + math.exp(-2.0))
    direct = px * math.log(px / 0.5) + (1 - px) * math.log((1 - px) / 0.5)
    assert binary_kl_logits(2.0, 0.0) == pytest.approx(direct, abs=1e-12)
    assert direct <= 0.5


def test_binary_kl_quadratic_bound_grid():
    gen = np.random.default_rng(3)
    xy = gen.uniform(-10, 10, size=(10**4, 2))
    for x, y in xy:
        v = binary_kl_logits(float(x), float(y))
        assert 0.0 <= v <= (x - y) ** 2 / 8 + 1e-12


def test_binary_kl_extreme_logits_no_overflow():
    assert math.isfinite(binary_kl_logits(700.0, -700.0))
    assert math.isfinite(binary_kl_logits(-700.0, 700.0))


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------


def test_lambert_w_known_values():
    assert lambert_w(0.0) == 0.0
    assert lambert_w(math.e) == pytest.approx(1.0, rel=1e-12)
    assert lambert_w(1.0) == pytest.approx(0.5671432904097838, rel=1e-11)


@pytest.mark.parametrize("x", [-1.0, -math.inf, math.nan])
def test_lambert_w_refuses_x_below_zero_and_nan(x):
    with pytest.raises(ValueError, match=r"^principal branch requires x >= 0$"):
        lambert_w(x)


def test_lambert_w_matches_scipy():
    for x in np.geomspace(1e-8, 1e8, 60):
        ref = float(scipy.special.lambertw(x).real)
        assert lambert_w(float(x)) == pytest.approx(ref, rel=1e-10)


def test_lambert_w_defining_equation():
    for x in np.geomspace(1e-6, 1e6, 40):
        w = lambert_w(float(x))
        assert w * math.exp(w) == pytest.approx(float(x), rel=1e-11)


# ---------------------------------------------------------------------------
# linear-model mutual information (dual route)
# ---------------------------------------------------------------------------


def test_linreg_mi_zero_inputs():
    assert linreg_mi_given_inputs(np.zeros((4, 3)), 1 / 3, 1.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_linreg_mi_single_step_threshold():
    d = 4
    x = np.full(d, 1.0)  # ||x||^2 = d
    sigma2 = 0.25
    val = linreg_mi_given_inputs(x[None, :], 1.0 / d, sigma2)
    assert val == pytest.approx(0.5 * math.log1p(1.0 / sigma2), rel=1e-12)


def test_linreg_mi_dual_route_agrees():
    gen = np.random.default_rng(4)
    for _ in range(20):
        X = gen.normal(size=(8, 3))
        a = linreg_mi_given_inputs(X, 1 / 3, 0.5)
        b = linreg_mi_stepwise(X, 1 / 3, 0.5)
        assert a == pytest.approx(b, abs=1e-8)


def test_linreg_mi_zero_noise_rejected():
    with pytest.raises(ValueError):
        linreg_mi_given_inputs(np.eye(2), 0.5, 0.0)


@pytest.mark.parametrize(
    "prior_var, noise_var, match",
    [
        (0.5, 0.0, "^noise variance must be positive$"),
        (0.5, math.nan, "^noise variance must be positive$"),
        (-0.5, 1.0, "^prior variance must be non-negative$"),
        (math.nan, 1.0, "^prior variance must be non-negative$"),
    ],
)
def test_linreg_mi_gram_form_refuses_bad_variances_by_name(prior_var, noise_var, match):
    with pytest.raises(ValueError, match=match):
        linreg_mi_given_grams(np.eye(2)[None], prior_var, noise_var)
    with pytest.raises(ValueError, match=match):
        linreg_mi_given_inputs(np.eye(2), prior_var, noise_var)


def test_linreg_mi_gram_stack_keeps_its_shape():
    gen = np.random.default_rng(5)
    X = gen.normal(size=(2, 3, 6, 4))
    grams = np.swapaxes(X, -1, -2) @ X
    got = linreg_mi_given_grams(grams, 0.25, 0.5)
    assert got.shape == (2, 3)
    want = [[linreg_mi_given_inputs(x, 0.25, 0.5) for x in row] for row in X]
    assert got == pytest.approx(np.array(want), rel=1e-14)
    assert linreg_mi_given_grams(np.zeros((0, 4, 4)), 0.25, 0.5).shape == (0,)


# ---------------------------------------------------------------------------
# Dirichlet-multinomial unique counts
# ---------------------------------------------------------------------------


def test_dirmult_unique_small_cases():
    assert dirmult_expected_unique(1, 3, 7) == pytest.approx(1.0, abs=1e-12)
    assert dirmult_expected_unique(2, 2, 4) == pytest.approx(1.5, abs=1e-12)


def test_crp_unique_small_cases():
    assert crp_expected_unique(1, 5) == pytest.approx(1.0, abs=1e-12)
    assert crp_expected_unique(2, 2) == pytest.approx(5 / 3, abs=1e-12)


def test_dirmult_unique_matches_mc_oracle():
    n, K, N = 10, 1.0, 10
    gen = np.random.default_rng(5)
    draws = 10**5
    alphas = np.full(N, K / N)
    weights = gen.dirichlet(alphas, size=draws)
    counts = np.array(
        [len(np.unique(gen.choice(N, size=n, p=w))) for w in weights[:20000]]
    )
    est = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(len(counts)))
    assert abs(dirmult_expected_unique(n, K, N) - est) <= 3 * se


def test_crp_is_dirmult_limit():
    for n, K in [(5, 2.0), (20, 1.0), (50, 4.0)]:
        lim = dirmult_expected_unique(n, K, 10**7)
        assert crp_expected_unique(n, K) == pytest.approx(lim, rel=1e-5)


def test_crp_log_bound_with_unit_slack():
    gen = np.random.default_rng(6)
    for _ in range(100):
        n = int(gen.integers(1, 200))
        K = float(gen.uniform(1.0, 16.0))
        assert crp_expected_unique(n, K) <= K * math.log1p(n / K) + 1.0


# ---------------------------------------------------------------------------
# property suites: classic information identities (direct summation)
# ---------------------------------------------------------------------------


def _mi_from_joint(pxy):
    """I(X;Y) from a joint pmf matrix, by direct summation."""
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    total = 0.0
    for i in range(pxy.shape[0]):
        for j in range(pxy.shape[1]):
            if pxy[i, j] > 0:
                total += pxy[i, j] * math.log(pxy[i, j] / (px[i] * py[j]))
    return total


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_chain_rule_of_mutual_information(seed):
    gen = np.random.default_rng(seed)
    nx, ny, nz = 3, 3, 3
    pxyz = gen.dirichlet(np.ones(nx * ny * nz)).reshape(nx, ny, nz)
    # I(X,Y;Z) via the flattened pair alphabet
    i_xy_z = _mi_from_joint(pxyz.reshape(nx * ny, nz))
    i_x_z = _mi_from_joint(pxyz.sum(axis=1))
    # I(Y;Z|X) by direct summation
    i_y_z_given_x = 0.0
    for i in range(nx):
        px = pxyz[i].sum()
        if px > 0:
            i_y_z_given_x += px * _mi_from_joint(pxyz[i] / px)
    assert abs(i_xy_z - (i_x_z + i_y_z_given_x)) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_gibbs_inequality(seed):
    gen = np.random.default_rng(seed)
    p = random_pmf(gen, 5)
    q = random_pmf(gen, 5)
    assert kl_pmf(p, q) >= -1e-12


def test_log_sum_inequality():
    gen = np.random.default_rng(7)
    for _ in range(10**4):
        a = gen.uniform(0, 1, size=4)
        b = gen.uniform(1e-6, 1, size=4)
        lhs = float(np.sum(a * np.log(np.maximum(a, 1e-300) / b)))
        sa, sb = float(a.sum()), float(b.sum())
        rhs = sa * math.log(sa / sb) if sa > 0 else 0.0
        assert lhs >= rhs - 1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_conditioning_reduces_entropy(seed):
    gen = np.random.default_rng(seed)
    pxy = gen.dirichlet(np.ones(12)).reshape(3, 4)
    hx = entropy_pmf(pxy.sum(axis=1))
    h_x_given_y = 0.0
    for j in range(4):
        py = pxy[:, j].sum()
        if py > 0:
            h_x_given_y += py * entropy_pmf(pxy[:, j] / py)
    assert hx >= h_x_given_y - 1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_data_processing_inequality(seed):
    gen = np.random.default_rng(seed)
    nx, ny, nz = 3, 4, 3
    px = random_pmf(gen, nx)
    p_y_given_x = np.stack([random_pmf(gen, ny) for _ in range(nx)])
    p_z_given_y = np.stack([random_pmf(gen, nz) for _ in range(ny)])
    pxy = px[:, None] * p_y_given_x
    pyz = pxy.sum(axis=0)[:, None] * p_z_given_y
    pxz = np.einsum("xy,yz->xz", pxy, p_z_given_y)
    i_xz = _mi_from_joint(pxz)
    assert i_xz <= _mi_from_joint(pxy) + 1e-10
    assert i_xz <= _mi_from_joint(pyz) + 1e-10


def test_gaussian_maximizes_entropy_at_fixed_variance():
    """Discretized max-entropy check on a grid, variance-matched by rescaling."""
    gen = np.random.default_rng(8)
    grid = np.linspace(-6.0, 6.0, 241)
    dx = grid[1] - grid[0]
    v = 1.0
    g = np.exp(-grid * grid / (2 * v))
    g /= g.sum()
    h_gauss = entropy_pmf(g) + math.log(dx)
    target = 0.5 * math.log(2 * math.pi * math.e * v)
    assert abs(h_gauss - target) < 1e-3  # discretization error budget
    for _ in range(10**3):
        p = gen.dirichlet(np.ones(len(grid)) * 0.5)
        mean = float(p @ grid)
        var = float(p @ (grid - mean) ** 2)
        # rescale the support so the density has mean 0 and variance v
        scale = math.sqrt(v / var)
        h = entropy_pmf(p) + math.log(dx * scale)
        assert h <= h_gauss + 1e-3
