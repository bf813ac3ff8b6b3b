"""Tests for the data-generating processes and their generator interface."""

import math

import numpy as np
import pytest

from infolab.processes import (
    BinaryARK,
    DeepNet,
    DirichletNet,
    History,
    IclLatent,
    IclMixture,
    LinRep,
    LinReg,
    LogReg,
    Observation,
    ThetaLatent,
    Transformer,
    attention_layer,
    ark_logit,
    dirichlet_net_output,
    initial_history,
    irreducible_rate,
    linrep_task_pmf,
    make_embeddings,
    relu_forward,
    sample_latent,
    step,
    transformer_next_pmf,
)
from infolab.rng import RngStream, SeedSpec


def stream(seed, *path):
    return RngStream(SeedSpec(seed, tuple(path)))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        LinReg(d=0, noise_var=1.0)
    with pytest.raises(ValueError):
        LinReg(d=3, noise_var=0.0)
    with pytest.raises(ValueError):
        LinRep(d=2, r=2, tasks=4)  # requires d > r
    with pytest.raises(ValueError):
        BinaryARK(d=2, context=1, phi0=np.array([2.0, 0.0]), phi1=np.array([0.0, 1.0]))
    tf_emb = make_embeddings(4, 4, stream(0))
    with pytest.raises(ValueError):
        Transformer(vocab=4, attn_dim=4, depth=1, context=2, embeddings=tf_emb,
                    v_prior="bogus")
    inner = Transformer(vocab=4, attn_dim=4, depth=1, context=2, embeddings=tf_emb)
    with pytest.raises(ValueError):
        IclMixture(mixture_size=2, scale=3.0, inner=inner, tasks=2)


def test_linreg_default_prior_var():
    assert LinReg(d=4, noise_var=1.0).prior_var == pytest.approx(0.25)
    assert LinReg(d=4, noise_var=1.0, prior_var=1.0).prior_var == 1.0


def test_dirichlet_output_scale_switch():
    base = DirichletNet(d=2, scale=3.0, noise_var=1.0)
    plus = DirichletNet(d=2, scale=3.0, noise_var=1.0, plus_one_scaling=True)
    assert base.output_scale == pytest.approx(math.sqrt(3.0))
    assert plus.output_scale == pytest.approx(2.0)


def test_make_embeddings_shapes_and_norms():
    emb = make_embeddings(3, 5, stream(1))
    assert emb.shape == (3, 5)
    assert np.array_equal(emb, np.eye(3, 5))
    big = make_embeddings(9, 4, stream(1))
    assert big.shape == (9, 4)
    assert np.max(np.abs(np.linalg.norm(big, axis=1) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# prior moments
# ---------------------------------------------------------------------------


def test_linreg_prior_second_moment():
    spec = LinReg(d=10**4, noise_var=1.0)
    s = stream(2)
    norms = [
        float(np.sum(sample_latent(spec, s.derive(i)).theta ** 2)) for i in range(10**3)
    ]
    assert abs(float(np.mean(norms)) - 1.0) < 0.05


def test_deepnet_prior_layer_covariance():
    spec = DeepNet(d=4, width=8, depth=3, noise_var=1.0)
    s = stream(3)
    acc = np.zeros((4, 4))
    n = 10**3
    for i in range(n):
        a1 = sample_latent(spec, s.derive(i)).weights[0]
        acc += a1.T @ a1
    acc /= n
    target = (spec.width / spec.d) * np.eye(4)
    assert np.max(np.abs(acc - target)) < 0.2


def test_ark_prior_variance():
    spec = BinaryARK(d=3, context=4,
                     phi0=np.array([1.0, 0, 0]), phi1=np.array([0, 1.0, 0]))
    s = stream(4)
    thetas = np.stack([sample_latent(spec, s.derive(i)).theta for i in range(2000)])
    assert abs(float(np.var(thetas)) - 1.0 / spec.context) < 0.02


def test_linrep_psi_orthonormal_every_draw():
    spec = LinRep(d=6, r=2, tasks=3)
    s = stream(5)
    for i in range(20):
        lat = sample_latent(spec, s.derive(i))
        gram = lat.psi.T @ lat.psi
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        assert lat.xi.shape == (3, 2)


def test_transformer_prior_value_rows():
    emb = make_embeddings(4, 4, stream(0))
    spec = Transformer(vocab=4, attn_dim=4, depth=2, context=2, embeddings=emb)
    lat = sample_latent(spec, stream(6))
    assert lat.value[0].shape == (4, 4)
    assert lat.value[1].shape == (4, 4)  # final layer maps to vocab
    norms = np.linalg.norm(lat.value[0], axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    gauss = Transformer(vocab=4, attn_dim=4, depth=2, context=2, embeddings=emb,
                        v_prior="gaussian")
    glat = sample_latent(gauss, stream(6))
    assert glat.value[0].shape == (4, 4)


def test_icl_lazy_components_and_urn_marginal():
    emb = make_embeddings(4, 4, stream(0))
    inner = Transformer(vocab=4, attn_dim=4, depth=1, context=2, embeddings=emb)
    spec = IclMixture(mixture_size=50, scale=2.0, inner=inner, tasks=6)
    s = stream(7)
    uniques = []
    for i in range(400):
        lat = sample_latent(spec, s.derive(i))
        assert set(lat.components) == set(int(a) for a in lat.assignments)
        uniques.append(len(lat.components))
    from infolab.info import dirmult_expected_unique

    target = dirmult_expected_unique(6, 2.0, 50)
    se = float(np.std(uniques, ddof=1) / math.sqrt(len(uniques)))
    assert abs(float(np.mean(uniques)) - target) <= 3 * se


# ---------------------------------------------------------------------------
# generation and conditionals
# ---------------------------------------------------------------------------


def test_linreg_pure_noise_variance():
    spec = LinReg(d=3, noise_var=1.0)
    lat = sample_latent(spec, stream(8))
    lat.theta[:] = 0.0
    s = stream(9)
    ys = [step(spec, lat, History(), s.derive(i)).y for i in range(10**5)]
    assert abs(float(np.var(ys)) - 1.0) < 0.02


def test_logreg_balanced_at_zero_logit():
    spec = LogReg(d=2)
    lat = sample_latent(spec, stream(10))
    lat.theta[:] = 0.0
    z = spec.cond_logprob(lat, History(), np.array([1.0, 2.0]), 1)
    assert z == pytest.approx(math.log(0.5), abs=1e-12)


def test_cond_logprob_normalization_discrete():
    spec = LogReg(d=3)
    lat = sample_latent(spec, stream(11))
    x = np.array([0.3, -1.0, 2.0])
    total = math.exp(spec.cond_logprob(lat, History(), x, 0)) + math.exp(
        spec.cond_logprob(lat, History(), x, 1)
    )
    assert total == pytest.approx(1.0, abs=1e-12)

    ark = BinaryARK(d=2, context=2, phi0=np.array([1.0, 0]), phi1=np.array([0, 1.0]))
    alat = sample_latent(ark, stream(12))
    hist = initial_history(ark, alat, stream(13))
    total = math.exp(ark.cond_logprob(alat, hist, None, 0)) + math.exp(
        ark.cond_logprob(alat, hist, None, 1)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_linreg_cond_logprob_standard_normal():
    spec = LinReg(d=2, noise_var=1.0)
    lat = sample_latent(spec, stream(14))
    lat.theta[:] = 0.0
    lp = spec.cond_logprob(lat, History(), np.array([1.0, 1.0]), 0.0)
    assert lp == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_initial_history_shapes():
    ark = BinaryARK(d=2, context=4, phi0=np.array([1.0, 0]), phi1=np.array([0, 1.0]))
    alat = sample_latent(ark, stream(15))
    h = initial_history(ark, alat, stream(16))
    assert len(h) == 4 and all(y in (0, 1) for y in h.labels())

    emb = make_embeddings(5, 5, stream(0))
    tf = Transformer(vocab=5, attn_dim=5, depth=1, context=3, embeddings=emb)
    tlat = sample_latent(tf, stream(17))
    th = initial_history(tf, tlat, stream(18))
    assert len(th) == 3 and all(1 <= y <= 5 for y in th.labels())

    assert len(initial_history(LinReg(d=2, noise_var=1.0), None, stream(19))) == 0


def test_step_requires_seed_context():
    ark = BinaryARK(d=2, context=2, phi0=np.array([1.0, 0]), phi1=np.array([0, 1.0]))
    alat = sample_latent(ark, stream(20))
    with pytest.raises(ValueError):
        step(ark, alat, History(), stream(21))


def test_transformer_pmf_normalized_and_positive():
    emb = make_embeddings(6, 4, stream(0))
    tf = Transformer(vocab=6, attn_dim=4, depth=2, context=3, embeddings=emb)
    lat = sample_latent(tf, stream(22))
    pmf = transformer_next_pmf(tf, lat, [1, 4, 2])
    assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(pmf > 0)


def test_irreducible_rate():
    assert irreducible_rate(LinReg(d=2, noise_var=1.0)) == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e)
    )
    assert irreducible_rate(LinReg(d=2, noise_var=0.25)) == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e * 0.25)
    )
    assert irreducible_rate(LogReg(d=2)) is None


# ---------------------------------------------------------------------------
# forward maps
# ---------------------------------------------------------------------------


def test_relu_forward_basics():
    assert relu_forward([np.zeros((1, 3))], np.ones(3)) == 0.0
    w = np.array([[1.0, -2.0, 0.5]])
    x = np.array([2.0, 1.0, 4.0])
    assert relu_forward([w], x) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        relu_forward([np.zeros((1, 2))], np.ones(3))


def test_relu_is_nonexpansive():
    gen = np.random.default_rng(23)
    a = gen.normal(size=(10**4, 5))
    b = gen.normal(size=(10**4, 5))
    lhs = np.linalg.norm(np.maximum(a, 0) - np.maximum(b, 0), axis=1)
    rhs = np.linalg.norm(a - b, axis=1)
    assert np.all(lhs <= rhs + 1e-12)


def test_attention_layer_invariants():
    gen = np.random.default_rng(24)
    r, K = 4, 5
    for _ in range(100):
        U = gen.normal(size=(r, K))
        U /= np.maximum(np.linalg.norm(U, axis=0, keepdims=True), 1.0)
        A = gen.normal(size=(r, r))
        V = gen.normal(size=(r, r))
        out = attention_layer(U, A, V)
        assert np.max(np.linalg.norm(out, axis=0)) <= 1.0 + 1e-12
    # U = 0: softmax of zeros is uniform attention
    out = attention_layer(np.zeros((r, K)), np.eye(r), np.eye(r))
    assert np.max(np.abs(out)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        attention_layer(np.zeros((r, K)), np.eye(r + 1), np.eye(r))


def test_attention_layer_lipschitz_bound():
    gen = np.random.default_rng(25)
    r, K = 3, 4
    for _ in range(10**3):
        U1 = gen.normal(size=(r, K))
        U1 /= np.maximum(np.linalg.norm(U1, axis=0, keepdims=True), 1.0)
        U2 = U1 + 0.1 * gen.normal(size=(r, K))
        U2 /= np.maximum(np.linalg.norm(U2, axis=0, keepdims=True), 1.0)
        A = gen.normal(size=(r, r))
        V = gen.normal(size=(r, r))
        out1 = attention_layer(U1, A, V)
        out2 = attention_layer(U2, A, V)
        lhs = float(np.sum((out1 - out2) ** 2))
        na = float(np.linalg.norm(A, 2))
        nv = float(np.linalg.norm(V, 2))
        factor = 2.0 * K * nv**2 * (1.0 + 4.0 * K * na**2 / r)
        rhs = factor * float(np.sum((U1 - U2) ** 2))
        assert lhs <= rhs + 1e-9


def test_dirichlet_net_zero_mean_and_tail():
    spec = DirichletNet(d=3, scale=2.0, noise_var=1.0, tail_tol=1e-8)
    s = stream(26)
    outs = []
    for i in range(2000):
        lat = sample_latent(spec, s.derive(("lat", i)))
        x = s.derive(("x", i)).gen.normal(size=3)
        outs.append(dirichlet_net_output(spec, lat, x))
        assert lat.draw.tail_mass < 1e-8
    mean = float(np.mean(outs))
    se = float(np.std(outs, ddof=1) / math.sqrt(len(outs)))
    assert abs(mean) <= 3 * se
    assert np.isfinite(np.var(outs))


def test_ark_logit_pairs_recent_bit_with_first_coefficient():
    spec = BinaryARK(d=2, context=2,
                     phi0=np.array([1.0, 0.0]), phi1=np.array([0.0, 1.0]))
    theta = np.array([[1.0, 2.0], [3.0, 4.0]])
    lat = ThetaLatent(theta=theta)
    # bits [older, recent] = [0, 1]: k=1 pairs theta[0] with phi1, k=2 with phi0
    assert ark_logit(spec, lat, [0, 1]) == pytest.approx(2.0 + 3.0)
    assert ark_logit(spec, lat, [1, 0]) == pytest.approx(1.0 + 4.0)


# ---------------------------------------------------------------------------
# meta processes
# ---------------------------------------------------------------------------


def test_linrep_uniform_at_zero_task_latent():
    spec = LinRep(d=5, r=2, tasks=2)
    lat = sample_latent(spec, stream(27))
    lat.xi[0][:] = 0.0
    pmf = linrep_task_pmf(lat, 0)
    assert np.max(np.abs(pmf - 0.2)) < 1e-12
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_meta_step_and_logprob_consistency():
    spec = LinRep(d=5, r=2, tasks=3)
    lat = sample_latent(spec, stream(28))
    h = History()
    obs = step(spec, lat, h, stream(29), 1)
    assert obs.task == 1 and 1 <= obs.y <= 5
    lp = spec.cond_logprob(lat, h, None, obs.y, 1)
    assert lp == pytest.approx(math.log(linrep_task_pmf(lat, 1)[obs.y - 1]))


@pytest.mark.parametrize("task", [None, -1, 3, 7])
def test_meta_step_requires_a_task_in_range(task):
    """step, cond_logprob and conditional of each meta process refuse the task."""
    inner = Transformer(
        vocab=3, attn_dim=3, depth=1, context=2, embeddings=make_embeddings(3, 3, stream(0))
    )
    for spec in (
        LinRep(d=5, r=2, tasks=3),
        IclMixture(mixture_size=4, scale=2.0, inner=inner, tasks=3),
    ):
        lat = sample_latent(spec, stream(28))
        name = type(spec).__name__
        for call in (
            lambda: step(spec, lat, History(), stream(30), task),
            lambda: spec.cond_logprob(lat, History(), None, 1, task),
            lambda: spec.conditional(lat, History(), None, task),
        ):
            with pytest.raises(ValueError, match=rf"{name} steps need a task index in \[0, 3\)"):
                call()


def test_icl_single_component_matches_plain_transformer():
    """N=1 mixture generates the same law as the inner transformer process."""
    emb = make_embeddings(5, 5, stream(0))
    tf = Transformer(vocab=5, attn_dim=5, depth=2, context=3, embeddings=emb)
    spec = IclMixture(mixture_size=1, scale=1.0, inner=tf, tasks=1)
    lat = sample_latent(spec, stream(31))
    assert list(lat.assignments) == [0] and set(lat.components) == {0}
    comp = lat.components[0]
    seed_tokens = initial_history(tf, comp, stream(32))
    # plain rollout
    plain = History([Observation(x=None, y=y) for y in seed_tokens.labels()])
    for t in range(12):
        plain.append(step(tf, comp, plain, stream(33).derive(t)))
    # mixture rollout with matched per-step streams
    meta_hist = History(
        [Observation(x=None, y=y, task=0) for y in seed_tokens.labels()]
    )
    for t in range(12):
        meta_hist.append(step(spec, lat, meta_hist, stream(33).derive(t), 0))
    assert plain.labels() == meta_hist.labels()
