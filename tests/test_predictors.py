"""Tests for sequential predictors against exact oracles."""

import math

import numpy as np
import pytest

from infolab.predictors import (
    ConjugateLinReg,
    Enumeration,
    GaussianPred,
    MisspecifiedConjugate,
    MisspecifiedWidth,
    Mixture,
    Omniscient,
    PriorEnsemble,
    init_predictor,
    log_loss,
    logsumexp,
    predict,
)
from infolab.estimators import run_replicate
from infolab.processes import (
    BinaryARK,
    DeepNet,
    DirichletNet,
    History,
    LinRep,
    LinReg,
    LogReg,
    Particles,
    Transformer,
    initial_history,
    sample_latent,
    step,
)
from infolab.rng import RngStream, SeedSpec

from conftest import block, draw


def stream(seed, *path):
    return RngStream(SeedSpec(seed, tuple(path)))


def one(x=None, y=0.0, task=None):
    """A history of one observation: label y at input x, for task."""
    return History(
        y=np.array([y]),
        x=None if x is None else np.asarray(x, dtype=float)[None],
        task=None if task is None else np.array([task]),
    )


def conjugate_kind(spec):
    return ConjugateLinReg(
        prior_mean=np.zeros(spec.d),
        prior_cov=spec.prior_var * np.eye(spec.d),
        noise_var=spec.noise_var,
    )


# ---------------------------------------------------------------------------
# log-loss scoring
# ---------------------------------------------------------------------------


def test_log_loss_basics():
    point = np.zeros(1)  # the log weight of a one-component mixture
    assert log_loss(Mixture(LogReg(d=1), np.array([0.0]), point), 1) == pytest.approx(math.log(2))
    assert log_loss(GaussianPred(mean=0.0, variance=1.0), 0.0) == pytest.approx(
        0.5 * math.log(2 * math.pi)
    )
    gaussian = Mixture(LinReg(d=1, noise_var=1.0), np.array([0.0]), point)
    assert log_loss(gaussian, 0.0) == log_loss(GaussianPred(mean=0.0, variance=1.0), 0.0)
    # A label that every component forbids costs the floor of the categorical loglik.
    pmfs = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]])
    forbidden = Mixture(LinRep(d=3, r=1, tasks=1), pmfs, np.log([0.5, 0.5]))
    assert log_loss(forbidden, 2) == pytest.approx(-math.log(1e-300), rel=1e-15)
    assert log_loss(forbidden, 1) == pytest.approx(-math.log(0.75), rel=1e-15)


def test_mixture_log_loss_matches_direct_mixture_density():
    means = np.array([-1.0, 0.5, 2.0])
    logw = np.log(np.array([0.2, 0.5, 0.3]))
    pred = Mixture(LinReg(d=1, noise_var=0.7), means, logw)
    y = 0.3
    dens = float(
        np.sum(
            np.exp(logw)
            * np.exp(-((y - means) ** 2) / (2 * 0.7))
            / math.sqrt(2 * math.pi * 0.7)
        )
    )
    assert log_loss(pred, y) == pytest.approx(-math.log(dens), abs=1e-12)


def test_omniscient_loss_equals_negative_cond_logprob():
    spec = LogReg(d=3)
    lat = sample_latent(spec, stream(0))
    state = init_predictor(Omniscient(), spec, latent=lat)
    h = step(spec, lat, 1, stream(1))
    pred = predict(state, spec, h, 0)
    assert log_loss(pred, h.y[0]) == pytest.approx(
        -spec.loglik(spec.conditional(lat, h, 0), h.y[0]), abs=1e-12
    )


# ---------------------------------------------------------------------------
# conjugate predictor
# ---------------------------------------------------------------------------


def test_conjugate_prior_predictive_variance():
    spec = LinReg(d=4, noise_var=0.25)
    state = init_predictor(conjugate_kind(spec), spec)
    x = np.full(4, 1.0)  # ||x||^2 = d
    pred = predict(state, spec, one(x), 0)
    assert pred.variance == pytest.approx(spec.noise_var + 1.0, abs=1e-12)
    assert pred.mean == 0.0


def test_conjugate_recursive_equals_batch_posterior():
    spec = LinReg(d=3, noise_var=0.5)
    state = init_predictor(conjugate_kind(spec), spec)
    gen = np.random.default_rng(2)
    X, Y = [], []
    for t in range(12):
        x = gen.normal(size=3)
        y = float(gen.normal())
        state.observe(spec, one(x, y), 0)
        X.append(x)
        Y.append(y)
        Xm = np.array(X)
        prec = np.eye(3) / spec.prior_var + Xm.T @ Xm / spec.noise_var
        cov = np.linalg.inv(prec)
        mean = cov @ (Xm.T @ np.array(Y)) / spec.noise_var
        assert np.max(np.abs(state.cov - cov)) < 1e-8
        assert np.max(np.abs(state.mean - mean)) < 1e-8


def test_conjugate_variance_decreases_along_repeated_direction():
    spec = LinReg(d=3, noise_var=1.0)
    state = init_predictor(conjugate_kind(spec), spec)
    e1 = np.array([1.0, 0.0, 0.0])
    prev = float(e1 @ state.cov @ e1)
    for _ in range(5):
        state.observe(spec, one(e1, 0.3), 0)
        cur = float(e1 @ state.cov @ e1)
        assert cur < prev
        prev = cur


def test_misspecified_conjugate_singular_support_invariant():
    spec = LinReg(d=3, noise_var=1.0)
    kind = MisspecifiedConjugate(
        prior_mean=np.zeros(3),
        prior_cov=np.diag([1.0, 1.0, 0.0]),
        noise_var=1.0,
    )
    state = init_predictor(kind, spec)
    gen = np.random.default_rng(3)
    for _ in range(10):
        state.observe(spec, one(gen.normal(size=3), float(gen.normal())), 0)
    assert abs(state.mean[2]) < 1e-12
    assert np.max(np.abs(state.cov[2, :])) < 1e-12


# ---------------------------------------------------------------------------
# enumeration predictor
# ---------------------------------------------------------------------------


def test_enumeration_weights_are_prior_times_likelihood():
    """Also when low noise collapses the weights: enumeration never resamples."""
    gen = np.random.default_rng(4)
    cases = [
        (
            LogReg(d=2),
            ([1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]),
            np.array([0.5, 0.3, 0.2]),
            lambda: int(gen.random() < 0.5),
        ),
        (
            LinReg(d=2, noise_var=1e-3),
            ([0.5, 0.0], [0.0, 0.5], [-0.5, 0.5]),
            np.array([0.2, 0.3, 0.5]),
            lambda: float(gen.normal()),
        ),
    ]
    for spec, thetas, prior, draw_y in cases:
        support = block(spec, theta=thetas)
        state = init_predictor(Enumeration(support=support, prior=prior), spec)
        logw_hand = np.log(prior)
        for _ in range(6):
            history = one(gen.normal(size=2), draw_y())
            for h, theta in enumerate(thetas):
                lat = draw(spec, theta=theta)
                logw_hand[h] += spec.loglik(spec.conditional(lat, history, 0), history.y[0])
            state.observe(spec, history, 0)
            hand = np.exp(logw_hand - logsumexp(logw_hand))
            assert np.max(np.abs(np.exp(state.log_weights) - hand)) < 1e-12
        assert state.resamples == 0 and state.particles.latents is None
        assert np.array_equal(state.particles.theta, thetas)
    w = np.exp(state.log_weights)
    assert 1.0 / np.sum(w * w) < 1.0 + 1e-6  # the LinReg weights collapsed


def test_enumeration_symmetric_prior_predicts_half():
    spec = LogReg(d=2)
    support = block(spec, theta=[[1.0, 1.0], [-1.0, -1.0]])
    state = init_predictor(Enumeration(support=support, prior=np.array([0.5, 0.5])), spec)
    pred = predict(state, spec, one([0.7, -0.2]), 0)
    assert math.exp(-log_loss(pred, 1)) == pytest.approx(0.5, abs=1e-12)


def _predictive_logpdf(pred, ys):
    if isinstance(pred, GaussianPred):
        return -0.5 * (math.log(2 * math.pi * pred.variance)) - (
            (ys - pred.mean) ** 2
        ) / (2 * pred.variance)
    variance = pred.spec.noise_var
    comp = -0.5 * np.log(2 * np.pi * variance) - (
        (ys[:, None] - pred.stats[None, :]) ** 2
    ) / (2 * variance)
    return np.array([logsumexp(pred.log_weights + row) for row in comp])


def _predictive_kl(p, q, ys, dy):
    lp = _predictive_logpdf(p, ys)
    lq = _predictive_logpdf(q, ys)
    w = np.exp(lp) * dy
    return float(np.sum(w * (lp - lq)))


def test_enumeration_matches_conjugate_on_discretized_prior():
    spec = LinReg(d=1, noise_var=1.0, prior_var=1.0)
    # 16-point equal-mass quantile discretization of the N(0,1) prior
    from scipy.stats import norm

    qs = norm.ppf((np.arange(16) + 0.5) / 16)
    support = block(spec, theta=qs[:, None])
    enum = init_predictor(Enumeration(support=support, prior=np.full(16, 1 / 16)), spec)
    conj = init_predictor(conjugate_kind(spec), spec)
    gen = np.random.default_rng(5)
    for _ in range(3):
        history = one(gen.normal(size=1), float(gen.normal()))
        enum.observe(spec, history, 0)
        conj.observe(spec, history, 0)
    at = one([0.8])
    ys = np.linspace(-10, 10, 4001)
    dy = ys[1] - ys[0]
    kl = _predictive_kl(predict(conj, spec, at, 0), predict(enum, spec, at, 0), ys, dy)
    assert 0.0 <= kl < 1e-3


# ---------------------------------------------------------------------------
# prior-ensemble predictor
# ---------------------------------------------------------------------------


def test_ensemble_prior_predictive_matches_conjugate():
    spec = LinReg(d=3, noise_var=0.5)
    x = np.array([1.0, -0.5, 0.25])
    means = []
    for i in range(40):
        state = init_predictor(PriorEnsemble(size=2048), spec, stream=stream(6, ("r", i)))
        pred = predict(state, spec, one(x), 0)
        w = np.exp(pred.log_weights)
        means.append(float(w @ pred.stats))
    est = float(np.mean(means))
    se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    assert abs(est - 0.0) <= 3 * se


def test_ensemble_converges_to_conjugate_with_size():
    spec = LinReg(d=2, noise_var=0.5)
    lat = sample_latent(spec, stream(7))
    h = step(spec, lat, 5, stream(8))
    # The five observations, then the input at which both predict.
    h = History(y=np.append(h.y, 0.0), x=np.vstack([h.x, [0.6, -1.1]]))
    ys = np.linspace(-12, 12, 4001)
    dy = ys[1] - ys[0]

    def mean_kl(size, n_seeds=24):
        kls = []
        for i in range(n_seeds):
            conj = init_predictor(conjugate_kind(spec), spec)
            ens = init_predictor(
                PriorEnsemble(size=size), spec, stream=stream(9, ("s", size), ("i", i))
            )
            for t in range(5):
                conj.observe(spec, h, t)
                ens.observe(spec, h, t)
            kls.append(_predictive_kl(predict(conj, spec, h, 5), predict(ens, spec, h, 5), ys, dy))
        return float(np.mean(kls))

    big, small = mean_kl(512), mean_kl(4096)
    assert small <= 0.6 * big


def test_ensemble_weights_normalized_and_resampling_counts():
    spec = LinReg(d=2, noise_var=0.1)
    lat = sample_latent(spec, stream(10))
    state = init_predictor(PriorEnsemble(size=128), spec, stream=stream(11))
    h = step(spec, lat, 30, stream(12))
    for t in range(30):
        state.observe(spec, h, t)
        assert logsumexp(state.log_weights) == pytest.approx(0.0, abs=1e-9)
    assert state.resamples > 0  # low noise forces ESS collapse


@pytest.mark.parametrize("spec, kind", [
    (LinReg(d=2, noise_var=0.1), PriorEnsemble(size=128)),
    (LogReg(d=3), PriorEnsemble(size=64, resample_ess_frac=0.9)),
    (BinaryARK(d=2, context=2), PriorEnsemble(size=64)),
    (LogReg(d=2), Enumeration(support=block(LogReg(d=2), theta=[[1.0, 0.0], [0.0, 2.0]]),
                              prior=np.array([0.7, 0.3]))),
], ids=["linreg", "logreg", "ark", "enumeration"])
def test_ensemble_ess_is_the_ess_of_its_weights_after_every_observe(spec, kind):
    """The ESS that observe keeps from its one exp pass, (sum e)^2 / sum e^2, is
    1 / sum w^2 of the normalised weights after each observe, resampled or not."""
    lat = sample_latent(spec, stream(13))
    state = init_predictor(kind, spec, stream=stream(14))
    h = step(spec, lat, 40, stream(15))
    for t in range(len(h.y) - 40, len(h.y)):
        state.observe(spec, h, t)
        assert state.ess == pytest.approx(1.0 / np.sum(np.exp(state.log_weights) ** 2), rel=1e-12)
    assert state.resamples > 0 or state.resampler is None


def test_predictor_kind_validation():
    with pytest.raises(ValueError):
        PriorEnsemble(size=1)
    with pytest.raises(ValueError):
        PriorEnsemble(size=8, resample_ess_frac=0.0)
    spec = LinReg(d=2, noise_var=1.0)
    with pytest.raises(ValueError):
        init_predictor(Omniscient(), spec)  # latent required
    with pytest.raises(ValueError):
        init_predictor(PriorEnsemble(), spec)  # stream required


# ---------------------------------------------------------------------------
# Bayes optimality and change-of-measure dominance (exact, enumeration)
# ---------------------------------------------------------------------------


def _exact_cumulative_loss(prior, cond, T, perturb=0.0):
    """Exact expected cumulative log-loss of the (perturbed) posterior predictive."""
    import itertools

    H, A = cond.shape
    total = 0.0
    for seq in itertools.product(range(A), repeat=T):
        lik = np.prod(cond[:, seq], axis=1)
        marg = float(prior @ lik)
        if marg <= 0:
            continue
        w = prior.copy()
        seq_loss = 0.0
        for y in seq:
            pt = w @ cond
            qt = (1 - perturb) * pt + perturb / A
            seq_loss += -math.log(max(float(qt[y]), 1e-300))
            w = w * cond[:, y]
            w /= w.sum()
        total += marg * seq_loss
    return total


def test_bayes_posterior_beats_uniform_mixed_perturbations():
    gen = np.random.default_rng(13)
    for _ in range(8):
        prior = gen.dirichlet(np.ones(4))
        cond = gen.dirichlet(np.ones(3), size=4)
        opt = _exact_cumulative_loss(prior, cond, 4)
        for lam in (0.1, 0.3, 0.5):
            pert = _exact_cumulative_loss(prior, cond, 4, perturb=lam)
            assert opt < pert  # strict: posterior is non-uniform a.s.


def test_change_of_measure_dominance():
    """Group-posterior mixture beats plugging in the group representative."""
    gen = np.random.default_rng(14)
    groups = [(0, 1), (2, 3)]
    for _ in range(20):
        prior = gen.dirichlet(np.ones(4))
        cond = gen.dirichlet(np.ones(3), size=4)
        mix_err = 0.0
        plug_err = 0.0
        for members in groups:
            pg = prior[list(members)]
            pg_norm = pg / pg.sum()
            mixture = pg_norm @ cond[list(members)]
            rep = members[0]
            for h, w in zip(members, pg):
                p = cond[h]
                mask = p > 0
                mix_err += w * float(
                    np.sum(p[mask] * (np.log(p[mask]) - np.log(mixture[mask])))
                )
                plug_err += w * float(
                    np.sum(
                        p[mask]
                        * (np.log(p[mask]) - np.log(np.maximum(cond[rep][mask], 1e-300)))
                    )
                )
        assert mix_err <= plug_err + 1e-12


# ---------------------------------------------------------------------------
# every process family through the enumeration and ensemble predictors
# ---------------------------------------------------------------------------


def _family_specs():
    from infolab.processes import make_embeddings

    return [
        LinReg(d=3, noise_var=0.5),
        LogReg(d=3),
        DeepNet(d=2, width=3, depth=3, noise_var=0.5),
        DirichletNet(d=2, scale=2.0, noise_var=0.5),
        BinaryARK(d=2, context=2, phi0=np.array([1.0, 0.0]), phi1=np.array([0.0, 1.0])),
        Transformer(
            vocab=4, attn_dim=4, depth=2, context=2,
            embeddings=make_embeddings(4, 4, stream(0)),
        ),
    ]


@pytest.mark.parametrize(
    "index, spec",
    enumerate(_family_specs()),
    ids=[type(s).__name__ for s in _family_specs()],
)
def test_point_mass_enumeration_matches_omniscient(index, spec):
    rep_stream = stream(31, ("family", index))
    latent = sample_latent(spec, rep_stream.derive(("latent", 0)))
    kind = Enumeration(support=latent, prior=np.array([1.0]))
    losses, omni = run_replicate(spec, (kind, Omniscient()), 12, rep_stream)
    assert np.all(np.isfinite(losses))
    assert np.max(np.abs(losses - omni)) < 1e-9


def _ensemble_rollout(spec, kind, T, seed):
    s = stream(seed)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    h = step(spec, latent, T, s)
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    losses = []
    for t in range(len(h.y) - T, len(h.y)):
        losses.append(log_loss(predict(state, spec, h, t), h.y[t]))
        state.observe(spec, h, t)
        assert logsumexp(state.log_weights) == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.isfinite(losses))
    return state


@pytest.mark.parametrize(
    "spec, kind",
    [
        (_family_specs()[3], PriorEnsemble(size=32)),
        (_family_specs()[5], PriorEnsemble(size=32)),
        (DirichletNet(d=2, scale=2.0, noise_var=0.1), MisspecifiedWidth(n=3, eps=0.3, size=32)),
    ],
    ids=["dirichlet", "transformer", "misspecified_width"],
)
def test_latent_list_ensembles_stay_finite_and_normalized(spec, kind):
    state = _ensemble_rollout(spec, kind, 10, 32)
    assert state.particles.size == kind.size


def test_resampler_indices_are_the_cdf_search_of_the_unsorted_uniforms():
    """Searching the uniforms in sorted order and scattering the results back gives
    draw k the plain cdf search of its uniforms, and never a zero weight."""
    from infolab.predictors import Resampler

    weights = stream(89).gen.random(4096)
    weights[1::7] = 0.0
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    resampler = Resampler(stream(90))
    for k in range(3):
        u = stream(90, ("sis", 0), ("resample", k)).gen.random(4096)
        idx = resampler.indices(weights)
        assert np.array_equal(idx, np.searchsorted(cdf, u, side="right"))
        assert np.all(weights[idx] > 0)


# ---------------------------------------------------------------------------
# rollout losses pinned to recorded values
# ---------------------------------------------------------------------------


def _pinned_cases():
    from infolab.predictors import OracleMetaEnsemble
    from infolab.processes import LinRep

    logreg_support = block(LogReg(d=2), theta=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    ark_support = block(
        BinaryARK(d=2, context=2),
        theta=[[[1.0, -0.5], [0.2, 0.3]], [[-0.4, 0.8], [0.0, -1.0]], [[0.5, 0.5], [-0.5, 0.5]]],
    )
    return {
        "enumeration_logreg": (
            LogReg(d=2),
            Enumeration(support=logreg_support, prior=np.array([0.5, 0.3, 0.2])),
            [0.501948534980468, 0.33572932498440783, 0.4832388478808133, 0.5869667849578489,
             0.7228320938396225, 1.094140335057412, 0.6761154414851477, 0.5986750872958712],
        ),
        "enumeration_ark": (
            BinaryARK(d=2, context=2),
            Enumeration(support=ark_support, prior=np.array([0.25, 0.25, 0.5])),
            [0.7818893946132492, 0.6965118231856352, 0.6481562663499087, 0.7709251164625976,
             0.5604908572823863, 0.5284359382986457, 0.9754667021065299, 0.6031796916500448],
        ),
        "ensemble_logreg": (
            LogReg(d=3),
            PriorEnsemble(size=64),
            [0.7274728665669434, 0.6782324640069143, 0.65133316229946, 0.6844573715203993,
             1.0325003013719618, 0.6162315096980564, 0.6134246467971527, 0.7515065451815494],
        ),
        "ensemble_ark": (
            BinaryARK(d=2, context=2),
            PriorEnsemble(size=64),
            [0.7587147130931595, 0.678240143479776, 0.5288616621143127, 0.4222565122352483,
             1.2349272585348754, 0.5583239515251219, 0.8783427657668578, 0.42382807556920354],
        ),
        "misspecified_width": (
            DirichletNet(d=2, scale=2.0, noise_var=0.1),
            MisspecifiedWidth(n=3, eps=0.3, size=32),
            [0.14363909996080615, 0.4254237539073511, 0.4501600115155209, 0.6005330131511002,
             0.5839425032258254, 0.46383548936541974, 0.12195366657775164, -0.07418337187546342],
        ),
        "oracle_meta": (
            LinRep(d=4, r=2, tasks=2),
            OracleMetaEnsemble(size=64),
            [1.4974523154943413, 1.3970212745596315, 1.3047153805664968, 1.1179014434201835,
             1.524354505428739, 1.5751467977616112, 1.2448528235768643, 1.559124339880594,
             1.4306583556396228, 0.959523091815579, 1.109977132128697, 0.8694645667593797,
             1.7609625961783868, 0.8087608850441512, 1.5302083464184602, 0.7632141424578212],
        ),
        "ensemble_linrep": (
            LinRep(d=4, r=2, tasks=2),
            PriorEnsemble(size=64),
            [1.4505987110998193, 1.4150794513594214, 1.409562490045094, 1.2101814894371898,
             1.4729587292250557, 1.0667568356181074, 1.4088717376894628, 1.5251806937074828,
             1.2684608061408755, 1.3688773177342255, 1.1969935962341482, 0.9449708274060598,
             1.533003047163203, 2.0812713856366205, 1.408093085324543, 0.9183046085710491],
        ),
    }


@pytest.mark.parametrize("index, case", enumerate(_pinned_cases()), ids=list(_pinned_cases()))
def test_rollout_losses_match_recorded_values(index, case):
    """Losses of fixed-seed rollouts, recorded under seed contract 3 (the
    ensemble and oracle ones resample during the rollout); the Dirichlet and
    LinRep ones under contract 4, which draws each prior as one block."""
    spec, kind, recorded = _pinned_cases()[case]
    losses = run_replicate(spec, (kind,), 8, stream(41, ("pin", index)))[0]
    np.testing.assert_allclose(losses, recorded, rtol=1e-9, atol=0)


def _exact_pinned_cases():
    from infolab.processes import make_embeddings

    inner = Transformer(
        vocab=3, attn_dim=3, depth=1, context=2, embeddings=make_embeddings(3, 3, stream(0))
    )
    linreg = LinReg(d=3, noise_var=0.25)
    return {
        "conjugate_linreg": (
            linreg,
            ConjugateLinReg.from_config({}, linreg),
            [1.6500988355092234, 0.8815664447524856, 1.1210774414719031, 0.9139047586566038,
             0.30915259416478996, 1.3555325662521633, 0.39889341685680085, 0.985232458666933],
        ),
        "omniscient_logreg": (
            LogReg(d=3),
            Omniscient(),
            [0.710287529384261, 0.6912340913049965, 1.0899303010888814, 0.9650105420326027,
             0.5677035656573858, 0.8551278654620662, 1.0992690882337144, 0.7497500205877856],
        ),
        "ensemble_deepnet": (
            DeepNet(d=2, width=3, depth=2, noise_var=0.5),
            PriorEnsemble(size=32),
            [5.342060267272363, 1.6130893463384774, 1.479820149029758, 0.7566149808221114,
             1.3819651023925208, 0.9403364606174027, 3.4301616741169454, 0.5927554777314756],
        ),
        "ensemble_dirichlet": (
            DirichletNet(d=2, scale=2.0, noise_var=0.5),
            PriorEnsemble(size=16),
            [0.8012839794390314, 0.6894986833527836, 1.5491503795063568, 1.3886911710728262,
             2.3469831111943082, 2.825515450674331, 6.04824764476127, 2.2812312103633743],
        ),
        "ensemble_transformer": (
            inner,
            PriorEnsemble(size=16),
            [0.9404048624064414, 0.8454003421872622, 1.1181531972311767, 1.1509005306049902,
             0.7097452232529369, 1.4162401199616506, 1.133890680778383, 0.7673473018352865],
        ),
    }


@pytest.mark.parametrize(
    "index, case", enumerate(_exact_pinned_cases()), ids=list(_exact_pinned_cases())
)
def test_rollout_losses_equal_recorded_values(index, case):
    """Losses of fixed-seed rollouts, bit for bit, recorded under seed contract 3
    (the ensemble ones as the log-normalisers of their reweightings); the deepnet,
    Dirichlet and transformer ones under contract 4, which draws each prior as one
    block."""
    spec, kind, recorded = _exact_pinned_cases()[case]
    losses = run_replicate(spec, (kind,), 8, stream(43, ("exact_pin", index)))[0]
    assert losses.tolist() == recorded


# ---------------------------------------------------------------------------
# predict is a query: predicting anywhere, any number of times, leaves the
# weights that observe reaches unchanged
# ---------------------------------------------------------------------------


def _filter_rollout(spec, kind, T, seed, calls):
    """Observe T steps per task; before observe i, call predict at the
    (history, step) pairs that `calls(i, history)` returns."""
    s = stream(seed)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    h = step(spec, latent, T * (spec.tasks if spec.meta else 1), s)
    for i in range(len(h.y) - T * (spec.tasks if spec.meta else 1), len(h.y)):
        for other, n in calls(i, h):
            state.predict(spec, other, n)
        state.observe(spec, h, i)
    return state


def _cache_cases():
    from infolab.predictors import OracleMetaEnsemble
    from infolab.processes import LinRep

    support = block(LogReg(d=2), theta=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    other_x = lambda h, i: (History(y=h.y, x=h.x + 1.0), i)
    other_task = lambda h, i: (History(y=h.y, task=(h.task + 1) % 2), i)
    # One more bit, the flip of the last, so the context differs from h's.
    longer_history = lambda h, i: (History(y=np.append(h.y[:i], 1 - h.y[i - 1])), i + 1)
    return {
        "ensemble_logreg": (LogReg(d=3), PriorEnsemble(size=64), other_x),
        "ensemble_ark": (BinaryARK(d=2, context=2), PriorEnsemble(size=64), longer_history),
        "enumeration_logreg": (
            LogReg(d=2), Enumeration(support=support, prior=np.array([0.5, 0.3, 0.2])), other_x
        ),
        "ensemble_linrep": (LinRep(d=4, r=2, tasks=2), PriorEnsemble(size=64), other_task),
        "oracle_meta": (LinRep(d=4, r=2, tasks=2), OracleMetaEnsemble(size=64), None),
    }


@pytest.mark.parametrize("case", sorted(_cache_cases()))
def test_predict_then_observe_equals_observe_only(case):
    spec, kind, elsewhere = _cache_cases()[case]
    runs = {
        "observe_only": lambda i, h: [],
        "predict_first": lambda i, h: [(h, i)],
        # A statistic must not outlive the observe that follows its predict.
        "predict_every_other": lambda i, h: [(h, i)] if i % 2 == 0 else [],
        # The last predict is at another step of the same history.
        "predict_next_step": lambda i, h: [(h, i), (h, min(i + 1, len(h.y) - 1))],
    }
    if elsewhere is not None:
        # The last predict is at another input, task or history, so observe
        # must not reuse it.
        runs["predict_elsewhere"] = lambda i, h: [(h, i), elsewhere(h, i)]
    states = {name: _filter_rollout(spec, kind, 30, 61, calls) for name, calls in runs.items()}
    ref = states.pop("observe_only")
    if case in ("ensemble_ark", "oracle_meta"):
        assert ref.resamples > 0
    for name, state in states.items():
        assert np.array_equal(state.log_weights, ref.log_weights), name
        assert state.resamples == ref.resamples, name


# ---------------------------------------------------------------------------
# statistics kept per task on the particles survive a resample, carried along
# by the same indices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("oracle", [False, True], ids=["ensemble_linrep", "oracle_meta"])
def test_memoised_statistics_match_fresh_ones_after_every_observe(oracle):
    from infolab.predictors import OracleMetaEnsemble
    from infolab.processes import Particles

    spec = LinRep(d=4, r=2, tasks=2)
    kind = OracleMetaEnsemble(size=64) if oracle else PriorEnsemble(size=64)
    s = stream(67)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    # (filter, the tasks whose statistic its particles keep)
    filters = list(zip(state.tasks, [[m] for m in range(spec.tasks)])) if oracle else [
        (state, range(spec.tasks))
    ]
    h = step(spec, latent, 40 * spec.tasks, s)
    carried = 0
    for i in range(len(h.y)):
        resamples = state.resamples
        state.predict(spec, h, i)
        state.observe(spec, h, i)
        # the statistic the step read is still kept, on resampled particles too
        task = int(h.task[i])
        assert task in (state.tasks[task] if oracle else state).particles._memo, i
        carried += state.resamples > resamples
        for filt, tasks in filters:
            parts = filt.particles
            unmemoised = Particles(parts.prior, parts.size, **parts.arrays)
            for task in tasks:
                probe = one(y=1, task=task)
                kept = parts.prior.particle_stat(parts, probe, 0)
                fresh = parts.prior.particle_stat(unmemoised, probe, 0)
                assert np.array_equal(kept, fresh), (i, task)
                assert not kept.flags.writeable
    assert carried > 0


# ---------------------------------------------------------------------------
# seed contract 2: the oracle draws each task's particles in one call
# ---------------------------------------------------------------------------


def _oracle_start(S, tasks, r, seed):
    from infolab.predictors import OracleMetaEnsemble
    from infolab.processes import LinRep

    spec = LinRep(d=r + 2, r=r, tasks=tasks)
    s = stream(seed)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    pred = s.derive(("pred", 0))
    state = init_predictor(OracleMetaEnsemble(size=S), spec, latent=latent, stream=pred)
    return state, pred


def test_oracle_task_particles_are_one_draw_per_task():
    """Seed contract 2: task m's particles are one N(0, 1/r) draw of shape
    (S, r) from path ("task", m) of the predictor's ("pred", 0) stream."""
    state, pred = _oracle_start(S=64, tasks=3, r=2, seed=71)
    for m, xi in enumerate(state.xi_particles):
        expected = pred.derive(("task", m)).gen.normal(0.0, math.sqrt(1.0 / 2), (64, 2))
        assert np.array_equal(xi, expected), m


def test_oracle_task_particles_follow_the_prior():
    S, tasks, r = 4096, 8, 2
    state, _ = _oracle_start(S, tasks, r, seed=72)
    draws = state.xi_particles.ravel()
    n, var = draws.size, 1.0 / r
    assert abs(draws.mean()) <= 4 * math.sqrt(var / n)
    # The sample variance of n normal draws has SE var * sqrt(2 / (n - 1)).
    assert abs(draws.var(ddof=1) - var) <= 4 * var * math.sqrt(2.0 / (n - 1))


def test_oracle_task_particles_differ_between_tasks():
    state, _ = _oracle_start(S=64, tasks=4, r=2, seed=73)
    xi = state.xi_particles
    for a in range(len(xi)):
        for b in range(a):
            assert not np.any(xi[a] == xi[b]), (a, b)


# ---------------------------------------------------------------------------
# the rollout owns the one history; states read it and keep no copy
# ---------------------------------------------------------------------------


def _state_kinds():
    from infolab.predictors import OracleMetaEnsemble
    from infolab.processes import LinRep

    linreg = LinReg(d=2, noise_var=0.5)
    ark = BinaryARK(d=2, context=2)
    support = block(ark, theta=[[[1.0, 0.0], [0.0, 1.0]], [[0.5, -0.5], [-1.0, 0.2]]])
    return {
        "conjugate": (linreg, conjugate_kind(linreg)),
        "enumeration": (ark, Enumeration(support=support, prior=np.array([0.4, 0.6]))),
        "ensemble": (ark, PriorEnsemble(size=32)),
        "misspecified_width": (
            DirichletNet(d=2, scale=2.0, noise_var=0.1), MisspecifiedWidth(n=3, eps=0.3, size=32)
        ),
        "omniscient": (ark, Omniscient()),
        "oracle_meta": (LinRep(d=4, r=2, tasks=2), OracleMetaEnsemble(size=32)),
    }


@pytest.mark.parametrize("case", list(_state_kinds()))
def test_observe_returns_the_log_loss_of_predict(case):
    """One predictive rule: at every step, what observe returns is the loss of
    the label under the predictive that predict gave just before, bit for bit."""
    spec, kind = _state_kinds()[case]
    s = stream(85)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    n = 40 * (spec.tasks if spec.meta else 1)
    h = step(spec, latent, n, s)
    for i in range(len(h.y) - n, len(h.y)):
        expected = log_loss(predict(state, spec, h, i), h.y[i])
        assert state.observe(spec, h, i) == expected, i
    if case in ("ensemble", "misspecified_width", "oracle_meta"):
        assert state.resamples > 0


def test_misspecified_width_particles_are_dirichlet_draws_scored_by_the_spec():
    """The width-n nets are one DirichletNet block from path ("particles", 0), reduced by
    the uniforms of ("reduce", 0) and snapped: at every step the state's statistic is
    DirichletNet.particle_stat of its nets, bit for bit, and c/n sum sign ReLU(atom . x)
    of each net to 1e-12."""
    from infolab.quantizers import width_reduce

    spec = DirichletNet(d=2, scale=2.0, noise_var=0.1)
    kind = MisspecifiedWidth(n=3, eps=0.3, size=32)
    s = stream(88)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    full = spec.sample_particles(32, s.derive(("pred", 0), ("particles", 0)))
    nets = width_reduce(spec, full, 3, s.derive(("pred", 0), ("reduce", 0)), eps=0.3)
    assert state.particles.prior is spec and state.particles.atoms.shape == (32, 3, 2)
    for name, value in nets.arrays.items():
        assert np.array_equal(state.particles.arrays[name], value), name
    h = step(spec, latent, 40, s)
    for i in range(len(h.y)):
        stat = predict(state, spec, h, i).stats
        assert np.array_equal(stat, DirichletNet.particle_stat(spec, state.particles, h, i)), i
        p = state.particles
        acts = np.maximum(np.einsum("snd,d->sn", p.atoms, h.x[i]), 0.0)
        np.testing.assert_allclose(
            stat, spec.output_scale / 3 * np.sum(p.signs * acts, axis=1), rtol=1e-12, atol=1e-15
        )
        state.observe(spec, h, i)
    assert state.resamples > 0


def _gaussian_loglik(spec, mean, y):
    return -0.5 * math.log(2 * math.pi * spec.noise_var) - (y - mean) ** 2 / (2 * spec.noise_var)


def _bernoulli_loglik(spec, logit, y):
    return -math.log(1.0 + math.exp(-logit if y == 1 else logit))


def _categorical_loglik(spec, pmf, y):
    return math.log(pmf[y - 1])


@pytest.mark.parametrize(
    "spec, loglik",
    [
        (LinReg(d=2, noise_var=0.5), _gaussian_loglik),
        (LogReg(d=3), _bernoulli_loglik),
        (Transformer(vocab=3, attn_dim=3, depth=1, context=2,
                     embeddings=np.eye(3)), _categorical_loglik),
    ],
    ids=["gaussian", "bernoulli", "categorical"],
)
def test_enumeration_cumulative_loss_is_minus_the_log_evidence(spec, loglik):
    """-sum_t log p(y_t | H_{t-1}) = -log p(H_T) = -logsumexp_h(log prior_h +
    sum_t log p_h(y_t)), the evidence taken hypothesis by hypothesis from
    `conditional`.  The true latent is a hypothesis of zero prior mass, so it
    must count for nothing."""
    from scipy.special import logsumexp as reference_logsumexp

    T, s = 40, stream(86)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    others = spec.sample_particles(3, stream(87))
    support = Particles(spec, 4, **{
        name: np.concatenate([latent.arrays[name], a]) for name, a in others.arrays.items()
    })
    prior = np.array([0.0, 0.5, 0.3, 0.2])
    losses = run_replicate(spec, (Enumeration(support=support, prior=prior),), T, s)[0]
    h = step(spec, latent, T, s)  # the rollout that run_replicate scored
    steps = range(len(h.y) - T, len(h.y))
    log_lik = [sum(loglik(spec, spec.conditional(support.resample(np.array([k])), h, i), h.y[i])
                   for i in steps) for k in range(4)]
    with np.errstate(divide="ignore"):
        evidence = reference_logsumexp(np.log(prior) + np.array(log_lik))
    assert abs(losses.sum() + evidence) <= 1e-10


def test_a_label_every_particle_forbids_costs_the_loglik_floor():
    """Every hypothesis gives label 2 probability 0 (its softmax underflows):
    the step costs -log 1e-300, about 690.8 nats, where a mixture of the pmfs
    would give +inf, and the weights stay as they were, up to rounding."""
    spec = LinRep(d=3, r=1, tasks=1)
    psi = np.array([[1.0], [0.0], [0.0]])
    support = block(spec, psi=[psi, psi], xi=[[[1000.0]], [[2000.0]]])
    h = one(y=2, task=0)
    for kind, latent in (
        (Enumeration(support=support, prior=np.array([0.3, 0.7])), None),
        (Omniscient(), support.resample(np.array([0]))),
    ):
        state = init_predictor(kind, spec, latent=latent)
        before = getattr(state, "log_weights", None)
        assert log_loss(predict(state, spec, h, 0), 2) == -math.log(1e-300)
        assert state.observe(spec, h, 0) == pytest.approx(690.7755278982137, rel=1e-15)
        if before is not None:
            np.testing.assert_allclose(state.log_weights, before, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", list(_state_kinds()))
def test_predict_and_observe_leave_the_history_unchanged(case):
    spec, kind = _state_kinds()[case]
    s = stream(81)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    h = step(spec, latent, 6 * (spec.tasks if spec.meta else 1), s)
    arrays = {name: getattr(h, name) for name in ("y", "x", "task")}
    before = {name: None if a is None else a.copy() for name, a in arrays.items()}
    for i in range(len(h.y) - 6 * (spec.tasks if spec.meta else 1), len(h.y)):
        predict(state, spec, h, i)
        state.observe(spec, h, i)
        for name, a in arrays.items():
            assert getattr(h, name) is a and (a is None or np.array_equal(a, before[name])), i


def _holds_a_history(obj, seen) -> bool:
    """Whether a History is reachable from obj through attributes and containers."""
    if id(obj) in seen or isinstance(obj, (np.ndarray, type)):
        return False
    seen.add(id(obj))
    if isinstance(obj, History):
        return True
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    else:
        items = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return any(_holds_a_history(v, seen) for v in items)


@pytest.mark.parametrize("case", list(_state_kinds()))
def test_no_state_keeps_the_history_after_a_rollout(case, monkeypatch):
    from infolab import estimators

    spec, kind = _state_kinds()[case]
    states, init = [], estimators.init_predictor

    def recording_init(*args, **kwargs):
        states.append(init(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(estimators, "init_predictor", recording_init)
    run_replicate(spec, (kind, Omniscient()), 6, stream(82))
    assert len(states) == 2  # the predictor and the omniscient baseline
    for state in states:
        assert not _holds_a_history(state, set()), type(state).__name__


@pytest.mark.parametrize("task", [None, -1, 3])
@pytest.mark.parametrize("oracle", [False, True], ids=["ensemble", "oracle_meta"])
def test_meta_predictors_require_a_task_in_range(oracle, task):
    from infolab.predictors import OracleMetaEnsemble
    from infolab.processes import LinRep

    spec = LinRep(d=4, r=2, tasks=3)
    kind = OracleMetaEnsemble(size=16) if oracle else PriorEnsemble(size=16)
    s = stream(83)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    match = r"LinRep steps need a task index in \[0, 3\)"
    with pytest.raises(ValueError, match=match):
        predict(state, spec, one(y=1, task=task), 0)
    with pytest.raises(ValueError, match=match):
        state.observe(spec, one(y=1, task=task), 0)


@pytest.mark.parametrize("case", ["enumeration", "ensemble", "omniscient"])
def test_short_ark_history_is_refused(case):
    spec = BinaryARK(d=2, context=3)
    kind = {
        "enumeration": Enumeration(support=draw(spec, theta=np.ones((3, 2))), prior=np.ones(1)),
        "ensemble": PriorEnsemble(size=16),
        "omniscient": Omniscient(),
    }[case]
    s = stream(84)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    seed = initial_history(spec, latent, s)
    for n in (0, 2):
        with pytest.raises(ValueError, match="history shorter than the context length"):
            predict(state, spec, seed, n)


@pytest.mark.parametrize(
    "cov, message",
    [(np.diag([1.0, -1.0]), "positive semi-definite"), ([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
     ([[np.nan, 0.0], [0.0, 1.0]], "positive semi-definite"),
     (np.diag([1.0, np.inf]), "positive semi-definite")],
    ids=["indefinite", "asymmetric", "nan", "inf"],
)
def test_conjugate_prior_covariance_is_checked_at_construction(cov, message):
    with pytest.raises(ValueError, match=f"^prior covariance must be {message}$"):
        ConjugateLinReg(prior_mean=np.zeros(2), prior_cov=np.asarray(cov), noise_var=0.25)


@pytest.mark.parametrize("z", [-1000.0, -745.5, -20.0, -0.5, 0.0, 0.5, 20.0, 1000.0])
def test_bernoulli_probabilities_use_the_one_sigmoid(z):
    from infolab.info import binary_kl_logits
    from infolab.processes import sigmoid

    p = sigmoid(z)
    assert p == pytest.approx(1.0 / (1.0 + math.exp(-z)) if z > -700 else 0.0, rel=1e-15)
    p1 = math.exp(-log_loss(Mixture(LogReg(d=1), np.array([z]), np.zeros(1)), 1))
    assert p1 == pytest.approx(p, rel=1e-13, abs=1e-320)
    assert binary_kl_logits(z, z) == pytest.approx(0.0, abs=1e-15)
