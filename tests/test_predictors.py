"""Tests for sequential predictors against exact oracles."""

import math

import numpy as np
import pytest

from infolab.predictors import (
    BernoulliLogitPred,
    CategoricalPred,
    ConjugateLinReg,
    Enumeration,
    GaussianMixturePred,
    GaussianPred,
    MisspecifiedConjugate,
    MisspecifiedWidth,
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
    LinReg,
    LogReg,
    Observation,
    ThetaLatent,
    Transformer,
    initial_history,
    sample_latent,
    step,
)
from infolab.rng import RngStream, SeedSpec


def stream(seed, *path):
    return RngStream(SeedSpec(seed, tuple(path)))


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
    assert log_loss(BernoulliLogitPred(logit=0.0), 1) == pytest.approx(math.log(2))
    assert log_loss(GaussianPred(mean=0.0, variance=1.0), 0.0) == pytest.approx(
        0.5 * math.log(2 * math.pi)
    )
    assert log_loss(CategoricalPred(pmf=np.array([1.0, 0.0])), 2) == math.inf


def test_mixture_log_loss_matches_direct_mixture_density():
    means = np.array([-1.0, 0.5, 2.0])
    logw = np.log(np.array([0.2, 0.5, 0.3]))
    pred = GaussianMixturePred(means=means, variance=0.7, log_weights=logw)
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
    obs = step(spec, lat, [], stream(1))
    pred = predict(state, spec, [], obs.x)
    assert log_loss(pred, obs.y) == pytest.approx(
        -spec.cond_logprob(lat, [], obs.x, obs.y), abs=1e-12
    )


# ---------------------------------------------------------------------------
# conjugate predictor
# ---------------------------------------------------------------------------


def test_conjugate_prior_predictive_variance():
    spec = LinReg(d=4, noise_var=0.25)
    state = init_predictor(conjugate_kind(spec), spec)
    x = np.full(4, 1.0)  # ||x||^2 = d
    pred = predict(state, spec, [], x)
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
        state.observe(spec, [], Observation(x=x, y=y))
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
        state.observe(spec, [], Observation(x=e1, y=0.3))
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
        state.observe(spec, [], Observation(x=gen.normal(size=3), y=float(gen.normal())))
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
            [ThetaLatent(theta=np.array(t)) for t in ([1.0, 0.0], [0.0, 1.0], [-1.0, -1.0])],
            np.array([0.5, 0.3, 0.2]),
            lambda: int(gen.random() < 0.5),
        ),
        (
            LinReg(d=2, noise_var=1e-3),
            [ThetaLatent(theta=np.array(t)) for t in ([0.5, 0.0], [0.0, 0.5], [-0.5, 0.5])],
            np.array([0.2, 0.3, 0.5]),
            lambda: float(gen.normal()),
        ),
    ]
    for spec, support, prior, draw_y in cases:
        state = init_predictor(Enumeration(support=support, prior=prior), spec)
        hist = []
        logw_hand = np.log(prior)
        for _ in range(6):
            x = gen.normal(size=2)
            y = draw_y()
            obs = Observation(x=x, y=y)
            for h, lat in enumerate(support):
                logw_hand[h] += spec.cond_logprob(lat, hist, x, y)
            state.observe(spec, hist, obs)
            hist.append(obs)
            hand = np.exp(logw_hand - logsumexp(logw_hand))
            assert np.max(np.abs(np.exp(state.log_weights) - hand)) < 1e-12
        assert state.resamples == 0 and state.particles.latents == support
        assert np.array_equal(state.particles.theta, [lat.theta for lat in support])
    w = np.exp(state.log_weights)
    assert 1.0 / np.sum(w * w) < 1.0 + 1e-6  # the LinReg weights collapsed


def test_enumeration_symmetric_prior_predicts_half():
    spec = LogReg(d=2)
    support = [
        ThetaLatent(theta=np.array([1.0, 1.0])),
        ThetaLatent(theta=np.array([-1.0, -1.0])),
    ]
    state = init_predictor(Enumeration(support=support, prior=np.array([0.5, 0.5])), spec)
    pred = predict(state, spec, [], np.array([0.7, -0.2]))
    assert pred.p1 == pytest.approx(0.5, abs=1e-12)


def _predictive_logpdf(pred, ys):
    if isinstance(pred, GaussianPred):
        return -0.5 * (math.log(2 * math.pi * pred.variance)) - (
            (ys - pred.mean) ** 2
        ) / (2 * pred.variance)
    comp = -0.5 * np.log(2 * np.pi * pred.variance) - (
        (ys[:, None] - pred.means[None, :]) ** 2
    ) / (2 * pred.variance)
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
    support = [ThetaLatent(theta=np.array([q])) for q in qs]
    enum = init_predictor(Enumeration(support=support, prior=np.full(16, 1 / 16)), spec)
    conj = init_predictor(conjugate_kind(spec), spec)
    gen = np.random.default_rng(5)
    for _ in range(3):
        obs = Observation(x=gen.normal(size=1), y=float(gen.normal()))
        enum.observe(spec, [], obs)
        conj.observe(spec, [], obs)
    x = np.array([0.8])
    ys = np.linspace(-10, 10, 4001)
    dy = ys[1] - ys[0]
    kl = _predictive_kl(predict(conj, spec, [], x), predict(enum, spec, [], x), ys, dy)
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
        pred = predict(state, spec, [], x)
        w = np.exp(pred.log_weights)
        means.append(float(w @ pred.means))
    est = float(np.mean(means))
    se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    assert abs(est - 0.0) <= 3 * se


def test_ensemble_converges_to_conjugate_with_size():
    spec = LinReg(d=2, noise_var=0.5)
    lat = sample_latent(spec, stream(7))
    obs_list = []
    hist = []
    for t in range(5):
        obs = step(spec, lat, hist, stream(8, ("t", t)))
        obs_list.append(obs)
        hist.append(obs)
    x = np.array([0.6, -1.1])
    ys = np.linspace(-12, 12, 4001)
    dy = ys[1] - ys[0]

    def mean_kl(size, n_seeds=24):
        kls = []
        for i in range(n_seeds):
            conj = init_predictor(conjugate_kind(spec), spec)
            ens = init_predictor(
                PriorEnsemble(size=size), spec, stream=stream(9, ("s", size), ("i", i))
            )
            for t, obs in enumerate(obs_list):
                conj.observe(spec, obs_list[:t], obs)
                ens.observe(spec, obs_list[:t], obs)
            kls.append(
                _predictive_kl(
                    predict(conj, spec, obs_list, x), predict(ens, spec, obs_list, x), ys, dy
                )
            )
        return float(np.mean(kls))

    big, small = mean_kl(512), mean_kl(4096)
    assert small <= 0.6 * big


def test_ensemble_weights_normalized_and_resampling_counts():
    spec = LinReg(d=2, noise_var=0.1)
    lat = sample_latent(spec, stream(10))
    state = init_predictor(PriorEnsemble(size=128), spec, stream=stream(11))
    hist = []
    for t in range(30):
        obs = step(spec, lat, hist, stream(12, ("t", t)))
        state.observe(spec, hist, obs)
        hist.append(obs)
        assert logsumexp(state.log_weights) == pytest.approx(0.0, abs=1e-9)
    assert state.resamples > 0  # low noise forces ESS collapse


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
    kind = Enumeration(support=[latent], prior=np.array([1.0]))
    losses, omni = run_replicate(spec, (kind, Omniscient()), 12, rep_stream)
    assert np.all(np.isfinite(losses))
    assert np.max(np.abs(losses - omni)) < 1e-9


def _ensemble_rollout(spec, kind, T, seed):
    s = stream(seed)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    hist = initial_history(spec, latent, s.derive(("init", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    losses = []
    for t in range(T):
        obs = step(spec, latent, hist, s.derive(("step", t)))
        losses.append(log_loss(predict(state, spec, hist, obs.x), obs.y))
        state.observe(spec, hist, obs)
        hist.append(obs)
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


def test_icl_mixture_rollouts_are_finite():
    from infolab.processes import IclMixture, make_embeddings

    inner = Transformer(
        vocab=3, attn_dim=3, depth=1, context=2, embeddings=make_embeddings(3, 3, stream(0))
    )
    spec = IclMixture(mixture_size=4, scale=2.0, inner=inner, tasks=2)
    losses = run_replicate(spec, (Omniscient(), PriorEnsemble(size=16)), 4, stream(33))
    assert losses.shape == (2, 8)
    assert np.all(np.isfinite(losses))


# ---------------------------------------------------------------------------
# rollout losses pinned to recorded values
# ---------------------------------------------------------------------------


def _pinned_cases():
    from infolab.predictors import OracleMetaEnsemble
    from infolab.processes import LinRep

    logreg_support = [
        ThetaLatent(theta=np.array(t)) for t in ([1.0, 0.0], [0.0, 1.0], [-1.0, -1.0])
    ]
    ark_support = [
        ThetaLatent(theta=np.array(t))
        for t in (
            [[1.0, -0.5], [0.2, 0.3]], [[-0.4, 0.8], [0.0, -1.0]], [[0.5, 0.5], [-0.5, 0.5]]
        )
    ]
    return {
        "enumeration_logreg": (
            LogReg(d=2),
            Enumeration(support=logreg_support, prior=np.array([0.5, 0.3, 0.2])),
            [0.5196030009464161, 0.5629125335166987, 0.33823116832266853, 0.1997421501124759,
             0.5991348543133852, 1.1776409641252163, 0.5442814338903266, 0.6543058062678982],
        ),
        "enumeration_ark": (
            BinaryARK(d=2, context=2),
            Enumeration(support=ark_support, prior=np.array([0.25, 0.25, 0.5])),
            [0.7818893946132492, 0.6965118231856352, 0.7402580293297053, 0.8114113576762161,
             0.9537630364060011, 0.7532043307131318, 0.5629505383322366, 0.8402569151258747],
        ),
        "ensemble_logreg": (
            LogReg(d=3),
            PriorEnsemble(size=64),
            [0.7235576258465375, 0.7473047798294168, 0.8246798627060452, 0.7600350164521845,
             0.8305262269487903, 0.7795372208164719, 0.7832113833616814, 0.7177849485016937],
        ),
        "ensemble_ark": (
            BinaryARK(d=2, context=2),
            PriorEnsemble(size=64),
            [0.6316154860128357, 0.899333345133385, 0.5962879563382739, 0.7169759303499598,
             0.5565728884722312, 1.0545640950743573, 0.8101115389735987, 0.5046716238842818],
        ),
        "misspecified_width": (
            DirichletNet(d=2, scale=2.0, noise_var=0.1),
            MisspecifiedWidth(n=3, eps=0.3, size=32),
            [0.25178911435061524, 1.3629688802037894, 0.9010175549584831, 0.2909450975814458,
             1.2244721447405489, -0.16121550481593205, 2.2113776214134635, 1.1352933355611596],
        ),
        # Recorded under seed contract 2: one particle draw per task.
        "oracle_meta": (
            LinRep(d=4, r=2, tasks=2),
            OracleMetaEnsemble(size=64),
            [1.4632501334391723, 1.3120757885921945, 1.2932227169520893, 1.071354703569459,
             1.519554937267131, 0.8892589367477916, 1.336389329609482, 1.9025992677080006,
             1.2469622580102513, 1.3691925625086339, 1.5137148900856614, 1.6549618003259625,
             1.2738655512323014, 1.0539364584638982, 1.194876741259559, 1.8758789726528895],
        ),
        # Recorded before particle statistics were kept per task between resamples.
        "ensemble_linrep": (
            LinRep(d=4, r=2, tasks=2),
            PriorEnsemble(size=64),
            [1.2953916696683765, 1.4414690397869832, 1.469738093029821, 1.3998028583355673,
             1.5688695761868783, 1.54318153248061, 1.529984322317052, 1.3904142921250258,
             1.4210241444510265, 1.455096405792353, 1.4682368156238121, 1.3350496010874175,
             1.369715315719033, 1.467024063425118, 1.3528813159773396, 1.593252572856702],
        ),
    }


@pytest.mark.parametrize("index, case", enumerate(_pinned_cases()), ids=list(_pinned_cases()))
def test_rollout_losses_match_recorded_values(index, case):
    """Losses of fixed-seed rollouts, recorded before the predictor states were
    merged into one weighted-particle state (the ensemble and oracle ones
    resample during the rollout); the oracle's were recorded under seed
    contract 2."""
    spec, kind, recorded = _pinned_cases()[case]
    losses = run_replicate(spec, (kind,), 8, stream(41, ("pin", index)))[0]
    np.testing.assert_allclose(losses, recorded, rtol=1e-9, atol=0)


def _exact_pinned_cases():
    from infolab.processes import IclMixture, make_embeddings

    inner = Transformer(
        vocab=3, attn_dim=3, depth=1, context=2, embeddings=make_embeddings(3, 3, stream(0))
    )
    linreg = LinReg(d=3, noise_var=0.25)
    return {
        "conjugate_linreg": (
            linreg,
            ConjugateLinReg.from_config({}, linreg),
            [0.9986664066162625, 1.318804367358321, 0.8910167910447673, 0.7208393808381952,
             2.454084634983076, 0.27335961332502323, 1.2286127552250306, 0.8982800717016423],
        ),
        "omniscient_logreg": (
            LogReg(d=3),
            Omniscient(),
            [0.786781548551432, 0.6195425556245882, 0.44329269587656295, 0.5636005332791447,
             0.5210035182263437, 0.801016842351201, 0.6467406936542659, 0.5670693243880177],
        ),
        "ensemble_deepnet": (
            DeepNet(d=2, width=3, depth=2, noise_var=0.5),
            PriorEnsemble(size=32),
            [1.225847371120695, 0.5918177870456085, 9.171454339173396, 0.8460682125811223,
             1.6754461006279326, 2.021322812031318, 3.7020759217161494, 2.2060615355200643],
        ),
        "ensemble_dirichlet": (
            DirichletNet(d=2, scale=2.0, noise_var=0.5),
            PriorEnsemble(size=16),
            [1.2826905163537576, 1.301600910249848, 2.850826468959071, 0.9893933495797236,
             2.304207256384813, 1.4037946464022164, 0.8037737873926263, 1.1071092041730788],
        ),
        "ensemble_transformer": (
            inner,
            PriorEnsemble(size=16),
            [1.1488355133053798, 1.2057914782737982, 1.1712237001790475, 1.1372455840160647,
             0.9809114945312517, 1.4691212072971032, 1.098785175803197, 1.0014591708357834],
        ),
        "ensemble_icl": (
            IclMixture(mixture_size=4, scale=2.0, inner=inner, tasks=2),
            PriorEnsemble(size=16),
            [0.9360659450520294, 1.1792207608638883, 1.3174031258473693, 1.0953182457758568,
             1.2213829520348272, 1.2649271236723503, 1.1221954052112808, 1.0235174440419181,
             1.1327031438655086, 0.9356142060646983, 1.0557125538713983, 0.9946515458284331,
             1.4152350788072343, 1.3669732254469547, 1.3800649556144142, 1.3271851215590158],
        ),
    }


@pytest.mark.parametrize(
    "index, case", enumerate(_exact_pinned_cases()), ids=list(_exact_pinned_cases())
)
def test_rollout_losses_equal_recorded_values(index, case):
    """Losses of fixed-seed rollouts, bit for bit, recorded before iid and meta
    processes shared one step and the Gaussian-theta specs one prior."""
    spec, kind, recorded = _exact_pinned_cases()[case]
    losses = run_replicate(spec, (kind,), 8, stream(43, ("exact_pin", index)))[0]
    assert losses.tolist() == recorded


# ---------------------------------------------------------------------------
# the statistic that predict computes is reused by observe only at its input
# and history length
# ---------------------------------------------------------------------------


def _filter_rollout(spec, kind, T, seed, calls):
    """Observe T steps per task; before observe i, call predict at the
    (history, x, task) triples that `calls(i, hist, obs, task)` returns."""
    s = stream(seed)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    hist = initial_history(spec, latent, s.derive(("init", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    tasks = spec.tasks if spec.meta else 1
    for i in range(T * tasks):
        m = i % tasks if spec.meta else None
        sub = s.derive(("step", i))
        obs = step(spec, latent, hist, sub, m)
        for h, x, task in calls(i, hist, obs, m):
            state.predict(spec, h, x, task)
        state.observe(spec, hist, obs)
        hist.append(obs)
    return state


def _cache_cases():
    from infolab.predictors import OracleMetaEnsemble
    from infolab.processes import LinRep

    support = [ThetaLatent(theta=np.array(t)) for t in ([1.0, 0.0], [0.0, 1.0], [-1.0, -1.0])]
    other_x = lambda h, obs, m: (h, obs.x + 1.0, m)
    other_task = lambda h, obs, m: (h, obs.x, (m + 1) % 2)
    # One more bit, the flip of the last, so the context differs from h's.
    longer_history = lambda h, obs, m: (h + [Observation(x=None, y=1 - h[-1].y)], obs.x, m)
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
        "observe_only": lambda i, h, obs, m: [],
        "predict_first": lambda i, h, obs, m: [(h, obs.x, m)],
        # A statistic must not outlive the observe that follows its predict.
        "predict_every_other": lambda i, h, obs, m: [(h, obs.x, m)] if i % 2 == 0 else [],
    }
    if elsewhere is not None:
        # The last predict is at another input, task or history, so observe
        # must not reuse it.
        runs["predict_elsewhere"] = lambda i, h, obs, m: [(h, obs.x, m), elsewhere(h, obs, m)]
    states = {name: _filter_rollout(spec, kind, 30, 61, calls) for name, calls in runs.items()}
    ref = states.pop("observe_only")
    if case in ("ensemble_ark", "oracle_meta"):
        assert ref.resamples > 0
    for name, state in states.items():
        assert np.array_equal(state.log_weights, ref.log_weights), name
        assert state.resamples == ref.resamples, name


# ---------------------------------------------------------------------------
# statistics kept per task on the particles die with them at a resample
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("oracle", [False, True], ids=["ensemble_linrep", "oracle_meta"])
def test_memoised_statistics_match_fresh_ones_after_every_observe(oracle):
    from infolab.predictors import OracleMetaEnsemble
    from infolab.processes import LinRep, Particles

    spec = LinRep(d=4, r=2, tasks=2)
    kind = OracleMetaEnsemble(size=64) if oracle else PriorEnsemble(size=64)
    s = stream(67)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    # (filter, the tasks whose statistic its particles keep)
    filters = list(zip(state.tasks, [[m] for m in range(spec.tasks)])) if oracle else [
        (state, range(spec.tasks))
    ]
    hist = []
    for i, sub in enumerate(s.children("step", 40 * spec.tasks)):
        m = i % spec.tasks
        obs = step(spec, latent, hist, sub, m)
        state.predict(spec, hist, None, m)
        state.observe(spec, hist, obs)
        hist.append(obs)
        for filt, tasks in filters:
            parts = filt.particles
            unmemoised = Particles(parts.prior, parts.size, parts.latents, **parts.arrays)
            for task in tasks:
                kept = parts.prior.particle_stat(parts, hist, None, task)
                fresh = parts.prior.particle_stat(unmemoised, hist, None, task)
                assert np.array_equal(kept, fresh), (i, task)
                assert not kept.flags.writeable
    assert state.resamples > 0


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
    support = [
        ThetaLatent(theta=np.array(t)) for t in ([[1.0, 0.0], [0.0, 1.0]], [[0.5, -0.5], [-1.0, 0.2]])
    ]
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
def test_predict_and_observe_leave_the_history_unchanged(case):
    spec, kind = _state_kinds()[case]
    s = stream(81)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    hist = initial_history(spec, latent, s.derive(("init", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    tasks = spec.tasks if spec.meta else 1
    for i, sub in enumerate(s.children("step", 6 * tasks)):
        m = i % tasks if spec.meta else None
        obs = step(spec, latent, hist, sub, m)
        before = list(hist)
        predict(state, spec, hist, obs.x, m)
        state.observe(spec, hist, obs)
        assert len(hist) == len(before) and all(a is b for a, b in zip(hist, before)), i
        hist.append(obs)


def _holds_an_observation(obj, seen) -> bool:
    """Whether an Observation is reachable from obj through attributes and containers."""
    if id(obj) in seen or isinstance(obj, (np.ndarray, type)):
        return False
    seen.add(id(obj))
    if isinstance(obj, Observation):
        return True
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    else:
        items = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return any(_holds_an_observation(v, seen) for v in items)


@pytest.mark.parametrize("case", list(_state_kinds()))
def test_no_state_keeps_observations_after_a_rollout(case, monkeypatch):
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
        assert not _holds_an_observation(state, set()), type(state).__name__


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
        predict(state, spec, [], None, task)
    with pytest.raises(ValueError, match=match):
        state.observe(spec, [], Observation(x=None, y=1, task=task))


@pytest.mark.parametrize("case", ["enumeration", "ensemble", "omniscient"])
def test_short_ark_history_is_refused(case):
    spec = BinaryARK(d=2, context=3)
    kind = {
        "enumeration": Enumeration(
            support=[ThetaLatent(theta=np.ones((3, 2)))], prior=np.array([1.0])
        ),
        "ensemble": PriorEnsemble(size=16),
        "omniscient": Omniscient(),
    }[case]
    s = stream(84)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    state = init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0)))
    short = initial_history(spec, latent, s.derive(("init", 0)))[:2]
    for hist in ([], short):
        with pytest.raises(ValueError, match="history shorter than the context length"):
            predict(state, spec, hist)


@pytest.mark.parametrize(
    "cov, message",
    [(np.diag([1.0, -1.0]), "positive semi-definite"), ([[1.0, 0.5], [0.0, 1.0]], "symmetric")],
    ids=["indefinite", "asymmetric"],
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
    assert BernoulliLogitPred(z).p1 == p
    assert binary_kl_logits(z, z) == pytest.approx(0.0, abs=1e-15)
