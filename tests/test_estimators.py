"""Tests for exact and Monte-Carlo error/information estimators."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from infolab import estimators
from infolab.estimators import (
    EnumerationModel,
    aggregate_error_curve,
    exact_mi_enumeration,
    linreg_mi_mc,
    meta_error_split,
    misspec_decomposition,
    per_step_info,
    run_replicate,
)
from infolab.harness import excess_over_omniscient, run_replicates
from infolab.predictors import (
    ConjugateLinReg,
    Enumeration,
    MisspecifiedConjugate,
    Omniscient,
    OracleMetaEnsemble,
    PriorEnsemble,
    init_predictor,
    log_loss,
    predict,
)
from infolab.processes import (
    BinaryARK, DeepNet, DirichletNet, History, LinRep, LinReg, LogReg, Particles, sample_latent,
    step,
)
from infolab.rng import RngStream, SeedSpec
from infolab import bounds as bnd


def stream(seed, *path):
    return RngStream(SeedSpec(seed, tuple(path)))


def conjugate_kind(spec):
    return ConjugateLinReg(
        prior_mean=np.zeros(spec.d),
        prior_cov=spec.prior_var * np.eye(spec.d),
        noise_var=spec.noise_var,
    )


# ---------------------------------------------------------------------------
# exact enumeration: information identity
# ---------------------------------------------------------------------------


def test_mi_zero_when_labels_independent_of_latent():
    model = EnumerationModel(
        prior=np.array([0.3, 0.7]),
        cond=np.array([[0.4, 0.6], [0.4, 0.6]]),
    )
    mi, gap = exact_mi_enumeration(model, 4)
    assert mi == pytest.approx(0.0, abs=1e-12)
    assert gap == pytest.approx(0.0, abs=1e-9)


def test_mi_one_revealing_bit():
    model = EnumerationModel(
        prior=np.array([0.5, 0.5]),
        cond=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    mi, _ = exact_mi_enumeration(model, 1)
    assert mi == pytest.approx(math.log(2), abs=1e-12)


def test_mi_identity_on_random_instances():
    gen = np.random.default_rng(0)
    for _ in range(10):
        H = int(gen.integers(2, 5))
        A = int(gen.integers(2, 3))
        model = EnumerationModel(
            prior=gen.dirichlet(np.ones(H)),
            cond=gen.dirichlet(np.ones(A), size=H),
        )
        mi, gap = exact_mi_enumeration(model, 6)
        assert abs(mi - gap) <= 1e-9


def test_enumeration_cap_enforced():
    model = EnumerationModel(
        prior=np.array([0.5, 0.5]),
        cond=np.array([[0.25] * 4, [0.25] * 4]),
    )
    with pytest.raises(ResourceWarning):
        exact_mi_enumeration(model, 310)  # 2 * C(313, 3) > 10^7 count states


def test_enumeration_model_refuses_a_nan_conditional_row():
    with pytest.raises(ValueError, match="^conditional rows must be pmfs$"):
        EnumerationModel(prior=np.array([0.5, 0.5]), cond=np.array([[np.nan, np.nan], [0.5, 0.5]]))


def test_information_identity_check_fails_on_nan():
    """A NaN loss gap fails the 1e-9 identity check rather than passing it."""
    model = EnumerationModel(prior=np.array([0.5, 0.5]), cond=np.full((2, 2), 0.5))
    object.__setattr__(model, "cond", np.array([[np.nan, np.nan], [0.5, 0.5]]))  # past the check
    with pytest.raises(AssertionError, match="information/loss identity violated"):
        exact_mi_enumeration(model, 2)


@pytest.mark.parametrize(
    "call, T",
    [(exact_mi_enumeration, -1), (per_step_info, -3),
     (lambda model, T: misspec_decomposition(model, [0.5, 0.5], T), -1),
     (lambda model, T: misspec_decomposition(model, [0.5, 0.5], T), 0)],
    ids=["mi", "per_step", "misspec_negative", "misspec_zero"],
)
def test_exact_enumeration_refuses_a_horizon_out_of_range(call, T):
    model = EnumerationModel(prior=np.array([0.5, 0.5]), cond=np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match=rf"^horizon T must be >= [01], not {T}$"):
        call(model, T)
    assert exact_mi_enumeration(model, 0) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# label-count pass against an A^T sequence oracle
# ---------------------------------------------------------------------------


def _safe_log(x):
    return np.log(np.where(x > 0, x, 1.0))


def _sequence_oracle(model, T, q):
    """Loop over all A^T label sequences, scoring each one step at a time.

    Returns (mi, loss_gap, per-step information, misspecified total excess
    per step, misspecification term per step).
    """
    prior, cond = model.prior, model.cond
    irreducible = T * float(prior @ -np.sum(cond * _safe_log(cond), axis=1))
    mi = loss = total = kl = 0.0
    steps = np.zeros(T)
    for seq in itertools.product(range(model.alphabet), repeat=T):
        lik = np.prod(cond[:, list(seq)], axis=1)
        marg = float(prior @ lik)
        if marg <= 0:
            continue
        joint = prior * lik
        mi += float(np.sum(joint * (_safe_log(lik) - math.log(marg))))
        w, wq = prior.copy(), q.copy()
        for t, y in enumerate(seq):
            pt, qt = w @ cond, wq @ cond
            loss -= marg * math.log(pt[y])
            total -= marg * math.log(max(qt[y], 1e-300))
            kl += marg * float(np.sum(pt * (_safe_log(pt) - np.log(np.maximum(qt, 1e-300)))))
            kl_h = np.sum(cond * (_safe_log(cond) - _safe_log(pt)), axis=1)
            steps[t] += marg * float(np.sum(w[w > 0] * kl_h[w > 0]))
            w = w * cond[:, y] / (w @ cond[:, y])
            wq = wq * cond[:, y]
            if wq.sum() > 0:
                wq = wq / wq.sum()
    return mi, loss - irreducible, steps, (total - irreducible) / T, kl / T


def _random_model(gen, H, A):
    return EnumerationModel(prior=gen.dirichlet(np.ones(H)), cond=gen.dirichlet(np.ones(A), size=H))


DEGENERATE_MODELS = {
    "deterministic_reveal": ([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [0.3, 0.7], 4),
    "zero_prior_entry": ([0.6, 0.0, 0.4], [[0.2, 0.3, 0.5], [0.6, 0.2, 0.2], [0.1, 0.1, 0.8]],
                         [0.2, 0.5, 0.3], 4),
    "q_kills_hypothesis": ([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 6),
    "labels_independent": ([0.3, 0.7], [[0.4, 0.6], [0.4, 0.6]], [0.9, 0.1], 6),
    "partial_zeros": ([0.3, 0.3, 0.4], [[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.2, 0.0, 0.8]],
                      [0.1, 0.0, 0.9], 5),
}


def _oracle_cases():
    gen = np.random.default_rng(21)
    cases = []
    for i in range(20):
        H, A = int(gen.integers(2, 9)), int(gen.integers(2, 5))
        model, q = _random_model(gen, H, A), gen.dirichlet(np.ones(H))
        cases.append(pytest.param(model, q, {2: 8, 3: 5, 4: 4}[A], id=f"random{i}"))
    for H, A, T in [(6, 2, 11), (4, 3, 6), (8, 4, 5)]:  # perfbench's exact_and_bounds shapes
        model, q = _random_model(gen, H, A), gen.dirichlet(np.ones(H))
        cases.append(pytest.param(model, q, T, id=f"shape{H}x{A}x{T}"))
    for name, (prior, cond, q, T) in DEGENERATE_MODELS.items():
        model = EnumerationModel(prior=np.array(prior), cond=np.array(cond))
        cases.append(pytest.param(model, np.array(q), T, id=name))
    return cases


@pytest.mark.parametrize("model,q,T", _oracle_cases())
def test_count_pass_matches_sequence_oracle(model, q, T):
    mi, gap, steps, total, misspec = _sequence_oracle(model, T, q)
    got_mi, got_gap = exact_mi_enumeration(model, T)
    assert abs(got_mi - mi) <= 1e-12 and abs(got_gap - gap) <= 1e-12
    assert np.max(np.abs(per_step_info(model, T) - steps)) <= 1e-12
    rep = misspec_decomposition(model, q, T)
    assert abs(rep.total_loss - total) <= 1e-12
    assert abs(rep.information_term - mi / T) <= 1e-12
    assert abs(rep.misspecification_term - misspec) <= 1e-12
    assert abs(rep.residual) <= 1e-9


def _cross_route_models():
    gen = np.random.default_rng(2407)
    return [(_random_model(gen, H, A), T) for H, A, T in [(4, 2, 10), (3, 3, 6), (6, 2, 8)]]


@pytest.mark.parametrize("index", range(3), ids=["4x2x10", "3x3x6", "6x2x8"])
def test_the_enumeration_state_meets_the_count_pass(index):
    """The rollout route and the exact route agree on one model: over every
    label sequence, p(sequence) times the loss the `Enumeration` state over
    Particles(model, H, h=arange(H)) returns at step t, less H(Y | theta), is
    `per_step_info`'s I(Y_{t+1}; theta | H_t)."""
    model, T = _cross_route_models()[index]
    support = Particles(model, model.n_hyp, h=np.arange(model.n_hyp))
    kind = Enumeration(support=support, prior=model.prior)
    expected = np.zeros(T)
    for labels in itertools.product(range(1, model.alphabet + 1), repeat=T):
        history = History(y=np.array(labels))
        p = model.prior @ np.prod(model.cond[:, history.y - 1], axis=1)
        state = init_predictor(kind, model)
        expected += p * np.array([state.observe(model, history, t) for t in range(T)])
    conditional_entropy = -model.prior @ np.sum(model.cond * np.log(model.cond), axis=1)
    np.testing.assert_allclose(
        expected - conditional_entropy, per_step_info(model, T), rtol=0, atol=1e-9
    )


def test_count_pass_beyond_sequence_cap():
    """H=8, A=2, T=200: 2^200 sequences, 201 count vectors per hypothesis."""
    gen = np.random.default_rng(22)
    model = _random_model(gen, 8, 2)
    T = 200
    mi, gap = exact_mi_enumeration(model, T)
    steps = per_step_info(model, T)
    assert abs(mi - gap) <= 1e-9
    assert abs(float(np.sum(steps)) - mi) <= 1e-9
    assert np.all(np.diff(steps) <= 1e-12)
    # Finite-hypothesis bound: I(theta; H_t) / t <= H(prior) / t at every t.
    prior_entropy = float(-model.prior @ np.log(model.prior))
    assert np.all(np.cumsum(steps) <= prior_entropy + 1e-12)
    rep = misspec_decomposition(model, gen.dirichlet(np.ones(8)), T)
    assert abs(rep.residual) <= 1e-9
    assert rep.misspecification_term <= rep.prior_kl_bound + 1e-12


# ---------------------------------------------------------------------------
# per-step information
# ---------------------------------------------------------------------------


def test_per_step_info_nonincreasing_and_sums_to_total():
    gen = np.random.default_rng(1)
    for _ in range(8):
        model = EnumerationModel(
            prior=gen.dirichlet(np.ones(3)),
            cond=gen.dirichlet(np.ones(3), size=3),
        )
        seq = per_step_info(model, 5)
        assert np.all(np.diff(seq) <= 1e-12)
        mi, _ = exact_mi_enumeration(model, 5)
        assert float(np.sum(seq)) == pytest.approx(mi, abs=1e-9)


def test_per_step_info_deterministic_reveal():
    model = EnumerationModel(
        prior=np.array([0.5, 0.5]),
        cond=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    seq = per_step_info(model, 4)
    assert seq[0] == pytest.approx(math.log(2), abs=1e-12)
    assert np.max(np.abs(seq[1:])) < 1e-12


def test_iid_error_lower_bound_last_step_info():
    """Per-step monotonicity implies L_T >= I(Y_T; theta | H_{T-1})."""
    gen = np.random.default_rng(2)
    for _ in range(5):
        model = EnumerationModel(
            prior=gen.dirichlet(np.ones(4)),
            cond=gen.dirichlet(np.ones(2), size=4),
        )
        T = 5
        mi, _ = exact_mi_enumeration(model, T)
        seq = per_step_info(model, T)
        assert mi / T >= seq[-1] - 1e-12


# ---------------------------------------------------------------------------
# rate-distortion lower sandwich via brute-force deterministic coarsenings
# ---------------------------------------------------------------------------


def _set_partitions(n):
    """All partitions of range(n) as restricted-growth label vectors."""
    out = []

    def rec(labels, maxlab):
        i = len(labels)
        if i == n:
            out.append(tuple(labels))
            return
        for lab in range(maxlab + 2):
            rec(labels + [lab], max(maxlab, lab))

    rec([], -1)
    return out


def _coarsening_rate_and_distortion(model, labels, T):
    """Rate I(theta; theta~) = H(theta~); distortion I(Y_T; theta | theta~, H_{T-1})."""
    groups = {}
    for h, lab in enumerate(labels):
        groups.setdefault(lab, []).append(h)
    rate = 0.0
    for members in groups.values():
        pg = float(np.sum(model.prior[members]))
        if pg > 0:
            rate += -pg * math.log(pg)
    A = model.alphabet
    distortion = 0.0
    for prefix in itertools.product(range(A), repeat=T - 1):
        lik = (
            np.prod(model.cond[:, prefix], axis=1)
            if T > 1
            else np.ones(model.n_hyp)
        )
        for members in groups.values():
            wj = model.prior[members] * lik[members]
            pw = float(wj.sum())
            if pw <= 0:
                continue
            post = wj / pw
            mix = post @ model.cond[members]
            for h, ph in zip(members, post):
                if ph <= 0:
                    continue
                p = model.cond[h]
                mask = p > 0
                distortion += (
                    pw
                    * ph
                    * float(np.sum(p[mask] * (np.log(p[mask]) - np.log(mix[mask]))))
                )
    return rate, distortion


def test_rd_lower_sandwich_brute_force():
    gen = np.random.default_rng(3)
    T = 3
    for _ in range(6):
        model = EnumerationModel(
            prior=gen.dirichlet(np.ones(4)),
            cond=gen.dirichlet(np.ones(3), size=4),
        )
        mi, _ = exact_mi_enumeration(model, T)
        lt = mi / T
        pairs = [
            _coarsening_rate_and_distortion(model, labels, T)
            for labels in _set_partitions(4)
        ]
        assert all(dist >= -1e-12 for _, dist in pairs)
        # family rate-distortion curve: minimal rate at distortion <= eps
        best = 0.0
        for _, eps in pairs:
            h_eps = min(r for r, d in pairs if d <= eps + 1e-15)
            best = max(best, min(h_eps / T, eps))
        assert best <= lt + 1e-9


# ---------------------------------------------------------------------------
# misspecification decomposition
# ---------------------------------------------------------------------------


def test_misspec_decomposition_true_prior_is_pure_information():
    gen = np.random.default_rng(4)
    model = EnumerationModel(
        prior=gen.dirichlet(np.ones(3)),
        cond=gen.dirichlet(np.ones(2), size=3),
    )
    rep = misspec_decomposition(model, model.prior, 4)
    assert rep.misspecification_term == pytest.approx(0.0, abs=1e-12)
    assert abs(rep.residual) <= 1e-9
    assert rep.prior_kl_bound == pytest.approx(0.0, abs=1e-12)


def test_misspec_decomposition_two_hypothesis_case():
    model = EnumerationModel(
        prior=np.array([0.5, 0.5]),
        cond=np.array([[0.8, 0.2], [0.3, 0.7]]),
    )
    q = np.array([0.75, 0.25])
    rep = misspec_decomposition(model, q, 3)
    assert abs(rep.residual) <= 1e-9
    kl = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert rep.misspecification_term <= kl / 3 + 1e-12
    assert rep.prior_kl_bound == pytest.approx(kl / 3, abs=1e-12)


def test_misspec_decomposition_vacuous_bound():
    model = EnumerationModel(
        prior=np.array([0.5, 0.5]),
        cond=np.array([[0.9, 0.1], [0.2, 0.8]]),
    )
    rep = misspec_decomposition(model, np.array([1.0, 0.0]), 2)
    assert rep.prior_kl_bound == math.inf


# ---------------------------------------------------------------------------
# replicates and curves
# ---------------------------------------------------------------------------


def test_run_replicate_deterministic():
    spec = LinReg(d=3, noise_var=0.5)
    a = run_replicate(spec, (conjugate_kind(spec), Omniscient()), 10, stream(5))
    b = run_replicate(spec, (conjugate_kind(spec), Omniscient()), 10, stream(5))
    assert a.shape == (2, 10)
    assert np.array_equal(a, b)


def _scored_together_cases():
    linreg, linrep = LinReg(d=3, noise_var=0.25), LinRep(d=4, r=2, tasks=2)
    return {
        "linreg": (linreg, (conjugate_kind(linreg),
                            MisspecifiedConjugate(np.full(3, 0.5), np.eye(3), 0.25))),
        "logreg": (LogReg(d=3), (PriorEnsemble(size=32), PriorEnsemble(size=64))),
        "linrep": (linrep, (PriorEnsemble(size=32), OracleMetaEnsemble(size=32))),
        # a token process: every kind reads the one history
        "ark": (BinaryARK(d=2, context=2), (PriorEnsemble(size=16), PriorEnsemble(size=32))),
    }


@pytest.mark.parametrize(
    "index, case", enumerate(_scored_together_cases()), ids=list(_scored_together_cases())
)
def test_kinds_scored_together_equal_kinds_scored_alone(index, case):
    """Row j of one rollout that scores several kinds is kind j's rollout alone."""
    spec, (a, b) = _scored_together_cases()[case]
    kinds = (a, b, Omniscient())
    together = run_replicate(spec, kinds, 12, stream(18, ("case", index)))
    tasks = spec.tasks if spec.meta else 1
    assert together.shape == (3, 12 * tasks)
    for j, kind in enumerate(kinds):
        alone = run_replicate(spec, (kind,), 12, stream(18, ("case", index)))
        assert together[j].tolist() == alone[0].tolist(), j


def _chunked_conjugate_cases():
    """Conjugate kinds, alone and paired with an omniscient, on LinReg d=3."""
    spec = LinReg(d=3, noise_var=0.25)
    singular = np.diag([spec.prior_var, 0.0, spec.prior_var])  # a missing feature
    return spec, {
        "conjugate": (conjugate_kind(spec),),
        "misspecified_singular": (MisspecifiedConjugate(np.zeros(3), singular, 0.25),),
        "conjugate_omniscient": (conjugate_kind(spec), Omniscient()),
        "misspecified_omniscient": (
            MisspecifiedConjugate(np.full(3, 0.5), singular, 0.25), Omniscient()
        ),
    }


@pytest.mark.parametrize("case", list(_chunked_conjugate_cases()[1]))
def test_losses_do_not_depend_on_the_chunk_size(case, monkeypatch):
    """Chunks of one replicate and one chunk of all of them give the same bits."""
    spec, kinds = _chunked_conjugate_cases()
    kinds = kinds[case]
    runs = []
    for cap in (1, 2**30):
        monkeypatch.setattr(estimators, "CHUNK_BYTES", cap)
        runs.append(run_replicates(spec, kinds, 15, 7, stream(24)))
    assert runs[0].shape == (7, len(kinds), 15)
    assert runs[0].tolist() == runs[1].tolist()


@pytest.mark.parametrize("case", ["conjugate", "misspecified_singular"])
def test_conjugate_chunk_score_equals_a_state_loop(case):
    """The chunk recurrence over (C, d) means and (C, d, d) covariances gives
    each replicate the bits of its own ConjugateState, stepped alone."""
    spec, kinds = _chunked_conjugate_cases()
    kind, T, histories, states = kinds[case][0], 40, [], []
    for i in range(5):
        s = stream(25, ("rep", i))
        latent = sample_latent(spec, s.derive(("latent", 0)))
        histories.append(step(spec, latent, T, s))
        states.append(init_predictor(kind, spec, latent=latent, stream=s.derive(("pred", 0))))
    by_hand = []
    for history in histories:
        state = init_predictor(kind, spec)
        row = []
        for t in range(T):
            row.append(log_loss(predict(state, spec, history, t), history.y[t]))
            state.observe(spec, history, t)
        by_hand.append(row)
    assert kind.score(spec, iter(states), histories, T).tolist() == by_hand


def _invariance_cases():
    linreg = LinReg(d=3, noise_var=0.25)
    return {
        "conjugate_linreg": (linreg, (conjugate_kind(linreg), Omniscient())),
        "ensemble_logreg": (LogReg(d=3), (PriorEnsemble(size=64), Omniscient())),
        "ensemble_ark": (BinaryARK(d=2, context=2), (PriorEnsemble(size=64), Omniscient())),
        "oracle_linrep": (LinRep(d=4, r=2, tasks=2), (OracleMetaEnsemble(size=64), Omniscient())),
    }


@pytest.mark.parametrize("case", list(_invariance_cases()))
def test_a_replicates_losses_depend_on_its_stream_alone(case, monkeypatch):
    """Seed contract 3: replicate r's losses are the same alone, in one chunk of
    R replicates and in chunks of one (a 1-byte cap), and its first t steps per
    task are its losses at T = t, bit for bit."""
    spec, kinds = _invariance_cases()[case]
    R, T, tasks, s = 5, 24, (spec.tasks if spec.meta else 1), stream(27)
    together = run_replicates(spec, kinds, T, R, s)
    monkeypatch.setattr(estimators, "CHUNK_BYTES", 1)
    assert run_replicates(spec, kinds, T, R, s).tolist() == together.tolist()
    for r in range(R):
        alone = run_replicate(spec, kinds, T, s.derive(("rep", r)))
        assert alone.tolist() == together[r].tolist(), r
        for t in (1, 7):
            shorter = run_replicate(spec, kinds, t, s.derive(("rep", r)))
            assert shorter.tolist() == alone[:, :t * tasks].tolist(), (r, t)
    if case in ("ensemble_ark", "oracle_linrep"):
        resamples = []
        init = estimators.init_predictor
        monkeypatch.setattr(estimators, "init_predictor", lambda *a, **k: resamples.append(
            init(*a, **k)) or resamples[-1])
        run_replicates(spec, kinds[:1], T, R, s)
        assert sum(state.resamples for state in resamples) > 0  # the prefixes cross resamples


def test_no_chunk_holds_more_history_bytes_than_the_cap(monkeypatch):
    """Record each scored chunk's rollouts and history bytes."""
    spec = LinReg(d=2, noise_var=0.5)
    chunks, score_chunk = [], estimators._score_chunk

    def recording_score_chunk(spec, kinds, n, rollouts, streams):
        chunks.append(sum(history.nbytes for _, history in rollouts))
        return score_chunk(spec, kinds, n, rollouts, streams)

    monkeypatch.setattr(estimators, "_score_chunk", recording_score_chunk)
    monkeypatch.setattr(estimators, "CHUNK_BYTES", 600)  # a history of 12 steps holds 288
    losses = run_replicates(spec, (conjugate_kind(spec),), 12, 7, stream(26))
    assert losses.shape == (7, 1, 12)
    assert chunks == [576, 576, 576, 288]  # 2, 2, 2 and 1 replicates
    chunks.clear()
    monkeypatch.setattr(estimators, "CHUNK_BYTES", 200)  # each history alone exceeds it
    run_replicates(spec, (conjugate_kind(spec),), 12, 3, stream(26))
    assert chunks == [288, 288, 288]


def test_omniscient_mean_loss_is_irreducible_rate():
    spec = LinReg(d=2, noise_var=0.5)
    losses = [
        float(np.mean(run_replicate(spec, (Omniscient(),), 5, stream(6, i))[0]))
        for i in range(10**3)
    ]
    est = float(np.mean(losses))
    se = float(np.std(losses, ddof=1) / math.sqrt(len(losses)))
    target = 0.5 * math.log(2 * math.pi * math.e * 0.5)
    assert abs(est - target) <= 3 * se


def test_conjugate_loss_exceeds_omniscient_in_expectation():
    spec = LinReg(d=3, noise_var=0.25)
    excess = excess_over_omniscient(spec, conjugate_kind(spec), 20, 200, stream(7))
    diffs = [float(np.mean(row)) for row in excess]
    est = float(np.mean(diffs))
    se = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
    assert est + 3 * se > 0 and est > 0


def test_aggregate_curve_invariants():
    spec = LinReg(d=2, noise_var=1.0)
    excess = excess_over_omniscient(spec, Omniscient(), 10, 100, stream(8))
    curve = aggregate_error_curve(excess, [5, 10])
    # omniscient predictor: zero excess at every horizon
    assert np.all(np.abs(curve.mean_error) <= 3 * np.maximum(curve.std_err, 1e-15))
    # replicate-order invariance
    rev = aggregate_error_curve(excess[::-1], [5, 10])
    assert np.allclose(curve.mean_error, rev.mean_error)
    with pytest.raises(ValueError):
        aggregate_error_curve(excess[:1], [5])
    with pytest.raises(ValueError):
        aggregate_error_curve(excess[0], [5])
    with pytest.raises(ValueError):
        aggregate_error_curve(excess, [10, 5])
    with pytest.raises(ValueError):
        aggregate_error_curve(excess, [11])


def test_se_shrinks_with_replicates():
    spec = LinReg(d=2, noise_var=1.0)
    excess = excess_over_omniscient(spec, conjugate_kind(spec), 10, 400, stream(9))
    se_half = aggregate_error_curve(excess[:200], [10]).std_err[0]
    se_full = aggregate_error_curve(excess, [10]).std_err[0]
    ratio = se_half / se_full
    assert abs(ratio - math.sqrt(2)) < 0.2 * math.sqrt(2)


def test_bootstrap_mean_matches_plugin():
    spec = LinReg(d=2, noise_var=1.0)
    excess = excess_over_omniscient(spec, conjugate_kind(spec), 10, 200, stream(10))
    curve = aggregate_error_curve(excess, [10])
    per_rep = np.array([float(np.sum(row)) / 10 for row in excess])
    gen = np.random.default_rng(11)
    boot = np.array(
        [np.mean(per_rep[gen.integers(0, 200, size=200)]) for _ in range(500)]
    )
    assert abs(float(np.mean(boot)) - curve.mean_error[0]) <= curve.std_err[0]


# ---------------------------------------------------------------------------
# linear-model MI Monte Carlo
# ---------------------------------------------------------------------------


def test_linreg_mi_mc_quadrature_oracle():
    est, se = linreg_mi_mc(1, 1.0, 1, 4000, stream(13))
    target, _ = quad(
        lambda x: 0.5
        * math.log1p(x * x)
        * math.exp(-x * x / 2)
        / math.sqrt(2 * math.pi),
        -10,
        10,
    )
    assert abs(est - target) <= 3 * se


def test_linreg_mi_mc_noise_swamps_signal():
    est, _ = linreg_mi_mc(2, 10**6, 4, 50, stream(14))
    assert est < 1e-5


@pytest.mark.parametrize("replicates", [0, 1])
def test_linreg_mi_mc_refuses_fewer_than_two_replicates(replicates):
    with pytest.raises(ValueError, match="^need at least 2 replicates$"):
        linreg_mi_mc(2, 1.0, 4, replicates, stream(19))


def test_linreg_mi_mc_inside_sandwich():
    est, se = linreg_mi_mc(5, 0.25, 100, 400, stream(15))
    lower = bnd.linreg_error_lower(5, 0.25, 100).value
    upper = bnd.linreg_error_upper(5, 0.25, 100).value
    assert lower - 3 * se / 100 <= est / 100 <= upper + 3 * se / 100


# ---------------------------------------------------------------------------
# meta split
# ---------------------------------------------------------------------------


def test_meta_split_single_task_closure():
    spec = LinRep(d=4, r=2, tasks=1)
    split = meta_error_split(spec, T=8, replicates=6, stream=stream(16), ensemble_size=256)
    resid = split.total[0] - split.intra[0] - split.meta[0]
    assert abs(resid) < 1e-12  # meta defined as the paired difference
    se = math.hypot(split.total[1], split.intra[1])
    assert abs(split.meta[0]) <= max(3 * se, 3 * split.meta[1])


def test_meta_split_matches_recorded_values():
    """Both passes resample.  Recorded under seed contract 4 (the latent is the
    spec's prior block of one), with each ensemble loss the log-normaliser of its
    reweighting and the latent's task pmfs computed by the ensemble's einsum."""
    split = meta_error_split(LinRep(d=4, r=2, tasks=2), T=16, replicates=2, stream=stream(23),
                             ensemble_size=64)
    assert split.total == (0.04963910746060109, 0.030071668093063175)
    assert split.intra == (0.052972324722044266, 0.01205561831690221)
    assert split.meta == (-0.003333217261443179, 0.018016049776160965)


def test_meta_split_intra_decays_with_horizon():
    spec = LinRep(d=4, r=2, tasks=2)
    vals = []
    for T in (4, 32):
        split = meta_error_split(
            spec, T=T, replicates=8, stream=stream(17, ("T", T)), ensemble_size=256
        )
        vals.append(split.intra)
    assert vals[1][0] <= vals[0][0] + 3 * math.hypot(vals[0][1], vals[1][1])


@pytest.mark.parametrize("replicates", [0, 1])
def test_meta_split_refuses_fewer_than_two_replicates(replicates):
    with pytest.raises(ValueError, match="^need at least 2 replicates$"):
        meta_error_split(LinRep(d=4, r=2, tasks=2), T=4, replicates=replicates, stream=stream(20),
                         ensemble_size=16)
