"""Tests for the data-generating processes and their generator interface."""

import hashlib
import math

import numpy as np
import pytest

from infolab.processes import (
    BinaryARK,
    DeepNet,
    DirichletNet,
    History,
    LinRep,
    LinReg,
    LogReg,
    PROCESS_KINDS,
    Particles,
    Process,
    Transformer,
    attention_layer,
    bernoulli_log_loss,
    dirichlet_net_output,
    initial_history,
    irreducible_rate,
    make_embeddings,
    orthonormal_columns,
    relu_forward,
    sample_latent,
    sigmoids,
    step,
    transformer_next_pmf,
)
from infolab.rng import RngStream, SeedSpec

from conftest import draw


def stream(seed, *path):
    return RngStream(SeedSpec(seed, tuple(path)))


def cond_logprob(spec, latent, history, n, y):
    """log P(label n = y | latent, the labels before it) of any output family."""
    stat = np.asarray(spec.conditional(latent, history, n))
    return float(spec.loglik(stat[None], y)[0])


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
        a1 = sample_latent(spec, s.derive(i)).w0[0]
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
        gram = lat.psi[0].T @ lat.psi[0]
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        assert lat.psi.shape == (1, 6, 2) and lat.xi.shape == (1, 3, 2)


def test_orthonormal_columns_counts_a_zero_diagonal_as_positive():
    """A rank-deficient draw, whose R has an exact zero on its diagonal, still
    maps to orthonormal columns (sign(0) would zero the column)."""
    g = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.linalg.qr(g)[1][1, 1] == 0.0
    q = orthonormal_columns(g)
    assert np.max(np.abs(q.T @ q - np.eye(2))) <= 1e-12


def test_orthonormal_columns_stacked_equals_each_slice():
    """The particle path (a stack of draws) and the latent path (one draw)
    share one rule, bit for bit."""
    g = stream(11).gen.normal(size=(16, 6, 2))
    q = orthonormal_columns(g)
    for i in range(len(g)):
        assert np.array_equal(q[i], orthonormal_columns(g[i]))
    assert np.all(np.einsum("sdr,sdr->sr", q, g) > 0)  # diag(Q^T g), R's sign-fixed diagonal


def test_transformer_prior_value_rows():
    emb = make_embeddings(4, 4, stream(0))
    spec = Transformer(vocab=4, attn_dim=4, depth=2, context=2, embeddings=emb)
    lat = sample_latent(spec, stream(6))
    assert lat.v0.shape == (1, 4, 4)
    assert lat.v1.shape == (1, 4, 4)  # final layer maps to vocab
    norms = np.linalg.norm(lat.v0[0], axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    gauss = Transformer(vocab=4, attn_dim=4, depth=2, context=2, embeddings=emb,
                        v_prior="gaussian")
    glat = sample_latent(gauss, stream(6))
    assert glat.v0.shape == (1, 4, 4)


# ---------------------------------------------------------------------------
# generation and conditionals
# ---------------------------------------------------------------------------


def test_linreg_pure_noise_variance():
    spec = LinReg(d=3, noise_var=1.0)
    lat = sample_latent(spec, stream(8))
    lat.theta[:] = 0.0
    ys = step(spec, lat, 10**5, stream(9)).y
    assert abs(float(np.var(ys)) - 1.0) < 0.02


def test_logreg_balanced_at_zero_logit():
    spec = LogReg(d=2)
    lat = sample_latent(spec, stream(10))
    lat.theta[:] = 0.0
    z = cond_logprob(spec, lat, History(y=np.array([1]), x=np.array([[1.0, 2.0]])), 0, 1)
    assert z == pytest.approx(math.log(0.5), abs=1e-12)


def test_cond_logprob_normalization_discrete():
    spec = LogReg(d=3)
    lat = sample_latent(spec, stream(11))
    h = History(y=np.array([0]), x=np.array([[0.3, -1.0, 2.0]]))
    total = math.exp(cond_logprob(spec, lat, h, 0, 0)) + math.exp(cond_logprob(spec, lat, h, 0, 1))
    assert total == pytest.approx(1.0, abs=1e-12)

    ark = BinaryARK(d=2, context=2, phi0=np.array([1.0, 0]), phi1=np.array([0, 1.0]))
    alat = sample_latent(ark, stream(12))
    hist = initial_history(ark, alat, stream(13))
    total = math.exp(cond_logprob(ark, alat, hist, 2, 0)) + math.exp(
        cond_logprob(ark, alat, hist, 2, 1)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bernoulli_log_loss_agrees_with_logaddexp_and_is_the_same_alone_and_in_a_batch():
    """max(z, 0) + log1p(e^-|z|) is within 4.5e-16 max(1, loss) of
    np.logaddexp(0, z) at the edges of the double range, never negative, and
    gives each logit the same bits alone as in a batch."""
    edges = [0.0, 1e-300, 20.0, 40.0, 709.0, 800.0, math.inf]
    z = np.array([sign * v for v in edges for sign in (1.0, -1.0)])
    ref = np.logaddexp(0.0, z)
    finite = np.isfinite(ref)
    for y in (0, 1):
        loss = bernoulli_log_loss((1 - 2 * y) * z, y)  # label 1 flips the logit's sign
        assert np.all(loss >= 0)
        assert np.array_equal(loss[~finite], ref[~finite])
        gap = np.abs(loss[finite] - ref[finite])
        assert np.all(gap <= 4.5e-16 * np.maximum(1.0, ref[finite]))
    logits = stream(15).gen.normal(0.0, 30.0, size=257)
    labels = stream(16).gen.integers(2, size=257)
    batch = bernoulli_log_loss(logits, labels)
    assert np.array_equal([bernoulli_log_loss(l, y) for l, y in zip(logits, labels)], batch)
    assert np.array_equal([bernoulli_log_loss(float(l), int(y)) for l, y in zip(logits, labels)],
                          batch)


def test_linreg_cond_logprob_standard_normal():
    spec = LinReg(d=2, noise_var=1.0)
    lat = sample_latent(spec, stream(14))
    lat.theta[:] = 0.0
    lp = cond_logprob(spec, lat, History(y=np.zeros(1), x=np.ones((1, 2))), 0, 0.0)
    assert lp == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_initial_history_shapes():
    ark = BinaryARK(d=2, context=4, phi0=np.array([1.0, 0]), phi1=np.array([0, 1.0]))
    alat = sample_latent(ark, stream(15))
    h = initial_history(ark, alat, stream(16))
    assert h.y.shape == (4,) and set(h.y) <= {0, 1} and h.x is None and h.task is None

    emb = make_embeddings(5, 5, stream(0))
    tf = Transformer(vocab=5, attn_dim=5, depth=1, context=3, embeddings=emb)
    tlat = sample_latent(tf, stream(17))
    th = initial_history(tf, tlat, stream(18))
    assert th.y.shape == (3,) and set(th.y) <= {1, 2, 3, 4, 5}

    linreg = LinReg(d=2, noise_var=1.0)
    empty = initial_history(linreg, sample_latent(linreg, stream(19)), stream(19))
    assert empty.y.shape == (0,) and empty.x.shape == (0, 2)


def test_step_requires_seed_context():
    ark = BinaryARK(d=2, context=2, phi0=np.array([1.0, 0]), phi1=np.array([0, 1.0]))
    alat = sample_latent(ark, stream(20))
    with pytest.raises(ValueError, match="history shorter than the context length"):
        ark.conditional(alat, History(y=np.array([1, 0])), 1)


def _rollout_specs():
    emb = make_embeddings(3, 3, stream(0))
    return {
        "linreg": LinReg(d=3, noise_var=0.25),
        "logreg": LogReg(d=3),
        "deepnet": DeepNet(d=2, width=3, depth=3, noise_var=0.5),
        "dirichlet": DirichletNet(d=2, scale=2.0, noise_var=0.5),
        "ark": BinaryARK(d=2, context=2),
        "transformer": Transformer(vocab=3, attn_dim=3, depth=1, context=2, embeddings=emb),
        "linrep": LinRep(d=4, r=2, tasks=3),
    }


@pytest.mark.parametrize("case", list(_rollout_specs()))
def test_a_rollout_is_a_prefix_of_a_longer_one(case):
    """Seed contract 3: every path is one block draw whose first t draws do not
    depend on its length, so T steps are the first T of 3T, bit for bit."""
    spec = _rollout_specs()[case]
    s = stream(34)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    short, long = step(spec, latent, 9, s), step(spec, latent, 27, s)
    for name in ("y", "x", "task"):
        a, b = getattr(short, name), getattr(long, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert len(a) == len(b) - 18 and np.array_equal(a, b[:len(a)]), name


def test_every_kind_is_in_the_rollout_specs():
    assert sorted(_rollout_specs()) == sorted(PROCESS_KINDS)


@pytest.mark.parametrize("case", list(_rollout_specs()))
def test_a_latent_is_a_one_particle_draw(case):
    spec = _rollout_specs()[case]
    latent = sample_latent(spec, stream(38))
    assert isinstance(latent, Particles) and latent.size == 1 and latent.prior is spec
    assert all(len(a) == 1 for a in latent.arrays.values())
    assert latent.latents is None


@pytest.mark.parametrize("case", list(_rollout_specs()))
def test_a_latent_is_the_block_of_one_particle(case):
    """Seed contract 4: a latent reads its stream as `sample_particles(1, ...)` does,
    bit for bit, and no spec keeps a sampler of its own for the latent."""
    spec = _rollout_specs()[case]
    latent, block = sample_latent(spec, stream(40)), spec.sample_particles(1, stream(40))
    assert latent.arrays.keys() == block.arrays.keys()
    for name, value in block.arrays.items():
        assert np.array_equal(latent.arrays[name], value), name
    assert not any("sample_latent" in vars(cls) for cls in type(spec).__mro__)


@pytest.mark.parametrize(
    "case", [c for c in _rollout_specs() if c not in ("linreg", "logreg", "deepnet")]
)
def test_the_conditional_is_the_first_particle_statistic(case):
    """At every step of a rollout, bit for bit.  LinReg, LogReg and DeepNet are
    exempt: their conditional keeps the rollout's contraction (einsum, DeepNet's
    in C order), while their particles use BLAS or their own layout."""
    spec = _rollout_specs()[case]
    s = stream(39)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    h = step(spec, latent, 12, s)
    for n in range(len(h.y) - 12, len(h.y)):
        stat = spec.particle_stat(latent, h, n)
        assert len(stat) == 1
        assert np.array_equal(spec.conditional(latent, h, n), stat[0]), n


@pytest.mark.parametrize("case", ["linreg", "logreg", "deepnet", "dirichlet"])
def test_an_iid_conditional_is_the_rollout_statistic(case):
    """The conditional of an iid spec is the statistic its rollout drew the
    label from, stats(latent, x)[n], bit for bit."""
    spec = _rollout_specs()[case]
    s = stream(39)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    h = step(spec, latent, 12, s)
    rollout_stats = spec.stats(latent, h.x)
    for n in range(len(h.y)):
        assert np.array_equal(spec.conditional(latent, h, n), rollout_stats[n]), n


def test_every_spec_writes_its_one_batched_statistic():
    """The protocol keeps no per-draw statistic or prior sampler to fall back on."""
    assert "particle_stat" not in vars(Process) and "sample_particles" not in vars(Process)
    for cls in PROCESS_KINDS.values():
        assert hasattr(cls, "particle_stat") and hasattr(cls, "sample_particles"), cls


def test_a_dirichlet_block_resamples_to_the_padded_shape():
    spec = _rollout_specs()["dirichlet"]
    parts = spec.sample_particles(6, stream(41))
    counts = np.count_nonzero(parts.weights, axis=1)
    assert len(set(counts)) > 1  # the draws differ in atom count, padded to the largest
    resampled = parts.resample(np.array([5, 0, 0, 3]))
    assert resampled.size == 4
    for name, arr in resampled.arrays.items():  # equal arrays have equal shapes
        assert np.array_equal(arr, parts.arrays[name][[5, 0, 0, 3]]), name


def test_resample_takes_every_array_and_kept_statistic_by_the_indices():
    spec = LinRep(d=4, r=2, tasks=3)
    parts = spec.sample_particles(6, stream(43))
    for task in range(spec.tasks):
        spec.task_pmfs(parts, task)
    idx = np.array([5, 0, 0, 3, 5, 1, 2])
    resampled = parts.resample(idx)
    assert resampled.size == len(idx) and resampled.arrays.keys() == parts.arrays.keys()
    for name, arr in resampled.arrays.items():
        assert np.array_equal(arr, parts.arrays[name][idx]), name
        assert getattr(resampled, name) is arr  # perfbench reads the arrays as attributes
        assert arr.flags.c_contiguous, name
    assert resampled._memo.keys() == parts._memo.keys() == set(range(spec.tasks))
    for key, kept in resampled._memo.items():
        assert np.array_equal(kept, parts._memo[key][idx]), key
        assert not kept.flags.writeable and kept.flags.c_contiguous


def test_resample_keeps_each_array_layout():
    """DeepNet's particle-contiguous weights stay particle-contiguous through
    resampling, twice over, as do kept statistics in that layout; C-contiguous
    kept statistics stay C-contiguous.  Every result is `a[idx]`."""
    spec = DeepNet(d=2, width=3, depth=3, noise_var=0.5)
    parts = spec.sample_particles(64, stream(44))
    assert all(a.flags.f_contiguous and not a.flags.c_contiguous for a in parts.arrays.values())
    parts.once("c", lambda: np.ascontiguousarray(parts.w0.sum(axis=2)))
    parts.once("f", lambda: np.asfortranarray(parts.w1 * 2.0))
    idx = stream(45).gen.integers(64, size=(2, 64))
    once = parts.resample(idx[0])
    twice = once.resample(idx[1])
    rows = idx[0][idx[1]]
    for out, at in ((once, idx[0]), (twice, rows)):
        assert out.arrays.keys() == parts.arrays.keys()
        for name, arr in out.arrays.items():
            assert np.array_equal(arr, parts.arrays[name][at]), name
            assert arr.flags.f_contiguous and not arr.flags.c_contiguous, name
            assert getattr(out, name) is arr  # perfbench reads the arrays as attributes
        assert np.array_equal(out._memo["c"], parts._memo["c"][at])
        assert out._memo["c"].flags.c_contiguous
        assert np.array_equal(out._memo["f"], parts._memo["f"][at])
        assert out._memo["f"].flags.f_contiguous and not out._memo["f"].flags.c_contiguous
        assert not any(kept.flags.writeable for kept in out._memo.values())


@pytest.mark.parametrize("case", list(_rollout_specs()))
def test_the_statistic_of_a_block_is_each_particles_conditional(case):
    """Particle k's statistic in a prior block is the conditional of the
    one-particle block at k: bit for bit, except LinReg's and LogReg's two
    forms and DeepNet, whose particle-contiguous weights are contracted in a
    different order for 5 particles than for 1."""
    spec = _rollout_specs()[case]
    s = stream(40)
    parts = spec.sample_particles(5, s.derive(("particles", 0)))
    h = step(spec, sample_latent(spec, s.derive(("latent", 0))), 12, s)
    for n in range(len(h.y) - 12, len(h.y)):
        stats = spec.particle_stat(parts, h, n)
        each = np.stack([spec.conditional(parts.resample(np.array([k])), h, n) for k in range(5)])
        if case in ("linreg", "logreg", "deepnet"):
            np.testing.assert_allclose(stats, each, rtol=1e-12, atol=1e-15)
        else:
            assert np.array_equal(stats, each), n


@pytest.mark.parametrize("case", ["linreg", "logreg"])
def test_iid_rollouts_read_the_input_and_noise_blocks(case):
    """Seed contract 3: inputs are one (n, d) normal draw from ("inputs", 0)
    and the label draws one block from ("noise", 0)."""
    spec = _rollout_specs()[case]
    s = stream(35)
    latent = sample_latent(spec, s.derive(("latent", 0)))
    history = step(spec, latent, 50, s)
    x = s.derive(("inputs", 0)).gen.normal(size=(50, spec.d))
    assert np.array_equal(history.x, x)
    draws = s.derive(("noise", 0))
    if case == "linreg":
        noise = draws.gen.normal(0.0, math.sqrt(spec.noise_var), 50)
        assert np.array_equal(history.y, np.einsum("nd,d->n", x, latent.theta[0]) + noise)
    else:
        p1 = sigmoids(np.einsum("nd,d->n", x, latent.theta[0]))
        assert np.array_equal(history.y, (draws.gen.random(50) < p1).astype(int))


def test_the_iid_statistic_of_a_row_does_not_depend_on_the_batch():
    for spec in list(_rollout_specs().values())[:4]:
        latent = sample_latent(spec, stream(36))
        x = stream(37).gen.normal(size=(40, spec.d))
        batch = spec.stats(latent, x)
        assert np.array_equal([spec.stats(latent, row) for row in x], batch)
        assert np.array_equal(spec.stats(latent, x[:7]), batch[:7])


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_deepnet_particle_stat_is_relu_forward_in_c_order(depth):
    """At 4096 particle-contiguous particles, the statistic is relu_forward on
    C-contiguous copies of the weights up to rounding.  A ReLU net's output can
    cancel to near 0, where the two summation orders differ by a few 1e-15 in
    absolute terms, so the tolerance scales with the largest output."""
    spec = DeepNet(d=4, width=8, depth=depth, noise_var=0.5)
    parts = spec.sample_particles(4096, stream(46))
    assert all(a.flags.f_contiguous for a in parts.arrays.values())
    copies = [np.ascontiguousarray(a) for a in parts.arrays.values()]
    x = stream(47).gen.normal(size=(20, spec.d))
    for n in range(len(x)):
        stat = spec.particle_stat(parts, History(y=np.zeros(len(x)), x=x), n)
        ref = relu_forward(copies, x[n])
        np.testing.assert_allclose(stat, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("d, context", [(2, 2), (2, 3), (3, 8)])
def test_ark_statistic_is_the_einsum_over_the_context(d, context):
    """The gemv over the flattened (K d) axis is the einsum "skd,kd->s": bit for
    bit at context 2, within 1e-15 of the largest logit at contexts 3 and 8."""
    spec = BinaryARK(d=d, context=context)
    parts = spec.sample_particles(4096, stream(48))
    s = stream(49)
    h = step(spec, sample_latent(spec, s.derive(("latent", 0))), 40, s)
    for n in range(context, len(h.y)):
        bits = h.y[n - context:n][::-1, None]
        ref = np.einsum("skd,kd->s", parts.theta, np.where(bits == 1, spec.phi1, spec.phi0))
        stat = spec.particle_stat(parts, h, n)
        if context == 2:
            assert np.array_equal(stat, ref), n
        else:
            np.testing.assert_allclose(stat, ref, rtol=0, atol=1e-15 * np.max(np.abs(ref)))


def _history_digest(spec, seeds=20, n=200):
    """sha256 of the labels (and inputs, where present) of `seeds` rollouts of n steps."""
    h = hashlib.sha256()
    for seed in range(seeds):
        s = stream(seed)
        history = step(spec, sample_latent(spec, s.derive(("latent", 0))), n, s)
        for arr in (history.y, history.x):
            if arr is not None:
                h.update(np.asarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


ROLLOUT_PINS = {
    "deepnet_w3_depth3": (DeepNet(d=2, width=3, depth=3, noise_var=0.5),
        "ea06ccecdfb475ed713531305a3c9ace244df464a15284bb7f55ce1ce6152e90"),
    "deepnet_w8_depth4": (DeepNet(d=4, width=8, depth=4, noise_var=0.5),
        "ded707d8a4e3df0ca43004acddaf8e10b0cc4ad71e554c815d464d272a870d2f"),
    "ark_context3": (BinaryARK(d=2, context=3),
        "b65cec157912e2232e5e4e93c505e8d30dc884a17c6afa0a52aec394695aea8f"),
    "ark_context8": (BinaryARK(d=3, context=8),
        "886add20617d9c6b0cf5a02ba7e1ed45771c099d4fa934dbcd2315207c0f8d31"),
}


@pytest.mark.parametrize("case", sorted(ROLLOUT_PINS))
def test_rollouts_are_pinned(case):
    """The histories of 20 seeds x 200 steps, bit for bit: a change to how the
    weights or the statistic are laid out or summed must not move a label."""
    spec, digest = ROLLOUT_PINS[case]
    assert _history_digest(spec) == digest


def test_transformer_pmf_normalized_and_positive():
    emb = make_embeddings(6, 4, stream(0))
    tf = Transformer(vocab=6, attn_dim=4, depth=2, context=3, embeddings=emb)
    lat = sample_latent(tf, stream(22))
    [pmf] = transformer_next_pmf(tf, lat, [1, 4, 2])
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


def test_attention_layer_on_stacks_is_the_layer_on_each_slice():
    """Bit for bit, with the input shared by all slices or stacked with them."""
    gen = np.random.default_rng(42)
    S, r, K, out = 16, 3, 4, 5
    U = gen.normal(size=(r, K))
    Us, A, V = gen.normal(size=(S, r, K)), gen.normal(size=(S, r, r)), gen.normal(size=(S, out, r))
    shared, stacked = attention_layer(U, A, V), attention_layer(Us, A, V)
    assert shared.shape == stacked.shape == (S, out, K)
    for i in range(S):
        assert np.array_equal(shared[i], attention_layer(U, A[i], V[i])), i
        assert np.array_equal(stacked[i], attention_layer(Us[i], A[i], V[i])), i


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
        outs.append(dirichlet_net_output(spec, lat, x)[0])
        assert lat.tail_mass[0] < 1e-8
    mean = float(np.mean(outs))
    se = float(np.std(outs, ddof=1) / math.sqrt(len(outs)))
    assert abs(mean) <= 3 * se
    assert np.isfinite(np.var(outs))


def test_ark_logit_pairs_recent_bit_with_first_coefficient():
    spec = BinaryARK(d=2, context=2,
                     phi0=np.array([1.0, 0.0]), phi1=np.array([0.0, 1.0]))
    lat = draw(spec, theta=[[1.0, 2.0], [3.0, 4.0]])
    # bits [older, recent] = [0, 1]: k=1 pairs theta[0] with phi1, k=2 with phi0
    assert spec.conditional(lat, History(y=np.array([0, 1])), 2) == pytest.approx(2.0 + 3.0)
    assert spec.conditional(lat, History(y=np.array([1, 0])), 2) == pytest.approx(1.0 + 4.0)


# ---------------------------------------------------------------------------
# meta processes
# ---------------------------------------------------------------------------


def test_linrep_uniform_at_zero_task_latent():
    spec = LinRep(d=5, r=2, tasks=2)
    lat = sample_latent(spec, stream(27))
    lat.xi[0, 0] = 0.0
    pmf = spec.task_pmfs(lat, 0)[0]
    assert np.max(np.abs(pmf - 0.2)) < 1e-12
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_meta_step_and_logprob_consistency():
    spec = LinRep(d=5, r=2, tasks=3)
    lat = sample_latent(spec, stream(28))
    h = step(spec, lat, 6, stream(29))
    assert h.task.tolist() == [0, 1, 2, 0, 1, 2] and set(h.y) <= {1, 2, 3, 4, 5}
    lp = cond_logprob(spec, lat, h, 1, h.y[1])
    assert lp == pytest.approx(math.log(spec.task_pmfs(lat, 1)[0, h.y[1] - 1]))


@pytest.mark.parametrize("task", [None, -1, 3, 7])
def test_meta_step_requires_a_task_in_range(task):
    """conditional and particle_stat of the meta process refuse the task."""
    spec = LinRep(d=5, r=2, tasks=3)
    lat = sample_latent(spec, stream(28))
    particles = spec.sample_particles(4, stream(30))
    h = History(y=np.array([1]), task=None if task is None else np.array([task]))
    for call in (
        lambda: spec.conditional(lat, h, 0),
        lambda: spec.particle_stat(particles, h, 0),
    ):
        with pytest.raises(ValueError, match=r"LinRep steps need a task index in \[0, 3\)"):
            call()
