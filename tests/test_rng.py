"""Tests for deterministic hierarchical streams and primitive samplers."""

import math

import numpy as np
import pytest

from infolab.rng import (
    RngStream,
    SeedSpec,
    categorical_indices,
    derive_stream,
    sample_categorical,
    sample_gaussian,
    sample_stick_breaking,
    sample_unit_sphere,
)


def test_same_seed_same_draws():
    a = derive_stream(SeedSpec(42, (("rep", 3),)))
    b = derive_stream(SeedSpec(42, (("rep", 3),)))
    assert np.array_equal(a.gen.random(4), b.gen.random(4))


def test_derive_is_associative_over_path_extension():
    direct = RngStream(SeedSpec(7, (("a", 1), ("b", 2)))).gen.random(4)
    chained = RngStream(SeedSpec(7)).derive(("a", 1)).derive(("b", 2)).gen.random(4)
    assert np.array_equal(direct, chained)


def test_sibling_paths_decorrelated():
    draws = np.stack(
        [RngStream(SeedSpec(0, (("sib", i),))).gen.random(8) for i in range(10**4)]
    )
    # no two sibling streams share their first 8 draws
    assert len(np.unique(draws, axis=0)) == 10**4


def test_bare_int_path_entries_normalize():
    a = RngStream(SeedSpec(5, (("", 3),))).gen.random(2)
    b = RngStream(SeedSpec(5)).derive(3).gen.random(2)
    assert np.array_equal(a, b)


def test_master_seed_range_checked():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)


def test_sample_gaussian_moments_and_degenerate():
    s = derive_stream(SeedSpec(1))
    assert np.array_equal(sample_gaussian(s, 3, 0.0), np.zeros(3))
    with pytest.raises(ValueError):
        sample_gaussian(s, 3, -1.0)
    x = sample_gaussian(s, 10**6, 1.0)
    assert abs(float(np.mean(x))) < 0.005
    assert abs(float(np.var(x)) - 1.0) < 0.01


def test_sibling_streams_uncorrelated():
    s = derive_stream(SeedSpec(2))
    x = sample_gaussian(s.derive(0), 10**6, 1.0)
    y = sample_gaussian(s.derive(1), 10**6, 1.0)
    rho = float(np.corrcoef(x, y)[0, 1])
    assert abs(rho) < 0.01


def test_unit_sphere_norms_and_sign_symmetry():
    s = derive_stream(SeedSpec(3))
    for d in (2, 3, 7):
        v = sample_unit_sphere(s, d)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    block = sample_unit_sphere(s, 3, (4, 5))
    assert block.shape == (4, 5, 3)
    assert np.max(np.abs(np.linalg.norm(block, axis=2) - 1.0)) < 1e-12
    signs = sample_unit_sphere(s, 1, (10**4,))
    assert signs.shape == (10**4, 1) and set(np.unique(signs)) == {-1.0, 1.0}
    frac = np.mean(signs > 0)
    assert abs(frac - 0.5) < 0.02
    with pytest.raises(ValueError):
        sample_unit_sphere(s, 0)


def test_unit_sphere_coordinate_symmetry():
    s = derive_stream(SeedSpec(4))
    vs = sample_unit_sphere(s, 3, (10**5,))
    assert np.max(np.abs(vs.mean(axis=0))) < 0.02


def test_sample_categorical_point_mass_and_frequencies():
    s = derive_stream(SeedSpec(5))
    assert all(
        sample_categorical(s, np.array([1.0, 0.0, 0.0])) == 0 for _ in range(100)
    )
    draws = np.array(
        [sample_categorical(s, np.array([0.5, 0.5])) for _ in range(10**5)]
    )
    assert abs(float(np.mean(draws)) - 0.5) < 0.01
    zero_mid = np.array([0.5, 0.0, 0.5])
    assert all(sample_categorical(s, zero_mid) != 1 for _ in range(10**4))
    with pytest.raises(ValueError):
        sample_categorical(s, np.array([0.5, 0.6]))


def _one_draw(pmf, u):
    """The scalar rule: inverse cdf, clamped to the last index, then down past zero mass."""
    idx = min(int(np.searchsorted(np.cumsum(pmf), u, side="right")), len(pmf) - 1)
    while pmf[idx] == 0.0:
        idx -= 1
    return idx


@pytest.mark.parametrize("pmf", [
    [0.2, 0.3, 0.5], [0.5, 0.0, 0.5], [0.0, 0.4, 0.6, 0.0], [1.0], [0.1] * 10,
])
def test_categorical_indices_equal_one_draw_per_uniform(pmf):
    """The vectorised draw gives each uniform the index of the scalar rule, at the
    partial sums themselves and past the last one too."""
    pmf = np.array(pmf)
    u = np.concatenate([derive_stream(SeedSpec(6)).gen.random(500), np.cumsum(pmf), [1.0]])
    assert categorical_indices(pmf, u).tolist() == [_one_draw(pmf, v) for v in u]
    with pytest.raises(ValueError):
        categorical_indices(np.array([0.5, 0.6]), u)


def test_stick_breaking_invariants():
    """Per draw of one block: weights plus tail sum to 1, the tail is below tail_tol,
    the weights are positive up to the first crossing and 0 after it, atoms are unit rows."""
    size, tol = 500, 1e-6
    weights, atoms, tail = sample_stick_breaking(derive_stream(SeedSpec(6)), size, 2.0, 3, tol)
    assert atoms.shape == weights.shape + (3,) and tail.shape == (size,)
    np.testing.assert_allclose(weights.sum(axis=1) + tail, 1.0, rtol=0, atol=1e-12)
    assert np.all(tail < tol)
    counts = np.sum(weights > 0, axis=1)
    assert weights.shape[1] == counts.max()
    assert np.array_equal(weights > 0, np.arange(weights.shape[1]) < counts[:, None])
    # the tail before a draw's last atom has not crossed yet, so its count is the first crossing
    assert np.all(tail + weights[np.arange(size), counts - 1] >= tol)
    assert np.max(np.abs(np.linalg.norm(atoms, axis=2) - 1.0)) < 1e-12


def test_stick_breaking_first_stick_mean():
    """E[first weight] = 1 / (1 + scale), over 10^4 draws of one call."""
    weights, _, _ = sample_stick_breaking(derive_stream(SeedSpec(7)), 10**4, 2.0, 2, 1e-6)
    assert abs(float(np.mean(weights[:, 0])) - 1.0 / 3.0) < 0.01


def test_stick_breaking_truncation_monotone():
    """A finer tail_tol draws the same sticks further: per draw, at least as many
    atoms, and the coarse weights are the first ones of the fine draw."""
    coarse, _, _ = sample_stick_breaking(derive_stream(SeedSpec(8)), 64, 2.0, 2, tail_tol=1e-3)
    fine, _, _ = sample_stick_breaking(derive_stream(SeedSpec(8)), 64, 2.0, 2, tail_tol=1e-6)
    coarse_counts, fine_counts = np.sum(coarse > 0, axis=1), np.sum(fine > 0, axis=1)
    assert np.all(fine_counts >= coarse_counts) and np.any(fine_counts > coarse_counts)
    for c, f, k in zip(coarse, fine, coarse_counts):
        assert np.array_equal(c[:k], f[:k])
    with pytest.raises(ValueError):
        sample_stick_breaking(derive_stream(SeedSpec(8)), 1, 2.0, 2, tail_tol=0.0)
    with pytest.raises(ValueError):
        sample_stick_breaking(derive_stream(SeedSpec(8)), 1, 0.0, 2)


# ---------------------------------------------------------------------------
# The seed contract: derived keys, sibling streams, pinned draws
# ---------------------------------------------------------------------------


def _draws(stream):
    """Draws touching every part of the Philox state; the odd count of 32-bit
    integers leaves half a word buffered for the next draw."""
    gen = stream.gen
    return (
        gen.random(5),
        gen.integers(7, size=5, dtype=np.int32),
        gen.integers(2**40, size=3),
        gen.normal(size=4),
    )


def _assert_same_draws(a, b):
    for x, y in zip(_draws(a), _draws(b)):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 33])
@pytest.mark.parametrize("label", ["step", "частица"], ids=["ascii", "non_ascii"])
def test_children_draw_as_derived_siblings(n, label):
    parent = RngStream(SeedSpec(11, (("rep", 4),)))
    seen = 0
    for i, child in enumerate(parent.children(label, n)):
        assert child.key().tobytes() == SeedSpec(11, (("rep", 4), (label, i))).key().tobytes()
        _assert_same_draws(child, parent.derive((label, i)))
        seen += 1
    assert seen == n


def test_streams_derived_from_a_child_match_derive():
    parent = RngStream(SeedSpec(12))
    for i, child in enumerate(parent.children("particle", 4)):
        first = child.gen.random()  # the shared generator is in use
        grand = child.derive(("layer", 2))
        _assert_same_draws(grand, parent.derive(("particle", i), ("layer", 2)))
        assert first == parent.derive(("particle", i)).gen.random()


@pytest.mark.parametrize("labels", [("step", "particle"), ("step", "step")],
                         ids=["different_labels", "same_label"])
def test_interleaved_children_draw_as_derived_siblings(labels):
    parent = RngStream(SeedSpec(13, (("rep", 2),)))
    iterators = [parent.children(label, 6) for label in labels]
    for i, pair in enumerate(zip(*iterators)):
        firsts = [child.gen.random(3) for child in pair]  # both generators are mid-stream
        for label, child, first in zip(labels, pair, firsts):
            ref = parent.derive((label, i))
            assert child.key().tobytes() == ref.key().tobytes()
            assert first.tobytes() == ref.gen.random(3).tobytes()
            _assert_same_draws(child, ref)


PATHS = [
    (0, ()),
    (3, (("rep", 1),)),
    (2**64 - 1, (("scenario", 0), ("rep", 7), ("step", 123456))),
    (9, (5, ("", -2), ("tâche", 3), ("частица", 2**62))),
]


@pytest.mark.parametrize("master, path", PATHS)
def test_derived_keys_equal_seed_spec_keys(master, path):
    stream = RngStream(SeedSpec(master))
    for cut in range(len(path)):
        stream = stream.derive(path[cut])
    spec = SeedSpec(master, path)
    assert stream.key().tobytes() == spec.key().tobytes()
    assert RngStream(spec).key().tobytes() == spec.key().tobytes()


# First draws of three fixed paths, recorded before streams were re-keyed;
# a change to the seed contract fails here instead of shifting every result.
PINNED = [
    (
        SeedSpec(0),
        ["0x1.0c97a3a720915p-1", "0x1.b692e6055206ep-1", "0x1.0f08df1c20725p-1"],
        [222, 551, 193],
        ["0x1.3c908a90a015fp-3", "0x1.a8759fcdd3d2cp-1"],
    ),
    (
        SeedSpec(20240817, (("scenario", 0), ("rep", 3), ("step", 7))),
        ["0x1.513d31374f436p-1", "0x1.78bd2fb972ea8p-2", "0x1.14f818bcb8aa4p-3"],
        [710, 10, 417],
        ["0x1.eed0c21edd84bp-2", "0x1.1d6209cd83fccp+0"],
    ),
    (
        SeedSpec(2**64 - 1, (5, ("tâche", 2), ("particle", -1))),
        ["0x1.353a9bbbdc0bap-2", "0x1.987e63e8088adp-1", "0x1.4e1d24d65dc72p-2"],
        [549, 552, 666],
        ["0x1.64d8fa1a3b68cp-1", "-0x1.588433a289809p-3"],
    ),
]


@pytest.mark.parametrize("spec, uniforms, ints, normals", PINNED)
def test_pinned_first_draws(spec, uniforms, ints, normals):
    root = RngStream(SeedSpec(spec.master_seed))
    derived = root.derive(*spec.path) if spec.path else root
    for stream in (RngStream(spec), derived):
        gen = stream.gen
        assert [float.hex(u) for u in gen.random(3)] == uniforms
        assert gen.integers(1000, size=3).tolist() == ints
        assert [float.hex(z) for z in gen.normal(size=2)] == normals


def _pmf_sites():
    from infolab.estimators import EnumerationModel, misspec_decomposition
    from infolab.info import entropy_pmf
    from infolab.predictors import Enumeration
    from infolab.processes import LogReg

    from conftest import block

    model = EnumerationModel(prior=np.array([0.5, 0.5]), cond=np.full((2, 2), 0.5))
    return {
        "sample_categorical": lambda p: sample_categorical(derive_stream(SeedSpec(1)), p),
        "entropy_pmf": entropy_pmf,
        "EnumerationModel": lambda p: EnumerationModel(prior=p, cond=np.full((len(p), 2), 0.5)),
        "misspec_decomposition": lambda p: misspec_decomposition(model, p, 2),
        "Enumeration": lambda p: Enumeration(
            support=block(LogReg(d=1), theta=np.zeros((len(p), 1))), prior=p
        ),
    }


@pytest.mark.parametrize("site", sorted(_pmf_sites()))
@pytest.mark.parametrize("pmf", [[0.5, 0.6], [1.5, -0.5], [[0.5, 0.5]], [0.5, np.nan]], ids=str)
def test_every_pmf_check_is_the_one_rule(site, pmf):
    with pytest.raises(ValueError, match="must be a 1-D array, nonnegative and summing to 1$"):
        _pmf_sites()[site](np.array(pmf))
