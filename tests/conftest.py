"""Helpers shared by the test modules."""

import numpy as np

from infolab.processes import Particles


def draw(spec, **arrays):
    """A hand-built latent of `spec`: the one-particle draw whose arrays are
    the given ones, e.g. draw(spec, theta=[1.0, 0.0])."""
    return Particles(spec, 1, **{k: np.asarray(v, dtype=float)[None] for k, v in arrays.items()})
