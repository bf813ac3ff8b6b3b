"""Helpers shared by the test modules."""

import numpy as np

from infolab.processes import Particles


def block(spec, **arrays):
    """A hand-built particle block of `spec` whose arrays, particle axis first,
    are the given ones, e.g. the support block(spec, theta=[[1.0, 0.0], [0.0, 1.0]])."""
    arrays = {k: np.asarray(v, dtype=float) for k, v in arrays.items()}
    return Particles(spec, len(next(iter(arrays.values()))), **arrays)


def draw(spec, **arrays):
    """A hand-built latent of `spec`: the one-particle draw whose arrays are
    the given ones, e.g. draw(spec, theta=[1.0, 0.0])."""
    return block(spec, **{k: [v] for k, v in arrays.items()})
