"""Deterministic hierarchical random-number streams and primitive samplers.

All randomness in the library flows through ``RngStream`` objects derived
from a ``SeedSpec``.  Streams are counter-based (Philox) and keyed by a hash
of ``(master_seed, path)``, so any replicate or task stream can be
re-derived independently of scheduling order.

The seed contract fixes which path each draw reads; results are
reproducible from the master seed under it, and any change to a path or to
the numbers drawn from it bumps ``SEED_CONTRACT``.  ``estimators.run_replicate``,
``estimators.meta_error_split`` and ``harness.run_replicates`` share one engine,
``estimators.score_rollouts``.
It first rolls out each replicate's process alone into arrays
(``processes.History``), one block draw per path under the replicate's
stream:

- ``("latent", 0)``: the process latent, the spec's prior draw of one
  particle (``sample_particles(1, ...)``, drawn as a block of one);
- ``("init", 0)``: the seed labels of sequence processes;
- ``("inputs", 0)``: the (n, d) inputs of iid processes;
- ``("noise", 0)``: the n label draws, one per step: Gaussian noises, or the
  uniforms that draw Bernoulli and categorical labels.

A block's first t draws do not depend on its length, so a rollout of T
steps is a prefix of a longer one.

Then each predictor kind scores the rollouts of a chunk of replicates,
reading under each replicate's stream:

- ``("pred", 0)``: the prior state of each kind (every kind's state is
  built from this same path), which reads below it
  - ``("particles", 0)``: a prior ensemble's particles, one block draw from
    the spec's prior; a width-misspecified ensemble draws its full-width
    nets here the same way;
  - ``("reduce", 0)``: the (size, n) uniforms that reduce a
    width-misspecified ensemble's nets to width n;
  - ``("task", m)``: the oracle-meta filter's particles for task m, one
    (size, r) normal draw;
  - ``("sis", 0)``: the resampler, whose k-th draw reads ``("resample", k)``
    below it (the oracle's tasks share one resampler).

Process and predictor draws read disjoint paths, each keyed by its own
hash, so scoring after the rollout, the chunk size and the kinds scored
beside a kind change no number.  ``harness.run_replicates`` gives replicate
i the path ``("rep", i)``; ``estimators.meta_error_split`` gives it
``("rep", i), ("total", 0)``, whose one rollout the prior ensemble, the
oracle-meta filter and the omniscient baseline all score.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

PathEntry = Union[int, Tuple[str, int]]

# Version 4 draws every prior as one block per spec: a latent is the block of one
# particle, and no prior reads a ("particle", j), ("layer", i), ("psi", 0) or ("xi", m)
# path.  Version 3 rolls a replicate out from one block draw per path (latent, seed
# labels, inputs, label draws) in place of one ("step", i) stream per step.
# Version 2 dropped the ("particle", j) level under the oracle-meta filter's
# ("task", m): a task's particles are one draw, not one stream per particle.
SEED_CONTRACT = 4


def _normalize_path(path: Sequence[PathEntry]) -> Tuple[Tuple[str, int], ...]:
    out = []
    for entry in path:
        if isinstance(entry, tuple):
            label, idx = entry
            out.append((str(label), int(idx)))
        else:
            out.append(("", int(entry)))
    return tuple(out)


@dataclass(frozen=True)
class SeedSpec:
    """A master seed plus an ordered path of labeled indices."""

    master_seed: int
    path: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2 ** 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "path", _normalize_path(self.path))

    def key(self) -> np.ndarray:
        """Hash (master_seed, path) into a 128-bit Philox key.

        The reference definition of the seed contract; RngStream reaches the
        same key by extending its parent's hash state.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(int(self.master_seed).to_bytes(8, "little"))
        return np.frombuffer(_hash_path(h, self.path).digest(), dtype=np.uint64)


def _hash_path(h, path: Tuple[Tuple[str, int], ...]):
    """Extend a blake2b state by normalized path entries; SeedSpec.key and RngStream share it."""
    for label, idx in path:
        h.update(label.encode("utf-8") + b"\x00")
        h.update(int(idx).to_bytes(8, "little", signed=True))
    return h


class RngStream:
    """Single-owner stream of random draws backed by a counter-based PRNG.

    Advancing the stream (drawing from it) is the only mutation.  Independent
    continuations are obtained via :meth:`derive` or :meth:`children`, never
    by copying.  The stream keeps the blake2b state of its path, so deriving
    hashes only the new entries, and builds its generator `gen` on first use,
    so streams that are only derived from never build one.
    """

    def __init__(self, seed: SeedSpec):
        h = hashlib.blake2b(digest_size=16)
        h.update(int(seed.master_seed).to_bytes(8, "little"))
        self._hash = _hash_path(h, seed.path)

    @cached_property
    def gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key()))

    def key(self) -> np.ndarray:
        """The 128-bit Philox key; equals SeedSpec.key() of the stream's path."""
        return np.frombuffer(self._hash.digest(), dtype=np.uint64)

    def _extend(self, entries: Tuple[Tuple[str, int], ...]) -> "RngStream":
        child = RngStream.__new__(RngStream)
        child._hash = _hash_path(self._hash.copy(), entries)
        return child

    def derive(self, *entries: PathEntry) -> "RngStream":
        """Return an independent child stream for an extended path."""
        return self._extend(_normalize_path(entries))

    def children(self, label: str, n: int) -> Iterator["RngStream"]:
        """Yield the streams derive((label, i)) for i < n, in order.

        The label is hashed once into a prefix state that each child copies
        and extends by its index.  The children share one Philox, re-keyed
        for each child (counter 0, empty buffer), so their draws equal those
        of derived streams but skip building a generator per child.  Each
        yielded child is valid only until the next one is yielded; streams
        derived from it stay valid.
        """
        prefix = self._hash.copy()
        prefix.update(str(label).encode("utf-8") + b"\x00")
        gen = np.random.Generator(np.random.Philox(key=0))
        zeros = np.zeros(4, np.uint64)
        # The setter copies every value out, so one state dict serves all children.
        state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": zeros},
                 "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for i in range(n):
            child = RngStream.__new__(RngStream)
            child._hash = prefix.copy()
            child._hash.update(i.to_bytes(8, "little", signed=True))
            state["state"]["key"] = child.key()
            gen.bit_generator.state = state
            child.gen = gen
            yield child


def derive_stream(seed: SeedSpec) -> RngStream:
    """Materialize the deterministic stream for a seed spec."""
    return RngStream(seed)


def sample_gaussian(stream: RngStream, n: int, variance: float) -> np.ndarray:
    """Draw n iid N(0, variance) coordinates; variance 0 gives zeros."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if variance == 0:
        return np.zeros(n)
    return stream.gen.normal(0.0, np.sqrt(variance), size=n)


def sample_unit_sphere(stream: RngStream, d: int, shape: Tuple[int, ...] = ()) -> np.ndarray:
    """Draw an array `shape` of uniformly distributed unit vectors in R^d, shaped shape + (d,)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d == 1:
        return np.where(stream.gen.random(shape + (1,)) < 0.5, 1.0, -1.0)
    v = stream.gen.normal(size=shape + (d,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)  # a zero norm has probability 0


def check_pmf(pmf, name: str = "pmf") -> np.ndarray:
    """pmf as a float array, refused unless it is 1-D, nonnegative and sums to 1 within 1e-9."""
    pmf = np.asarray(pmf, dtype=float)
    if pmf.ndim != 1 or np.any(pmf < 0) or not abs(pmf.sum() - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"{name} must be a 1-D array, nonnegative and summing to 1")
    return pmf


def categorical_indices(pmf, u):
    """The indices that uniforms u (a number or an array) draw from a pmf by its cdf.

    The pmf is checked once.  A u at or beyond the last partial sum (by
    rounding) takes the last index, and an index of zero mass moves down to the
    nearest one with mass.
    """
    pmf = check_pmf(pmf)
    idx = np.minimum(np.searchsorted(np.cumsum(pmf), u, side="right"), len(pmf) - 1)
    support = np.flatnonzero(pmf)
    return support[np.searchsorted(support, idx, side="right") - 1]


def sample_categorical(stream: RngStream, pmf: np.ndarray) -> int:
    """Draw an index according to a probability vector."""
    return int(categorical_indices(pmf, stream.gen.random()))


def sample_stick_breaking(
    stream: RngStream, size: int, scale: float, d: int, tail_tol: float = 1e-8
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`size` Dirichlet processes with Unif(S^{d-1}) base, each truncated by its tail mass.

    Returns weights (size, A), atoms (size, A, d) and tail masses (size,).  The
    Beta(1, scale) sticks are one (size, K) block, and K doubles (the new
    sticks drawn after the old) until every tail mass is below tail_tol.  Each
    draw stops at its own first crossing, so its weights plus its tail sum to
    1; A is the largest atom count, and a draw's weights past its count are 0.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not 0 < tail_tol < 1:
        raise ValueError("tail_tol must lie in (0, 1)")
    fracs = stream.gen.beta(1.0, scale, size=(size, 16))
    while True:
        remaining = np.cumprod(1.0 - fracs, axis=1)  # nonincreasing along each row
        if np.all(remaining[:, -1] < tail_tol):
            break
        fracs = np.hstack([fracs, stream.gen.beta(1.0, scale, size=fracs.shape)])
    counts = np.argmax(remaining < tail_tol, axis=1) + 1
    width = int(counts.max())
    before = np.hstack([np.ones((size, 1)), remaining[:, : width - 1]])
    weights = np.where(np.arange(width) < counts[:, None], before * fracs[:, :width], 0.0)
    tail_mass = remaining[np.arange(size), counts - 1]
    return weights, sample_unit_sphere(stream, d, (size, width)), tail_mass
