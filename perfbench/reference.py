"""Times scaled to a reference speed of the host, measured around each timing.

On a shared virtual machine the host's speed drifts by up to ~40% over tens
of seconds, and every kind of code slows together (numpy kernels, hashing and
plain bytecode alike), while the process sees no steal time.  A median or a
minimum over a 30 s run still carries that drift.  So every timed call is
bracketed by a fixed reference loop, and its wall time is scaled by
``REFERENCE_S`` over the median of the reference loop's times just before and
just after it: the result is the call's time at the reference speed.  The
raw wall times are kept beside the scaled ones.

The reference loop runs no infolab code, so a change to infolab moves the
scaled times in full; a change of interpreter or numpy also moves the
reference loop and is partly cancelled.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

# reference_loop()'s time on the host the bounds were set on (a 2-vCPU Intel
# Xeon VM at 2.0 GHz, Python 3.11, numpy on one thread) at its full speed.
REFERENCE_S = 0.008
REPEATS = 3  # reference loops timed after each call

_WIDE = np.random.default_rng(0).standard_normal((4096, 8))
_SMALL = 2.0 * np.eye(5) + 0.1
_ONES = np.ones(8)


def reference_loop() -> float:
    """Fixed work mixing the workloads' kinds of step.

    4096-wide array updates (ensemble weights), 5x5 solves (conjugate
    updates), blake2b keying of Philox generators (stream derivation) and an
    integer loop (interpreter overhead).
    """
    total = 0.0
    for _ in range(60):
        b = _WIDE @ _ONES
        w = np.exp(-0.5 * b * b)
        total += float(np.cumsum(w / w.sum())[-1])
    for _ in range(300):
        total += float(np.linalg.solve(_SMALL, _ONES[:5])[0] + _SMALL[0] @ _ONES[:5])
    for i in range(80):
        key = hashlib.blake2b(i.to_bytes(8, "little"), digest_size=16).digest()
        gen = np.random.Generator(np.random.Philox(key=int.from_bytes(key, "little")))
        total += float(gen.standard_normal())
    for i in range(16000):
        total += i % 7
    return total


class ScaledClock:
    """Times calls and scales each to the reference speed.

    ``samples`` holds REPEATS reference-loop times measured before the first
    call and after every call, so each call sits between two sets of them;
    the call's speed is taken as the median of those 2 x REPEATS times.
    """

    def __init__(self):
        self.samples = [self._reference_times()]

    @staticmethod
    def _reference_times() -> list[float]:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
        return times

    def time(self, fn):
        """(fn's result, raw wall seconds, seconds at the reference speed)."""
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self.samples.append(self._reference_times())
        around = statistics.median(self.samples[-2] + self.samples[-1])
        return result, raw, raw * REFERENCE_S / around
