"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code can run 1.5x slower for minutes at a time
while other tenants are busy, and every kind of work slows with it: pure
Python, small LAPACK calls and process start-up alike.  The benchmark times
this kernel between its jobs and reports the pass time scaled to the speed
the kernel has on a quiet machine: ``seconds * NOMINAL_S / kernel_seconds``,
with the kernel timed on the same CPU in the same pass.
The kernel runs no package code and its inputs are fixed, so a change to the
package moves the scaled time by the same share as the measured one.

The kernel mixes the kinds of work the workloads do: a pure-Python loop, many
small eigenproblems and an SVD of a matrix too large for the first-level cache.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Time of ``kernel()`` on the 2-core x86-64 machine the benchmark was built on
# (Python 3.11, numpy 2.4, OpenBLAS, one BLAS thread) when it was quiet, so
# scaled timings read as seconds on that machine.
NOMINAL_S = 0.007

_RNG = np.random.default_rng(20240417)
_SMALL = _RNG.standard_normal((8, 8))
_LARGE = _RNG.standard_normal((160, 160))


def kernel() -> float:
    acc = {}
    for i in range(20000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    for _ in range(100):
        np.linalg.eigvals(_SMALL)
    return float(np.linalg.svd(_LARGE, compute_uv=False)[0]) + acc[0]


class Reference:
    """Timings of the reference kernel, taken between the jobs of each pass.

    The machine switches between fast and slow spells within a second, so
    each pass gets its own factor, from the kernel's mean time in it.  A job
    of a second or more spans several spells, and so does the mean; the
    median followed the fast spells only, and scaled the n = 32 jobs worse
    (spread 0.12 over ten seeds, against 0.06 with the mean).
    """

    def __init__(self):
        self.passes: list[list[float]] = []

    def start_pass(self) -> None:
        self.passes.append([])
        self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        self.passes[-1].append(perf_counter() - t0)

    def pass_scale(self, i: int) -> float:
        """Factor from seconds measured in pass ``i`` to seconds at the nominal speed."""
        return NOMINAL_S / statistics.fmean(self.passes[i])
