"""Seeded benchmark inputs, built with numpy alone (no package code).

The same seed always gives the same inputs: every generator below draws from
``numpy.random.default_rng`` streams derived from the seed and a fixed label.
"""

from __future__ import annotations

import math

import numpy as np

DENSE_SIZES = (8, 16, 24, 32)
# Matrices per size for the two dense workloads; one pass runs each of them
# once.  The counts are set from measured job times (one BLAS thread, 2-core
# x86-64, fastest runs: about 18 ms at n = 8, 58 ms at n = 16, 0.33 s at
# n = 24 and 1.7 s at n = 32).  In the ~0.75 s small pass n = 8 takes 60%
# and n = 16 40%; in the ~4.7 s large pass n = 24 takes 28%.  n = 32 gets two
# matrices because its pseudounitarity check is the worst one and varies most
# from matrix to matrix (1.9 to 2.4 digits), so min_digits is the lesser of two.
DENSE_SMALL = {8: 24, 16: 5}
DENSE_LARGE = {24: 4, 32: 2}
DENSE_TIMES = np.linspace(0.0, 5.0, 201)
DENSE_PU_TIMES = np.linspace(0.0, 5.0, 51)

# (E0, Gamma) sets of the two-level path.  (1, 0.8) is the paper's set: the
# gain/loss dimer at s = 0.6.
TWO_LEVEL_SETS = ((1.0, 0.8), (1.0, 0.3), (2.0, 0.5))
QUAD_TIMES = (0.5, 1.0, 2.0, -1.0)
QUAD_PANELS = 200000


def stream(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(ord(c) << (8 * i) for i, c in enumerate(label))])


def random_involution(rng: np.random.Generator, n: int, max_cond: float = 50.0) -> np.ndarray:
    """Real matrix P with P @ P = I, moderately conditioned."""
    while True:
        S = rng.standard_normal((n, n))
        if np.linalg.cond(S) <= max_cond:
            break
    signs = rng.choice([-1.0, 1.0], size=n)
    return S @ np.diag(signs) @ np.linalg.inv(S)


def random_pt_symmetric(rng: np.random.Generator, n: int):
    """Random H with P conj(H) P^-1 = H for a real involution P, at unit 2-norm.

    H is symmetrized as B + P conj(B) P^-1, then scaled to ||H||_2 = 1.  The
    scaling matters: ``pseudounitarity_residual`` is an absolute residual of
    ``V^-1 U^dag V U - I``, and unscaled random H (norm ~ n) grows like
    exp(n t), which drove that residual to 1e27-1e99 at n >= 8.  At unit norm
    it stays between about 1e-14 and 1e-12.
    """
    P = random_involution(rng, n)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = B + P @ B.conj() @ np.linalg.inv(P)
    return H / np.linalg.norm(H, 2), P


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def dense_corpus(seed: int, counts: dict[int, int]):
    """``{n: [(H, P, psi0), ...]}`` with ``counts[n]`` matrices of each size.

    Each size draws from its own stream, so a size's matrices do not depend
    on which other sizes are built.
    """
    corpus = {}
    for n in counts:
        rng = stream(seed, f"dense-{n}")
        items = []
        for _ in range(counts[n]):
            H, P = random_pt_symmetric(rng, n)
            items.append((H, P, random_state(rng, n)))
        corpus[n] = items
    return corpus


def quadrature_halfwidth(gamma: float) -> float:
    """Truncation half-width L near 1e4 * Gamma with margin against the tail.

    The truncated tail of the single-pole integral is about
    ``|cos(L t)| / (pi L |t|)`` while ``quadrature_ift`` reports
    ``1 / (pi L)``, so at t = 0.5 the error can reach twice the estimate.
    With c = cos(L / 2) the ratios at t = 0.5 and t = 1 are 2|c| and
    |2c^2 - 1|; both equal sqrt(3) - 1 ~ 0.73 at c = (sqrt(3) - 1) / 2,
    the smallest worst case over the fixed times.  L is the point with that
    phase nearest to 1e4 * Gamma.
    """
    theta = math.acos((math.sqrt(3.0) - 1.0) / 2.0)
    k = round((1e4 * gamma / 2.0 - theta) / math.pi)
    return 2.0 * (theta + k * math.pi)


def two_level_inputs(seed: int, sets=TWO_LEVEL_SETS):
    """Per (E0, Gamma): the dimer with that spectrum and a seeded state.

    The dimer ``[[E0 + i, s], [s, E0 - i]]`` with s = sqrt(1 - Gamma^2) has
    eigenvalues E0 +/- i Gamma; at the paper's set it is the s = 0.6 dimer.
    """
    rng = stream(seed, "two-level")
    out = []
    for e0, gamma in sets:
        s = math.sqrt(1.0 - gamma * gamma)
        H = np.array([[e0 + 1j, s], [s, e0 - 1j]], dtype=complex)
        out.append(
            {
                "e0": e0,
                "gamma": gamma,
                "dimer": H,
                "psi0": random_state(rng, 2),
                "L": quadrature_halfwidth(gamma),
            }
        )
    return out


def matrix_json(m: np.ndarray) -> dict:
    """The package's matrix interchange format, written independently."""
    n = m.shape[0]
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return {"n": n, "entries": entries}
