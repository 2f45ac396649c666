"""Independent oracles: closed forms and residuals computed with numpy alone.

Every job records its checks in a ``Checks`` object.  An error check passes
when ``error <= tol`` and contributes ``log10(tol / error)`` digits of margin;
the worst margin over a run is the ``min_digits`` metric.  A failed check
raises ``CheckFailed``, which fails the job.
"""

from __future__ import annotations

import math

import numpy as np

# Cap for a check whose error is exactly 0.
MAX_DIGITS = 16.0


class CheckFailed(Exception):
    """An oracle disagreed with the program's output."""


class Checks:
    def __init__(self):
        self.min_digits = MAX_DIGITS
        self.count = 0

    def within(self, name: str, error: float, tol: float) -> None:
        self.count += 1
        error = float(error)
        if not (math.isfinite(error) and error <= tol):
            raise CheckFailed(f"{name}: error {error:.3g} exceeds {tol:.3g}")
        digits = MAX_DIGITS if error == 0.0 else min(MAX_DIGITS, math.log10(tol / error))
        self.min_digits = min(self.min_digits, digits)

    def at_least(self, name: str, value: float, floor: float) -> None:
        """``value >= floor``; a ratio, not an error, so it gives no digits."""
        self.count += 1
        value = float(value)
        if not (math.isfinite(value) and value >= floor):
            raise CheckFailed(f"{name}: {value:.6g} is below {floor:.6g}")

    def require(self, name: str, condition: bool) -> None:
        self.count += 1
        if not condition:
            raise CheckFailed(name)


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def rel_err(got, expected) -> float:
    expected = np.asarray(expected)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return max_abs(got, expected) / scale


def intertwiner_residual(V: np.ndarray, H: np.ndarray) -> float:
    """``||VH - H^dag V||_F / (||V||_F ||H||_F)``."""
    denom = np.linalg.norm(V) * np.linalg.norm(H)
    return float(np.linalg.norm(V @ H - H.conj().T @ V) / denom)


def hermiticity_defect(V: np.ndarray) -> float:
    return float(np.linalg.norm(V - V.conj().T) / np.linalg.norm(V))


def pt_residual(H: np.ndarray, P: np.ndarray) -> float:
    """``||P conj(H) P^-1 - H||_F / ||H||_F``."""
    return float(np.linalg.norm(P @ H.conj() @ np.linalg.inv(P) - H) / np.linalg.norm(H))


def conjugate_pair_count(w: np.ndarray, tol: float) -> int:
    """Ordered index pairs (i, j) with w_j == conj(w_i) within ``tol``.

    For a diagonalizable H this is the dimension of the solution space of
    ``V H = H^dag V``.
    """
    d = np.abs(w[None, :] - np.conj(w)[:, None])
    return int(np.count_nonzero(d <= tol))


def dimer_eigenvalues(e0: float, gamma: float) -> np.ndarray:
    return np.array([e0 - 1j * gamma, e0 + 1j * gamma])


def breit_wigner(E, e0, gamma):
    return 1.0 / (np.asarray(E) - e0 + 1j * gamma)


def pt_pair(E, e0, gamma):
    d = np.asarray(E) - e0
    return -2j * gamma / (d * d + gamma * gamma)


def phase_delay(E, e0, gamma):
    return np.arctan2(gamma, e0 - np.asarray(E))


def time_delay(E, e0, gamma):
    d = np.asarray(E) - e0
    return gamma / (d * d + gamma * gamma)


def breit_wigner_time(t, e0, gamma):
    """Residue transform of the single pole: ``-i exp(-i E0 t - Gamma t)``, 0 for t < 0."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0, -1j * np.exp(-1j * e0 * t - gamma * np.abs(t)), 0.0)


def exp1_large(z: complex) -> complex:
    """Exponential integral E1(z) by its asymptotic series, for |z| >= 100.

    ``E1(z) ~ exp(-z) / z * sum_k k! / (-z)^k``; at |z| >= 100 the terms fall
    below 1e-17 long before they start to grow again.
    """
    if abs(z) < 100.0:
        raise ValueError("asymptotic series needs |z| >= 100")
    total, term, k = 1.0 + 0.0j, 1.0 + 0.0j, 0
    while abs(term) > 1e-17:
        k += 1
        term *= -k / z
        total += term
    return complex(np.exp(-z) / z * total)


def truncated_breit_wigner_time(t: float, e0: float, gamma: float, L: float) -> complex:
    """``(1 / 2 pi) int_{E0-L}^{E0+L} exp(-i E t) / (E - E0 + i Gamma) dE``.

    The residue transform minus the two truncated tails.  With x = E - E0 and
    z = (-Gamma + i L) t, the tails ``int_{|x| > L} exp(-i x t) / (x + i Gamma)``
    sum to ``exp(-Gamma t) (E1(z) - E1(conj z)) = 2 i exp(-Gamma t) Im E1(z)``.
    """
    z = complex(-gamma * t, L * t)
    tails = np.exp(-gamma * t) * 1j * exp1_large(z).imag / np.pi
    return complex(breit_wigner_time(t, e0, gamma)) - np.exp(-1j * e0 * t) * tails


def pt_pair_time(t, e0, gamma):
    """Balanced pair: ``2 i exp(-i E0 t) sinh(Gamma t)`` for t >= 0, 0 for t < 0."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0, 2j * np.exp(-1j * e0 * t) * np.sinh(gamma * t), 0.0)


def damped_time(t, e0, gamma):
    t = np.asarray(t, dtype=float)
    return np.exp(-1j * e0 * t - gamma * t)


def spectral_states(H: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``exp(-i H t) psi0`` on a grid via numpy's eigendecomposition."""
    w, R = np.linalg.eig(H)
    c = np.linalg.solve(R, psi0)
    return (np.exp(-1j * np.outer(times, w)) * c) @ R.T
