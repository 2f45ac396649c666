"""Second-order linear wave equations and a fixed-step RK4 integrator.

Two constant-coefficient equations are provided in monic form
``psi'' + c1 psi' + c0 psi = 0``:

* the balanced-pair wave equation ``psi'' + 2 i E0 psi' - (E0^2 + Gamma^2)
  psi = 0`` whose fundamental solutions ``exp(-i E0 t +/- Gamma t)`` carry
  one growing and one decaying mode, and
* the damped-oscillator equation ``psi'' + 2 Gamma psi' + (E0^2 + Gamma^2)
  psi = 0`` whose solutions ``exp(+/- i E0 t - Gamma t)`` are both damped.

Integration is classical fixed-step fourth-order Runge-Kutta on the
equivalent first-order complex system, chosen over adaptive schemes so runs
are deterministic and the global error scales cleanly as step^4.  The system
``y' = A y`` is linear with constant coefficients, so a step is its stability
polynomial ``R(hA) = sum_{k<=4} (hA)^k / k!``, applied in increment form
``y <- y + (R(hA) - I) y`` with the 2x2 increment built once per grid span.
"""

import math
from typing import NamedTuple

import numpy as np

from .linalg import (_as_vector, _Checked, _guard_exponent, _number, _require_finite,
                     _require_grid)
from .response import ResonanceParams, _require_normal_range

__all__ = [
    "SecondOrderIVP",
    "TimeSeries",
    "pt_wave_equation",
    "damped_oscillator_equation",
    "characteristic_roots",
    "pt_wave_ivp",
    "damped_oscillator_ivp",
    "integrate",
]

# Enforced stability/accuracy margin: step * max |characteristic root|.
MAX_STEP_ROOT = 0.1

# Cap on times[-1] / step, the substep count of a run (about 3 s of RK4).
MAX_SUBSTEPS = 1e7


def characteristic_roots(coefficients) -> np.ndarray:
    """Roots of ``c2 r^2 + c1 r + c0 = 0`` for the coefficient triple.

    Uses the cancellation-avoiding quadratic formula (larger root first, the
    other from the product), which keeps full precision even when the roots
    coalesce -- companion-matrix root finders lose half the digits there.
    The one range rule of the package's quadratics: ``ValueError`` for a zero
    c2, ``OverflowRangeError`` when ``c1 / c2``, ``c0 / c2`` or the
    discriminant ``c1^2 - 4 c0`` of those leaves the double range (every
    later step is then finite).
    """
    c2, c1, c0 = _as_vector(coefficients, "coefficients", 3).tolist()
    if c2 == 0:
        raise ValueError("the leading coefficient c2 must be nonzero")
    c1, c0 = c1 / c2, c0 / c2
    # the discriminant is NaN, too, where c1 or c0 is not finite
    disc = np.sqrt(_require_finite(c1 * c1 - 4.0 * c0, "coefficients leave the double range: "
                                   "their discriminant (c1/c2)^2 - 4 c0/c2"))
    r1 = max((-c1 + disc) / 2.0, (-c1 - disc) / 2.0, key=abs)  # the first on a tie
    # c0 = 0 when either root is 0; dividing by a subnormal r1 would overflow
    r2 = c0 / r1 if c0 != 0 else 0.0j
    return np.array([r1, r2])


def pt_wave_equation(p: ResonanceParams):
    """Monic coefficients ``(1, 2 i E0, -(E0^2 + Gamma^2))``, whose
    characteristic roots ``-i (E0 +/- i Gamma)`` give the solutions
    ``exp(-i E0 t +/- Gamma t)``: the time-domain factorization of the
    balanced pole pair ``E0 +/- i Gamma``.

    ``OverflowRangeError`` where ``E0^2 + Gamma^2`` is not a normal finite
    double (``response._require_normal_range`` at E = 0) or the discriminant
    leaves the double range (``characteristic_roots``).
    """
    _require_normal_range(np.asarray(p.e0), p.gamma, "coefficients leave the double range")
    coeffs = (1.0, 2j * p.e0, -(p.e0 * p.e0 + p.gamma * p.gamma))
    characteristic_roots(coeffs)  # refuses a discriminant beyond the double range
    return coeffs


def damped_oscillator_equation(p: ResonanceParams):
    """Monic coefficients ``(1, 2 Gamma, E0^2 + Gamma^2)``, whose
    characteristic roots ``-Gamma -+ i E0`` give the decaying solutions
    ``exp(-+ i E0 t - Gamma t)``.  In energy space, ``E = i r``, the equation
    factorizes over ``{E0 - i Gamma, -E0 - i Gamma}`` (the second root flips
    the sign of E0, not of the damping).  Refuses as ``pt_wave_equation``.
    """
    _require_normal_range(np.asarray(p.e0), p.gamma, "coefficients leave the double range")
    coeffs = (1.0, 2.0 * p.gamma, p.e0 * p.e0 + p.gamma * p.gamma)
    characteristic_roots(coeffs)  # refuses a discriminant beyond the double range
    return coeffs


class SecondOrderIVP(_Checked, NamedTuple("SecondOrderIVP", [
        ("c1", complex), ("c0", complex), ("psi0", complex), ("dpsi0", complex),
        ("times", np.ndarray), ("step", float)])):
    """Monic second-order IVP ``psi'' + c1 psi' + c0 psi = 0`` on a time grid.

    ``c1``, ``c0``, ``psi0`` and ``dpsi0`` are numbers, kept as Python
    complex.  ``times`` is a finite, strictly ascending grid with ``times[0]
    >= 0`` (the initial data live at t = 0) and ``step`` is the RK4 step, a
    positive real number kept as a Python float, subdivided evenly so every
    grid point is hit exactly.  A step so small that ``times[-1] / step``
    exceeds ``MAX_SUBSTEPS`` raises ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, c1: complex, c0: complex, psi0: complex, dpsi0: complex, times, step: float):
        c1, c0, psi0, dpsi0 = (_number(x, "c1, c0, psi0 and dpsi0", dtype=complex)
                               for x in (c1, c0, psi0, dpsi0))
        t = _require_grid(times)
        if t[0] < 0:
            raise ValueError("times must start at or after t = 0")
        step = _number(step, "step", "positive and finite")
        if not step > 0:
            raise ValueError("step must be positive and finite")
        # Python floats: an infinite quotient fails the cap instead of raising.
        if not float(t[-1]) / step <= MAX_SUBSTEPS:
            raise ValueError(f"step {step:g} needs more than {MAX_SUBSTEPS:g} substeps")
        return super().__new__(cls, c1, c0, psi0, dpsi0, t, step)


class TimeSeries(NamedTuple):
    times: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray


def _rk4_span(c1: complex, c0: complex, y: tuple, t0: float, t1: float, step: float) -> tuple:
    """Advance y = (psi, psi') from t0 to t1 in equal substeps <= step.

    For ``y' = A y`` with ``A = [[0, 1], [-c0, -c1]]`` a classical RK4 step is
    ``y <- R(hA) y`` with ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``.  The
    increment ``D = R(hA) - I = hA (I + hA/2 (I + hA/3 (I + hA/4)))`` is built
    once per span and applied as ``y <- y + D y``.  Over 5000 steps at
    E0 = 1, Gamma = 0.8 this stays within 1.6e-15 relative of the stagewise
    step, where ``y <- (I + D) y`` drifts to 1.7e-13 by rounding the identity.
    """
    span = t1 - t0
    if span == 0.0:
        return y
    nsub = max(1, math.ceil(span / step - 1e-12))
    h = span / nsub
    a10, a11 = -c0 * h, -c1 * h  # hA = [[0, h], [a10, a11]]
    # Horner from the inside: M <- I + (hA/k) M for k = 4, 3, 2, then D = hA M.
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for k in (4.0, 3.0, 2.0):
        m00, m01, m10, m11 = (
            1.0 + h * m10 / k,
            h * m11 / k,
            (a10 * m00 + a11 * m10) / k,
            1.0 + (a10 * m01 + a11 * m11) / k,
        )
    d00, d01 = h * m10, h * m11
    d10, d11 = a10 * m00 + a11 * m10, a10 * m01 + a11 * m11
    psi, dpsi = y
    for _ in range(nsub):
        psi, dpsi = psi + (d00 * psi + d01 * dpsi), dpsi + (d10 * psi + d11 * dpsi)
    return psi, dpsi


def integrate(ivp: SecondOrderIVP) -> TimeSeries:
    """Fixed-step RK4 integration of the IVP over its time grid.

    Each grid span is split into equal substeps no longer than ``step``; each
    substep applies the stability polynomial in increment form,
    ``y <- y + (R(hA) - I) y``, which is the classical four-stage step for
    this linear system.  Enforces ``step * max|root| <= 0.1`` and guards
    against growing-mode overflow; global error is O(step^4).
    """
    roots = characteristic_roots((1.0, ivp.c1, ivp.c0))
    rho = float(np.max(np.abs(roots)))
    if ivp.step * rho > MAX_STEP_ROOT:
        raise ValueError(
            f"step {ivp.step:g} too large: step * max|root| = {ivp.step * rho:.3g} "
            f"exceeds {MAX_STEP_ROOT:g}"
        )
    _guard_exponent(roots.real, float(ivp.times[-1]), "growing-mode exponent")

    y = (ivp.psi0, ivp.dpsi0)  # the record keeps its numbers as Python complex
    t_prev = 0.0
    psi, dpsi = np.empty((2, ivp.times.size), dtype=complex)
    for k, tk in enumerate(ivp.times.tolist()):
        y = _rk4_span(ivp.c1, ivp.c0, y, t_prev, tk, ivp.step)
        psi[k], dpsi[k] = y
        t_prev = tk
    _require_finite((psi, dpsi), "integration produced non-finite values: psi or psi'")
    return TimeSeries(times=ivp.times.copy(), psi=psi, dpsi=dpsi)


def pt_wave_ivp(p: ResonanceParams, times, step: float) -> SecondOrderIVP:
    """Balanced-pair IVP with the canonical antisymmetric initial data.

    ``psi(0) = 0, psi'(0) = 2 i Gamma`` selects the difference of the
    decaying and growing fundamental solutions times ``-i``, matching the
    residue-summed time-domain form of the balanced pole pair.
    """
    c2, c1, c0 = pt_wave_equation(p)
    return SecondOrderIVP(c1=c1, c0=c0, psi0=0.0, dpsi0=2j * p.gamma, times=times, step=step)


def damped_oscillator_ivp(p: ResonanceParams, times, step: float) -> SecondOrderIVP:
    """Damped-oscillator IVP selecting the ``exp(-i E0 t - Gamma t)`` mode."""
    c2, c1, c0 = damped_oscillator_equation(p)
    return SecondOrderIVP(
        c1=c1, c0=c0, psi0=1.0, dpsi0=-1j * p.e0 - p.gamma, times=times, step=step
    )
