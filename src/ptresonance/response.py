"""Resonance response in the energy and time domains.

Covers the single-pole decaying-resonance propagator ``1/(E - E0 + i Gamma)``
and its balanced two-pole counterpart with poles at ``E0 -/+ i Gamma``,
scattering phase shifts with their Wigner time delay (and the time-advance
branch with the opposite sign), and time-domain forms obtained by residue
summation, where a contour deformation closes every pole, the pair's
excitation pole ``E0 + i Gamma`` included, in the lower half-plane.  The
single-pole transform is also computable by direct quadrature of the inverse
Fourier integral, which serves as the independent cross-check; the two-pole
form has a growing mode and is residue-only.  The propagators, phase shifts,
time delays and transforms raise ``ValueError`` on a NaN or infinite energy
or time.  An energy enters as ``E - E0`` by one door, ``_offsets``, and one
rule, ``_require_normal_range``, refuses a ``(E - E0)^2 + Gamma^2`` that is
not a normal finite double; every single-pole propagator value ``G``, the
quadrature's included, is checked by ``G (E - E0 + i Gamma) = 1``.
"""

from typing import NamedTuple

import numpy as np

from .errors import OverflowRangeError
from .linalg import _NORMAL_MIN, _as_vector, _Checked, _phases, _require_grid

__all__ = [
    "ResonanceParams",
    "PropagatorModel",
    "QuadratureResult",
    "bw_propagator",
    "pt_propagator",
    "phase_shift",
    "time_delay",
    "build_model",
    "inverse_ft",
    "quadrature_ift",
    "default_energy_grid",
    "energy_response",
]

BRANCHES = ("delay", "advance")
MODEL_KINDS = ("breit-wigner", "pt-pair")

# Contour flag of every pole: it contributes to the t > 0 closure.
LOWER = "lower"

_FORM_CHECK_TOL = 1e-13
# Real and imaginary parts within this bound give a modulus below
# _FORM_CHECK_TOL: 1.4143 exceeds sqrt(2) by far more than the modulus rounds.
_PART_TOL = _FORM_CHECK_TOL / 1.4143


class ResonanceParams(_Checked, NamedTuple("ResonanceParams", [("e0", float), ("gamma", float)])):
    """Resonance energy E0 and half-width Gamma (hbar = 1)."""

    __slots__ = ()

    def __new__(cls, e0: float, gamma: float):
        if not (np.isfinite(e0) and np.isfinite(gamma)):
            raise ValueError("resonance parameters must be finite")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return super().__new__(cls, e0, gamma)


def _offsets(values, name: str, origin: float = 0.0):
    """The one door for an energy or a time: ``values - origin`` as a 1-D
    float array (``d = E - E0`` for an energy), and whether it was a scalar.
    Raises ``ValueError`` naming ``name`` when an entry is NaN or infinite; an
    offset beyond the double range is infinite, without a numpy warning.
    """
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    with np.errstate(over="ignore"):
        return np.atleast_1d(arr) - origin, arr.ndim == 0


def _require_normal_range(d: np.ndarray, gamma: float, what: str) -> None:
    """The one range rule of ``d^2 + Gamma^2``: ``OverflowRangeError`` unless it
    is a normal finite double (subnormal, it has lost digits) at every offset
    d, decided exactly by the nearest and the farthest |d|, in Python floats,
    which overflow to inf without a numpy warning for a numpy Gamma too."""
    if d.size == 0:
        return
    offsets = np.abs(d)
    near, far, gamma = float(offsets.min()), float(offsets.max()), float(gamma)
    if not (near * near + gamma * gamma >= _NORMAL_MIN and far * far + gamma * gamma < np.inf):
        raise OverflowRangeError(f"{what}: (E - E0)^2 + Gamma^2 leaves the normal double range")


def _branch_sign(branch: str) -> float:
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}; expected one of {BRANCHES}")
    return 1.0 if branch == "delay" else -1.0


def _checked_inverse(z: np.ndarray, out=None, residual=None) -> np.ndarray:
    """``1/z`` for an array ``z = d + i Gamma`` of finite offsets ``d = E - E0``
    whose ``d^2 + Gamma^2`` the caller has put through
    ``_require_normal_range``, each value checked by its defining identity,
    ``|value z - 1|`` at most 1e-13.  The value and the residual are written
    to ``out`` and ``residual`` when given (``residual`` may be z itself).

    In exact arithmetic the identity's residual is the relative difference to
    the rationalized form ``(d - i Gamma) / den``, ``den = d^2 + Gamma^2``;
    it costs one product and no square root or division.  Since
    ``|r| <= sqrt(2) max(|Re r|, |Im r|)``, a residual whose real and
    imaginary parts all lie within ``1e-13 / 1.4143`` passes without its
    modulus; otherwise the modulus decides.  A residual above 1e-13 or NaN
    raises ``OverflowRangeError``.
    """
    value = np.divide(1.0, z, out=out)
    r = np.multiply(z, value, out=residual)
    r -= 1.0
    parts = r.view(float)
    if not (parts.max(initial=0.0) <= _PART_TOL and parts.min(initial=0.0) >= -_PART_TOL):
        if not np.max(np.abs(r), initial=0.0) <= _FORM_CHECK_TOL:
            raise OverflowRangeError(
                "propagator check: G (E - E0 + i Gamma) differs from 1 beyond machine precision"
            )
    return value


def bw_propagator(E, p: ResonanceParams):
    """Single-pole resonance propagator ``1/(E - E0 + i Gamma)``.

    Every value is checked by ``G (E - E0 + i Gamma) = 1`` to 1e-13 and, like
    one whose ``(E - E0)^2 + Gamma^2`` is not a normal finite double, refused
    with ``OverflowRangeError`` (see ``_require_normal_range`` and
    ``_checked_inverse``).  Non-finite E raises ``ValueError``.
    """
    d, scalar = _offsets(E, "E", p.e0)
    _require_normal_range(d, p.gamma, "propagator check")
    z = d + 1j * p.gamma
    value = _checked_inverse(z, residual=z)
    return complex(value[0]) if scalar else value


def pt_propagator(E, p: ResonanceParams):
    """Balanced two-pole propagator, ``-2 i Gamma / ((E - E0)^2 + Gamma^2)``.

    Computed both as the two-pole sum
    ``1/(E - (E0 - i Gamma)) - 1/(E - (E0 + i Gamma))`` and as the closed
    form, both after ``_require_normal_range``, and must agree to 1e-13
    relative, or in absolute terms below the smallest normal double, where
    the closed form has underflowed (as ``time_delay`` does there).  The value
    is purely imaginary with negative imaginary part.
    """
    d, scalar = _offsets(E, "E", p.e0)
    _require_normal_range(d, p.gamma, "two-pole propagator")
    two_pole = 1.0 / (d + 1j * p.gamma) - 1.0 / (d - 1j * p.gamma)
    closed = -2j * p.gamma / (d * d + p.gamma * p.gamma)
    gap = np.abs(two_pole - closed)  # compared without dividing: closed may be 0
    if not np.all((gap <= _FORM_CHECK_TOL * np.abs(closed)) | (gap < _NORMAL_MIN)):
        raise OverflowRangeError("two-pole and closed propagator forms disagree")
    return complex(closed[0]) if scalar else closed


def phase_shift(E, p: ResonanceParams, branch: str = "delay"):
    """Scattering phase shift, continuous through the resonance.

    delay branch: ``tan(delta) = Gamma / (E0 - E)``, rising 0 -> pi with
    ``delta(E0) = +pi/2``; advance branch: the opposite sign, falling
    0 -> -pi with ``delta(E0) = -pi/2``.  The two-argument arctangent keeps
    the branch continuous (no pi jumps) since the Gamma component never
    vanishes, and gives an offset beyond the double range its limit.
    """
    sign = _branch_sign(branch)
    d, scalar = _offsets(E, "E", p.e0)
    delta = np.arctan2(sign * p.gamma, -d)
    return float(delta[0]) if scalar else delta


def time_delay(E, p: ResonanceParams, branch: str = "delay"):
    """Wigner time delay ``d delta / dE`` in closed form (hbar = 1).

    ``+Gamma / ((E - E0)^2 + Gamma^2)`` on the delay branch, its exact
    negative on the advance branch; peak value ``+/- 1/Gamma`` at E = E0.
    Refused with ``OverflowRangeError`` where the denominator is not a normal
    finite double (``_require_normal_range``).
    """
    sign = _branch_sign(branch)
    d, scalar = _offsets(E, "E", p.e0)
    _require_normal_range(d, p.gamma, "time delay")
    value = sign * p.gamma / (d * d + p.gamma * p.gamma)
    return float(value[0]) if scalar else value


class PropagatorModel(_Checked, NamedTuple("PropagatorModel", [("poles", np.ndarray),
                                                                ("residues", np.ndarray)])):
    """Finite model of simple poles and their residues.

    Every pole, one above the real axis too, contributes to the t > 0
    closure (``closure`` is ``"lower"`` for each): deforming the contour
    around it makes both poles of a balanced pair act together for t > 0.
    """

    __slots__ = ()

    def __new__(cls, poles, residues):
        what = "1-D and the same length"
        poles = _as_vector(poles, "poles and residues", what=what)
        residues = _as_vector(residues, "poles and residues", poles.size, what)
        # compared, not subtracted: poles 1e308 apart have no finite distance
        if len(set(poles.tolist())) != poles.size:
            raise ValueError("poles must be distinct (simple poles only)")
        return super().__new__(cls, poles, residues)

    @property
    def closure(self) -> tuple[str, ...]:
        return (LOWER,) * len(self.poles)

    def to_json(self) -> dict:
        return {
            "poles": [[z.real, z.imag] for z in self.poles],
            "residues": [[z.real, z.imag] for z in self.residues],
            "closure": list(self.closure),
        }


def _require_kind(kind: str) -> None:
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def build_model(kind: str, p: ResonanceParams) -> PropagatorModel:
    """Pole/residue model of the named propagator.

    ``breit-wigner``: one pole at ``E0 - i Gamma`` with residue 1.
    ``pt-pair``: poles ``E0 - i Gamma`` (residue +1) and ``E0 + i Gamma``
    (residue -1), acting together for t > 0 (see ``PropagatorModel``).
    """
    _require_kind(kind)
    if kind == "breit-wigner":
        return PropagatorModel(
            poles=np.array([p.e0 - 1j * p.gamma]), residues=np.array([1.0 + 0.0j])
        )
    return PropagatorModel(
        poles=np.array([p.e0 - 1j * p.gamma, p.e0 + 1j * p.gamma]),
        residues=np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    )


def inverse_ft(model: PropagatorModel, t):
    """Time-domain propagator by residue summation.

    With the ``1/(2 pi)`` inverse-transform normalization, every pole
    contributes ``-i r exp(-i p t)`` for t > 0 and nothing for t < 0 (all
    close in the lower half-plane); t = 0 takes the t -> 0+ branch.  A
    growing mode past ``exp(300)`` or a phase ``p t`` beyond the double range
    raises ``OverflowRangeError``.
    """
    ts, scalar = _offsets(t, "t")
    out = np.zeros(ts.shape, dtype=complex)
    after = ts >= 0
    if np.any(after):
        # |exp(-i p t)| = exp(Im p * t)
        phases = _phases(ts[after], model.poles, "residue exponent")
        out[after] = -1j * np.sum(model.residues * phases, axis=1)
    return complex(out[0]) if scalar else out


class QuadratureResult(NamedTuple):
    value: complex
    tail_estimate: float


# Gauss-Legendre nodes per panel; 6 keeps panel error negligible next to the
# truncation tail at the panel counts used here.
_GL_POINTS = 6

# Panels evaluated per block, so the working arrays stay small at any N.
_PANEL_BLOCK = 2048


def quadrature_ift(p: ResonanceParams, t: float, L: float, N: int) -> QuadratureResult:
    """Direct quadrature of the single-pole inverse Fourier integral.

    Composite Gauss-Legendre over ``[E0 - L, E0 + L]`` with N panels applied
    to ``(1/2 pi) integral exp(-i E t) / (E - E0 + i Gamma) dE``.  Only the
    single-pole (absolutely integrable) form is supported; the balanced pair
    has a growing mode and no convergent real-axis integral.  The returned
    tail estimate ``1/(pi L)`` bounds the truncated |E - E0| > L
    contribution up to oscillation.

    The rule is evaluated in the offset ``x = E - E0``, folded and
    phase-factored.  The nodes are symmetric under ``x -> -x`` and the
    integrand ``g(x) = exp(-i x t) / (x + i Gamma)`` obeys
    ``g(-x) = -conj(g(x))``, so only the ``x >= 0`` half is evaluated and the
    sum is ``exp(-i E0 t) (i/pi) Im S``, with the centre panel of odd N
    counted half in S.  The node phase ``exp(-i (c + h x_j) t)`` of a panel
    with centre c and half-width h is ``exp(-i c t) exp(-i h x_j t)``, and
    with ``c = h (q0 + 2m)`` the panel phases of a block are one exponential
    times a step table ``exp(-2i h t m)`` built once per call: 2104
    exponentials at N = 200000 instead of 6N.  A block is evaluated as a
    (nodes, panels) array and reduced as ``(node weights @ f) @ phases``.
    Its nodes are finite offsets by construction, so they go straight to the
    propagator's check, ``_checked_inverse``, without ``bw_propagator``'s
    validation, and the propagator's work allocates nothing per block: each
    block writes its nodes into the real part of one complex work array whose
    imaginary part is set to Gamma once per call, and its values and
    residuals into two arrays also made once per call, with the same bits as
    fresh arrays.  The range rule ``_require_normal_range`` is applied once per
    call, to the first and the last panel: rounding is monotone, so they hold
    the nearest and the farthest node, and the verdict and message are those
    of the rule applied to every block, given before any block is evaluated.
    A phase ``E t`` or a tail estimate beyond the double range raises
    ``OverflowRangeError``.
    """
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if not (np.isfinite(L) and L > 0):
        raise ValueError("truncation half-width L must be finite and positive")
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N <= 0:
        raise ValueError("panel count N must be a positive integer")
    tail = 1.0 / (np.pi * L)
    if not np.isfinite(tail):
        raise OverflowRangeError(f"the tail estimate 1/(pi L) leaves the double range, L = {L:g}")
    # every phase below, E0 t and the node and panel-step phases, is at most this
    if not np.isfinite((abs(p.e0) + 2.0 * L) * t):
        raise OverflowRangeError("phase E t is beyond the double range")
    nodes, weights = np.polynomial.legendre.leggauss(_GL_POINTS)
    h = L / N
    node_weights = h * weights * np.exp(-1j * h * t * nodes)
    # Centres of the panels on x >= 0 are h q, q = q0 + 2m ascending from q0 =
    # 0 or 1 to N - 1; for odd N, q = 0 is the centre panel.  A block writes
    # its q, exact integers, into the centres buffer before multiplying by h.
    q0, count = (N + 1) % 2, (N + 1) // 2
    offsets = h * nodes[:, None]
    # Rounding is monotone, so the nearest |offset| lies in the first panel and
    # the farthest in the last: one range rule for every block.
    _require_normal_range(offsets + h * np.array([q0, N - 1.0]), p.gamma, "propagator check")
    size = min(count, _PANEL_BLOCK)
    twice = np.arange(0.0, 2 * size, 2.0)  # 2m for the m < size panels of a block
    steps = np.exp(-1j * h * t * twice)
    z = np.empty(_GL_POINTS * size, dtype=complex)
    z.imag = p.gamma
    f, residual = np.empty_like(z), np.empty_like(z)
    centres = np.empty(size)
    total = 0.0j
    for start in range(0, count, _PANEL_BLOCK):
        m = min(count - start, _PANEL_BLOCK)
        zb, fb, rb = (w[: _GL_POINTS * m].reshape(_GL_POINTS, m) for w in (z, f, residual))
        np.multiply(np.add(twice[:m], q0 + 2 * start, out=centres[:m]), h, out=centres[:m])
        np.add(offsets, centres[:m], out=zb.real)
        _checked_inverse(zb, fb, rb)
        phases = np.exp(-1j * h * t * (q0 + 2 * start)) * steps[:m]
        if start == 0 and N % 2:
            phases[0] *= 0.5  # the centre panel is its own mirror image
        total += (node_weights @ fb) @ phases
    value = complex(np.exp(-1j * p.e0 * t) * (1j / np.pi) * total.imag)
    return QuadratureResult(value=value, tail_estimate=tail)


def default_energy_grid(p: ResonanceParams, halfwidth: float = 20.0, points: int = 2001):
    """Grid of ``points`` energies spanning ``E0 +/- halfwidth * Gamma``.

    ``ValueError`` unless points is a positive integer, halfwidth and span
    are positive and finite and
    ``linalg._require_grid`` accepts the grid (a Gamma too small to resolve at
    E0 repeats values); ``OverflowRangeError`` if the peak 1/Gamma overflows.
    """
    if not isinstance(points, (int, np.integer)) or isinstance(points, bool) or points <= 0:
        raise ValueError("point count must be a positive integer")
    if not (halfwidth > 0 and np.isfinite(2 * halfwidth)):
        raise ValueError("halfwidth must be positive, with a finite span 2 * halfwidth")
    if not np.isfinite(1.0 / float(p.gamma)):
        raise OverflowRangeError(f"the peak 1/Gamma leaves the double range, Gamma = {p.gamma:g}")
    name = f"energy grid E0 +/- {halfwidth:g} Gamma"
    lo, hi = p.e0 - halfwidth * p.gamma, p.e0 + halfwidth * p.gamma
    if not np.isfinite(hi - lo):
        raise ValueError(f"{name} must be finite, got E0 = {p.e0:g}, Gamma = {p.gamma:g}")
    return _require_grid(np.linspace(lo, hi, points), name)


def energy_response(kind: str, p: ResonanceParams, energies) -> dict:
    """Column table of the energy-domain response on a grid.

    Keys: E, re_d, im_d, delta_delay, delta_advance, dt_delay, dt_advance.
    The propagator is ``G = bw_propagator(E, p)``, or ``G - conj(G)`` for
    the pair: bit for bit the residue sum over ``build_model``'s poles.
    """
    _require_kind(kind)
    E = np.asarray(energies, dtype=float)
    d = bw_propagator(E, p)
    if kind == "pt-pair":
        d = d - np.conj(d)
    return {
        "E": E,
        "re_d": d.real,
        "im_d": d.imag,
        "delta_delay": phase_shift(E, p, "delay"),
        "delta_advance": phase_shift(E, p, "advance"),
        "dt_delay": time_delay(E, p, "delay"),
        "dt_advance": time_delay(E, p, "advance"),
    }
