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
not a normal finite double; it is the only guard of a propagator value.
"""

from typing import NamedTuple

import numpy as np

from .errors import OverflowRangeError
from .linalg import (_NORMAL_MIN, _as_vector, _Checked, _count, _number, _numbers, _phases,
                     _require_choice, _require_finite, _require_grid)

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


class ResonanceParams(_Checked, NamedTuple("ResonanceParams", [("e0", float), ("gamma", float)])):
    """Resonance energy E0 and half-width Gamma (hbar = 1), each a real number
    by the number rule, kept as a Python float."""

    __slots__ = ()

    def __new__(cls, e0: float, gamma: float):
        e0, gamma = (_number(x, "resonance parameters") for x in (e0, gamma))
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return super().__new__(cls, e0, gamma)


def _offsets(values, name: str, origin: float = 0.0):
    """The one door for an energy or a time: ``values - origin`` as a 1-D
    float array (``d = E - E0`` for an energy), and whether it was a scalar.
    Raises ``ValueError`` naming ``name`` unless the entries are finite real
    numbers (``linalg._numbers``); an offset beyond the double range is
    infinite, without a numpy warning.
    """
    arr = _numbers(values, name)
    with np.errstate(over="ignore"):
        return np.atleast_1d(arr) - origin, arr.ndim == 0


def _require_normal_range(d: np.ndarray, gamma: float, what: str) -> None:
    """The one range rule of ``d^2 + Gamma^2``: ``OverflowRangeError`` unless it
    is a normal finite double (subnormal, it has lost digits) at every offset
    d, decided exactly by the nearest and the farthest |d|, in Python floats,
    which overflow to inf without a numpy warning."""
    if d.size == 0:
        return
    offsets = np.abs(d)
    near, far = float(offsets.min()), float(offsets.max())
    if not (near * near + gamma * gamma >= _NORMAL_MIN and far * far + gamma * gamma < np.inf):
        raise OverflowRangeError(f"{what}: (E - E0)^2 + Gamma^2 leaves the normal double range")


def _branch_sign(branch: str) -> float:
    return 1.0 if _require_choice(branch, BRANCHES, "branch") == "delay" else -1.0


def bw_propagator(E, p: ResonanceParams):
    """Single-pole resonance propagator ``1/(E - E0 + i Gamma)``.

    ``OverflowRangeError`` where ``(E - E0)^2 + Gamma^2`` is not a normal
    finite double (``_require_normal_range``); ``ValueError`` for a non-finite
    E.
    """
    d, scalar = _offsets(E, "E", p.e0)
    _require_normal_range(d, p.gamma, "propagator check")
    value = 1.0 / (d + 1j * p.gamma)
    return complex(value[0]) if scalar else value


def pt_propagator(E, p: ResonanceParams):
    """Balanced two-pole propagator
    ``1/(E - (E0 - i Gamma)) - 1/(E - (E0 + i Gamma))``, returned in its closed
    form ``-2 i Gamma / ((E - E0)^2 + Gamma^2)``: purely imaginary, with
    negative imaginary part, and 0 or subnormal far out where the closed form
    underflows.  ``OverflowRangeError`` and ``ValueError`` as for
    ``bw_propagator``.
    """
    d, scalar = _offsets(E, "E", p.e0)
    _require_normal_range(d, p.gamma, "two-pole propagator")
    closed = -2j * p.gamma / (d * d + p.gamma * p.gamma)
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


def build_model(kind: str, p: ResonanceParams) -> PropagatorModel:
    """Pole/residue model of the named propagator.

    ``breit-wigner``: one pole at ``E0 - i Gamma`` with residue 1.
    ``pt-pair``: poles ``E0 - i Gamma`` (residue +1) and ``E0 + i Gamma``
    (residue -1), acting together for t > 0 (see ``PropagatorModel``).
    """
    if _require_choice(kind, MODEL_KINDS, "model kind") == "breit-wigner":
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

# The 6-point rule on [-1, 1], the doubles numpy's leggauss(6) returns, written
# as shortest reprs (which round-trip), so no call imports numpy.polynomial.
_GL_NODES = (-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
             0.2386191860831969, 0.6612093864662645, 0.9324695142031519)
_GL_WEIGHTS = (0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
               0.46791393457269104, 0.3607615730481387, 0.17132449237917027)

# Panels evaluated per block, so the working arrays stay small at any N.
_PANEL_BLOCK = 2048


def _inverse_parts(xy: np.ndarray, gamma: float) -> None:
    """``1/(x + i Gamma) = x r - i Gamma r``, ``r = 1/(x^2 + Gamma^2)``, in real
    arithmetic and in place: the offsets x in the top half of ``xy``'s rows
    become ``x r`` and the bottom half ``Gamma r``, for x whose
    ``x^2 + Gamma^2`` has passed ``_require_normal_range``."""
    half = len(xy) // 2
    x, r = xy[:half], xy[half:]
    np.multiply(x, x, out=r)
    r += gamma * gamma
    np.divide(1.0, r, out=r)
    x *= r
    r *= gamma


def quadrature_ift(p: ResonanceParams, t: float, L: float, N: int) -> QuadratureResult:
    """Direct quadrature of the single-pole inverse Fourier integral, the
    independent cross-check of ``inverse_ft`` for ``breit-wigner``.

    Composite N-panel, 6-point Gauss-Legendre rule over ``[E0 - L, E0 + L]``
    for ``(1/2 pi) integral exp(-i E t) / (E - E0 + i Gamma) dE``, returned
    with the tail estimate ``1/(pi L)`` of the truncated |E - E0| > L part.
    Only the ``x = E - E0 >= 0`` half of the rule is evaluated, by
    ``g(-x) = -conj(g(x))``, and each node enters in real arithmetic as
    ``(x, Gamma) / (x^2 + Gamma^2)``.

    ``ValueError`` unless t and L > 0 are numbers and N a count;
    ``OverflowRangeError`` where a node's ``(E - E0)^2 + Gamma^2`` leaves the
    normal double range (decided before any node is evaluated), or a phase
    ``E t`` or the tail estimate leaves the double range.
    """
    t, L, N = _number(t, "t"), _number(L, "truncation half-width L"), _count(N, "panel count N")
    if not L > 0:
        raise ValueError("truncation half-width L must be positive")
    tail = _require_finite(1.0 / (np.pi * L), "the tail estimate 1/(pi L)")
    # every phase below, E0 t and the node and panel-step phases, is at most this
    _require_finite((abs(p.e0) + 2.0 * L) * t, "phase E t")
    nodes, weights = np.array((_GL_NODES, _GL_WEIGHTS))
    h = L / N
    a = h * weights * np.exp(-1j * h * t * nodes)
    # the 2 x 12 weights of a panel's sum a @ (x r - i Gamma r), transposed:
    # column 0 gives its imaginary part and column 1 its real part
    panel_weights = np.block([[a.imag, -a.real], [a.real, a.imag]]).T
    # Centres of the panels on x >= 0 are h q, q = q0 + 2m ascending from q0 =
    # 0 or 1 to N - 1; for odd N, q = 0 is the centre panel.  A block writes
    # its q, exact integers, into the centres buffer before multiplying by h.
    q0, count = (N + 1) % 2, (N + 1) // 2
    offsets = h * nodes[:, None]
    # Rounding is monotone, so the nearest |offset| lies in the first panel and
    # the farthest in the last: one range rule for every block.
    _require_normal_range(offsets + h * np.array([q0, N - 1.0]), p.gamma, "propagator check")
    row_offsets = offsets.ravel().tolist()  # Python floats, one per row add
    size = min(count, _PANEL_BLOCK)
    twice = np.arange(0.0, 2 * size, 2.0)  # 2m for the m < size panels of a block
    steps = np.exp(-1j * h * t * twice)
    # work arrays made once per call
    xy, sums, centres = np.empty(2 * _GL_POINTS * size), np.empty(2 * size), np.empty(size)
    total = 0.0
    for start in range(0, count, _PANEL_BLOCK):
        m = min(count - start, _PANEL_BLOCK)
        block = xy[: 2 * _GL_POINTS * m].reshape(2 * _GL_POINTS, m)
        np.multiply(np.add(twice[:m], q0 + 2 * start, out=centres[:m]), h, out=centres[:m])
        for row, offset in zip(block, row_offsets):  # x = h node + h q, row by row
            np.add(centres[:m], offset, out=row)
        _inverse_parts(block, p.gamma)
        # (Im, Re) of each panel's sum, interleaved as the phases' (Re, Im)
        np.matmul(block.T, panel_weights, out=sums[: 2 * m].reshape(m, 2))
        phases = np.exp(-1j * h * t * (q0 + 2 * start)) * steps[:m]
        if start == 0 and N % 2:
            phases[0] *= 0.5  # the centre panel is its own mirror image
        total += sums[: 2 * m] @ phases.view(float)  # Im of the panel sums times phases
    # the mirror half adds -conj of this half's sum, leaving 2i times its imaginary
    # part, total; 2 pi is the transform's normalization
    value = complex(np.exp(-1j * p.e0 * t) * (1j / np.pi) * total)
    return QuadratureResult(value=value, tail_estimate=tail)


def default_energy_grid(p: ResonanceParams, halfwidth: float = 20.0, points: int = 2001):
    """Grid of ``points`` energies spanning ``E0 +/- halfwidth * Gamma``.

    ``ValueError`` unless points is a count (``linalg._count``), halfwidth is a
    positive real number with a finite span and
    ``linalg._require_grid`` accepts the grid (a Gamma too small to resolve at
    E0 repeats values); ``OverflowRangeError`` if the peak 1/Gamma overflows.
    """
    points = _count(points, "point count")
    halfwidth = _number(halfwidth, "halfwidth", "positive, with a finite span 2 * halfwidth")
    if not (halfwidth > 0 and 2 * halfwidth < np.inf):
        raise ValueError("halfwidth must be positive, with a finite span 2 * halfwidth")
    _require_finite(1.0 / p.gamma, "the peak 1/Gamma")
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
    E = _numbers(energies, "E")
    d = bw_propagator(E, p)
    if _require_choice(kind, MODEL_KINDS, "model kind") == "pt-pair":
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
