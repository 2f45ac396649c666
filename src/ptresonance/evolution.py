"""Time evolution under non-Hermitian generators.

States evolve by the spectral formula ``psi(t) = U(t) psi0`` with
``U(t) = exp(-i H t)``; the Dirac norm is generally *not* conserved, while
the metric inner product ``<psi|V|psi>`` is whenever ``V H = H^dag V``.
The module tracks both norms, measures the pseudounitarity residual
``V^-1 U^dag(t) V U(t) - I``, and runs the two-channel excitation/decay
scenario of a balanced gain/loss level pair.
"""

from typing import NamedTuple

import numpy as np

from .linalg import (
    _as_vector,
    _Checked,
    _frobenius,
    _require_finite,
    _require_grid,
    _spectral_phases,
    _unit,
    as_matrix,
    eig,
    mat_exp_evolution,
)
from .metric import PAPER_GAUGE_V, _metric_matrix
from .response import ResonanceParams

__all__ = [
    "StateTrajectory",
    "PseudoUnitarityResult",
    "TwoLevelResult",
    "evolve",
    "pseudounitarity_residual",
    "two_level_hamiltonian",
    "two_level_scenario",
]


class StateTrajectory(_Checked, NamedTuple("StateTrajectory", [
        ("times", np.ndarray), ("states", np.ndarray), ("dirac_norms", np.ndarray),
        ("v_norms", np.ndarray | None)])):
    """States on a time grid with their Dirac- and V-norm tracks.

    ``states[k]`` is psi(times[k]), shape ``(len(times), n)``; ``v_norms`` is
    ``None`` when no metric was supplied.
    """

    __slots__ = ()

    def __new__(cls, times, states, dirac_norms, v_norms):
        if len(times) != states.shape[0]:
            raise ValueError("times and states lengths disagree")
        if len(times) != len(dirac_norms):
            raise ValueError("times and dirac_norms lengths disagree")
        if v_norms is not None and len(v_norms) != len(times):
            raise ValueError("times and v_norms lengths disagree")
        _require_grid(times)
        return super().__new__(cls, times, states, dirac_norms, v_norms)


def evolve(H, psi0, times, V=None) -> StateTrajectory:
    """Evolve psi0 on a time grid via the spectral formula.

    Parameters
    ----------
    H : array_like, square
        Generator; must have a complete (non-defective) spectrum.
    psi0 : array_like
        Initial state.
    times : array_like
        Finite, strictly ascending time grid.
    V : optional
        Metric operator (matrix or MetricOperator) of H's size, invertible;
        fills the v_norms track.

    A state or norm beyond the double range raises ``OverflowRangeError``.
    """
    H = as_matrix(H)
    psi0 = _as_vector(psi0, "psi0", H.shape[0])
    t = _require_grid(times)

    eigsys = eig(H)
    # the phases first: their guards refuse a defective or overflowing H
    phases = _spectral_phases(eigsys, t)
    Vm = None if V is None else _metric_matrix(V, H.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        states = (phases * (eigsys.left @ psi0)) @ eigsys.right.T  # (T, n)
        dirac = _require_finite(np.einsum("ti,ti->t", np.conj(states), states).real,
                                "state check: a state or its Dirac norm")
        v_norms = None if Vm is None else _require_finite(
            np.einsum("ti,ij,tj->t", np.conj(states), Vm, states), "state check: a V-norm")
    return StateTrajectory(times=t, states=states, dirac_norms=dirac, v_norms=v_norms)


class PseudoUnitarityResult(NamedTuple):
    residuals: np.ndarray
    maximum: float


def pseudounitarity_residual(H, V, times) -> PseudoUnitarityResult:
    """Residual curve of ``V^-1 U^dag(t) V U(t) = I`` and its maximum."""
    H = as_matrix(H)
    Vm = _metric_matrix(V, H.shape[0])
    t = _require_grid(times)
    U = mat_exp_evolution(eig(H), t)  # U[k] = U(t_k)
    UH = np.conj(np.swapaxes(U, 1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = _frobenius(np.linalg.inv(Vm) @ UH @ Vm @ U - np.eye(H.shape[0]), (-2, -1))
    _require_finite(residuals, "pseudounitarity residual")
    return PseudoUnitarityResult(residuals=residuals, maximum=float(np.max(residuals)))


def two_level_hamiltonian(e0: float, gamma: float) -> np.ndarray:
    """Diagonal two-channel generator ``diag(E0 + i Gamma, E0 - i Gamma)``."""
    p = ResonanceParams(e0, gamma)
    return np.array([[p.e0 + 1j * p.gamma, 0.0], [0.0, p.e0 - 1j * p.gamma]], dtype=complex)


class TwoLevelResult(NamedTuple):
    """Two-channel run: growth/decay populations and both norm tracks.

    The two components are the *transition* channels of a level pair: the
    first is excitation (growing, transition energy E0 + i Gamma), which
    pumps the upper level, and the second decay (damped, E0 - i Gamma), which
    depletes it; they are not the populations of the ground and excited
    levels themselves.  ``dirac_conserved`` is False for any nonzero state
    while ``v_conserved`` holds, which is the point of the scenario.
    """

    trajectory: StateTrajectory
    populations: np.ndarray  # (T, 2): |c1|^2, |c2|^2
    dirac_sum: np.ndarray
    v_norms: np.ndarray
    dirac_conserved: bool
    v_conserved: bool


def two_level_scenario(e0: float, gamma: float, psi0, times) -> TwoLevelResult:
    """Evolve a two-channel excitation/decay pair and report both norms.

    The generator is ``diag(E0 + i Gamma, E0 - i Gamma)`` with the
    antisymmetric unit metric; component 1 grows like ``exp(2 Gamma t)``
    (excitation channel), component 2 decays like ``exp(-2 Gamma t)``, and
    the metric inner product stays at its initial value.  Both verdicts are
    judged on the states at unit scale (``linalg._unit``), so they do not
    depend on the magnitude of psi0.
    """
    H = two_level_hamiltonian(e0, gamma)
    traj = evolve(H, psi0, times, V=PAPER_GAUGE_V)
    populations = np.abs(traj.states) ** 2
    dirac_sum = populations.sum(axis=1)
    # both tracks from the states at unit scale; the natural noise floor of
    # <psi|V|psi> is set by the state magnitude, not by the (possibly
    # identically zero) v-norm track itself
    u = _unit(traj.states)
    tracks = (np.abs(u) ** 2).sum(axis=1), np.einsum("ti,ij,tj->t", np.conj(u), PAPER_GAUGE_V, u)
    scale = float(np.max(tracks[0]))
    dirac_conserved, v_conserved = (bool(np.max(np.abs(x - x[0])) <= 1e-9 * scale) for x in tracks)
    return TwoLevelResult(
        trajectory=traj,
        populations=populations,
        dirac_sum=dirac_sum,
        v_norms=traj.v_norms,
        dirac_conserved=dirac_conserved,
        v_conserved=v_conserved,
    )
