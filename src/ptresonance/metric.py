"""Metric-operator construction and the conserved inner product.

A metric operator V intertwines a Hamiltonian with its adjoint,
``V H = H^dag V``; the sesquilinear form ``<x|V|y>`` is then conserved under
the (generally non-unitary) evolution generated by H.  This module selects
metric candidates from the intertwiner solution space, evaluates inner
products and the orthogonality/closure relations of the eigenbasis, and
certifies pseudo-Hermiticity residuals.
"""

from typing import NamedTuple

import numpy as np

from .errors import DefectiveMatrixError, NoMetricError
from .linalg import (
    RESIDUAL_CAP,
    EigenSystem,
    IntertwinerSpace,
    _as_vector,
    _condition,
    _conjugate_permutation,
    _frobenius,
    _norm2,
    _numbers,
    _radii,
    _require_choice,
    _require_eigenbasis,
    _require_finite,
    _require_invertible,
    _unit,
    as_matrix,
    matrix_to_json,
)

__all__ = [
    "MetricOperator",
    "DualPair",
    "PseudoHermiticityResiduals",
    "build_metric",
    "v_inner",
    "dual_pair",
    "closure_check",
    "verify_pseudo_hermiticity",
    "PAPER_GAUGE_V",
]

POLICIES = ("hermitian-representative", "paper-gauge", "first-basis")

# -i * sigma_y, the antisymmetric unit matrix; the canonical metric of a
# diagonal conjugate-pair two-level system.
PAPER_GAUGE_V = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)

_SEARCH_SAMPLES = 128
# The package's one block budget, 256 KiB, for a stack of n x n matrices
# formed a block at a time.  The metric search scores as many combined
# candidates at once as fit in it (all 128 up to n = 11), and at least 16,
# since each block reads the whole generator stack: blocks of one candidate
# made the search at n = 96 take 1.3 times as long.  No block holds a single
# candidate (128 = q * size + 1 needs a size of 127, which no n gives): numpy
# would take a matrix-vector product for it, which rounds differently from the
# matrix product.  ``evolution.pseudounitarity_residual`` forms U(t) for as
# many times at once as fit in it, and at least one.
_BLOCK_BYTES = 1 << 18
_SEARCH_BLOCK_MIN = 16


class MetricOperator(NamedTuple):
    """An intertwiner V with certification flags.

    ``residual`` is ``||VH - H^dag V||_F / (||V||_F ||H||_F)`` against the
    source Hamiltonian; ``condition_estimate`` is the 2-norm condition number,
    and ``invertible`` its verdict, true for every ``build_metric`` result.
    """

    V: np.ndarray
    hermitian: bool
    invertible: bool
    condition_estimate: float
    residual: float

    def to_json(self) -> dict:
        return {**self._asdict(), "V": matrix_to_json(self.V)}


class DualPair(NamedTuple):
    """A ket with its metric-dual bra ``<R|V``."""

    ket: np.ndarray
    bra: np.ndarray


def dual_pair(ket, V) -> DualPair:
    ket = _as_vector(ket, "ket")
    Vm = _metric_matrix(V, ket.size)
    with np.errstate(over="ignore", invalid="ignore"):
        bra = np.conj(ket) @ Vm
    return DualPair(ket=ket, bra=_require_finite(bra, "bra <ket|V"))


def _metric_matrix(V, n: int) -> np.ndarray:
    """The one door for a metric given to a consumer: the matrix of a
    ``MetricOperator`` or a finite array, refused with ``ValueError`` unless it
    is ``(n, n)`` and invertible by the one verdict, ``linalg._condition``."""
    V = as_matrix(V.V if isinstance(V, MetricOperator) else V)
    if V.shape != (n, n):
        raise ValueError(f"V has shape {V.shape}, expected ({n}, {n})")
    _require_invertible(V, "V")
    return V


# Both checks take one matrix V or a stack of them (the last two axes); a zero
# norm divides as 1.
def _is_hermitian(V: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    V = _unit(V)
    scale = _frobenius(V, (-2, -1))
    skew = _frobenius(V - np.conj(np.swapaxes(V, -2, -1)), (-2, -1))
    return skew / (scale + (scale == 0.0)) <= tol


def _residual_against(H: np.ndarray):
    """The intertwiner residual ``||VH - H^dag V||_F / (||V||_F ||H||_F)`` as a
    function of V (or a stack of them), for V and H at unit scale, as the
    callers give them: H put there once per ``build_metric`` call, and V a
    metric of unit 2-norm, a search candidate (a combination of orthonormal
    generators) or one put there by ``linalg._unit``.  Zero for a zero V or H.
    H's adjoint and Frobenius norm are formed here, once: ``build_metric``
    reads all its residuals from one such function."""
    H_dag, h_norm = H.conj().T, _frobenius(H)
    h_norm = h_norm + (h_norm == 0.0)

    def residual(V: np.ndarray) -> np.ndarray:
        v_norm = _frobenius(V, (-2, -1))
        return _frobenius(V @ H - H_dag @ V, (-2, -1)) / ((v_norm + (v_norm == 0.0)) * h_norm)

    return residual


def _intertwiner_residual(V: np.ndarray, H: np.ndarray) -> np.ndarray:
    """``_residual_against(H)`` at V (or a stack of them), with H's adjoint and
    norm formed for this one call."""
    return _residual_against(H)(V)


def _fix_sign(V: np.ndarray) -> np.ndarray:
    """Deterministic overall sign: trace positive, else first sizable entry."""
    tr = np.trace(V).real
    if abs(tr) > 1e-10 * _frobenius(V):
        return V if tr > 0 else -V
    flat = V.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 1e-10 * np.max(np.abs(flat))))
    pivot = flat[idx]
    key = pivot.real if abs(pivot.real) > 1e-12 * abs(pivot) else pivot.imag
    return V if key > 0 else -V


def _certify(V: np.ndarray, residual, policy: str, unmatched) -> MetricOperator:
    """Certify V against H, whose ``_residual_against`` is ``residual``; a
    singular V, or any V of a spectrum with ``unmatched`` eigenvalues, raises
    ``NoMetricError`` with it."""
    cond, invertible = _condition(V)
    if not invertible or len(unmatched):
        err = NoMetricError(
            f"no invertible metric operator: the {policy} candidate has smallest "
            f"singular value {1.0 / cond:.3g} at unit spectral norm" if not invertible else
            "no invertible metric operator: eigenvalues "
            + ", ".join(f"{z:.6g}" for z in unmatched)
            + " have no conjugate partner within the backward error"
        )
        err.best_candidate = V
        raise err
    return MetricOperator(
        V=V,
        hermitian=bool(_is_hermitian(V)),
        invertible=invertible,
        condition_estimate=cond,
        residual=float(residual(V)),
    )


def build_metric(
    eigsys: EigenSystem,
    space: IntertwinerSpace,
    policy: str = "hermitian-representative",
    *,
    H,
) -> MetricOperator:
    """Select a metric operator from the intertwiner solution space.

    Policies
    --------
    ``hermitian-representative``
        Searches real linear combinations of the basis elements and their
        adjoints (all Hermitian by construction) and keeps the one that
        maximizes the smallest singular value at unit spectral norm.  The
        candidates are scored by their eigenvalues, whose absolute values are
        their singular values; only the winner takes an SVD, for its norm.
        The generators are scored as one batch and their combinations in
        blocks of 256 KiB or 16 candidates, whichever holds more, so the
        search holds the generators, one block and a copy of the leader,
        never all candidates at once.
        The nonzero and residual filters each look at one candidate, so they
        run only on a candidate that would take the lead; every residual of
        a call reads H's adjoint and norm, formed once.
        The Hermitian part of ``basis[0]``, the matching sum ``L^dag P L``,
        comes first and wins ties, so a Hermitian Hamiltonian with
        orthonormal eigenvectors yields the identity.
    ``paper-gauge``
        The exact ``[[0, -1], [1, 0]]``, for a 2x2 H that it intertwines within
        the residual cap, as the search's candidates must: ``[[a, i beta],
        [i gamma, conj(a)]]`` with real beta and gamma; else ``ValueError``.
    ``first-basis``
        First intertwiner basis element, normalized: for a non-defective
        spectrum, the sum over a conjugate matching (see ``solve_intertwiner``).

    The residual cap is ``RESIDUAL_CAP`` plus the intertwiner residual of the
    pairing's own metric ``L^dag P L`` (P from the pairing verdict,
    ``linalg._conjugate_permutation``), which its pairs' gaps leave.

    The result is normalized to unit spectral norm with a deterministic sign
    and certified (Hermiticity, condition number, intertwiner residual)
    against ``H``, a required keyword: the Hamiltonian of ``eigsys`` and
    ``space``, whose sizes must agree (else ``ValueError``).  Under every
    policy a V above ``linalg._CONDITION_CAP``, the one invertibility
    verdict, raises ``NoMetricError`` with it as
    ``best_candidate``, and so does any V of a spectrum with unmatched
    values, which ``classify`` reports broken; a defective ``eigsys`` raises
    ``DefectiveMatrixError``.  Every residual reads H at unit scale
    (``linalg._unit``), so none depends on the units of H.
    """
    _require_choice(policy, POLICIES, "policy")
    _require_eigenbasis(eigsys)
    if space.dimension < 1:
        raise NoMetricError("empty intertwiner space: no solution of V H = H^dag V")

    H = _unit(as_matrix(H))  # once per call, for every residual below
    residual = _residual_against(H)
    n = H.shape[0]
    sizes = (n, eigsys.n, len(space.basis[0]))
    if len(set(sizes)) > 1:
        raise ValueError("H, eigsys and space must be of one size, got n = %d, %d and %d" % sizes)
    w, L = eigsys.eigenvalues, eigsys.left
    perm = _conjugate_permutation(w, _radii(eigsys.kappa, eigsys.norm))
    unmatched = w[perm < 0]
    cap = RESIDUAL_CAP + (0.0 if len(unmatched) else
                          residual(_unit(L.conj().T @ L[perm])))

    if policy == "paper-gauge":
        if n != 2 or residual(PAPER_GAUGE_V) > cap:
            raise ValueError("paper-gauge needs a 2x2 H that [[0, -1], [1, 0]] intertwines")
        return _certify(PAPER_GAUGE_V.copy(), residual, policy, unmatched)

    if policy == "first-basis":
        V = space.basis[0]
        return _certify(_fix_sign(V / _norm2(V)), residual, policy, unmatched)

    # hermitian-representative: Hermitian candidates in a fixed order (the
    # Hermitian and anti-Hermitian parts of each basis element, then seeded
    # random real combinations of those parts); the first strict winner on
    # the smallest singular value at unit norm is kept.  The generators are
    # built in place, without stacking the basis and its adjoints.
    k = space.dimension
    gens = np.empty((k, 2, n, n), dtype=complex)
    for b, (herm, anti) in zip(space.basis, gens):
        np.conjugate(b.T, out=anti)
        np.add(b, anti, out=herm)
        np.subtract(b, anti, out=anti)
        herm /= 2.0
        anti /= 2.0j
    gens = gens.reshape(2 * k, n, n)
    coeffs = np.random.default_rng(20250513).standard_normal((_SEARCH_SAMPLES, 2 * k))
    size = max(_SEARCH_BLOCK_MIN, _BLOCK_BYTES // gens[0].nbytes)

    best = None
    best_score = -1.0
    for cand in _candidate_blocks(gens, coeffs, size):
        s = np.abs(np.linalg.eigvalsh(cand))
        smax = s.max(axis=1)
        score = s.min(axis=1) / np.where(smax >= 1e-14, smax, 1.0)
        for j, score_j in enumerate(score.tolist()):
            if score_j > best_score * (1.0 + 1e-9) and smax[j] >= 1e-14:
                if residual(cand[j]) <= cap:
                    best, best_score = cand[j].copy(), score_j

    if best is None:
        raise NoMetricError("no Hermitian intertwiner found in the searched combinations")
    # Normalize the winner by its largest singular value, not by its largest
    # eigenvalue, so that V does not depend on the eigensolver.
    return _certify(_fix_sign(best / _norm2(best)), residual, policy, unmatched)


def _candidate_blocks(gens: np.ndarray, coeffs: np.ndarray, size: int):
    """The search candidates in order: the generators as one block, then
    their combinations ``coeffs @ gens``, ``size`` rows of ``coeffs`` at a
    time."""
    yield gens
    for start in range(0, len(coeffs), size):
        yield np.tensordot(coeffs[start : start + size], gens, axes=1)


def v_inner(x, y, V) -> complex:
    """Metric inner product ``x^dag V y``; reduces to Dirac for V = I."""
    x = _as_vector(x, "x and y", what="vectors of one length")
    y = _as_vector(y, "x and y", x.size, what="vectors of one length")
    Vm = _metric_matrix(V, x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.vdot(x, Vm @ y)
    return complex(_require_finite(value, "inner product x^dag V y"))


def closure_check(kets, bras) -> float:
    """Residual of the signed outer-product completeness relation.

    Builds the inner-product (Gram) matrix ``G_ij = bras_i . kets_j`` and
    returns ``|| sum_ij (G^-1)_ij |ket_i><bra_j| - I ||_F``: the dual-basis
    resolution of the identity, which reduces to the signed two-term sum for
    a conjugate-pair system where G is a signed permutation.  The bras carry
    the metric (``<ket|V``, see ``dual_pair``); n kets and bras of length n.
    The kets and the bras are each put at unit scale (``linalg._unit``), which
    leaves the relation unchanged.  A G that is singular by the package's one
    invertibility verdict (condition number above ``linalg._CONDITION_CAP``)
    raises ``DefectiveMatrixError``, and a residual beyond the double range
    ``OverflowRangeError``: a well-conditioned G of subnormal entries can
    still overflow its inverse.
    """
    K, B = (_numbers(x, "kets and bras", complex) for x in (kets, bras))
    n = K.shape[-1] if K.ndim else 0  # the length of a ket
    if K.shape != (n, n) or B.shape != (n, n):
        raise ValueError(f"need {n} kets and {n} bras of length {n}, got {K.shape}/{B.shape}")
    K, B = _unit(K.T), _unit(B)
    G = B @ K
    cond, invertible = _condition(G)
    if not invertible:
        raise DefectiveMatrixError(
            f"inner-product matrix is singular (condition estimate {cond:.3g}); "
            "the kets/bras do not form a complete dual system"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(_frobenius(K @ np.linalg.solve(G, np.eye(n)) @ B - np.eye(n)))
    return _require_finite(residual, "closure residual")


class PseudoHermiticityResiduals(NamedTuple):
    intertwiner: float  # ||VH - H^dag V|| / (||V|| ||H||)
    similarity: float  # ||V H V^-1 - H^dag|| / ||H||


def verify_pseudo_hermiticity(H, V) -> PseudoHermiticityResiduals:
    """Both normalized residuals of the pseudo-Hermiticity condition, from H
    and V at unit scale (``linalg._unit``): neither changes when H or V is
    rescaled, and both are finite."""
    H = as_matrix(H)
    V, H = _unit(_metric_matrix(V, H.shape[0])), _unit(H)
    sim = float(_frobenius(V @ H @ np.linalg.inv(V) - H.conj().T)) / (float(_frobenius(H)) or 1.0)
    inter = float(_intertwiner_residual(V, H))
    return PseudoHermiticityResiduals(intertwiner=inter, similarity=sim)
