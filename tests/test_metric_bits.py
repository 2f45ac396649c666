"""The dense metric path returns the bits of its reference forms.

``eig``, ``solve_intertwiner`` and ``build_metric`` read the 2-norm and the
condition number from one SVD call, form the H side of the intertwiner
residual once per ``build_metric`` call, and run the Schur correction's
products by a fixed right factor as one product of the stacked rows.  The
reference forms are kept here: ``np.linalg.norm(M, 2)`` and
``np.linalg.cond(M, 2)``, the residual formed from H on every call,
``tensordot`` for the correction's prefix sums and batched products for its
fixed right factors, and the metric search with ``tensordot`` combinations.
The intertwiner basis, V and ``(condition_estimate, residual)`` must equal
theirs bit for bit.  V's bits depend on the BLAS thread count, so the pin
holds within one setting: CI runs this file with the tier-1 tests and again
at two BLAS threads.
"""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from helpers import conditioned_involution, random_complex_matrix
from ptresonance import build_metric, eig, linalg, metric, solve_intertwiner
from ptresonance.linalg import (
    RESIDUAL_CAP,
    _conjugate_permutation,
    _frobenius,
    _radii,
    _unit,
)


def _ref_residual(V, H):
    """The intertwiner residual with H's adjoint and norm formed per call."""
    v_norm, h_norm = (x + (x == 0.0) for x in (_frobenius(V, (-2, -1)), _frobenius(H)))
    return _frobenius(V @ H - H.conj().T @ V, (-2, -1)) / (v_norm * h_norm)


def _ref_null_space_correction(res, H, right, paired, pin):
    """The Schur correction with batched right products and ``tensordot``."""
    n = H.shape[0]
    U, _ = np.linalg.qr(right)
    S = np.triu(U.conj().T @ H @ U)
    Y = np.moveaxis(U.conj().T @ res @ U, 2, 0).copy()
    eye, SH = np.eye(n), S.conj().T
    for c in range(n):
        A = S[c, c] * eye - SH
        rhs = Y[c] - np.tensordot(S[:c, c], Y[:c], axes=(0, 0))
        free = paired[:, c]
        A[free, :] = 0.0
        A[free, free] = pin
        rhs[:, free] = 0.0
        Y[c] = np.linalg.solve(A, rhs.T).T
    Y = U @ np.moveaxis(Y, 0, 2)
    return Y @ U.conj().T


def _ref_metric(eigsys, space, policy, H):
    """``(V, condition_estimate, residual)`` of ``build_metric`` for a paired
    spectrum, from the reference forms."""
    H = _unit(linalg.as_matrix(H))
    n = H.shape[0]
    w, L = eigsys.eigenvalues, eigsys.left
    perm = _conjugate_permutation(w, _radii(eigsys.kappa, eigsys.norm))
    assert (perm >= 0).all()
    cap = RESIDUAL_CAP + _ref_residual(_unit(L.conj().T @ L[perm]), H)
    if policy == "first-basis":
        best = space.basis[0]
    else:
        k = space.dimension
        gens = np.empty((k, 2, n, n), dtype=complex)
        for b, (herm, anti) in zip(space.basis, gens):
            np.conjugate(b.T, out=anti)
            np.add(b, anti, out=herm)
            np.subtract(b, anti, out=anti)
            herm /= 2.0
            anti /= 2.0j
        gens = gens.reshape(2 * k, n, n)
        coeffs = np.random.default_rng(20250513).standard_normal((128, 2 * k))
        size = max(metric._SEARCH_BLOCK_MIN, metric._BLOCK_BYTES // gens[0].nbytes)
        blocks = [gens] + [np.tensordot(coeffs[s : s + size], gens, axes=1)
                           for s in range(0, len(coeffs), size)]
        best, best_score = None, -1.0
        for cand in blocks:
            s = np.abs(np.linalg.eigvalsh(cand))
            smax = s.max(axis=1)
            score = s.min(axis=1) / np.where(smax >= 1e-14, smax, 1.0)
            for j, score_j in enumerate(score.tolist()):
                if score_j > best_score * (1.0 + 1e-9) and smax[j] >= 1e-14:
                    if _ref_residual(cand[j], H) <= cap:
                        best, best_score = cand[j].copy(), score_j
    V = metric._fix_sign(best / np.linalg.norm(best, 2))
    return V, float(np.linalg.cond(V, 2)), float(_ref_residual(V, H))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "unit-norm"])
@pytest.mark.parametrize("n", [2, 8, 16, 32, 64, 96])
def test_metric_path_keeps_the_reference_bits(n, scaled, monkeypatch):
    rng = np.random.default_rng(n)
    P, _ = conditioned_involution(rng, n)
    B = random_complex_matrix(rng, n)
    H = B + P @ B.conj() @ np.linalg.inv(P)
    if scaled:
        H = H / np.linalg.norm(H, 2)
    eigsys, space = eig(H), solve_intertwiner(H)

    corrections = []

    def reference_correction(*args):
        corrections.append(args[0].shape)
        return _ref_null_space_correction(*args)

    with monkeypatch.context() as m:
        m.setattr(linalg, "_norm2", lambda M: np.linalg.norm(M, 2))
        m.setattr(linalg, "_null_space_correction", reference_correction)
        ref_eigsys, ref_space = eig(H), solve_intertwiner(H)
    if n >= 16:  # the inputs exercise the correction
        assert corrections
    for field in ("eigenvalues", "right", "left", "kappa", "residual", "norm"):
        npt.assert_array_equal(_bits(getattr(eigsys, field)), _bits(getattr(ref_eigsys, field)))
    npt.assert_array_equal(_bits(np.stack(space.basis)), _bits(np.stack(ref_space.basis)))

    for policy in ("hermitian-representative", "first-basis"):
        op = build_metric(eigsys, space, policy, H=H)
        V, cond, residual = _ref_metric(eigsys, space, policy, H)
        npt.assert_array_equal(_bits(op.V), _bits(V))
        npt.assert_array_equal(_bits([op.condition_estimate, op.residual]), _bits([cond, residual]))


class TestConditionMatchesNumpy:
    """``linalg._condition`` gives ``np.linalg.cond(M, 2)`` bit for bit, with
    the verdict on it, and leaks no numpy warning."""

    @pytest.mark.parametrize(
        "M, invertible",
        [
            (np.zeros((3, 3)), False),
            (np.array([[1.0, 2.0], [2.0, 4.0]]), False),
            (np.eye(4), True),
            (np.diag([1e12, 1.0]), True),
            (np.diag([np.nextafter(1e12, np.inf), 1.0]), False),
            (np.diag([1.0, 5e-324]), False),
            (np.diag([1e300, 1e-300]), False),
        ],
        ids=["zero", "singular", "identity", "cap", "above-cap", "subnormal", "overflow"],
    )
    def test_same_value_and_verdict(self, M, invertible):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cond, verdict = linalg._condition(M.astype(complex))
            reference = float(np.linalg.cond(M.astype(complex), 2))
        assert _bits(cond) == _bits(reference)
        assert verdict is invertible
        assert verdict == (reference <= linalg._CONDITION_CAP)

    def test_random_matrices(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            M = random_complex_matrix(rng, n, 10.0 ** rng.uniform(-300, 300))
            M[:, : int(rng.integers(0, 2))] = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _bits(linalg._condition(M)[0]) == _bits(float(np.linalg.cond(M, 2)))
                assert _bits(linalg._norm2(M)) == _bits(np.linalg.norm(M, 2))
