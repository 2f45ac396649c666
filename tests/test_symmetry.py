"""Tests for the antilinear-symmetry check and spectrum classification."""

import time

import numpy as np
import numpy.testing as npt
import pytest

from helpers import conditioned_involution, random_pt_symmetric
from ptresonance import (
    PAULI_X,
    AntilinearSymmetry,
    DefectiveMatrixError,
    check_pt,
    classify_hamiltonian,
    classify_spectrum,
    eig,
    gain_loss_dimer,
    linalg,
)

SIGMA_X = AntilinearSymmetry(PAULI_X)


def test_conditioned_involution_at_n_96():
    """The constructive builder gives a real involution with cond(S) <= 50 at
    n = 96 in well under a second (rejection sampling takes about 80 s
    there), and P conj(B) P^-1 symmetrizes a random B."""
    rng = np.random.default_rng(96)
    start = time.perf_counter()
    P, S = conditioned_involution(rng, 96)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert P.dtype == float and S.dtype == float
    assert np.linalg.cond(S) <= 50.0
    npt.assert_allclose(P @ P, np.eye(96), atol=1e-11)
    D = np.linalg.solve(S, P @ S)  # S^-1 P S, a diagonal of signs
    npt.assert_allclose(D, np.diag(np.sign(np.diag(D))), atol=1e-11)
    B = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    ok, _ = check_pt(B + P @ B.conj() @ np.linalg.inv(P), AntilinearSymmetry(P))
    assert ok


class TestCheckPt:
    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    def test_dimer_family_is_symmetric(self, s):
        ok, residual = check_pt(gain_loss_dimer(s), SIGMA_X)
        assert ok
        assert residual == 0.0

    def test_diagonal_pair_is_symmetric(self):
        ok, _ = check_pt(np.diag([1 + 0.8j, 1 - 0.8j]), SIGMA_X)
        assert ok

    def test_mismatched_diagonal_is_not(self):
        """sigma_x conj-swap of diag(1+i, 2-i) gives diag(2+i, 1-i) != H."""
        ok, residual = check_pt(np.diag([1 + 1j, 2 - 1j]), SIGMA_X)
        assert not ok
        assert residual > 0.1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_pt(np.eye(3), SIGMA_X)

    def test_singular_linear_part_rejected(self):
        with pytest.raises(ValueError):
            AntilinearSymmetry(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_tol_argument_removed(self):
        with pytest.raises(TypeError):
            check_pt(gain_loss_dimer(0.6), SIGMA_X, tol=1e-10)

    def test_random_constructions_pass(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 5):
            H, P = random_pt_symmetric(rng, n)
            ok, residual = check_pt(H, AntilinearSymmetry(P))
            assert ok, residual


class TestClassifySpectrum:
    def test_two_reals(self):
        rep = classify_spectrum([1 + np.sqrt(3), 1 - np.sqrt(3)])
        assert rep.real_values == ((1 - np.sqrt(3), 1), (1 + np.sqrt(3), 1))
        assert rep.conjugate_pairs == ()
        assert not rep.broken

    def test_one_pair(self):
        rep = classify_spectrum([1 + 0.8j, 1 - 0.8j])
        assert rep.real_values == ()
        assert rep.conjugate_pairs == ((1.0, 0.8),)
        assert not rep.broken

    def test_single_real(self):
        rep = classify_spectrum([2.0])
        assert rep.real_values == ((2.0, 1),)
        assert rep.total_multiplicity == 1

    def test_two_unmatched_flagged(self):
        """No conjugate partner within any tolerance below 1."""
        rep = classify_spectrum([1 + 1j, 2 - 1j])
        assert rep.broken
        assert set(rep.unmatched) == {1 + 1j, 2 - 1j}

    def test_multiplicity_sum(self):
        rng = np.random.default_rng(37)
        vals = list(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        vals += [2.0, 2.0, 1 + 3j, 1 - 3j]
        rep = classify_spectrum(vals)
        assert rep.total_multiplicity == len(vals)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        vals = [1 + 0.5j, 1 - 0.5j, 0.3, -2.0, 4 + 1j, 4 - 1j, 0.3]
        rep0 = classify_spectrum(vals)
        for _ in range(5):
            rng.shuffle(vals)
            assert classify_spectrum(vals) == rep0

    def test_idempotence_on_reconstructed_list(self):
        rep = classify_spectrum([1 + 0.5j, 1 - 0.5j, 0.3, -2.0, 5 + 2j])
        again = classify_spectrum(rep.eigenvalue_list())
        assert again == rep

    def test_symmetric_spectra_always_pair(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            H, _ = random_pt_symmetric(rng, n)
            rep = classify_spectrum(np.linalg.eigvals(H))
            assert not rep.broken
            assert rep.total_multiplicity == n

    def test_real_multiplicities_use_the_cluster_rule(self):
        """Real values merge by the defect test's rule, within the radius of
        a cluster's mean, not by a chain of adjacent gaps.  Each value has the
        radius 1e-10 (``RESIDUAL_CAP`` times max|lambda|), so values within 2e-10
        of a cluster's mean join it: the third value is 1.8e-10 from the second
        but 2.7e-10 from the mean of the first two."""
        rep = classify_spectrum([1.0, 1.0 + 1.8e-10, 1.0 + 3.6e-10])
        assert [m for _, m in rep.real_values] == [2, 1]
        npt.assert_allclose([v for v, _ in rep.real_values], [1.00000000009, 1.00000000036],
                            rtol=1e-15)
        assert rep.total_multiplicity == 3

    def test_pairs_are_the_intertwiner_matching(self):
        """Every classified pair is a pair of ``linalg._conjugate_permutation``,
        the matching whose sum leads the intertwiner basis."""
        rng = np.random.default_rng(47)
        for _ in range(40):
            H, _ = random_pt_symmetric(rng, int(rng.integers(2, 9)))
            w = eig(H).eigenvalues
            cut = linalg.RESIDUAL_CAP * np.max(np.abs(w))
            partner = linalg._conjugate_permutation(w, np.full(w.shape, cut))
            rep = classify_spectrum(w)
            matched = {(w[k].real + w[m].real, w[k].imag - w[m].imag)
                       for k, m in enumerate(partner) if w[k].imag > cut and m >= 0}
            assert {(2 * e0, 2 * g) for e0, g in rep.conjugate_pairs} == matched

    def test_value_counted_real_keeps_its_match(self):
        """At the real-value boundary the one matching decides: the value
        counted real is nearer the lower value's conjugate than the upper
        value is, so the matching gives it the lower value, and the upper one
        finds no partner."""
        w = [1 + 0.99999e-10j, 1 - 1.00001e-10j, 1 + 1.00001e-10j]
        rep = classify_spectrum(w)
        assert rep.real_values == ((1.0, 1),)
        assert rep.conjugate_pairs == ()
        assert rep.unmatched == (1 - 1.00001e-10j, 1 + 1.00001e-10j)

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_spectrum([np.nan + 0j])


class TestExceptionalPoint:
    def test_borderline_classified_real_with_annotation(self):
        """At the spectral transition the double value is real, annotated."""
        rep, eigsys = classify_hamiltonian(gain_loss_dimer(1.0))
        assert eigsys.defective
        assert len(rep.real_values) == 1
        value, mult = rep.real_values[0]
        assert mult == 2
        assert value == pytest.approx(1.0, abs=1e-7)
        assert len(rep.exceptional) == 1
        assert rep.exceptional[0][1] == 2
        assert not rep.broken

    def test_clean_matrix_has_no_annotation(self):
        rep, eigsys = classify_hamiltonian(gain_loss_dimer(0.6))
        assert not eigsys.defective
        assert rep.exceptional == ()
        assert rep.conjugate_pairs == ((pytest.approx(1.0), pytest.approx(0.8)),)
