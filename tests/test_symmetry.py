"""Tests for the antilinear-symmetry check and spectrum classification."""

import numpy as np
import numpy.testing as npt
import pytest

from helpers import random_pt_symmetric
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
    pt_unbroken,
    symmetry,
)

SIGMA_X = AntilinearSymmetry(PAULI_X)


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
        a cluster's mean, not by a chain of adjacent gaps: the third value is
        0.9e-9 from the second but 1.35e-9 from the mean of the first two."""
        rep = classify_spectrum([1.0, 1.0 + 0.9e-9, 1.0 + 1.8e-9])
        assert [m for _, m in rep.real_values] == [2, 1]
        npt.assert_allclose([v for v, _ in rep.real_values], [1.00000000045, 1.0000000018],
                            rtol=1e-15)
        assert rep.total_multiplicity == 3

    def test_pairs_are_the_intertwiner_matching(self):
        """Every classified pair is a pair of ``linalg._conjugate_partners``,
        the matching whose sum leads the intertwiner basis."""
        rng = np.random.default_rng(47)
        for _ in range(40):
            H, _ = random_pt_symmetric(rng, int(rng.integers(2, 9)))
            w = eig(H).eigenvalues
            partner = linalg._conjugate_partners(w)
            rep = classify_spectrum(w)
            cut = symmetry.DEFAULT_CLASSIFY_TOL * np.max(np.abs(w))
            matched = {(w[k].real + w[m].real, w[k].imag - w[m].imag)
                       for k, m in enumerate(partner) if w[k].imag > cut and m >= 0}
            assert {(2 * e0, 2 * g) for e0, g in rep.conjugate_pairs} == matched

    def test_value_counted_real_keeps_its_match(self):
        """At the real-value boundary the one matching decides: the value
        counted real is nearer the lower value's conjugate than the upper
        value is, so the matching gives it the lower value, and the upper one
        finds no partner."""
        w = [1 + 0.99999e-9j, 1 - 1.00001e-9j, 1 + 1.00001e-9j]
        rep = classify_spectrum(w)
        assert rep.real_values == ((1.0, 1),)
        assert rep.conjugate_pairs == ()
        assert rep.unmatched == (1 - 1.00001e-9j, 1 + 1.00001e-9j)

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_spectrum([np.nan + 0j])
        with pytest.raises(ValueError):
            classify_spectrum([1.0], tol=0.0)
        for tol in (np.nan, np.inf, -np.inf, -1e-9):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                classify_spectrum([1.0 + 1e-3j, 1.0 - 1e-3j], tol=tol)
        # |Im| <= max|lambda|: from tol = 1 on, the pair would be one real value
        for tol in (1.0, 1e308):
            with pytest.raises(ValueError, match="tol must be below 1"):
                classify_spectrum([1.0 + 1e-3j, 1.0 - 1e-3j], tol=tol)


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


class TestUnbrokenPhase:
    def test_real_spectrum_unbroken(self):
        H = gain_loss_dimer(2.0)
        assert pt_unbroken(SIGMA_X, eig(H))

    def test_complex_pair_broken(self):
        """The antilinear map swaps the two eigenvectors of a conjugate pair."""
        H = gain_loss_dimer(0.6)
        assert not pt_unbroken(SIGMA_X, eig(H))

    def test_hermitian_with_trivial_linear_part(self):
        H = np.diag([1.0, 2.0]).astype(complex)
        sym = AntilinearSymmetry(np.eye(2))
        assert pt_unbroken(sym, eig(H))

    def test_defective_rejected(self):
        H = gain_loss_dimer(1.0)
        with pytest.raises(DefectiveMatrixError):
            pt_unbroken(SIGMA_X, eig(H))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pt_unbroken(SIGMA_X, eig(np.eye(3)))

    def test_hamiltonian_and_tol_arguments_removed(self):
        """The eigensystem carries H's size; the tolerance is fixed."""
        H = gain_loss_dimer(2.0)
        with pytest.raises(TypeError):
            pt_unbroken(H, SIGMA_X, eig(H))
        with pytest.raises(TypeError):
            pt_unbroken(SIGMA_X, eig(H), tol=1e-8)

    def test_matches_real_spectrum_criterion(self):
        rng = np.random.default_rng(47)
        hits = {True: 0, False: 0}
        for _ in range(40):
            n = int(rng.integers(2, 5))
            H, P = random_pt_symmetric(rng, n)
            eigsys = eig(H)
            if eigsys.defective:
                continue
            expected = bool(np.all(np.abs(eigsys.eigenvalues.imag) <= 1e-8))
            got = pt_unbroken(AntilinearSymmetry(P), eigsys)
            assert got == expected
            hits[expected] += 1
        # the draw must have exercised both phases
        assert hits[True] > 0 and hits[False] > 0
