"""Tests for state evolution, norm tracks, pseudounitarity and the
two-channel scenario."""

import numpy as np
import numpy.testing as npt
import pytest

from helpers import random_complex_matrix, random_pt_symmetric
from ptresonance import (
    PAPER_GAUGE_V,
    DefectiveMatrixError,
    OverflowRangeError,
    StateTrajectory,
    build_metric,
    eig,
    evolve,
    gain_loss_dimer,
    mat_exp_evolution,
    pseudounitarity_residual,
    solve_intertwiner,
    two_level_hamiltonian,
    two_level_scenario,
)

DIAG_PAIR = np.diag([1 + 0.8j, 1 - 0.8j])
TIMES = np.linspace(0.0, 5.0, 201)


class TestEvolve:
    def test_hermitian_dirac_norm_constant(self):
        rng = np.random.default_rng(73)
        A = random_complex_matrix(rng, 3)
        H = (A + A.conj().T) / 2
        psi0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        traj = evolve(H, psi0, TIMES)
        npt.assert_allclose(traj.dirac_norms, traj.dirac_norms[0], rtol=1e-12)

    def test_growing_channel_closed_form(self):
        """Component on the gain eigenvalue: |psi|^2 = exp(2 * 0.8 * t)."""
        traj = evolve(DIAG_PAIR, np.array([1.0, 0.0]), TIMES)
        npt.assert_allclose(traj.dirac_norms, np.exp(1.6 * TIMES), rtol=1e-11)

    def test_v_norm_constant_cross_terms(self):
        """Time factors exp(+/- Gamma t) cancel in the cross terms."""
        traj = evolve(DIAG_PAIR, np.array([1.0, 1.0]), TIMES, V=PAPER_GAUGE_V)
        assert traj.v_norms is not None
        npt.assert_allclose(traj.v_norms, traj.v_norms[0], atol=1e-10)

    def test_v_norm_finite_difference_drift(self):
        """d/dt <psi|V|psi> = 0: per-step drift below 1e-8 at step 1e-3."""
        H = gain_loss_dimer(0.6)
        op = build_metric(eig(H), solve_intertwiner(H), H=H)
        grid = np.arange(0.0, 5.0 + 5e-4, 1e-3)
        rng = np.random.default_rng(79)
        for _ in range(5):
            psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            traj = evolve(H, psi0, grid, V=op.V)
            assert np.max(np.abs(np.diff(traj.v_norms))) <= 1e-8

    def test_log_dirac_slope(self):
        """Eigenvector initial data: log norm is linear with slope +/- 2 Gamma."""
        for k, sign in ((0, +1.0), (1, -1.0)):
            psi0 = np.zeros(2, dtype=complex)
            psi0[k] = 1.0
            traj = evolve(DIAG_PAIR, psi0, TIMES)
            slopes = np.diff(np.log(traj.dirac_norms)) / np.diff(TIMES)
            npt.assert_allclose(slopes, sign * 1.6, atol=1e-8)

    def test_defective_rejected(self):
        with pytest.raises(DefectiveMatrixError):
            evolve(gain_loss_dimer(1.0), np.array([1.0, 0.0]), TIMES)

    def test_overflow_guard(self):
        with pytest.raises(OverflowRangeError):
            evolve(DIAG_PAIR, np.array([1.0, 0.0]), np.linspace(0.0, 400.0, 11))

    def test_validation(self):
        with pytest.raises(ValueError):
            evolve(DIAG_PAIR, np.array([1.0, 0.0, 0.0]), TIMES)
        with pytest.raises(ValueError):
            evolve(DIAG_PAIR, np.array([1.0, 0.0]), [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            evolve(DIAG_PAIR, np.array([1.0, 0.0]), TIMES, V=np.eye(3))

    def test_non_finite_psi0_rejected(self):
        with pytest.raises(ValueError, match="psi0 must be finite"):
            evolve(DIAG_PAIR, np.array([np.nan, 0.0]), TIMES)

    def test_trajectory_lengths_checked(self):
        t, states, norms = np.array([0.0, 1.0]), np.zeros((2, 2), complex), np.ones(2)
        with pytest.raises(ValueError, match="times and states"):
            StateTrajectory(times=t, states=states[:1], dirac_norms=norms, v_norms=None)
        with pytest.raises(ValueError, match="times and dirac_norms"):
            StateTrajectory(times=t, states=states, dirac_norms=norms[:1], v_norms=None)
        with pytest.raises(ValueError, match="times and v_norms"):
            StateTrajectory(times=t, states=states, dirac_norms=norms, v_norms=norms[:1])


class TestPseudoUnitarity:
    def test_hermitian_with_identity_metric(self):
        H = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
        result = pseudounitarity_residual(H, np.eye(2), TIMES)
        assert result.maximum <= 1e-12

    def test_diagonal_pair_with_gauge_metric(self):
        result = pseudounitarity_residual(DIAG_PAIR, PAPER_GAUGE_V, TIMES)
        assert result.maximum <= 1e-10

    def test_dimer_with_built_metric(self):
        H = gain_loss_dimer(0.6)
        op = build_metric(eig(H), solve_intertwiner(H), H=H)
        result = pseudounitarity_residual(H, op.V, TIMES)
        assert result.maximum <= 1e-10
        assert result.residuals.shape == TIMES.shape

    def test_dirac_norm_not_conserved_meanwhile(self):
        H = gain_loss_dimer(0.6)
        es = eig(H)
        U = mat_exp_evolution(es, 1.0)
        assert np.linalg.norm(U.conj().T @ U - np.eye(2)) >= 0.1

    def test_singular_metric_rejected(self):
        with pytest.raises(ValueError):
            pseudounitarity_residual(DIAG_PAIR, np.zeros((2, 2)), TIMES)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_batch_matches_per_time_loop(self, n):
        """The batched residuals equal the per-time formula up to the order
        of the Frobenius-norm sum."""
        H, _ = random_pt_symmetric(np.random.default_rng(97 + n), n)
        H = H / np.linalg.norm(H, 2)
        es = eig(H)
        V = build_metric(es, solve_intertwiner(H), H=H).V
        times = np.linspace(-2.0, 3.0, 41)
        V_inv = np.linalg.inv(V)
        expected = [
            np.linalg.norm(V_inv @ U.conj().T @ V @ U - np.eye(n), "fro")
            for U in (mat_exp_evolution(es, t) for t in times)
        ]
        npt.assert_allclose(pseudounitarity_residual(H, V, times).residuals, expected, rtol=1e-14)

    def test_defect_and_overflow_rejected(self):
        with pytest.raises(DefectiveMatrixError):
            pseudounitarity_residual(gain_loss_dimer(1.0), np.eye(2), TIMES)
        with pytest.raises(OverflowRangeError):
            pseudounitarity_residual(DIAG_PAIR, PAPER_GAUGE_V, np.linspace(0.0, 400.0, 5))


class TestTwoLevelScenario:
    def test_pure_decay(self):
        res = two_level_scenario(1.0, 0.8, np.array([0.0, 1.0]), TIMES)
        npt.assert_allclose(res.populations[:, 1], np.exp(-1.6 * TIMES), rtol=1e-11)
        npt.assert_allclose(res.populations[:, 0], 0.0, atol=1e-30)

    def test_pure_growth(self):
        res = two_level_scenario(1.0, 0.8, np.array([1.0, 0.0]), TIMES)
        npt.assert_allclose(res.populations[:, 0], np.exp(+1.6 * TIMES), rtol=1e-11)

    def test_balanced_state_conserves_v_norm(self):
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        res = two_level_scenario(1.0, 0.8, psi0, TIMES)
        npt.assert_allclose(res.v_norms, res.v_norms[0], atol=1e-12)
        assert res.v_conserved
        assert not res.dirac_conserved

    def test_flags_and_labels(self):
        res = two_level_scenario(1.0, 0.8, np.array([0.3, 1.0j]), TIMES)
        assert res.v_conserved and not res.dirac_conserved

    def test_overflow_guard(self):
        with pytest.raises(OverflowRangeError):
            two_level_scenario(1.0, 1.0, np.array([1.0, 0.0]), np.linspace(0, 301, 5))

    def test_hamiltonian_builder(self):
        H = two_level_hamiltonian(1.0, 0.8)
        npt.assert_array_equal(H, DIAG_PAIR)
        with pytest.raises(ValueError):
            two_level_hamiltonian(1.0, -0.5)
