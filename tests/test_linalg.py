"""Tests for the eigendecomposition, intertwiner solver and evolution operator."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from helpers import (
    kron_intertwiner,
    quadratic_eigenvalues,
    random_complex_matrix,
    random_pt_symmetric,
)
from ptresonance import linalg
from ptresonance import (
    PAPER_GAUGE_V,
    PAULI_X,
    AntilinearSymmetry,
    DefectCluster,
    DefectiveMatrixError,
    OverflowRangeError,
    ResonanceParams,
    SecondOrderIVP,
    StateTrajectory,
    as_matrix,
    build_metric,
    characteristic_roots,
    check_pt,
    classify_hamiltonian,
    classify_spectrum,
    closure_check,
    damped_oscillator_ivp,
    default_energy_grid,
    dual_pair,
    eig,
    evolve,
    gain_loss_dimer,
    integrate,
    mat_exp_evolution,
    matrix_from_json,
    matrix_to_json,
    pseudounitarity_residual,
    pt_wave_ivp,
    solve_intertwiner,
    two_level_hamiltonian,
    two_level_scenario,
    v_inner,
    verify_pseudo_hermiticity,
)

NON_FINITE = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


class TestDerivedFields:
    """``EigenSystem.defective`` and ``IntertwinerSpace.dimension`` are read
    from ``defects`` and ``basis``, so they cannot disagree with them."""

    def test_defective_is_derived_from_the_defects(self):
        for s, defective in ((0.6, False), (1.0, True)):
            es = eig(gain_loss_dimer(s))
            assert es.defective is defective is bool(es.defects)
        with pytest.raises(TypeError):
            linalg.EigenSystem(eigenvalues=np.zeros(1), right=None, left=None, defective=True,
                               residual=0.0)

    def test_dimension_is_the_basis_length(self):
        assert linalg.IntertwinerSpace(basis=(np.eye(2), np.eye(2))).dimension == 2
        with pytest.raises(TypeError):
            linalg.IntertwinerSpace(basis=(), dimension=0)


class TestEig:
    def test_dimer_real_side_closed_form(self):
        """s = 2 gives eigenvalues 1 +/- sqrt(3)."""
        es = eig(gain_loss_dimer(2.0))
        expected = np.array([1.0 - np.sqrt(3.0), 1.0 + np.sqrt(3.0)])
        npt.assert_allclose(es.eigenvalues, expected, rtol=1e-12, atol=1e-14)
        assert not es.defective

    def test_identity(self):
        es = eig(np.eye(2, dtype=complex))
        npt.assert_allclose(es.eigenvalues, [1.0, 1.0], rtol=0, atol=1e-15)
        assert not es.defective
        npt.assert_allclose(es.right, np.eye(2), atol=1e-15)
        npt.assert_allclose(es.left, np.eye(2), atol=1e-15)

    def test_dimer_conjugate_pair(self):
        """s = 0.6: the quadratic (1 - x)^2 + 1 - s^2 = 0 gives 1 +/- 0.8i."""
        es = eig(gain_loss_dimer(0.6))
        npt.assert_allclose(
            es.eigenvalues, [1.0 - 0.8j, 1.0 + 0.8j], rtol=1e-12, atol=1e-14
        )

    def test_exactly_singular_eigenvectors(self):
        """numpy's eigenvectors of the 3x3 nilpotent Jordan block are exactly
        singular: every kappa is inf, so the three zeros form one cluster,
        which the rank test finds defective, without a numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            es = eig(np.diag([1.0, 1.0], 1))
        assert np.all(np.isinf(es.kappa))
        assert es.defects == (DefectCluster(0j, 3, 1, (0, 1, 2)),)
        assert es.right is None and es.left is None

    def test_dimer_exceptional_point(self):
        """s = 1: rank(H - I) = 1 by direct elimination, so geometric < algebraic."""
        es = eig(gain_loss_dimer(1.0))
        assert es.defective
        assert es.right is None and es.left is None
        (d,) = es.defects
        assert d.algebraic == 2 and d.geometric == 1
        assert abs(d.value - 1.0) < 1e-7

    def test_condition_numbers(self):
        """kappa_i is the norm of left row i for unit right vectors, at least
        1 and exactly 1 for orthonormal eigenvectors; ``norm`` is ||H||_2.
        Both are kept for a defective spectrum."""
        es = eig(np.diag([1 + 0.8j, 1 - 0.8j, 2.0]))
        npt.assert_array_equal(es.kappa, [1.0, 1.0, 1.0])
        assert es.norm == pytest.approx(2.0, rel=1e-15)
        rng = np.random.default_rng(17)
        for n in (2, 5, 8):
            H = random_complex_matrix(rng, n)
            es = eig(H)
            npt.assert_array_equal(es.kappa, np.linalg.norm(es.left, axis=1))
            assert np.all(es.kappa >= 1.0 - 1e-12)
            assert es.norm == np.linalg.norm(H, 2)
        es = eig(gain_loss_dimer(1.0))
        assert es.defective and es.kappa.shape == (2,) and np.all(es.kappa > 1e6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eig(np.ones((2, 3)))
        with pytest.raises(ValueError):
            eig(np.array([[np.nan, 0], [0, 1]], dtype=complex))

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            m = random_complex_matrix(rng, 2)
            es = eig(m)
            expected = quadratic_eigenvalues(m)
            scale = max(abs(z) for z in expected) + 1e-300
            for got, want in zip(es.eigenvalues, expected):
                assert abs(got - want) <= 1e-12 * scale

    def test_biorthonormality_and_completeness(self):
        rng = np.random.default_rng(7)
        for n in range(2, 7):
            m = random_complex_matrix(rng, n)
            es = eig(m)
            assert not es.defective
            npt.assert_allclose(es.left @ es.right, np.eye(n), atol=1e-10)
            npt.assert_allclose(es.right @ es.left, np.eye(n), atol=1e-10)
            assert es.residual <= 1e-10

    def test_eigen_equation_residual(self):
        rng = np.random.default_rng(11)
        m = random_complex_matrix(rng, 5)
        es = eig(m)
        for i in range(5):
            r = es.right[:, i]
            assert np.linalg.norm(m @ r - es.eigenvalues[i] * r) <= 1e-12 * np.linalg.norm(m, 2)

    def test_gauge_first_nonzero_component_real_positive(self):
        rng = np.random.default_rng(13)
        es = eig(random_complex_matrix(rng, 4))
        for i in range(4):
            col = es.right[:, i]
            idx = int(np.argmax(np.abs(col) > 1e-12 * np.max(np.abs(col))))
            assert col[idx].imag == pytest.approx(0.0, abs=1e-14)
            assert col[idx].real > 0


def _phase_gauge_by_column(columns):
    """The eigenvector phase gauge applied one column at a time."""
    out = columns.copy()
    for k in range(out.shape[1]):
        v = out[:, k]
        nrm = np.max(np.abs(v))
        if nrm == 0.0:
            continue
        pivot = v[int(np.argmax(np.abs(v) > 1e-12 * nrm))]
        out[:, k] = v * (abs(pivot) / pivot)
    return out


class TestPhaseGauge:
    def test_same_columns_as_per_column_gauge(self):
        rng = np.random.default_rng(97)
        inputs = [random_complex_matrix(rng, n) for n in (1, 2, 5, 8, 16, 32)]
        zero_column = random_complex_matrix(rng, 4)
        zero_column[:, 2] = 0.0
        small_lead = random_complex_matrix(rng, 5)
        small_lead[:2, 1] = [3e-13 * np.exp(0.7j), -1e-14j]  # below 1e-12 * max
        inputs += [zero_column, small_lead]
        for m in inputs:
            assert np.array_equal(linalg._phase_gauge(m), _phase_gauge_by_column(m))
        pivot = linalg._phase_gauge(small_lead)[2, 1]
        assert abs(pivot.imag) <= 1e-15 * pivot.real


def _clusters_by_loop(w, radius):
    """The merge rule taken one value at a time: the reference for the
    vectorized passes of ``linalg._cluster_eigenvalues``."""
    clusters, assigned = [], [False] * len(w)
    for i in range(len(w)):
        if assigned[i]:
            continue
        members, changed = [i], True
        assigned[i] = True
        while changed:
            changed = False
            center = np.mean(w[members])
            for j in range(len(w)):
                if not assigned[j] and abs(w[j] - center) <= radius:
                    members.append(j)
                    assigned[j] = True
                    changed = True
        clusters.append(sorted(members))
    return clusters


class TestClusterEigenvalues:
    def test_matches_the_loop_reference(self):
        """Near copies, runs spaced 0.6 radius apart (clusters that grow
        over several passes) and complex values, sorted as ``eig`` sorts."""
        rng = np.random.default_rng(53)
        r = 1e-7
        for trial in range(300):
            base = rng.standard_normal(6) + 1j * rng.standard_normal(6) * (trial % 2)
            k, m = rng.integers(0, 7, size=2)
            w = np.concatenate([
                base,
                base[:k] + r * rng.uniform(-1.5, 1.5, k) * (1j if trial % 3 == 0 else 1),
                base[-1] + 0.6 * r * np.arange(1, m + 1),
            ])
            w = w[np.lexsort((w.imag, w.real))]
            # radius r / 2 on each value: a value joins within r of the mean
            radii = np.full(w.shape, r / 2)
            assert linalg._cluster_eigenvalues(w, radii) == _clusters_by_loop(w, r)

    def test_distinct_values_are_singletons_in_sorted_order(self):
        w = np.array([-1.0, 0.5j, 2.0 - 1j, 2.0 + 1j, 3.0])
        assert linalg._cluster_eigenvalues(w, np.full(5, 1e-3)) == [[0], [1], [2], [3], [4]]

    def test_one_close_pair(self):
        r = 1e-7
        w = np.array([1.0, 1.0 + 0.5j * r, 2.0, 3.0])
        assert linalg._cluster_eigenvalues(w, np.full(4, r / 2)) == [[0, 1], [2], [3]]

    def test_value_joins_through_the_cluster_mean(self):
        """0.95j r is 1.05 r from both seeds but 0.95 r from their mean, and
        radii r / 2 let a value join within r of the mean."""
        r = 1e-7
        w = np.array([-0.45 * r, 0.45 * r, 0.95j * r])
        assert linalg._cluster_eigenvalues(w, np.full(3, r / 2)) == [[0, 1, 2]]


class TestIntertwiner:
    def test_hermitian_contains_identity(self):
        """V = I always solves the equation when H is Hermitian."""
        H = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        space = solve_intertwiner(H)
        stack = np.stack([b.reshape(-1) for b in space.basis], axis=1)
        coeff, res, *_ = np.linalg.lstsq(stack, np.eye(2, dtype=complex).reshape(-1), rcond=None)
        recon = (stack @ coeff).reshape(2, 2)
        npt.assert_allclose(recon, np.eye(2), atol=1e-12)

    def test_diagonal_pair_structure(self):
        """For diag(a, conj(a)) the componentwise condition V_ij lam_j = conj(lam_i) V_ij
        kills the diagonal and frees both off-diagonal entries."""
        H = np.diag([1 + 0.8j, 1 - 0.8j])
        space = solve_intertwiner(H)
        assert space.dimension == 2
        for B in space.basis:
            assert abs(B[0, 0]) < 1e-12 and abs(B[1, 1]) < 1e-12
        # the antisymmetric unit matrix (v = -1, w = 1) lies in the span
        target = np.array([[0, -1], [1, 0]], dtype=complex).reshape(-1)
        stack = np.stack([b.reshape(-1) for b in space.basis], axis=1)
        coeff, *_ = np.linalg.lstsq(stack, target, rcond=None)
        npt.assert_allclose(stack @ coeff, target, atol=1e-12)

    def test_residuals_on_symmetric_constructions(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 6):
            H, _ = random_pt_symmetric(rng, n)
            space = solve_intertwiner(H)
            assert space.dimension >= 1
            for B in space.basis:
                res = np.linalg.norm(B @ H - H.conj().T @ B)
                assert res <= 1e-12 * np.linalg.norm(H, 2) * np.linalg.norm(B, 2) * 10

    def test_dimer_basis_residuals(self):
        H = gain_loss_dimer(0.6)
        space = solve_intertwiner(H)
        for B in space.basis:
            assert np.linalg.norm(B @ H - H.conj().T @ B) <= 1e-12

    def test_generic_matrix_has_trivial_space(self):
        """Spectrum not closed under conjugation leaves only V = 0."""
        H = np.array([[1 + 1j, 0.3], [0.0, 2 - 0.5j]])
        assert solve_intertwiner(H).dimension == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_intertwiner(np.ones((2, 3)))
        with pytest.raises(DefectiveMatrixError, match="geometric multiplicity 1 < algebraic 2"):
            solve_intertwiner(gain_loss_dimer(1.0))


def _oracle_cases():
    """(H, expected dimension, whether the spectrum is defective)."""
    rng = np.random.default_rng(31)
    cases = [
        pytest.param(random_pt_symmetric(rng, n)[0], n, False, id=f"pt-symmetric-n{n}")
        for n in (2, 3, 4, 6, 8)
    ]
    Q, _ = np.linalg.qr(random_complex_matrix(rng, 3))
    return cases + [
        pytest.param(np.diag([1 + 0.8j, 1 - 0.8j]), 2, False, id="diagonal-pair"),
        pytest.param(np.eye(3, dtype=complex), 9, False, id="identity"),
        pytest.param(Q @ np.diag([1.0, 1.0, 2.0]) @ Q.conj().T, 5, False, id="degenerate-hermitian"),
        pytest.param(np.array([[1 + 1j, 0.3], [0.0, 2 - 0.5j]]), 0, False, id="generic"),
        pytest.param(gain_loss_dimer(1.0 + 1e-6), 2, False, id="near-exceptional-dimer"),
        pytest.param(gain_loss_dimer(1.0), 2, True, id="exceptional-dimer"),
    ]


class TestIntertwinerOracle:
    """The eigensystem basis against the Kronecker null space of the vectorized equation."""

    @pytest.mark.parametrize("H, dimension, defective", _oracle_cases())
    def test_matches_kronecker_null_space(self, H, dimension, defective):
        oracle = kron_intertwiner(H)
        assert len(oracle) == dimension
        if defective:
            # The null space exists at the exceptional point, but no metric
            # comes from it: the eigensystem route refuses the input.
            with pytest.raises(DefectiveMatrixError):
                solve_intertwiner(H)
            return
        space = solve_intertwiner(H)
        assert space.dimension == len(space.basis) == dimension
        if space.dimension == 0:
            return
        A = np.stack([B.reshape(-1) for B in space.basis], axis=1)
        O = np.stack([B.reshape(-1) for B in oracle], axis=1)
        npt.assert_allclose(A.conj().T @ A, np.eye(space.dimension), atol=1e-12)
        cosines = np.linalg.svd(A.conj().T @ O, compute_uv=False)
        assert np.min(cosines) >= 1.0 - 1e-10
        scale = max(np.linalg.norm(H, 2), 1.0)
        for B in space.basis:
            assert np.linalg.norm(B @ H - H.conj().T @ B) <= 1e-12 * scale
        # Every eigenvalue has its conjugate partner here, so the first
        # element (the `first-basis` metric) must be invertible.
        assert np.linalg.cond(space.basis[0]) < 1e8

    def test_rounding_level_residual_with_ill_conditioned_eigenvectors(self):
        """Orthonormalizing outer products of nearly parallel eigenvectors costs
        about 2.5 digits here (residual 5e-13); the correction in Schur
        coordinates keeps every basis element at rounding level, as the
        Kronecker null space is."""
        rng = np.random.default_rng(27)
        for _ in range(9):
            H, _ = random_pt_symmetric(rng, 8)
        H = H / np.linalg.norm(H, 2)
        assert np.linalg.cond(eig(H).right) > 1e3
        for B in solve_intertwiner(H).basis:
            assert np.linalg.norm(B @ H - H.conj().T @ B) <= 1e-14


class TestGreedyMatch:
    def test_nearest_within_cutoff(self):
        a = np.array([0.0, 10.0])
        b = np.array([0.3, 0.1, 10.5])
        npt.assert_array_equal(linalg._greedy_match(a, b, 1.0), [1, 2])
        npt.assert_array_equal(linalg._greedy_match(a, b, 0.2), [1, -1])

    def test_ties_go_to_lowest_index(self):
        b = np.array([1j, 1.0, -1.0])  # all at distance 1
        npt.assert_array_equal(linalg._greedy_match(np.array([0.0]), b, 2.0), [0])

    def test_earlier_points_take_partners_first(self):
        # a[0] takes b[0] although a[1] is nearer to it; then b is exhausted
        a = np.array([0.0, 0.05, 0.1])
        b = np.array([0.1])
        npt.assert_array_equal(linalg._greedy_match(a, b, np.inf), [0, -1, -1])
        assert linalg._greedy_match(np.array([1.0]), np.array([]), np.inf).tolist() == [-1]

    def test_conjugate_partners(self):
        """Each value is matched to the value nearest its conjugate, within the
        sum of the two radii; a real value is its own partner."""
        w = np.array([-1.0, 1 - 2j, 1 + 2j + 1e-11, 3 - 1j, 3 + 1j + 1e-9])
        radii = np.full(5, linalg.RESIDUAL_CAP * np.max(np.abs(w)))
        npt.assert_array_equal(linalg._conjugate_permutation(w, radii), [0, 2, 1, -1, -1])


class TestEvolutionOperator:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(3)
        es = eig(random_complex_matrix(rng, 4))
        npt.assert_allclose(mat_exp_evolution(es, 0.0), np.eye(4), atol=1e-12)

    def test_diagonal_oracle(self):
        """diag exponentials: direct scalar exponentiation."""
        H = np.diag([1 + 0.8j, 1 - 0.8j])
        es = eig(H)
        U = mat_exp_evolution(es, 1.0)
        expected = np.diag([np.exp(-1j + 0.8), np.exp(-1j - 0.8)])
        npt.assert_allclose(U, expected, rtol=1e-12, atol=1e-14)

    def test_hermitian_unitarity(self):
        rng = np.random.default_rng(5)
        A = random_complex_matrix(rng, 3)
        H = (A + A.conj().T) / 2
        es = eig(H)
        for t in (0.3, 1.7, 4.2):
            U = mat_exp_evolution(es, t)
            npt.assert_allclose(U.conj().T @ U, np.eye(3), atol=1e-12)

    def test_group_property(self):
        """U(t1) U(t2) = U(t1 + t2), residual relative to the grown operator."""
        rng = np.random.default_rng(17)
        for n in (2, 3, 4, 5, 6):
            es = eig(random_complex_matrix(rng, n))
            for _ in range(4):
                t1, t2 = rng.uniform(-5, 5, size=2)
                lhs = mat_exp_evolution(es, t1) @ mat_exp_evolution(es, t2)
                rhs = mat_exp_evolution(es, t1 + t2)
                rel = np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs))
                assert rel <= 1e-10

    def test_defective_rejected(self):
        es = eig(gain_loss_dimer(1.0))
        with pytest.raises(DefectiveMatrixError):
            mat_exp_evolution(es, 1.0)

    def test_overflow_guard(self):
        es = eig(np.diag([1 + 2j, 1 - 2j]))
        with pytest.raises(OverflowRangeError):
            mat_exp_evolution(es, 200.0)

    @pytest.mark.parametrize("t", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            mat_exp_evolution(eig(gain_loss_dimer(0.6)), t)
        with pytest.raises(ValueError, match="t must be finite"):
            mat_exp_evolution(eig(gain_loss_dimer(0.6)), np.array([0.0, t]))

    def test_time_vector_stacks_the_scalar_operators(self):
        es = eig(random_complex_matrix(np.random.default_rng(23), 4))
        times = np.linspace(-2.0, 2.0, 7)
        U = mat_exp_evolution(es, times)
        assert U.shape == (7, 4, 4)
        for t, Ut in zip(times, U):
            npt.assert_allclose(Ut, mat_exp_evolution(es, t), rtol=1e-14, atol=1e-14)


P = ResonanceParams(1.0, 0.8)
PAIR = np.diag([1 + 0.8j, 1 - 0.8j])

# Every library entry point that takes a time or energy grid, called on `grid`.
GRID_ENTRY_POINTS = {
    "evolve": lambda grid: evolve(PAIR, [1.0, 0.0], grid),
    "pseudounitarity_residual": lambda grid: pseudounitarity_residual(PAIR, PAPER_GAUGE_V, grid),
    "two_level_scenario": lambda grid: two_level_scenario(1.0, 0.8, [1.0, 0.0], grid),
    "StateTrajectory": lambda grid: StateTrajectory(
        times=grid, states=np.zeros((2, 2)), dirac_norms=np.zeros(2), v_norms=None
    ),
    "SecondOrderIVP": lambda grid: SecondOrderIVP(
        c1=0.0, c0=1.0, psi0=1.0, dpsi0=0.0, times=grid, step=1e-3
    ),
    "pt_wave_ivp": lambda grid: integrate(pt_wave_ivp(P, grid, 1e-3)),
    "damped_oscillator_ivp": lambda grid: integrate(damped_oscillator_ivp(P, grid, 1e-3)),
}


class TestGridRule:
    """One grid rule, ``_require_grid``: 1-D, non-empty, finite, strictly
    ascending, for every time and energy grid in the library."""

    @pytest.mark.parametrize("entry", GRID_ENTRY_POINTS.values(), ids=GRID_ENTRY_POINTS.keys())
    @pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_rejected(self, entry, bad):
        # -inf goes first: it would be out of order anywhere else.
        grid = np.array([bad, 0.0] if bad == -np.inf else [0.0, bad])
        with pytest.raises(ValueError, match=r"(times|grid) must be finite"):
            entry(grid)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([], "a non-empty 1-D grid"),
            ([[0.0, 1.0]], "a non-empty 1-D grid"),
            ([0.0, 0.0], "strictly ascending"),
            ([1.0, 0.5], "strictly ascending"),
        ],
    )
    def test_shape_and_order(self, grid, message):
        with pytest.raises(ValueError, match=f"times must be {message}"):
            linalg._require_grid(grid)

    # 1.5e308 * Gamma is finite, but the span twice that is not.
    @pytest.mark.parametrize("halfwidth", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1.5e308])
    def test_energy_halfwidth(self, halfwidth):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="halfwidth must be positive, with a finite span"):
                default_energy_grid(P, halfwidth=halfwidth)

    def test_energy_grid_refusals_name_e0_and_gamma(self):
        """A Gamma too small to resolve at E0 collapses the grid (271 distinct
        values of 2001 at Gamma = 1e-15); a span beyond the double range and
        a peak 1/Gamma beyond it are refused before any grid is built."""
        with pytest.raises(ValueError, match=r"E0 \+/- 20 Gamma must be strictly ascending"):
            default_energy_grid(ResonanceParams(1.0, 1e-15))
        with pytest.raises(ValueError, match="must be finite, got E0 = 1, Gamma = 1e"):
            default_energy_grid(ResonanceParams(1.0, 1e308))
        with pytest.raises(OverflowRangeError, match="peak 1/Gamma"):
            default_energy_grid(ResonanceParams(1.0, 1e-320))


class TestMatrixJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(29)
        m = random_complex_matrix(rng, 3)
        npt.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="'n'"):
            matrix_from_json({"entries": []})
        with pytest.raises(ValueError, match="'entries'"):
            matrix_from_json({"n": 2})

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"entries\[0\]"):
            matrix_from_json({"n": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]})

    def test_rejects_non_finite(self):
        # 10**400 is a valid JSON integer but has no double value
        for re in (float("inf"), 10**400):
            with pytest.raises(ValueError, match=r"entries\[0\]\[0\]"):
                matrix_from_json({"n": 1, "entries": [[[re, 0.0]]]})

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError, match=r"entries\[0\]\[0\]"):
            matrix_from_json({"n": 1, "entries": [[[1.0]]]})
        # JSON booleans are Python ints; they must not pass as 1 + 0j
        with pytest.raises(ValueError, match=r"entries\[0\]\[0\]"):
            matrix_from_json({"n": 1, "entries": [[[True, False]]]})

    @pytest.mark.parametrize("pair", [[[1.0], [2.0]], [1.0, [2.0]], ["1", 2.0], [None, 0.0], 5.0,
                                      None, {"re": 1.0}, [[True, 0.0]]],
                             ids=["nested", "ragged", "text", "none", "number", "null", "object",
                                  "nested-bool"])
    def test_entry_goes_through_the_number_rule(self, pair):
        """An entry that is not a pair of real numbers is refused by the number
        rule, or by its shape as not a pair, naming the entry: a nested pair
        never reaches ``complex()``."""
        with pytest.raises(ValueError, match=r"^matrix JSON: entries\[0\]\[0\] must be "):
            matrix_from_json({"n": 1, "entries": [[pair]]})

    def test_rejects_non_object_and_row_count(self):
        with pytest.raises(ValueError, match="top-level value must be an object"):
            matrix_from_json([[[1.0, 0.0]]])
        with pytest.raises(ValueError, match="'entries' must be a list of 2 rows"):
            matrix_from_json({"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]]]})

    def test_rejects_boolean_size(self):
        with pytest.raises(ValueError, match="'n'"):
            matrix_from_json({"n": True, "entries": [[[1.0, 0.0]]]})

    def test_as_matrix_validation(self):
        with pytest.raises(ValueError):
            as_matrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf]]))
        with pytest.raises(ValueError, match="finite"):
            as_matrix(np.array([[1.0, complex(1.0, np.nan)], [0.0, 1.0]]))


class TestDoubleRangeRefusals:
    """Spectra at the end of the double range raise ``OverflowRangeError``,
    where the cluster mean reached numpy's SVD as inf (``LinAlgError``) and
    the phases ``lambda t`` overflowed into NaN states."""

    def test_cluster_centre(self):
        H = 1e308 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="cluster centre"):
                eig(H)
            with pytest.raises(OverflowRangeError, match="cluster centre"):
                classify_hamiltonian(H)

    def test_infinite_eigenvalue(self):
        """LAPACK returns the eigenvalue 2e308 of this finite H as inf, so the
        eigen-equation residual is not finite even from H at unit scale: that
        refusal stays."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="eigen-equation residual"):
                eig(np.full((2, 2), 1e308))

    def test_two_norm(self):
        """||H||_2 of these finite H passes the largest double, so every radius
        would be inf: eig refuses it, after the eigen-equation residual, where
        it took the 2x2's values +/-1.2e308 for one real value and the 3x3, a
        Jordan block, for a non-defective H."""
        wide_3 = np.triu(np.full((3, 3), 1e308))
        wide_3[2, 2] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for H in ([[1.2e308, 1.2e308], [0.0, -1.2e308]], wide_3):
                with pytest.raises(OverflowRangeError, match="^2-norm of H is beyond"):
                    eig(H)
                with pytest.raises(OverflowRangeError, match="^2-norm of H is beyond"):
                    classify_hamiltonian(H)

    def test_eigen_residual(self):
        """The residual's entries near 1e308 have squares beyond the double
        range, but its norm, scaled by ``_frobenius``, is a double: eig,
        the classification and the intertwiner basis accept ||H||_2 = 1e308,
        where eig refused it with "eigen-equation residual is beyond the
        double range"."""
        H = gain_loss_dimer(1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            es = eig(H)
            report, _ = classify_hamiltonian(H)
            space = solve_intertwiner(H)
        assert es.norm == 1e308 and es.residual <= 1e-15 and not es.defective
        assert report.real_values == ((-1e308, 1), (1e308, 1))
        assert space.dimension == 2 and all(np.all(np.isfinite(b)) for b in space.basis)

    def test_pairing_at_both_ends(self):
        """Eigenvalues +/-1e308 are 2e308 apart: that distance is inf, within
        no cutoff, so both stay real and unpaired, without a numpy warning."""
        H = np.array([[1e308, 1.0], [1.0, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for report in (classify_hamiltonian(H)[0], classify_spectrum([1e308, -1e308])):
                assert report.real_values == ((-1e308, 1), (1e308, 1))
                assert report.conjugate_pairs == report.unmatched == report.exceptional == ()
            assert solve_intertwiner(H).dimension == 2

    def test_phase(self):
        times = np.linspace(0.0, 5.0, 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="phase"):
                evolve(np.diag([1e308, 1.0]), [1.0, 1.0], times)
            with pytest.raises(OverflowRangeError, match="phase"):
                mat_exp_evolution(eig(np.diag([1e308, 1.0])), 5.0)
            # eig accepts this H, whose residual norm is scaled; its phases
            # lambda t of about 5e308 are refused, without a warning
            with pytest.raises(OverflowRangeError, match="phase"):
                evolve(gain_loss_dimer(1e308), [1.0, 0.0], times)


class TestOneDoorPerInputKind:
    """Vectors enter by ``linalg._as_vector`` and level pairs by
    ``ResonanceParams``: a NaN or infinite entry is one ``ValueError`` naming
    the input, where these returned NaN or warned and went on."""

    def test_vector_door(self):
        npt.assert_array_equal(linalg._as_vector([1, 2j], "x"), np.array([1, 2j]))
        npt.assert_array_equal(linalg._as_vector([], "x"), np.zeros(0, complex))
        with pytest.raises(ValueError, match=r"^x must be a vector, got shape \(1, 2\)$"):
            linalg._as_vector([[1, 2]], "x")
        expected = r"^x must be a vector, got shape \(2,\), expected \(3,\)$"
        with pytest.raises(ValueError, match=expected):
            linalg._as_vector([1, 2], "x", 3)
        with pytest.raises(ValueError, match="^x must be pairs, got shape"):
            linalg._as_vector(np.ones((2, 2)), "x", what="pairs")
        for bad in (np.nan, np.inf, complex(0, -np.inf)):
            with pytest.raises(ValueError, match="^x must be finite$"):
                linalg._as_vector([1.0, bad], "x")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_states_and_coefficients(self, bad):
        V = np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x and y must be finite"):
                v_inner([bad, 1.0], [1.0, 0.0], V)
            with pytest.raises(ValueError, match="x and y must be finite"):
                v_inner([1.0, 0.0], [bad, 1.0], V)
            with pytest.raises(ValueError, match="ket must be finite"):
                dual_pair([bad, 1.0], V)
            with pytest.raises(ValueError, match="coefficients must be finite"):
                characteristic_roots((1.0, bad, 1.0))
            with pytest.raises(ValueError, match="c1, c0, psi0 and dpsi0 must be finite"):
                SecondOrderIVP(c1=0.0, c0=1.0, psi0=bad, dpsi0=0.0, times=[0.0, 1.0],
                               step=0.01)
            with pytest.raises(ValueError, match="eigenvalues must be finite"):
                classify_spectrum([1.0, bad])
            with pytest.raises(ValueError, match="v must be finite"):
                AntilinearSymmetry(PAULI_X).apply([1.0, bad])

    @pytest.mark.parametrize("e0, gamma", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 1.0)])
    def test_level_pair(self, e0, gamma):
        with pytest.raises(ValueError, match="resonance parameters must be finite"):
            two_level_hamiltonian(e0, gamma)
        with pytest.raises(ValueError, match="resonance parameters must be finite"):
            two_level_scenario(e0, gamma, [1.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize("s", [np.nan, np.inf])
    def test_dimer_coupling(self, s):
        with pytest.raises(ValueError, match="coupling s must be finite"):
            gain_loss_dimer(s)

    def test_step_finite(self):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            SecondOrderIVP(c1=0.0, c0=1.0, psi0=1.0, dpsi0=0.0, times=[0.0, 1.0], step=np.inf)


class TestOverflowingProducts:
    """A product or norm of finite inputs beyond the double range raises
    ``OverflowRangeError`` naming it, without a numpy warning, where each of
    these warned ("overflow encountered in dot/multiply/matmul")."""

    # ||H||_F = 1.84e308: beyond the double range, though eig accepts H
    WIDE = np.diag([1.3e308, -1.3e308])

    def test_frobenius_norm_of_h(self):
        """||H||_F is beyond the double range, but each residual is formed from
        H at unit scale: the three checks return the values of diag(1, -1)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_pt(self.WIDE, AntilinearSymmetry(PAULI_X)) == (False, 2.0)
            assert verify_pseudo_hermiticity(self.WIDE, PAPER_GAUGE_V) == (1.414213562373095, 2.0)
            op = build_metric(eig(self.WIDE), solve_intertwiner(self.WIDE), H=self.WIDE)
        npt.assert_allclose(op.V, np.eye(2), atol=1e-15)
        assert op.hermitian and op.residual == 0.0

    @pytest.mark.parametrize("big", [1e155, 1e200, 1e308])
    def test_frobenius_norm_within_the_double_range(self, big):
        """An entry whose square overflows, in an H whose ||H||_F does not:
        the norm is scaled by max|H| and the three checks return."""
        H = np.array([[big, 1.0], [1.0, -big]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = build_metric(eig(H), solve_intertwiner(H), H=H)
            npt.assert_allclose(op.V, np.eye(2), atol=1e-15)
            assert op.residual <= 1e-15
            assert verify_pseudo_hermiticity(H, np.eye(2)) == (0.0, 0.0)
            if big < 1e308:  # P conj(H) P^-1 - H has the entries -2 big and 2 big
                check = check_pt(H, AntilinearSymmetry(PAULI_X))
                assert not check.is_symmetric and check.residual == pytest.approx(2.0)

    def test_intertwiner_residual_where_the_norms_product_overflows(self):
        """||V||_F ||H||_F = 2.4e308 is beyond the double range, though both
        norms and the residual's norm are doubles: the residual is divided by
        each norm in turn, and a V that misses by 7e-6 is not reported exact."""
        H = np.array([[1.0, 1e-5], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = verify_pseudo_hermiticity(1e150 * H, 1.2e158 * np.eye(2))
        unit = verify_pseudo_hermiticity(H, np.eye(2))
        assert wide.intertwiner == pytest.approx(unit.intertwiner, rel=1e-12)
        assert wide.similarity == pytest.approx(unit.similarity, rel=1e-12)

    @pytest.mark.parametrize("s, exponent", [(0.6, 169.4), (0.6, 169.45), (2.0, 169.15)])
    def test_intertwiner_residual_norms(self, s, exponent):
        """eig accepts these H, whose intertwiner basis residuals have entries
        whose squares overflow: numpy's norms of them leaked "overflow
        encountered in multiply" (or "in reduce")."""
        H = gain_loss_dimer(s) * 10.0**exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            space = solve_intertwiner(H)
        assert space.dimension == 2 and all(np.all(np.isfinite(b)) for b in space.basis)

    def test_frobenius_norm_keeps_numpy_bits_where_finite(self):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        assert linalg._frobenius(stack[0]) == np.linalg.norm(stack[0], "fro")
        npt.assert_array_equal(linalg._frobenius(stack, (-2, -1)),
                               np.linalg.norm(stack, axis=(-2, -1)))
        stack[2] *= 1e160  # numpy's sum of squares overflows for this one only
        stack[3] = 0.0
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            norms = linalg._frobenius(stack, (-2, -1))
            reference = np.linalg.norm(stack, axis=(-2, -1))
            assert np.isinf(reference[2])
            npt.assert_array_equal(np.delete(norms, 2), np.delete(reference, 2))
            assert norms[2] == pytest.approx(1e160 * np.linalg.norm(stack[2] / 1e160))
            assert np.isinf(linalg._frobenius(np.full((2, 2), 1e308)))
            assert np.isnan(linalg._frobenius(np.array([[np.inf, 0.0], [0.0, 1.0]])))

    def test_states(self):
        big = [1e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="state check"):
                evolve(two_level_hamiltonian(1.0, 0.8), big, [0.0, 1.0])
            with pytest.raises(OverflowRangeError, match="state check"):
                two_level_scenario(1.0, 0.8, big, [0.0, 1.0])
            with pytest.raises(OverflowRangeError, match="inner product"):
                v_inner(big, big, np.eye(2))
            with pytest.raises(OverflowRangeError, match="bra"):
                dual_pair(big, np.ones((2, 2)) + np.eye(2))
            # the kets and bras at unit scale: G cannot overflow
            assert closure_check(np.diag(big), np.diag(big)) == 1.5700924586837752e-16

    def test_quadratic_coefficients(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leading coefficient c2 must be nonzero"):
                characteristic_roots((0.0, 1.0, 1.0))
            for coefficients in [(1e-320, 1.0, 1.0), (1.0, 1e308, 1.0), (1.0, 0.0, 1e308)]:
                with pytest.raises(OverflowRangeError, match="coefficients leave the double"):
                    characteristic_roots(coefficients)
            for c1, c0 in [(1e308, 1.0), (0.0, 1e308)]:
                ivp = SecondOrderIVP(c1=c1, c0=c0, psi0=1.0, dpsi0=0.0, times=[0.0, 1.0],
                                     step=0.01)
                with pytest.raises(OverflowRangeError, match="coefficients leave the double"):
                    integrate(ivp)
