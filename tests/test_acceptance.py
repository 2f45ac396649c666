"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion NN: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output), independent of pytest's own reporting.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import quadratic_eigenvalues, random_complex_matrix, random_pt_symmetric
from ptresonance import (
    PAPER_GAUGE_V,
    DefectiveMatrixError,
    ResonanceParams,
    SecondOrderIVP,
    build_metric,
    build_model,
    classify_spectrum,
    closure_check,
    dual_pair,
    eig,
    evolve,
    gain_loss_dimer,
    integrate,
    inverse_ft,
    linalg,
    mat_exp_evolution,
    phase_shift,
    pseudounitarity_residual,
    pt_propagator,
    pt_wave_equation,
    quadrature_ift,
    solve_intertwiner,
    time_delay,
    v_inner,
    verify_pseudo_hermiticity,
)
from ptresonance.cli import main

P = ResonanceParams(1.0, 0.8)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:02d}: FAIL - {description}")
        raise
    print(f"criterion {number:02d}: PASS - {description}")


def test_criterion_01_eigenvalue_reproduction():
    with criterion(1, "dimer eigenvalues match the closed form to 1e-12 relative"):
        t0 = time.perf_counter()
        for s in (1.25, 1.5, 2.0):
            got = eig(gain_loss_dimer(s)).eigenvalues
            root = np.sqrt(s * s - 1.0)
            expected = np.array([1.0 - root, 1.0 + root], dtype=complex)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        for s in (0.3, 0.6, 0.9):
            got = eig(gain_loss_dimer(s)).eigenvalues
            root = np.sqrt(1.0 - s * s)
            expected = np.array([1.0 - 1j * root, 1.0 + 1j * root])
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert time.perf_counter() - t0 < 1.0  # milliseconds-scale work


def test_criterion_02_paper_gauge_metric(tmp_path):
    with criterion(2, "paper-gauge metric is exactly [[0,-1],[1,0]] with residual <= 1e-15"):
        for gamma in (0.8, 0.3):
            H = np.diag([1 + 1j * gamma, 1 - 1j * gamma])
            mfile = tmp_path / f"diag_{gamma}.json"
            mfile.write_text(json.dumps(linalg.matrix_to_json(H)))
            out = tmp_path / f"v_{gamma}.json"
            code = main(
                ["metric", "--input", str(mfile), "--policy", "paper-gauge",
                 "--output", str(out)]
            )
            assert code == 0
            obj = json.loads(out.read_text())
            assert obj["V"]["entries"] == [
                [[0.0, 0.0], [-1.0, 0.0]],
                [[1.0, 0.0], [0.0, 0.0]],
            ]
            V = linalg.matrix_from_json(obj["V"])
            res = verify_pseudo_hermiticity(H, V)
            assert res.intertwiner <= 1e-15
            assert res.similarity <= 1e-15


def test_criterion_03_inner_product_table():
    with criterion(3, "gauge inner-product table and zero closure residual, exact"):
        u_plus = np.array([1.0, 0.0], dtype=complex)
        u_minus = np.array([0.0, 1.0], dtype=complex)
        assert v_inner(u_plus, u_plus, PAPER_GAUGE_V) == 0.0
        assert v_inner(u_minus, u_minus, PAPER_GAUGE_V) == 0.0
        assert v_inner(u_minus, u_plus, PAPER_GAUGE_V) == +1.0
        assert v_inner(u_plus, u_minus, PAPER_GAUGE_V) == -1.0
        assert np.array_equal(dual_pair(u_plus, PAPER_GAUGE_V).bra, [0.0, -1.0])
        assert np.array_equal(dual_pair(u_minus, PAPER_GAUGE_V).bra, [1.0, 0.0])
        bras = [dual_pair(u_plus, PAPER_GAUGE_V).bra, dual_pair(u_minus, PAPER_GAUGE_V).bra]
        assert closure_check([u_plus, u_minus], bras) == 0.0


def test_criterion_04_pseudounitarity_vs_dirac():
    with criterion(4, "pseudounitarity residual <= 1e-10 while U^dag U departs from I"):
        H = gain_loss_dimer(0.6)
        eigsys = eig(H)
        op = build_metric(eigsys, solve_intertwiner(H), H=H)
        times = np.linspace(0.0, 5.0, 201)
        result = pseudounitarity_residual(H, op.V, times)
        assert result.maximum <= 1e-10
        U = mat_exp_evolution(eigsys, 1.0)
        assert np.linalg.norm(U.conj().T @ U - np.eye(2)) >= 0.1


def test_criterion_05_v_norm_conservation():
    with criterion(5, "metric-norm drift <= 1e-8 per 1e-3 step for 20 random states"):
        H = gain_loss_dimer(0.6)
        op = build_metric(eig(H), solve_intertwiner(H), H=H)
        grid = np.arange(0.0, 5.0 + 5e-4, 1e-3)
        rng = np.random.default_rng(2022)
        for _ in range(20):
            psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            traj = evolve(H, psi0, grid, V=op.V)
            assert np.max(np.abs(np.diff(traj.v_norms))) <= 1e-8


def test_criterion_06_propagator_identity():
    with criterion(6, "two-pole sum equals the closed Lorentzian form to 1e-13"):
        grid = np.linspace(P.e0 - 100 * P.gamma, P.e0 + 100 * P.gamma, 10000)
        d = grid - P.e0
        two_pole = 1.0 / (d + 1j * P.gamma) - 1.0 / (d - 1j * P.gamma)
        closed = pt_propagator(grid, P)
        assert np.max(np.abs(two_pole - closed) / np.abs(closed)) <= 1e-13


def test_criterion_07_time_delay_and_advance():
    with criterion(7, "peak delay/advance +-1/Gamma, derivative consistency, antisymmetry"):
        assert abs(time_delay(P.e0, P, "delay") - 1.0 / P.gamma) <= 1e-12 / P.gamma
        assert abs(time_delay(P.e0, P, "advance") + 1.0 / P.gamma) <= 1e-12 / P.gamma
        grid = np.linspace(P.e0 - 20 * P.gamma, P.e0 + 20 * P.gamma, 2001)
        h = 1e-6 * P.gamma
        for branch in ("delay", "advance"):
            fd = (phase_shift(grid + h, P, branch) - phase_shift(grid - h, P, branch)) / (2 * h)
            closed = time_delay(grid, P, branch)
            assert np.max(np.abs(fd - closed) / np.abs(closed)) <= 1e-6
        assert np.array_equal(
            time_delay(grid, P, "delay"), -time_delay(grid, P, "advance")
        )


def test_criterion_08_residue_vs_quadrature():
    with criterion(8, "residue transform matches quadrature to 1e-4, under 10 s"):
        t0 = time.perf_counter()
        model = build_model("breit-wigner", P)
        L = 1e4 * P.gamma
        for t in (0.5, 1.0, 2.0):
            q = quadrature_ift(P, t, L=L, N=200000)
            assert abs(q.value - inverse_ft(model, t)) <= 1e-4
        q = quadrature_ift(P, -1.0, L=L, N=200000)
        assert abs(q.value) <= 1e-4
        assert time.perf_counter() - t0 < 10.0


def test_criterion_09_ode_cross_check():
    with criterion(9, "RK4 wave-equation run matches the residue transform; 4th order"):
        model = build_model("pt-pair", P)
        times = np.linspace(0.05, 5.0, 100)
        c2, c1, c0 = pt_wave_equation(P)
        unit = integrate(
            SecondOrderIVP(c1=c1, c0=c0, psi0=0.0, dpsi0=1.0, times=times, step=1e-3)
        )
        rescaled = unit.psi * (2j * P.gamma)  # slope normalization
        expected = inverse_ft(model, times)
        assert np.max(np.abs(rescaled - expected)) <= 1e-6

        coarse = np.linspace(0.0, 5.0, 51)
        exact = inverse_ft(model, coarse)
        errors = []
        for step in (0.02, 0.01):
            series = integrate(
                SecondOrderIVP(c1=c1, c0=c0, psi0=0.0, dpsi0=2j * P.gamma,
                               times=coarse, step=step)
            )
            errors.append(np.max(np.abs(series.psi - exact)))
        assert errors[0] / errors[1] >= 14.0


def test_criterion_10_exceptional_point_handling(tmp_path, capsys):
    with criterion(10, "defect at the spectral transition is detected, never silent"):
        H = gain_loss_dimer(1.0)
        eigsys = eig(H)
        assert eigsys.defective
        assert eigsys.defects[0].geometric < eigsys.defects[0].algebraic

        mfile = tmp_path / "m1.json"
        mfile.write_text(json.dumps(linalg.matrix_to_json(H)))
        rep_out = tmp_path / "rep.json"
        assert main(["classify", "--input", str(mfile), "--output", str(rep_out)]) == 3
        assert json.loads(rep_out.read_text())["exceptional"] != []

        assert main(["metric", "--input", str(mfile)]) == 3
        err = capsys.readouterr().err
        assert "exceptional" in err

        with pytest.raises(DefectiveMatrixError):
            build_metric(eigsys, solve_intertwiner(H), H=H)


def test_criterion_11_oracle_equivalence():
    with criterion(11, "LAPACK route agrees with the quadratic oracle; pairing closes"):
        rng = np.random.default_rng(1000)
        for _ in range(1000):
            m = random_complex_matrix(rng, 2)
            got = eig(m).eigenvalues
            expected = quadratic_eigenvalues(m)
            scale = max(abs(z) for z in expected) + 1e-300
            for g, w in zip(got, expected):
                assert abs(g - w) <= 1e-12 * scale
        for _ in range(200):
            n = int(rng.integers(2, 7))
            H, _ = random_pt_symmetric(rng, n)
            report = classify_spectrum(np.linalg.eigvals(H))
            assert not report.broken
