"""Tests for the wave equations and the RK4 integrator."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from ptresonance import (
    OverflowRangeError,
    ResonanceParams,
    SecondOrderIVP,
    build_model,
    damped_oscillator_equation,
    damped_oscillator_ivp,
    integrate,
    inverse_ft,
    pt_wave_equation,
    pt_wave_ivp,
)
from ptresonance import odes
from ptresonance.odes import MAX_SUBSTEPS, characteristic_roots

P = ResonanceParams(1.0, 0.8)


class TestCoefficients:
    def test_balanced_pair_equation(self):
        c2, c1, c0 = pt_wave_equation(P)
        assert c2 == 1.0
        assert c1 == 2j
        assert c0 == pytest.approx(-1.64)

    def test_balanced_pair_roots(self):
        roots = sorted(characteristic_roots(pt_wave_equation(P)), key=lambda z: z.real)
        npt.assert_allclose(roots[0], -0.8 - 1j, atol=1e-12)
        npt.assert_allclose(roots[1], +0.8 - 1j, atol=1e-12)

    def test_root_product_is_constant_coefficient(self):
        """Vieta: the product of the roots equals c0 for a monic quadratic."""
        c2, c1, c0 = pt_wave_equation(P)
        assert np.prod(characteristic_roots((c2, c1, c0))) == pytest.approx(c0)

    def test_vanishing_width_limit(self):
        small = ResonanceParams(1.0, 1e-8)
        roots = characteristic_roots(pt_wave_equation(small))
        npt.assert_allclose(roots, [-1j, -1j], atol=2e-8)

    def test_damped_equation(self):
        c2, c1, c0 = damped_oscillator_equation(P)
        assert (c2, c1) == (1.0, 1.6)
        assert c0 == pytest.approx(1.64)

    def test_damped_second_solution_flips_frequency_not_damping(self):
        roots = characteristic_roots(damped_oscillator_equation(P))
        npt.assert_allclose(sorted(roots.real), [-0.8, -0.8], atol=1e-12)
        npt.assert_allclose(sorted(roots.imag), [-1.0, 1.0], atol=1e-12)

    def test_energy_space_factorizations(self):
        """E = i r maps the time-domain roots onto the pole pairs: the
        balanced equation onto E0 +/- i Gamma, the damped one onto
        {E0 - i Gamma, -E0 - i Gamma}."""
        energies = sorted(1j * characteristic_roots(pt_wave_equation(P)),
                          key=lambda z: z.imag)
        npt.assert_allclose(energies[0], P.e0 - 1j * P.gamma, atol=1e-12)
        npt.assert_allclose(energies[1], P.e0 + 1j * P.gamma, atol=1e-12)
        energies = sorted(1j * characteristic_roots(damped_oscillator_equation(P)),
                          key=lambda z: z.real)
        npt.assert_allclose(energies[0], -P.e0 - 1j * P.gamma, atol=1e-12)
        npt.assert_allclose(energies[1], P.e0 - 1j * P.gamma, atol=1e-12)


    @pytest.mark.parametrize("equation", [pt_wave_equation, damped_oscillator_equation])
    @pytest.mark.parametrize(
        "e0, gamma",
        [(1e308, 0.8), (1.0, 1e308), (-1e200, 0.8), (1e154, 0.8), (1.3e154, 1.3e154)],
        ids=["e0-squared", "gamma-squared", "negative-e0", "discriminant", "sum"],
    )
    def test_coefficient_overflow_is_a_range_error(self, equation, e0, gamma):
        """``E0^2 + Gamma^2`` beyond the double range, refused by the range
        rule, or a discriminant ``c1^2 - 4 c0`` beyond it, refused by
        ``characteristic_roots``, is the package's overflow error, not
        Python's ``OverflowError``."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="coefficients leave the double range"):
                equation(ResonanceParams(e0, gamma))

    # The coefficients and initial data that pt_wave_ivp and
    # damped_oscillator_ivp gave at E0 = Gamma = 1e-320, whose E0^2 + Gamma^2
    # the range rule now refuses.
    @pytest.mark.parametrize(
        "c1, c0, psi0, dpsi0",
        [(2e-320j, -0.0, 0.0, 2e-320j), (2e-320, 0.0, 1.0, -1e-320 - 1e-320j)],
        ids=["pt_wave_ivp", "damped_oscillator_ivp"],
    )
    def test_subnormal_parameters_integrate(self, c1, c0, psi0, dpsi0):
        """With c0 = 0, the second root is 0 itself, not c0 divided by a
        subnormal first root."""
        ivp = SecondOrderIVP(c1=c1, c0=c0, psi0=psi0, dpsi0=dpsi0,
                             times=np.linspace(0.0, 1.0, 3), step=1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = integrate(ivp)
        assert np.all(np.isfinite(series.psi)) and np.all(np.isfinite(series.dpsi))

    @pytest.mark.parametrize("make_ivp", [pt_wave_ivp, damped_oscillator_ivp])
    @pytest.mark.parametrize("equation", [pt_wave_equation, damped_oscillator_equation])
    @pytest.mark.parametrize("e0, gamma", [(1e-200, 1e-200), (1e-320, 1e-320), (0.0, 1e-155),
                                           (-1e-155, 1e-160)])
    def test_subnormal_coefficient_is_a_range_error(self, e0, gamma, equation, make_ivp):
        """``E0^2 + Gamma^2`` below the normal range goes through the range rule
        of ``(E - E0)^2 + Gamma^2`` at E = 0.  At 1e-200 it rounded to 0, and
        the roots [-1e-200i, 0] passed a root check whose tolerance was
        floored at 6e-8 absolute."""
        p = ResonanceParams(e0, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: equation(p), lambda: make_ivp(p, [0.0, 1.0], 1e-2)):
                with pytest.raises(OverflowRangeError, match="coefficients leave the double range: "
                                   r"\(E - E0\)\^2 \+ Gamma\^2 leaves the normal double range"):
                    build()

    @pytest.mark.parametrize("equation", [pt_wave_equation, damped_oscillator_equation])
    @pytest.mark.parametrize("scale", [1.5e-154, 1e-100, 1e-10])
    def test_small_parameters_pass_the_relative_root_check(self, equation, scale):
        """Down to the bottom of the normal range the equations accept E0,
        Gamma = 0.6, 0.8 times ``scale``, and their roots match E0 and Gamma
        to 1e-9 relative."""
        p = ResonanceParams(0.6 * scale, 0.8 * scale)
        roots = characteristic_roots(equation(p)) / scale
        expected = [-0.8 - 0.6j, 0.8 - 0.6j] if equation is pt_wave_equation else [
            -0.8 - 0.6j, -0.8 + 0.6j]
        order = sorted(roots, key=lambda z: (round(z.imag, 6), round(z.real, 6)))
        npt.assert_allclose(order, sorted(expected, key=lambda z: (z.imag, z.real)), atol=1e-9)


class TestIntegrate:
    def test_balanced_pair_matches_residue_transform(self):
        """Antisymmetric initial data reproduce the two-pole time-domain form."""
        times = np.linspace(0.0, 5.0, 51)
        series = integrate(pt_wave_ivp(P, times, step=1e-3))
        expected = inverse_ft(build_model("pt-pair", P), times)
        assert np.max(np.abs(series.psi - expected)) <= 1e-6

    def test_damped_mode_closed_form(self):
        times = np.linspace(0.0, 5.0, 51)
        series = integrate(damped_oscillator_ivp(P, times, step=1e-3))
        expected = np.exp(-1j * P.e0 * times - P.gamma * times)
        assert np.max(np.abs(series.psi - expected)) <= 1e-6

    def test_damped_mode_near_coalescent_roots(self):
        """At Gamma = 1 and E0 = 1e-8 the roots -1 -+ 1e-8 i nearly coincide,
        and rounding E0^2 + Gamma^2 to 1 moves them by O(sqrt(eps)); the
        equation is accepted and integrates."""
        p = ResonanceParams(1e-8, 1.0)
        times = np.linspace(0.0, 5.0, 51)
        series = integrate(damped_oscillator_ivp(p, times, step=1e-3))
        expected = np.exp(-1j * p.e0 * times - p.gamma * times)
        assert np.max(np.abs(series.psi - expected)) <= 1e-6

    def test_damped_modulus(self):
        times = np.linspace(0.0, 5.0, 51)
        series = integrate(damped_oscillator_ivp(P, times, step=1e-3))
        npt.assert_allclose(np.abs(series.psi), np.exp(-P.gamma * times), atol=1e-9)

    def test_zero_data_stays_zero(self):
        times = np.linspace(0.0, 3.0, 31)
        ivp = SecondOrderIVP(c1=2j, c0=-1.64, psi0=0.0, dpsi0=0.0, times=times, step=1e-2)
        series = integrate(ivp)
        npt.assert_array_equal(series.psi, np.zeros_like(series.psi))
        npt.assert_array_equal(series.dpsi, np.zeros_like(series.dpsi))

    def test_fourth_order_convergence(self):
        """Halving the step shrinks the max error by at least 14x."""
        times = np.linspace(0.0, 5.0, 51)
        exact = inverse_ft(build_model("pt-pair", P), times)
        errors = []
        for step in (0.02, 0.01):
            series = integrate(pt_wave_ivp(P, times, step=step))
            errors.append(np.max(np.abs(series.psi - exact)))
        assert errors[0] / errors[1] >= 14.0

        exact2 = np.exp(-1j * P.e0 * times - P.gamma * times)
        errors2 = []
        for step in (0.02, 0.01):
            series = integrate(damped_oscillator_ivp(P, times, step=step))
            errors2.append(np.max(np.abs(series.psi - exact2)))
        assert errors2[0] / errors2[1] >= 14.0

    def test_step_cap_enforced(self):
        times = np.linspace(0.0, 5.0, 11)
        with pytest.raises(ValueError):
            integrate(pt_wave_ivp(P, times, step=0.2))

    def test_overflow_guard(self):
        times = np.linspace(0.0, 500.0, 11)
        with pytest.raises(OverflowRangeError):
            integrate(pt_wave_ivp(P, times, step=1e-2))

    def test_non_finite_result_refused(self):
        # a bounded mode, but psi = 1.7e308 (cos t + sin t) leaves the double range
        ivp = SecondOrderIVP(c1=0.0, c0=1.0, psi0=1.7e308, dpsi0=1.7e308,
                             times=np.linspace(0.0, 1.0, 3), step=1e-2)
        with pytest.raises(OverflowRangeError, match="non-finite"):
            integrate(ivp)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SecondOrderIVP(c1=0.0, c0=1.0, psi0=1.0, dpsi0=0.0,
                           times=np.array([1.0, 0.5]), step=1e-2)
        with pytest.raises(ValueError):
            SecondOrderIVP(c1=0.0, c0=1.0, psi0=1.0, dpsi0=0.0,
                           times=np.array([-1.0, 0.5]), step=1e-2)
        with pytest.raises(ValueError):
            SecondOrderIVP(c1=0.0, c0=1.0, psi0=1.0, dpsi0=0.0,
                           times=np.array([0.0, 1.0]), step=0.0)

    @pytest.mark.parametrize("step", [1e-320, 1e-310])
    def test_non_finite_substep_count(self, step):
        """A step whose substep count over the grid overflows is an input
        error, raised before integration (``math.ceil`` of an infinite count
        raised ``OverflowError``): an infinite count exceeds the cap too."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="substeps"):
                pt_wave_ivp(P, np.linspace(0.0, 5.0, 11), step)

    def test_substep_budget(self):
        """``times[-1] / step`` is capped, so a tiny finite step is refused
        at once instead of running for hours."""
        times = np.linspace(0.0, 5.0, 11)
        SecondOrderIVP(c1=0.0, c0=1.0, psi0=1.0, dpsi0=0.0, times=times,
                       step=5.0 / MAX_SUBSTEPS)
        for step in (4.99 / MAX_SUBSTEPS, 1e-12, 1e-300):
            with pytest.raises(ValueError, match=f"step {step:g} needs more than"):
                pt_wave_ivp(P, times, step)

    def test_c2_field_removed(self):
        """The coefficients are monic by construction; there is no ``c2``."""
        with pytest.raises(TypeError):
            SecondOrderIVP(c1=0.0, c0=1.0, psi0=1.0, dpsi0=0.0,
                           times=np.array([0.0, 1.0]), step=1e-2, c2=1.0)

    def test_slope_normalized_route(self):
        """Integrating with unit slope and rescaling by 2 i Gamma matches the
        canonical run, so the initial-slope gauge drops out."""
        times = np.linspace(0.0, 5.0, 26)
        c2, c1, c0 = pt_wave_equation(P)
        unit = integrate(
            SecondOrderIVP(c1=c1, c0=c0, psi0=0.0, dpsi0=1.0, times=times, step=1e-3)
        )
        rescaled = unit.psi * (2j * P.gamma)
        expected = inverse_ft(build_model("pt-pair", P), times)
        assert np.max(np.abs(rescaled - expected)) <= 1e-6


def _stagewise_rk4(ivp):
    """Classical RK4 with stages k1..k4 on the substeps ``integrate`` takes."""

    def f(y):
        return np.array([y[1], -ivp.c1 * y[1] - ivp.c0 * y[0]])

    y = np.array([ivp.psi0, ivp.dpsi0], dtype=complex)
    out = np.empty((ivp.times.size, 2), dtype=complex)
    t_prev = 0.0
    for k, tk in enumerate(ivp.times):
        span = tk - t_prev
        if span > 0.0:
            nsub = max(1, int(np.ceil(span / ivp.step - 1e-12)))
            h = span / nsub
            for _ in range(nsub):
                k1 = f(y)
                k2 = f(y + 0.5 * h * k1)
                k3 = f(y + 0.5 * h * k2)
                k4 = f(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k] = y
        t_prev = tk
    return out


class TestStabilityPolynomial:
    """One RK4 step on ``y' = A y`` is ``y <- y + (R(hA) - I) y``; the result
    matches the stagewise step up to rounding."""

    GRIDS = {
        "uniform": np.linspace(0.0, 5.0, 5001),
        "uneven": np.concatenate(
            [[0.0, 1e-4, 0.0137], np.sort(np.random.default_rng(7).uniform(0.02, 4.9, 37)), [5.0]]
        ),
    }

    @pytest.mark.parametrize("grid", ["uniform", "uneven"])
    @pytest.mark.parametrize("make_ivp", [pt_wave_ivp, damped_oscillator_ivp])
    def test_matches_stagewise_step(self, make_ivp, grid):
        ivp = make_ivp(P, self.GRIDS[grid], 1e-3)
        series = integrate(ivp)
        expected = _stagewise_rk4(ivp)
        npt.assert_allclose(series.psi, expected[:, 0], rtol=1e-14, atol=0)
        npt.assert_allclose(series.dpsi, expected[:, 1], rtol=1e-14, atol=0)


def _rk4_span(c1, c0, y, t0, t1, step):
    """The per-span kernel: the increment ``D = R(hA) - I`` rebuilt by Horner
    for every grid span, then applied as ``y <- y + D y`` on its substeps."""
    span = t1 - t0
    if span == 0.0:
        return y
    nsub = max(1, math.ceil(span / step - 1e-12))
    h = span / nsub
    a10, a11 = -c0 * h, -c1 * h
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for k in (4.0, 3.0, 2.0):
        m00, m01, m10, m11 = (
            1.0 + h * m10 / k,
            h * m11 / k,
            (a10 * m00 + a11 * m10) / k,
            1.0 + (a10 * m01 + a11 * m11) / k,
        )
    d00, d01 = h * m10, h * m11
    d10, d11 = a10 * m00 + a11 * m10, a10 * m01 + a11 * m11
    psi, dpsi = y
    for _ in range(nsub):
        psi, dpsi = psi + (d00 * psi + d01 * dpsi), dpsi + (d10 * psi + d11 * dpsi)
    return psi, dpsi


def _per_span_rk4(ivp):
    """``integrate``'s output from the per-span kernel, as (psi, dpsi)."""
    y, t_prev = (ivp.psi0, ivp.dpsi0), 0.0
    psi, dpsi = np.empty((2, ivp.times.size), dtype=complex)
    for k, tk in enumerate(ivp.times.tolist()):
        y = _rk4_span(ivp.c1, ivp.c0, y, t_prev, tk, ivp.step)
        psi[k], dpsi[k] = y
        t_prev = tk
    return psi, dpsi


class TestSharedIncrements:
    """The increment is built once per distinct substep length of a call, and
    the output keeps every bit of the per-span kernel."""

    COARSE = np.linspace(0.0, 5.0, 51)
    GRIDS = {
        "501": (np.linspace(0.0, 5.0, 501), 1e-3),
        "5001": (np.linspace(0.0, 5.0, 5001), 1e-3),
        "51-coarse": (COARSE, 0.02),
        "51-fine": (COARSE, 0.01),
        "one-span": (np.array([0.0, 5.0]), 1e-3),
        "uneven": (TestStabilityPolynomial.GRIDS["uneven"], 1e-3),
        "late-start": (np.linspace(0.37, 4.2, 97), 1e-3),
    }

    @staticmethod
    def _assert_same_bits(ivp):
        series = integrate(ivp)
        psi, dpsi = _per_span_rk4(ivp)
        npt.assert_array_equal(series.psi.view(np.uint64), psi.view(np.uint64))
        npt.assert_array_equal(series.dpsi.view(np.uint64), dpsi.view(np.uint64))

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("make_ivp", [pt_wave_ivp, damped_oscillator_ivp])
    def test_same_bits_as_per_span_kernel(self, make_ivp, grid):
        times, step = self.GRIDS[grid]
        self._assert_same_bits(make_ivp(P, times, step))

    @pytest.mark.parametrize(
        "c1, c0, psi0, dpsi0",
        [(2e-320j, -0.0, 0.0, 2e-320j), (2e-320, 0.0, 1.0, -1e-320 - 1e-320j)],
        ids=["pt_wave_ivp", "damped_oscillator_ivp"],
    )
    def test_same_bits_with_subnormal_coefficients(self, c1, c0, psi0, dpsi0):
        """The IVPs of ``test_subnormal_parameters_integrate``."""
        self._assert_same_bits(SecondOrderIVP(c1=c1, c0=c0, psi0=psi0, dpsi0=dpsi0,
                                              times=np.linspace(0.0, 1.0, 3), step=1e-2))

    @pytest.mark.parametrize("grid, builds", [("501", 11), ("5001", 12), ("51-coarse", 7),
                                              ("one-span", 1)])
    def test_one_build_per_substep_length(self, grid, builds, monkeypatch):
        """The 501-point grid has 500 spans but 11 substep lengths; a second
        call builds its increments again, as none outlives a call."""
        lengths = []
        increment = odes._increment

        def spy(c1, c0, h):
            lengths.append(h)
            return increment(c1, c0, h)

        monkeypatch.setattr(odes, "_increment", spy)
        times, step = self.GRIDS[grid]
        ivp = pt_wave_ivp(P, times, step)
        integrate(ivp)
        assert len(lengths) == len(set(lengths)) == builds
        integrate(ivp)
        assert lengths[builds:] == lengths[:builds]
