"""Tests for propagators, phase shifts, time delay and the inverse transforms."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from helpers import numbers_in
import ptresonance as ptr
from ptresonance import (
    DefectiveMatrixError,
    NoMetricError,
    OverflowRangeError,
    PropagatorModel,
    ResonanceParams,
    build_model,
    bw_propagator,
    default_energy_grid,
    inverse_ft,
    phase_shift,
    pt_propagator,
    quadrature_ift,
    time_delay,
)
from ptresonance import response
from ptresonance.response import _PANEL_BLOCK, _reciprocal, energy_response

P = ResonanceParams(1.0, 0.8)


class TestParams:
    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            ResonanceParams(1.0, 0.0)
        with pytest.raises(ValueError):
            ResonanceParams(1.0, -1.0)
        with pytest.raises(ValueError):
            ResonanceParams(np.inf, 1.0)


class TestSinglePolePropagator:
    def test_at_resonance(self):
        assert bw_propagator(P.e0, P) == pytest.approx(-1j / P.gamma)

    def test_one_halfwidth_up(self):
        """Substituting E = E0 + Gamma and rationalizing gives (1 - i)/(2 Gamma)."""
        assert bw_propagator(P.e0 + P.gamma, P) == pytest.approx(
            (1.0 - 1j) / (2.0 * P.gamma)
        )

    def test_far_tail_magnitude(self):
        value = bw_propagator(P.e0 + 1e6 * P.gamma, P)
        assert abs(value) <= 1.0000001e-6 / P.gamma
        value = bw_propagator(P.e0 - 1e6 * P.gamma, P)
        assert abs(value) <= 1.0000001e-6 / P.gamma

    @pytest.mark.parametrize(
        "function",
        [
            bw_propagator,
            pt_propagator,
            phase_shift,
            time_delay,
            pytest.param(
                lambda E, p: energy_response("pt-pair", p, np.atleast_1d(E)), id="energy_response"
            ),
        ],
    )
    @pytest.mark.parametrize("E", [np.nan, np.inf, -np.inf, [0.0, np.nan]])
    def test_non_finite_energy_rejected(self, function, E):
        with pytest.raises(ValueError, match="E must be finite"):
            function(E, P)

    @pytest.mark.parametrize(
        "propagator, gamma",
        [(bw_propagator, 1e-160), (bw_propagator, 1e160), (pt_propagator, 1e-170)],
    )
    def test_form_check_fails_closed(self, propagator, gamma):
        """At E = E0, Gamma^2 is subnormal (1e-160), overflows (1e160) or
        underflows to 0 (1e-170), and the rationalized form cannot confirm
        the value.  A check that reads NaN there (the complex-arithmetic ones
        at 1e-160 and 1e-170, the real-arithmetic one at 1e160 and 1e-170)
        passes under a ``>`` comparison; the identity ``G (E - E0 + i Gamma)
        = 1`` holds at all three, so bw_propagator refuses them by the range
        of ``(E - E0)^2 + Gamma^2``."""
        p = ResonanceParams(1.0, gamma)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            propagator(p.e0, p)

    @pytest.mark.parametrize("e0, gamma", [(1.0, 0.8), (-3.0, 1e-6), (0.0, 1e-150), (2.0, 1e150)])
    def test_bit_for_bit_the_quotient(self, e0, gamma):
        """The checked value is ``1/(E - E0 + i Gamma)`` itself, on a grid from
        the peak to far tails, and so are both kinds of energy curve."""
        p = ResonanceParams(e0, gamma)
        E = e0 + gamma * np.concatenate(
            [-np.logspace(-20, 150, 1500)[::-1], [0.0], np.logspace(-20, 150, 1500)]
        )
        E = E[np.abs(E - e0) < 1e150]
        expected = 1.0 / (E - e0 + 1j * gamma)
        npt.assert_array_equal(bw_propagator(E, p).view(np.uint64), expected.view(np.uint64))
        for kind, d in (("breit-wigner", expected), ("pt-pair", expected - np.conj(expected))):
            table = energy_response(kind, p, E)
            npt.assert_array_equal(table["re_d"].view(np.uint64), d.real.view(np.uint64))
            npt.assert_array_equal(table["im_d"].view(np.uint64), d.imag.view(np.uint64))


def _complex_form_check(E, p):
    """The two-form check in complex arithmetic: the relative difference
    ``|value - rational| / |rational|`` per energy, NaN where it cannot be
    computed."""
    d = np.asarray(E, dtype=float) - p.e0
    value = 1.0 / (d + 1j * p.gamma)
    rational = (d - 1j * p.gamma) / (d * d + p.gamma * p.gamma)
    return np.abs(value - rational) / np.abs(rational)


def _real_form_check(E, p):
    """The same difference in real arithmetic, squared, as bw_propagator
    checked it before the identity check: the rational form has modulus
    ``den^(-1/2)``, so the difference is ``|value sqrt(den) - (d - i Gamma) /
    sqrt(den)|``.  NaN where it cannot be computed."""
    d = np.asarray(E, dtype=float) - p.e0
    value = 1.0 / (d + 1j * p.gamma)
    s = np.sqrt(d * d + p.gamma * p.gamma)
    re = value.real * s - d / s
    im = value.imag * s + p.gamma / s
    return re * re + im * im


def _refused(E, p, function=bw_propagator):
    """Whether ``function`` refuses each energy of E on its own."""
    refused = []
    for e in E:
        try:
            function(e, p)
            refused.append(False)
        except FloatingPointError:
            refused.append(True)
    return np.array(refused)


def _normal_den(E, p):
    """Whether ``(E - E0)^2 + Gamma^2`` is a normal finite double, per energy."""
    d = np.asarray(E, dtype=float) - p.e0
    den = d * d + p.gamma * p.gamma
    return (den >= np.finfo(float).tiny) & (den < np.inf)


class TestFormCheckVerdicts:
    """The identity check in bw_propagator against the two-form checks."""

    # E0 = 0 keeps the offsets of the Gamma = 1e-150 grid from rounding away.
    @pytest.mark.parametrize("e0, gamma", [(1.0, 0.8), (0.0, 1e-150), (0.0, 1e150)])
    def test_same_verdicts_as_complex_check(self, e0, gamma):
        p = ResonanceParams(e0, gamma)
        offsets = np.concatenate(
            [gamma * np.linspace(-1e6, 1e6, 2001), [-1e155, -1e150, 1e150, 1e155]]
        )
        E = p.e0 + offsets
        with np.errstate(all="ignore"):
            err = _complex_form_check(E, p)
            refused = _refused(E, p)
            # the real-arithmetic check, kept as the reference, on every energy
            npt.assert_array_equal(refused, ~(_real_form_check(E, p) <= 1e-13**2))
        compared = ~np.isnan(err)
        npt.assert_array_equal(refused[compared], err[compared] > 1e-13)
        assert np.sum(compared) >= 2000
        # |E - E0| = 1e150 passes and 1e155, where (E - E0)^2 overflows, fails
        assert err[-3] <= 1e-13 and err[-2] <= 1e-13
        assert err[-4] > 1e-13 and err[-1] > 1e-13

    @pytest.mark.parametrize("e0, gamma", [(1.0, 0.8), (1.0, 0.3), (2.0, 0.5)])
    def test_quadrature_nodes_pass_both_checks(self, e0, gamma, monkeypatch):
        """Every node of the cross-check's rule at N = 200000, L = 1e4 Gamma,
        goes through the kernel with Gamma as its imaginary part and passes
        the real-arithmetic form check; the identity ``G (x + i Gamma) = 1``
        holds wherever the range rule accepts (``test_range_properties.py``).
        The nodes are offsets from E0, so the reference reads them with
        E0 = 0."""
        seen = []

        def spy(z, *work):
            assert np.all(z.imag == gamma)
            seen.append(z.real.copy())  # the work array is reused by the next block
            return _reciprocal(z, *work)

        monkeypatch.setattr("ptresonance.response._reciprocal", spy)
        quadrature_ift(ResonanceParams(e0, gamma), 0.5, 1e4 * gamma, 200000)
        nodes = np.concatenate([d.ravel() for d in seen])
        assert nodes.size == 6 * 100000
        assert np.max(_real_form_check(nodes, ResonanceParams(0.0, gamma))) <= 1e-13**2

    @pytest.mark.parametrize(
        "band",
        ["gamma at E0", "E at gamma 1e-160", "E at gamma 1e-170", "gamma at the overflow"],
    )
    def test_band_where_den_leaves_the_normal_range(self, band):
        """bw_propagator refuses exactly where ``(E - E0)^2 + Gamma^2`` is not a
        normal finite double, and so does time_delay.  The real-arithmetic
        check refused the same energies at and beyond the overflow, but inside
        the subnormal band only where the rounding of the subnormal
        denominator cost more than 1e-13, about half of them: those verdicts
        move from pass to refusal, and every one of its refusals stays."""
        edge = np.sqrt(np.finfo(float).tiny)
        if band == "gamma at E0":
            cases = [(0.0, ResonanceParams(0.0, g)) for g in edge * np.logspace(-4, 1, 1201)]
        elif band == "gamma at the overflow":
            top = np.sqrt(np.finfo(float).max)
            cases = [(0.0, ResonanceParams(0.0, g)) for g in top * np.logspace(-1, 0.02, 1201)]
        else:
            p = ResonanceParams(0.0, 1e-160 if band.endswith("1e-160") else 1e-170)
            offsets = edge * np.logspace(-4, 1, 600)
            cases = [(e, p) for e in np.concatenate([-offsets, offsets])]
        with np.errstate(all="ignore"):
            refused = np.array([_refused([e], p)[0] for e, p in cases])
            delay_refused = np.array([_refused([e], p, time_delay)[0] for e, p in cases])
            pair_refused = np.array([_refused([e], p, pt_propagator)[0] for e, p in cases])
            normal = np.array([_normal_den([e], p)[0] for e, p in cases])
            reference = np.array([not _real_form_check(e, p) <= 1e-13**2 for e, p in cases])
        assert np.any(normal) and np.any(~normal)
        npt.assert_array_equal(refused, ~normal)
        npt.assert_array_equal(delay_refused, ~normal)
        npt.assert_array_equal(pair_refused, ~normal)
        npt.assert_array_equal(reference[normal], refused[normal])
        assert np.all(refused[reference])
        moved = refused & ~reference
        if band == "gamma at the overflow":
            assert not np.any(moved)
        else:
            assert 0 < np.sum(moved) < np.sum(~normal)


class TestTwoPolePropagator:
    def test_at_resonance(self):
        assert pt_propagator(P.e0, P) == pytest.approx(-2j / P.gamma)

    def test_purely_imaginary_negative(self):
        grid = default_energy_grid(P, halfwidth=100.0, points=2001)
        values = pt_propagator(grid, P)
        assert np.all(values.real == 0.0)
        assert np.all(values.imag < 0.0)

    def test_double_the_single_pole_imaginary_part(self):
        assert pt_propagator(P.e0, P).imag == pytest.approx(2 * bw_propagator(P.e0, P).imag)

    def test_two_form_identity_on_dense_grid(self):
        """The two-pole sum and the closed form agree to 1e-13 relative."""
        grid = np.linspace(P.e0 - 100 * P.gamma, P.e0 + 100 * P.gamma, 10000)
        d = grid - P.e0
        two_pole = 1.0 / (d + 1j * P.gamma) - 1.0 / (d - 1j * P.gamma)
        closed = pt_propagator(grid, P)
        npt.assert_allclose(two_pole, closed, rtol=1e-13)

    @pytest.mark.parametrize(
        "e0, gamma, offset",
        [(6.0e83, 1.2e-218, 1e128), (-3e5, 1e-150, 1e90), (0.0, 1e-200, 1.7e60),
         (0.0, 3e-200, 5e59)],
        ids=["zero", "zero-negative-e0", "subnormal", "subnormal-nearer"],
    )
    def test_underflowed_closed_form_is_returned(self, e0, gamma, offset):
        """Where the closed form underflows to 0 or to a subnormal, the two forms
        agree below the smallest normal double: the value is returned, as
        ``bw_propagator`` and ``time_delay`` return theirs, and it is -2i times
        the time delay there (the two-form check refused all four before)."""
        p = ResonanceParams(e0, gamma)
        E = np.array([e0 - offset, e0 + offset])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = pt_propagator(E, p)
            bw_propagator(E, p)
            delay = time_delay(E, p)
        assert np.all(np.abs(value - (-2j * delay)) < np.finfo(float).tiny)


class TestPhaseShift:
    def test_resonance_values(self):
        assert phase_shift(P.e0, P, "delay") == pytest.approx(np.pi / 2)
        assert phase_shift(P.e0, P, "advance") == pytest.approx(-np.pi / 2)

    def test_low_energy_limit(self):
        value = phase_shift(P.e0 - 1e8, P, "delay")
        assert 0.0 < value < 1e-7

    def test_continuous_and_monotone(self):
        grid = default_energy_grid(P)
        delta_delay = phase_shift(grid, P, "delay")
        delta_advance = phase_shift(grid, P, "advance")
        assert np.all(np.diff(delta_delay) > 0)
        assert np.all(np.diff(delta_advance) < 0)
        assert np.max(np.abs(np.diff(delta_delay))) < 0.5  # no pi jumps

    def test_unknown_branch(self):
        with pytest.raises(ValueError):
            phase_shift(0.0, P, "sideways")


class TestTimeDelay:
    def test_peak_values(self):
        assert time_delay(P.e0, P, "delay") == pytest.approx(1.0 / P.gamma, rel=1e-12)
        assert time_delay(P.e0, P, "advance") == pytest.approx(-1.0 / P.gamma, rel=1e-12)

    def test_half_maximum_at_one_width(self):
        assert time_delay(P.e0 + P.gamma, P) == pytest.approx(1.0 / (2 * P.gamma))
        assert time_delay(P.e0 - P.gamma, P) == pytest.approx(1.0 / (2 * P.gamma))

    @pytest.mark.parametrize("branch", ["delay", "advance"])
    def test_matches_phase_derivative(self, branch):
        """Centered finite difference of the phase shift, step 1e-6 Gamma."""
        grid = default_energy_grid(P)
        h = 1e-6 * P.gamma
        fd = (phase_shift(grid + h, P, branch) - phase_shift(grid - h, P, branch)) / (2 * h)
        closed = time_delay(grid, P, branch)
        npt.assert_allclose(fd, closed, rtol=1e-6)

    def test_antisymmetry_exact(self):
        grid = default_energy_grid(P)
        npt.assert_array_equal(
            time_delay(grid, P, "delay"), -time_delay(grid, P, "advance")
        )

    @pytest.mark.parametrize("gamma", [1e-160, 1e160])
    def test_fails_closed_outside_the_normal_range(self, gamma):
        # At E = E0 the denominator Gamma^2 is subnormal (Gamma = 1e-160 gave
        # 1.0000111e160 without an error) or overflows (Gamma = 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="normal double range"):
                time_delay(0.0, ResonanceParams(0.0, gamma))
            with pytest.raises(FloatingPointError, match="normal double range"):
                time_delay(np.array([0.0, 1.0]), ResonanceParams(0.0, gamma), "advance")

    def test_peaks_at_resonance(self):
        grid = default_energy_grid(P)
        step = grid[1] - grid[0]
        for branch, extremum in (("delay", np.argmax), ("advance", np.argmin)):
            idx = extremum(time_delay(grid, P, branch))
            assert abs(grid[idx] - P.e0) <= step


class TestModel:
    def test_single_pole_model(self):
        m = build_model("breit-wigner", P)
        npt.assert_array_equal(m.poles, [P.e0 - 1j * P.gamma])
        npt.assert_array_equal(m.residues, [1.0])
        assert m.closure == ("lower",)

    def test_pair_model_both_lower(self):
        m = build_model("pt-pair", P)
        npt.assert_array_equal(m.poles, [P.e0 - 1j * P.gamma, P.e0 + 1j * P.gamma])
        npt.assert_array_equal(m.residues, [1.0, -1.0])
        assert m.closure == ("lower", "lower")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind 'triple'"):
            build_model("triple", P)
        with pytest.raises(ValueError, match="unknown model kind 'triple'"):
            energy_response("triple", P, [0.0])

    def test_duplicate_poles_rejected(self):
        from ptresonance import PropagatorModel

        with pytest.raises(ValueError):
            PropagatorModel(
                poles=np.array([1.0 + 0j, 1.0 + 0j]),
                residues=np.array([1.0, -1.0]),
            )

    def test_pole_and_residue_shapes_checked(self):
        from ptresonance import PropagatorModel

        with pytest.raises(ValueError, match="1-D and the same length"):
            PropagatorModel(poles=np.array([1.0 - 1j, 2.0 - 1j]), residues=np.array([1.0]))

    def test_poles_2e308_apart_accepted(self):
        """The distinctness check compares poles: their distance overflows."""
        with np.errstate(over="raise"):
            m = build_model("pt-pair", ResonanceParams(1.0, 1e308))
        assert m.closure == ("lower", "lower")


class TestInverseTransform:
    def test_single_pole_positive_time(self):
        m = build_model("breit-wigner", P)
        for t in (0.25, 1.0, 3.5):
            expected = -1j * np.exp(-1j * P.e0 * t - P.gamma * t)
            assert inverse_ft(m, t) == pytest.approx(expected, rel=1e-14)

    def test_single_pole_negative_time_vanishes(self):
        m = build_model("breit-wigner", P)
        assert inverse_ft(m, -1.0) == 0.0
        npt.assert_array_equal(inverse_ft(m, np.array([-3.0, -0.5])), [0.0, 0.0])

    def test_pair_positive_time(self):
        m = build_model("pt-pair", P)
        for t in (0.25, 1.0, 3.5):
            expected = -1j * (
                np.exp(-1j * P.e0 * t - P.gamma * t) - np.exp(-1j * P.e0 * t + P.gamma * t)
            )
            assert inverse_ft(m, t) == pytest.approx(expected, rel=1e-14)

    def test_pair_vanishes_at_zero(self):
        m = build_model("pt-pair", P)
        assert inverse_ft(m, 0.0) == 0.0

    def test_pair_negative_time_vanishes(self):
        """Both poles sit in the t > 0 contour, so nothing contributes for t < 0."""
        m = build_model("pt-pair", P)
        assert inverse_ft(m, -2.0) == 0.0

    def test_mixed_sign_time_array(self):
        m = build_model("pt-pair", P)
        ts = np.array([-2.0, 0.0, 1.0])
        values = inverse_ft(m, ts)
        npt.assert_array_equal(
            values, [inverse_ft(m, -2.0), inverse_ft(m, 0.0), inverse_ft(m, 1.0)]
        )

    def test_overflow_guard(self):
        m = build_model("pt-pair", P)
        with pytest.raises(OverflowRangeError):
            inverse_ft(m, 400.0)

    def test_overflow_guard_before_the_product_overflows(self):
        # Im p * t = 5e308 is beyond the double range: the guard reports it as
        # inf, without numpy's overflow warning first
        m = build_model("pt-pair", ResonanceParams(1.0, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="residue exponent inf exceeds cap 300"):
                inverse_ft(m, 5.0)

    def test_phase_beyond_the_double_range(self):
        # E0 t = 5e308: refused at the phase, where 129 of 201 values came out
        # non-finite after numpy's overflow warnings
        m = build_model("breit-wigner", ResonanceParams(1e308, 0.8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="phase"):
                inverse_ft(m, np.linspace(0.0, 5.0, 201))

    @pytest.mark.parametrize("kind", ["breit-wigner", "pt-pair"])
    def test_residue_sum_bit_for_bit(self, kind):
        """The guarded phases leave the residue sum of finite input unchanged."""
        m = build_model(kind, P)
        ts = np.linspace(0.0, 5.0, 201)
        expected = -1j * np.sum(m.residues[:, None] * np.exp(-1j * np.outer(m.poles, ts)), axis=0)
        assert np.array_equal(inverse_ft(m, ts).view(np.uint64), expected.view(np.uint64))

    def test_first_order_relation(self):
        """(d/dt + i E0 + Gamma) applied to the single-pole transform vanishes."""
        m = build_model("breit-wigner", P)
        ts = np.linspace(0.1, 5.0, 200)
        h = 1e-3
        d = (inverse_ft(m, ts + h) - inverse_ft(m, ts - h)) / (2 * h)
        residual = d + (1j * P.e0 + P.gamma) * inverse_ft(m, ts)
        assert np.max(np.abs(residual)) <= 1e-6

    def test_second_order_relation(self):
        """psi'' + 2 i E0 psi' - (E0^2 + Gamma^2) psi = 0 for the pair transform,
        residual normalized by the local magnitude of the growing mode."""
        m = build_model("pt-pair", P)
        ts = np.linspace(0.1, 5.0, 200)
        h = 2e-4
        f0 = inverse_ft(m, ts)
        fp = inverse_ft(m, ts + h)
        fm = inverse_ft(m, ts - h)
        d1 = (fp - fm) / (2 * h)
        d2 = (fp - 2 * f0 + fm) / (h * h)
        residual = d2 + 2j * P.e0 * d1 - (P.e0**2 + P.gamma**2) * f0
        scale = np.maximum(1.0, np.abs(f0))
        assert np.max(np.abs(residual) / scale) <= 1e-6


class TestQuadrature:
    def test_matches_residue_sum(self):
        m = build_model("breit-wigner", P)
        result = quadrature_ift(P, 1.0, L=1e4 * P.gamma, N=200000)
        assert abs(result.value - inverse_ft(m, 1.0)) <= 1e-4

    def test_negative_time_small(self):
        result = quadrature_ift(P, -1.0, L=1e4 * P.gamma, N=200000)
        assert abs(result.value) <= 1e-4

    def test_tail_estimate_halves_with_doubled_width(self):
        a = quadrature_ift(P, 0.5, L=100.0, N=2000).tail_estimate
        b = quadrature_ift(P, 0.5, L=200.0, N=2000).tail_estimate
        assert b == pytest.approx(a / 2.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            quadrature_ift(P, 1.0, L=0.0, N=10)
        with pytest.raises(ValueError):
            quadrature_ift(P, 1.0, L=1.0, N=0)
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                quadrature_ift(P, t, L=40.0, N=10)
        for L in (np.nan, np.inf):
            with pytest.raises(ValueError, match="half-width L"):
                quadrature_ift(P, 1.0, L=L, N=10)

    def test_bool_counts_refused(self):
        """A bool is an int to Python, but not a count, as for the JSON door's n."""
        with pytest.raises(ValueError, match="panel count N"):
            quadrature_ift(P, 1.0, L=40.0, N=True)
        with pytest.raises(ValueError, match="point count"):
            default_energy_grid(P, points=True)


def _unfolded_quadrature(p, t, L, N):
    """The composite rule summed over all 6N nodes in absolute energy.

    Returns the value and the size of its terms, ``sum |w f| / (2 pi)``.  The
    panel half-width is ``L / N``; ``(edges[1] - edges[0]) / 2`` would carry
    a relative rounding of up to ``eps N`` into every weight.
    """
    nodes, weights = np.polynomial.legendre.leggauss(6)
    edges = np.linspace(p.e0 - L, p.e0 + L, N + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    half = L / N
    E = (centers[:, None] + half * nodes[None, :]).reshape(-1)
    w = np.broadcast_to(half * weights[None, :], (N, 6)).reshape(-1)
    terms = w * np.exp(-1j * E * t) * bw_propagator(E, p)
    return complex(np.sum(terms) / (2.0 * np.pi)), float(np.sum(np.abs(terms)) / (2.0 * np.pi))


def _allocating_quadrature(p, t, L, N):
    """``quadrature_ift``'s folded sum with fresh arrays in every block and the
    range rule on every block."""
    nodes, weights = np.polynomial.legendre.leggauss(6)
    h = L / N
    node_weights = h * weights * np.exp(-1j * h * t * nodes)
    q = np.arange((N + 1) % 2, N, 2, dtype=float)
    steps = np.exp(-2j * h * t * np.arange(min(q.size, _PANEL_BLOCK)))
    total = 0.0j
    for start in range(0, q.size, _PANEL_BLOCK):
        centres = h * q[start : start + _PANEL_BLOCK]
        d = h * nodes[:, None] + centres
        response._require_normal_range(d, p.gamma, "propagator check")
        f = 1.0 / (d + 1j * p.gamma)
        phases = np.exp(-1j * h * t * q[start]) * steps[: centres.size]
        if start == 0 and N % 2:
            phases[0] *= 0.5
        total += (node_weights @ f) @ phases
    return complex(np.exp(-1j * p.e0 * t) * (1j / np.pi) * total.imag)


def _outcome(call):
    """The message of the OverflowRangeError ``call()`` raises, or None."""
    try:
        call()
    except OverflowRangeError as exc:
        return str(exc)
    return None


class TestRangeRulePerCall:
    """``quadrature_ift`` applies the range rule once, to its first and last
    panel, and refuses exactly where the rule applied to every block did, with
    the same message, before any block runs."""

    EDGE, TOP = np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max)

    # odd and even N, one block and three
    @pytest.mark.parametrize("N", [1, 2, 7, 8, 4 * _PANEL_BLOCK + 2, 4 * _PANEL_BLOCK + 3])
    @pytest.mark.parametrize("band", ["subnormal", "overflow"])
    def test_refuses_where_the_per_block_rule_did(self, band, N):
        count = 401 if N < _PANEL_BLOCK else 41
        if band == "subnormal":
            # panel half-widths that put the nearest node below, near and above EDGE
            cases = [(g, N * h * self.EDGE) for g in self.EDGE * np.logspace(-4, 1, count)
                     for h in (0.5, 4.0, 20.0)]
        else:
            cases = [(g, L * self.TOP) for g in self.TOP * np.logspace(-1, 0.02, count)
                     for L in (0.1, 0.5, 1.0)]
        outcomes = []
        for gamma, L in cases:
            p = ResonanceParams(0.0, gamma)
            reference = _outcome(lambda: _allocating_quadrature(p, 0.5, L, N))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _outcome(lambda: quadrature_ift(p, 0.5, L, N)) == reference
            outcomes.append(reference)
        assert None in outcomes
        assert "propagator check: (E - E0)^2 + Gamma^2 leaves the normal double range" in outcomes

    def test_refused_before_any_block_runs(self, monkeypatch):
        """The first of three blocks lies within the range and a later one
        beyond it; the call is refused before the first block is evaluated."""
        blocks = []
        monkeypatch.setattr("ptresonance.response._reciprocal",
                            lambda z, *work: blocks.append(z.size) or _reciprocal(z, *work))
        with pytest.raises(OverflowRangeError, match="normal double range"):
            quadrature_ift(ResonanceParams(0.0, 0.5 * self.TOP), 0.5, self.TOP,
                           4 * _PANEL_BLOCK + 3)
        assert blocks == []


class TestQuadratureFold:
    """The folded, phase-factored kernel against the rule summed unfolded."""

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 1001, 200001])
    @pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 2.0])
    def test_matches_unfolded_rule(self, N, t):
        L = 50.0 * P.gamma
        expected, size = _unfolded_quadrature(P, t, L, N)
        error = abs(quadrature_ift(P, t, L, N).value - expected)
        # relative to the size of the terms: at small N the sum cancels
        assert error <= 1e-13 * size
        if N > 7:
            # and relative to the value itself, which at these N is at most
            # ~300x smaller than its terms (t = -1)
            assert error <= 1e-13 * abs(expected)

    # N whose half grid of ceil(N/2) panels ends one panel below, at and one
    # panel above one and two blocks, for odd and even N (odd N halves the
    # centre panel, which only the first block holds); and the range of the
    # benchmark's cross-check, L = 1e4 Gamma with 200001 panels.
    @pytest.mark.parametrize(
        "L, N",
        [(50.0 * P.gamma, 2 * k * _PANEL_BLOCK + j) for k in (1, 2) for j in range(-3, 3)]
        + [(1e4 * P.gamma, 200001)],
    )
    @pytest.mark.parametrize("t", [-1.0, 0.5, 1.0, 2.0])
    def test_matches_unfolded_rule_in_term_size(self, L, N, t):
        expected, size = _unfolded_quadrature(P, t, L, N)
        assert abs(quadrature_ift(P, t, L, N).value - expected) <= 1e-13 * size

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 4095, 4096, 4097, 8195])
    @pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 2.0])
    def test_same_bits_as_the_allocating_loop(self, N, t):
        """The work arrays change where a block is written, not what it computes."""
        for p, L in ((P, 50.0 * P.gamma), (ResonanceParams(-2.0, 0.3), 1e4 * 0.3)):
            expected = np.array([_allocating_quadrature(p, t, L, N)])
            npt.assert_array_equal(np.array([quadrature_ift(p, t, L, N).value]).view(np.uint64),
                                   expected.view(np.uint64))

    def test_tail_estimate_unchanged(self):
        for L in (0.5, 40.0, 8000.0):
            assert quadrature_ift(P, 1.0, L, 7).tail_estimate == 1.0 / (np.pi * L)

    def test_two_form_check_runs_on_every_node(self, monkeypatch):
        """The x >= 0 half of N = 4 B + 3 panels is 2 B + 2 panels of 6 nodes,
        in three blocks of at most B panels, each inverted by the kernel
        ``_reciprocal``."""
        seen = []

        def counting(z, *work):
            seen.append(np.size(z))
            return _reciprocal(z, *work)

        monkeypatch.setattr("ptresonance.response._reciprocal", counting)
        quadrature_ift(P, 0.5, 40.0, 4 * _PANEL_BLOCK + 3)
        assert sum(seen) == 6 * (2 * _PANEL_BLOCK + 2)
        assert len(seen) == 3


def _residue_sum(kind, p, E):
    """``sum_k r_k / (E - p_k)`` over the poles of ``build_model(kind, p)``."""
    model = build_model(kind, p)
    x = np.asarray(E, dtype=float)
    return np.sum(model.residues[:, None] / (x[None, :] - model.poles[:, None]), axis=0)


class TestCurves:
    # The paper's pair, a narrow and a wide resonance, and E0 = 0 with the
    # grid crossing it, on the default grids and one far off resonance.
    @pytest.mark.parametrize("kind", ["breit-wigner", "pt-pair"])
    @pytest.mark.parametrize("e0, gamma", [(1.0, 0.8), (3.0, 1e-6), (-2.0, 1e5), (0.0, 1.0)])
    def test_curves_are_the_residue_sum_bit_for_bit(self, kind, e0, gamma):
        p = ResonanceParams(e0, gamma)
        for E in (default_energy_grid(p), np.linspace(e0 - 1e4 * gamma, e0 - 5 * gamma, 777)):
            table = energy_response(kind, p, E)
            expected = _residue_sum(kind, p, E)
            # uint64 views: signed zeros count as differences too
            npt.assert_array_equal(table["re_d"].view(np.uint64), expected.real.view(np.uint64))
            npt.assert_array_equal(table["im_d"].view(np.uint64), expected.imag.view(np.uint64))

    def test_curves_pass_the_form_check(self):
        """Gamma^2 is subnormal at E = E0: the pair's dt_delay there would
        carry a relative error of about 2e-4, so the curves are refused."""
        with pytest.raises(FloatingPointError):
            energy_response("pt-pair", ResonanceParams(0.0, 1e-160), [0.0])

    def test_energy_table_columns(self):
        grid = default_energy_grid(P, points=11)
        table = energy_response("pt-pair", P, grid)
        assert set(table) == {
            "E", "re_d", "im_d", "delta_delay", "delta_advance", "dt_delay", "dt_advance"
        }
        npt.assert_allclose(table["im_d"], pt_propagator(grid, P).imag, rtol=1e-13)
        npt.assert_array_equal(table["dt_delay"], -table["dt_advance"])


class TestEmptyGrid:
    """An empty energy grid gives empty arrays, as an empty grid of times does."""

    @pytest.mark.parametrize("function", [bw_propagator, pt_propagator, phase_shift, time_delay])
    def test_energy_functions(self, function):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = function([], P)
        assert value.shape == (0,)

    @pytest.mark.parametrize("kind", ["breit-wigner", "pt-pair"])
    def test_energy_response_has_seven_empty_columns(self, kind):
        table = energy_response(kind, P, [])
        assert len(table) == 7
        assert all(column.shape == (0,) for column in table.values())

    def test_gamma_beyond_the_range_rule_still_passes(self):
        """The range rule judges offsets; with none there is nothing to refuse."""
        assert time_delay([], ResonanceParams(0.0, 1e160)).shape == (0,)


class TestOneDoorOneRule:
    """The offset ``E - E0`` and its denominator are judged the same way by
    every energy function, without a numpy warning."""

    FAR = (1e308, ResonanceParams(-1e308, 1.0))  # E - E0 = 2e308 has no double

    @pytest.mark.parametrize(
        "function, E, p",
        [
            (pt_propagator, 1.0, ResonanceParams(0.0, 1e308)),
            (pt_propagator, 1.0, ResonanceParams(1.0, 1e-200)),
            (time_delay, 0.0, ResonanceParams(1e308, 1e308)),
            (bw_propagator, *FAR),
            (pt_propagator, *FAR),
            (time_delay, *FAR),
            (bw_propagator, 0.0, ResonanceParams(0.0, np.float64(1e160))),
            (time_delay, 0.0, ResonanceParams(0.0, np.float64(1e160))),
        ],
    )
    def test_refused_by_the_range_rule(self, function, E, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="normal double range"):
                function(E, p)

    @pytest.mark.parametrize("branch, limit", [("delay", np.pi), ("advance", -np.pi)])
    def test_phase_shift_at_an_infinite_offset_is_its_limit(self, branch, limit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phase_shift(1e308, ResonanceParams(-1e308, 1.0), branch) == limit
            assert phase_shift(-1e308, ResonanceParams(1e308, 1.0), branch) == 0.0

    def test_phase_shift_reads_the_offset(self):
        """``arctan2(Gamma, -(E - E0))`` is ``arctan2(Gamma, E0 - E)`` bit for bit,
        the signed zero at E = E0 included."""
        E = np.concatenate([P.e0 + np.linspace(-1e6, 1e6, 100001), [P.e0]])
        for branch, sign in (("delay", 1.0), ("advance", -1.0)):
            expected = np.arctan2(sign * P.gamma, P.e0 - E)
            npt.assert_array_equal(phase_shift(E, P, branch).view(np.uint64),
                                   expected.view(np.uint64))

    def test_quadrature_phase_beyond_the_double_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="phase E t"):
                quadrature_ift(ResonanceParams(1.0, 1.0), 1e308, 1e3, 10)


# Finite in, finite out: one working call per callable of ``ptresonance.__all__``,
# with its numeric arguments named.  Array arguments take an edge value in one
# entry (the last); E0 and Gamma are arguments of their own.
_GRID = np.array([-1.0, 0.5, 1.0, 3.0])
_PAIR = {"e0": 1.0, "gamma": 0.8}
_H = np.array([[1.0 + 1.0j, 0.6], [0.6, 1.0 - 1.0j]])
_V = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
_TIMES = np.array([0.0, 0.5, 1.0])
_STATE = np.array([0.6 + 0.0j, 0.8j])
_IVP = {"c1": 2.0j, "c0": -1.64 + 0.0j, "psi0": 0.0j, "dpsi0": 1.6j, "times": _TIMES,
        "step": 0.01}
_SWEEP_CALLS = {
    "ResonanceParams": (ResonanceParams, dict(_PAIR)),
    "PropagatorModel": (
        PropagatorModel,
        {"poles": np.array([1 - 0.8j, 1 + 0.8j]), "residues": np.array([1 + 0j, -1 + 0j])},
    ),
    "bw_propagator": (
        lambda E, e0, gamma: bw_propagator(E, ResonanceParams(e0, gamma)),
        {"E": _GRID, **_PAIR},
    ),
    "pt_propagator": (
        lambda E, e0, gamma: pt_propagator(E, ResonanceParams(e0, gamma)),
        {"E": _GRID, **_PAIR},
    ),
    "phase_shift": (
        lambda E, e0, gamma: phase_shift(E, ResonanceParams(e0, gamma), "advance"),
        {"E": _GRID, **_PAIR},
    ),
    "time_delay": (
        lambda E, e0, gamma: time_delay(E, ResonanceParams(e0, gamma), "advance"),
        {"E": _GRID, **_PAIR},
    ),
    "build_model": (
        lambda e0, gamma: build_model("pt-pair", ResonanceParams(e0, gamma)),
        dict(_PAIR),
    ),
    "inverse_ft": (
        lambda t, e0, gamma: inverse_ft(build_model("pt-pair", ResonanceParams(e0, gamma)), t),
        {"t": np.array([-1.0, 0.0, 0.5, 2.0]), **_PAIR},
    ),
    "quadrature_ift": (
        lambda t, L, N, e0, gamma: quadrature_ift(ResonanceParams(e0, gamma), t, L, N),
        {"t": 0.5, "L": 100.0, "N": 101, **_PAIR},
    ),
    "default_energy_grid": (
        lambda halfwidth, points, e0, gamma: default_energy_grid(
            ResonanceParams(e0, gamma), halfwidth, points
        ),
        {"halfwidth": 20.0, "points": 201, **_PAIR},
    ),
    "energy_response": (
        lambda E, e0, gamma: energy_response("pt-pair", ResonanceParams(e0, gamma), E),
        {"E": _GRID, **_PAIR},
    ),
    # linalg
    "as_matrix": (ptr.as_matrix, {"data": _H}),
    "matrix_from_json": (
        lambda entries: ptr.matrix_from_json(
            {"n": 2, "entries": [[[z.real, z.imag] for z in row.tolist()] for row in entries]}
        ),
        {"entries": _H},
    ),
    "matrix_to_json": (ptr.matrix_to_json, {"m": _H}),
    "eig": (ptr.eig, {"H": _H}),
    "solve_intertwiner": (ptr.solve_intertwiner, {"H": _H}),
    "mat_exp_evolution": (lambda H, t: ptr.mat_exp_evolution(ptr.eig(H), t),
                          {"H": _H, "t": _TIMES}),
    # metric
    "build_metric": (
        lambda H: ptr.build_metric(ptr.eig(H), ptr.solve_intertwiner(H), H=H), {"H": _H}
    ),
    "v_inner": (ptr.v_inner, {"x": _STATE, "y": _STATE[::-1], "V": _V}),
    "dual_pair": (ptr.dual_pair, {"ket": _STATE, "V": _V}),
    "closure_check": (ptr.closure_check, {"kets": np.eye(2, dtype=complex),
                                          "bras": np.eye(2, dtype=complex)}),
    "verify_pseudo_hermiticity": (ptr.verify_pseudo_hermiticity, {"H": _H, "V": _V}),
    # evolution
    "evolve": (ptr.evolve, {"H": _H, "psi0": _STATE, "times": _TIMES, "V": _V}),
    "pseudounitarity_residual": (ptr.pseudounitarity_residual,
                                 {"H": _H, "V": _V, "times": _TIMES}),
    "two_level_hamiltonian": (ptr.two_level_hamiltonian, dict(_PAIR)),
    "two_level_scenario": (ptr.two_level_scenario,
                           {"psi0": _STATE, "times": _TIMES, **_PAIR}),
    # odes
    "pt_wave_equation": (lambda e0, gamma: ptr.pt_wave_equation(ResonanceParams(e0, gamma)),
                         dict(_PAIR)),
    "damped_oscillator_equation": (
        lambda e0, gamma: ptr.damped_oscillator_equation(ResonanceParams(e0, gamma)),
        dict(_PAIR),
    ),
    "characteristic_roots": (ptr.characteristic_roots,
                             {"coefficients": np.array([1.0, 2.0j, -1.64 + 0.0j])}),
    "pt_wave_ivp": (
        lambda times, step, e0, gamma: ptr.pt_wave_ivp(ResonanceParams(e0, gamma), times, step),
        {"times": _TIMES, "step": 0.01, **_PAIR},
    ),
    "damped_oscillator_ivp": (
        lambda times, step, e0, gamma: ptr.damped_oscillator_ivp(
            ResonanceParams(e0, gamma), times, step
        ),
        {"times": _TIMES, "step": 0.01, **_PAIR},
    ),
    "SecondOrderIVP": (ptr.SecondOrderIVP, dict(_IVP)),
    "integrate": (lambda **ivp: ptr.integrate(ptr.SecondOrderIVP(**ivp)), dict(_IVP)),
    # symmetry
    "AntilinearSymmetry": (ptr.AntilinearSymmetry, {"P": np.array(ptr.PAULI_X)}),
    "check_pt": (lambda H, P: ptr.check_pt(H, ptr.AntilinearSymmetry(P)),
                 {"H": _H, "P": np.array(ptr.PAULI_X)}),
    "classify_spectrum": (ptr.classify_spectrum,
                          {"eigenvalues": np.array([1 + 0.8j, 1 - 0.8j, 2 + 0j])}),
    "classify_hamiltonian": (ptr.classify_hamiltonian, {"H": _H}),
    "gain_loss_dimer": (ptr.gain_loss_dimer, {"s": 0.6}),
}
# Left out: the records, which hold what the swept callables give them, the
# exception types and the constant matrices.
_SWEEP_LEFT_OUT = {
    "DefectCluster", "DualPair", "EigenSystem", "IntertwinerSpace", "MetricOperator",
    "PTCheck", "PseudoHermiticityResiduals", "PseudoUnitarityResult", "QuadratureResult",
    "SpectrumReport", "StateTrajectory", "TimeSeries", "TwoLevelResult",
    "ConvergenceError", "DefectiveMatrixError", "NoMetricError", "OverflowRangeError",
    "PAULI_X", "PAULI_Y", "PAULI_Z", "PAPER_GAUGE_V",
}
_SWEEP_VALUES = (0.0, -1.0, np.nan, np.inf, -np.inf, 1e308, 1e-320)
_SWEEP_CASES = [
    (name, arg, value)
    for name, (_, kwargs) in _SWEEP_CALLS.items()
    for arg in kwargs
    for value in _SWEEP_VALUES
]


class TestFiniteOutSweep:
    """Each public callable of ``ptresonance``, with 0, -1, nan, +/-inf, 1e308
    or 1e-320 put into one numeric argument, returns all-finite output or
    raises ``ValueError``, ``OverflowRangeError``, ``DefectiveMatrixError`` or
    ``NoMetricError``, and never a numpy warning."""

    def test_the_sweep_covers_the_module(self):
        assert set(_SWEEP_CALLS) | _SWEEP_LEFT_OUT == set(ptr.__all__)
        assert not set(_SWEEP_CALLS) & _SWEEP_LEFT_OUT

    @pytest.mark.parametrize("name", _SWEEP_CALLS)
    def test_working_call(self, name):
        function, kwargs = _SWEEP_CALLS[name]
        assert np.all(np.isfinite(numbers_in(function(**kwargs))))

    @pytest.mark.parametrize("name, arg, value", _SWEEP_CASES,
                             ids=[f"{n}-{a}-{v!r}" for n, a, v in _SWEEP_CASES])
    def test_edge_value(self, name, arg, value):
        function, kwargs = _SWEEP_CALLS[name]
        kwargs = dict(kwargs)
        if isinstance(kwargs[arg], np.ndarray):
            kwargs[arg] = kwargs[arg].copy()
            kwargs[arg].flat[-1] = value
        else:
            kwargs[arg] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = function(**kwargs)
            except (ValueError, OverflowRangeError, DefectiveMatrixError, NoMetricError):
                return
        assert np.all(np.isfinite(numbers_in(out)))
