"""Property tests of the identities that the range rule guarantees.

One rule, ``response._require_normal_range``, guards every propagator value
and both wave equations: it refuses where ``(E - E0)^2 + Gamma^2`` (for the
equations ``E0^2 + Gamma^2``) is not a normal finite double.  Wherever it
accepts, the values satisfy their defining identities, which no code re-checks
at run time:

* the single-pole propagator G satisfies ``G (E - E0 + i Gamma) = 1`` to a
  few units of rounding;
* the balanced two-pole propagator's closed form is the two-pole sum;
* the characteristic roots of both wave equations are their closed forms.

The draws span the double range: Hypothesis's own float draws, magnitudes
uniform in the decimal exponent, and values around both edges of the rule,
``sqrt`` of the smallest normal and of the largest finite double.  Every test
is derandomized, as in ``tests/test_properties.py``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptresonance import (
    OverflowRangeError,
    ResonanceParams,
    bw_propagator,
    damped_oscillator_equation,
    pt_propagator,
    pt_wave_equation,
)
from ptresonance.odes import characteristic_roots

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=400)

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny
EDGE, TOP = math.sqrt(TINY), math.sqrt(np.finfo(float).max)
REFUSAL = "leaves the normal double range"


def magnitudes():
    """Positive finite doubles across the whole range, edges included."""
    return st.one_of(
        st.floats(min_value=5e-324, max_value=np.finfo(float).max),
        st.floats(-323.0, 308.25).map(lambda k: 10.0**k),
        st.sampled_from([EDGE, TOP]).flatmap(lambda c: st.floats(0.5, 2.0).map(lambda f: c * f)),
    )


def offsets():
    """Energy offsets ``E - E0`` of either sign, zero included."""
    return st.one_of(st.just(0.0), st.tuples(magnitudes(), st.booleans()).map(
        lambda m: -m[0] if m[1] else m[0]))


def normal(d: float, gamma: float) -> bool:
    """Whether ``d^2 + Gamma^2`` is a normal finite double (Python floats
    overflow to inf without a warning)."""
    return TINY <= d * d + gamma * gamma < math.inf


def _quietly(function, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return function(*args)


@PROPERTY
@given(offsets(), magnitudes())
@example(0.0, 1.5e-154)
@example(0.0, 1.49e-154)
@example(0.0, TOP)
@example(-TOP, 1e-300)
@example(5e-324, EDGE)
def test_single_pole_value_satisfies_its_identity(d, gamma):
    """``|G (d + i Gamma) - 1| <= 4 eps`` wherever the range rule accepts, and
    ``OverflowRangeError`` exactly where it refuses."""
    p = ResonanceParams(0.0, gamma)
    if not normal(d, gamma):
        with pytest.raises(OverflowRangeError, match=REFUSAL):
            _quietly(bw_propagator, d, p)
        return
    G = _quietly(bw_propagator, d, p)
    assert abs(G * complex(d, gamma) - 1.0) <= 4.0 * EPS


@PROPERTY
@given(offsets(), magnitudes())
@example(0.0, 1.5e-154)
@example(1e150, 1e-300)
@example(1.7e60, 1e-200)
def test_two_pole_closed_form_is_the_two_pole_sum(d, gamma):
    """The closed form equals ``1/(d + i Gamma) - 1/(d - i Gamma)`` to 1e-13
    relative, or below the smallest normal double where it has underflowed."""
    p = ResonanceParams(0.0, gamma)
    if not normal(d, gamma):
        with pytest.raises(OverflowRangeError, match=REFUSAL):
            _quietly(pt_propagator, d, p)
        return
    closed = _quietly(pt_propagator, d, p)
    two_pole = 1.0 / complex(d, gamma) - 1.0 / complex(d, -gamma)
    gap = abs(two_pole - closed)
    assert gap <= 1e-13 * abs(closed) or gap < TINY


@PROPERTY
@given(st.sampled_from([pt_wave_equation, damped_oscillator_equation]), offsets(), magnitudes())
@example(damped_oscillator_equation, 1e-8, 1.0)
@example(pt_wave_equation, 1.5e-154 * 0.6, 1.5e-154 * 0.8)
@example(pt_wave_equation, 1e154, 1.0)
@example(damped_oscillator_equation, 1.0, 1e154)
def test_characteristic_roots_are_the_closed_forms(equation, e0, gamma):
    """The roots of the coefficients match ``-i (E0 +/- i Gamma)`` (the
    balanced pair) or ``-Gamma -+ i E0`` (the damped oscillator) within
    ``(1e-10 + 4 sqrt(eps)) max|root|``.  A refusal comes from the range rule
    of ``E0^2 + Gamma^2`` or, where ``4 (E0^2 + Gamma^2)`` nears the top of the
    range, from ``characteristic_roots``' refusal of the discriminant."""
    p = ResonanceParams(e0, gamma)
    if not normal(e0, gamma):
        with pytest.raises(OverflowRangeError, match=REFUSAL):
            _quietly(equation, p)
        return
    try:
        coeffs = _quietly(equation, p)
    except OverflowRangeError as err:
        assert "their discriminant" in str(err)
        assert math.hypot(e0, gamma) >= 0.49 * TOP
        return
    if equation is pt_wave_equation:
        expected = [-1j * complex(e0, gamma), -1j * complex(e0, -gamma)]
    else:
        expected = [complex(-gamma, -e0), complex(-gamma, e0)]
    roots = characteristic_roots(coeffs)
    tol = (1e-10 + 4.0 * math.sqrt(EPS)) * max(map(abs, expected))
    assert any(all(abs(r - e) <= tol for r, e in zip(roots, order))
               for order in (expected, expected[::-1]))
