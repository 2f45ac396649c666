"""One rule for a number, a count and a choice: every public parameter that
takes one refuses complex (where a real number is due), bool, None, text, an
object array and an int beyond the double range with a ``ValueError`` that
names the input, and without a warning."""

import re
import warnings

import numpy as np
import pytest

import ptresonance as ptr
from ptresonance import ResonanceParams, linalg

P = ResonanceParams(1.0, 0.8)
H = ptr.gain_loss_dimer(0.6)
V = np.array(ptr.PAPER_GAUGE_V)
STATE = np.array([0.6 + 0.0j, 0.8j])
TIMES = np.array([0.0, 0.5, 1.0])
GRID = np.array([-1.0, 0.5, 1.0, 3.0])
IVP = {"c1": 2.0j, "c0": -1.64 + 0.0j, "psi0": 0.0j, "dpsi0": 1.6j, "times": TIMES,
       "step": 0.01}
MATRIX = "matrix entries"


def _ivp(**changed):
    return ptr.SecondOrderIVP(**{**IVP, **changed})


# (parameter, a call with the value put in, a working value, its kind, the
# name the refusal gives).  Kinds: "real" and "complex" numbers, "count" and
# "choice".
DOORS = [
    # response
    ("ResonanceParams.e0", lambda x: ResonanceParams(x, 0.8), 1.0, "real",
     "resonance parameters"),
    ("ResonanceParams.gamma", lambda x: ResonanceParams(1.0, x), 0.8, "real",
     "resonance parameters"),
    ("bw_propagator.E", lambda x: ptr.bw_propagator(x, P), GRID, "real", "E"),
    ("pt_propagator.E", lambda x: ptr.pt_propagator(x, P), GRID, "real", "E"),
    ("phase_shift.E", lambda x: ptr.phase_shift(x, P), GRID, "real", "E"),
    ("phase_shift.branch", lambda x: ptr.phase_shift(GRID, P, x), "advance", "choice", "branch"),
    ("time_delay.E", lambda x: ptr.time_delay(x, P), GRID, "real", "E"),
    ("time_delay.branch", lambda x: ptr.time_delay(GRID, P, x), "advance", "choice", "branch"),
    ("build_model.kind", lambda x: ptr.build_model(x, P), "pt-pair", "choice", "model kind"),
    ("PropagatorModel.poles", lambda x: ptr.PropagatorModel(x, [1.0, -1.0]),
     np.array([1 - 0.8j, 1 + 0.8j]), "complex", "poles and residues"),
    ("PropagatorModel.residues", lambda x: ptr.PropagatorModel([1 - 0.8j, 1 + 0.8j], x),
     np.array([1.0 + 0j, -1.0 + 0j]), "complex", "poles and residues"),
    ("inverse_ft.t", lambda x: ptr.inverse_ft(ptr.build_model("pt-pair", P), x), TIMES, "real",
     "t"),
    ("quadrature_ift.t", lambda x: ptr.quadrature_ift(P, x, 100.0, 101), 0.5, "real", "t"),
    ("quadrature_ift.L", lambda x: ptr.quadrature_ift(P, 0.5, x, 101), 100.0, "real",
     "truncation half-width L"),
    ("quadrature_ift.N", lambda x: ptr.quadrature_ift(P, 0.5, 100.0, x), 101, "count",
     "panel count N"),
    ("default_energy_grid.halfwidth", lambda x: ptr.default_energy_grid(P, x, 201), 20.0, "real",
     "halfwidth"),
    ("default_energy_grid.points", lambda x: ptr.default_energy_grid(P, 20.0, x), 201, "count",
     "point count"),
    ("energy_response.kind", lambda x: ptr.energy_response(x, P, GRID), "pt-pair", "choice",
     "model kind"),
    ("energy_response.energies", lambda x: ptr.energy_response("pt-pair", P, x), GRID, "real",
     "E"),
    # linalg
    ("as_matrix.data", ptr.as_matrix, H, "complex", MATRIX),
    ("matrix_from_json.n", lambda x: ptr.matrix_from_json({"n": x, "entries": [[[1, 0]]]}), 1,
     "count", "matrix JSON: field 'n'"),
    ("matrix_to_json.m", ptr.matrix_to_json, H, "complex", MATRIX),
    ("eig.H", ptr.eig, H, "complex", MATRIX),
    ("solve_intertwiner.H", ptr.solve_intertwiner, H, "complex", MATRIX),
    ("mat_exp_evolution.t", lambda x: ptr.mat_exp_evolution(ptr.eig(H), x), TIMES, "real", "t"),
    # metric
    ("build_metric.H", lambda x: ptr.build_metric(ptr.eig(H), ptr.solve_intertwiner(H), H=x),
     H, "complex", MATRIX),
    ("build_metric.policy",
     lambda x: ptr.build_metric(ptr.eig(H), ptr.solve_intertwiner(H), x, H=H),
     "first-basis", "choice", "policy"),
    ("v_inner.x", lambda x: ptr.v_inner(x, STATE, V), STATE, "complex", "x and y"),
    ("v_inner.y", lambda x: ptr.v_inner(STATE, x, V), STATE, "complex", "x and y"),
    ("v_inner.V", lambda x: ptr.v_inner(STATE, STATE, x), V, "complex", MATRIX),
    ("dual_pair.ket", lambda x: ptr.dual_pair(x, V), STATE, "complex", "ket"),
    ("dual_pair.V", lambda x: ptr.dual_pair(STATE, x), V, "complex", MATRIX),
    ("closure_check.kets", lambda x: ptr.closure_check(x, np.eye(2)), np.eye(2, dtype=complex),
     "complex", "kets and bras"),
    ("closure_check.bras", lambda x: ptr.closure_check(np.eye(2), x), np.eye(2, dtype=complex),
     "complex", "kets and bras"),
    ("verify_pseudo_hermiticity.H", lambda x: ptr.verify_pseudo_hermiticity(x, V), H, "complex",
     MATRIX),
    ("verify_pseudo_hermiticity.V", lambda x: ptr.verify_pseudo_hermiticity(H, x), V, "complex",
     MATRIX),
    # evolution
    ("evolve.H", lambda x: ptr.evolve(x, STATE, TIMES), H, "complex", MATRIX),
    ("evolve.psi0", lambda x: ptr.evolve(H, x, TIMES), STATE, "complex", "psi0"),
    ("evolve.times", lambda x: ptr.evolve(H, STATE, x), TIMES, "real", "times"),
    ("evolve.V", lambda x: ptr.evolve(H, STATE, TIMES, x), V, "complex", MATRIX),
    ("pseudounitarity_residual.H", lambda x: ptr.pseudounitarity_residual(x, V, TIMES), H,
     "complex", MATRIX),
    ("pseudounitarity_residual.V", lambda x: ptr.pseudounitarity_residual(H, x, TIMES), V,
     "complex", MATRIX),
    ("pseudounitarity_residual.times", lambda x: ptr.pseudounitarity_residual(H, V, x), TIMES,
     "real", "times"),
    ("two_level_hamiltonian.e0", lambda x: ptr.two_level_hamiltonian(x, 0.8), 1.0, "real",
     "resonance parameters"),
    ("two_level_hamiltonian.gamma", lambda x: ptr.two_level_hamiltonian(1.0, x), 0.8, "real",
     "resonance parameters"),
    ("two_level_scenario.e0", lambda x: ptr.two_level_scenario(x, 0.8, STATE, TIMES), 1.0,
     "real", "resonance parameters"),
    ("two_level_scenario.gamma", lambda x: ptr.two_level_scenario(1.0, x, STATE, TIMES), 0.8,
     "real", "resonance parameters"),
    ("two_level_scenario.psi0", lambda x: ptr.two_level_scenario(1.0, 0.8, x, TIMES), STATE,
     "complex", "psi0"),
    ("two_level_scenario.times", lambda x: ptr.two_level_scenario(1.0, 0.8, STATE, x), TIMES,
     "real", "times"),
    # odes
    ("characteristic_roots.coefficients", ptr.characteristic_roots,
     np.array([1.0, 2.0j, -1.64 + 0.0j]), "complex", "coefficients"),
    ("SecondOrderIVP.c1", lambda x: _ivp(c1=x), 2.0j, "complex", "c1, c0, psi0 and dpsi0"),
    ("SecondOrderIVP.c0", lambda x: _ivp(c0=x), -1.64 + 0.0j, "complex",
     "c1, c0, psi0 and dpsi0"),
    ("SecondOrderIVP.psi0", lambda x: _ivp(psi0=x), 0.0j, "complex", "c1, c0, psi0 and dpsi0"),
    ("SecondOrderIVP.dpsi0", lambda x: _ivp(dpsi0=x), 1.6j, "complex", "c1, c0, psi0 and dpsi0"),
    ("SecondOrderIVP.times", lambda x: _ivp(times=x), TIMES, "real", "times"),
    ("SecondOrderIVP.step", lambda x: _ivp(step=x), 0.01, "real", "step"),
    ("pt_wave_ivp.times", lambda x: ptr.pt_wave_ivp(P, x, 0.01), TIMES, "real", "times"),
    ("pt_wave_ivp.step", lambda x: ptr.pt_wave_ivp(P, TIMES, x), 0.01, "real", "step"),
    ("damped_oscillator_ivp.times", lambda x: ptr.damped_oscillator_ivp(P, x, 0.01), TIMES,
     "real", "times"),
    ("damped_oscillator_ivp.step", lambda x: ptr.damped_oscillator_ivp(P, TIMES, x), 0.01,
     "real", "step"),
    # symmetry
    ("AntilinearSymmetry.P", ptr.AntilinearSymmetry, np.array(ptr.PAULI_X), "complex", MATRIX),
    ("AntilinearSymmetry.apply.v", lambda x: ptr.AntilinearSymmetry(ptr.PAULI_X).apply(x),
     STATE, "complex", "v"),
    ("check_pt.H", lambda x: ptr.check_pt(x, ptr.AntilinearSymmetry(ptr.PAULI_X)), H, "complex",
     MATRIX),
    ("classify_spectrum.eigenvalues", ptr.classify_spectrum,
     np.array([1 + 0.8j, 1 - 0.8j, 2 + 0j]), "complex", "eigenvalues"),
    ("classify_hamiltonian.H", ptr.classify_hamiltonian, H, "complex", MATRIX),
    ("gain_loss_dimer.s", ptr.gain_loss_dimer, 0.6, "real", "coupling s"),
]


def _last_entry(good, value):
    """The working array as nested lists with its last entry replaced."""
    rows = np.asarray(good).tolist()
    leaf = rows
    while isinstance(leaf[-1], list):
        leaf = leaf[-1]
    leaf[-1] = value
    return rows


def _bad_values(door, good, kind):
    """(label, value) pairs the rule refuses for a parameter of that kind with
    that working value: the value itself for a scalar, an array of the
    working shape for an array."""
    if isinstance(good, np.ndarray):
        complex_entry = good.astype(complex)
        complex_entry.flat[-1] += 7j
        bad = [("complex", complex_entry), ("bool", np.ones(good.shape, bool)),
               ("None", None), ("text", good.astype(str)), ("object", good.astype(object)),
               ("1e400", _last_entry(good, 10**400))]
    else:
        bad = [("complex", complex(1, 2)), ("bool", True), ("None", None), ("text", "1"),
               ("object", np.array(good, dtype=object)), ("1e400", 10**400)]
    # complex numbers are what a complex door takes, and None is evolve's "no metric"
    skip = {"complex"} if kind == "complex" else set()
    skip |= {"None"} if door == "evolve.V" else set()
    return [(label, value) for label, value in bad if label not in skip]


CASES = [
    pytest.param(call, value, name, id=f"{door}-{label}")
    for door, call, good, kind, name in DOORS
    for label, value in _bad_values(door, good, kind)
]


def _refused(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(name)):
            call()


@pytest.mark.parametrize("door", [door[0] for door in DOORS])
def test_working_value(door):
    call, good = next((d[1], d[2]) for d in DOORS if d[0] == door)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good)


@pytest.mark.parametrize("call, value, name", CASES)
def test_refused(call, value, name):
    _refused(lambda: call(value), name)


def test_every_public_callable_is_covered():
    """Each public callable of the package that takes numbers, counts or
    choices has a door above."""
    covered = {door.split(".")[0] for door, *_ in DOORS}
    callables = {name for name in ptr.__all__ if callable(getattr(ptr, name))}
    # records that hold what the covered callables give them, exceptions,
    # and the callables whose one argument is a record
    left_out = {"DefectCluster", "DualPair", "EigenSystem", "IntertwinerSpace", "MetricOperator",
                "PTCheck", "PseudoHermiticityResiduals", "PseudoUnitarityResult",
                "QuadratureResult", "SpectrumReport", "StateTrajectory", "TimeSeries",
                "TwoLevelResult", "ConvergenceError", "DefectiveMatrixError", "NoMetricError",
                "OverflowRangeError", "integrate", "pt_wave_equation",
                "damped_oscillator_equation"}
    assert callables - left_out == covered


# The inputs that the package took, or refused with another type, before it
# had the three rules.
MOTIVATION = [
    pytest.param(lambda: ResonanceParams(1 + 2j, 1), "resonance parameters",
                 id="complex-level-pair"),
    pytest.param(lambda: ptr.two_level_hamiltonian(1 + 2j, 1), "resonance parameters",
                 id="complex-level-pair-hamiltonian"),
    pytest.param(lambda: ptr.evolve(H, STATE, [0, 1 + 7j, 2]), "times", id="complex-times"),
    pytest.param(lambda: ptr.bw_propagator([0, 1 + 7j, 2], P), "E", id="complex-energy"),
    pytest.param(lambda: ptr.time_delay([0, 1 + 7j, 2], P), "E", id="complex-energy-delay"),
    pytest.param(lambda: ptr.inverse_ft(ptr.build_model("pt-pair", P), [0, 1 + 7j, 2]), "t",
                 id="complex-time-transform"),
    pytest.param(lambda: ptr.energy_response("pt-pair", P, [0, 1 + 7j, 2]), "E",
                 id="complex-energy-response"),
    pytest.param(lambda: ptr.quadrature_ift(P, 1j, 40, 100), "t", id="complex-quadrature-time"),
    pytest.param(lambda: _ivp(step=True), "step", id="bool-step"),
    pytest.param(lambda: ptr.quadrature_ift(P, True, 40, 100), "t", id="bool-time"),
    pytest.param(lambda: ptr.quadrature_ift(P, 0.5, True, 100), "half-width L", id="bool-length"),
    pytest.param(lambda: ResonanceParams(True, True), "resonance parameters",
                 id="bool-level-pair"),
    pytest.param(lambda: ResonanceParams(None, 0.8), "resonance parameters",
                 id="none-level-pair"),
    pytest.param(lambda: ResonanceParams("1", 0.8), "resonance parameters",
                 id="text-level-pair"),
    pytest.param(lambda: _ivp(step=None), "step", id="none-step"),
    pytest.param(lambda: _ivp(step="1"), "step", id="text-step"),
    pytest.param(lambda: ptr.quadrature_ift(P, None, 40, 100), "t", id="none-time"),
    pytest.param(lambda: ptr.quadrature_ift(P, "1", 40, 100), "t", id="text-time"),
    pytest.param(lambda: ptr.bw_propagator(10**400, P), "E", id="huge-int-energy"),
    # a bool among numbers, which numpy reads as a number, and a ragged list,
    # which numpy refused with a message that named no input
    pytest.param(lambda: ptr.as_matrix([[True, 0], [0, 1]]), MATRIX, id="bool-in-matrix-list"),
    pytest.param(lambda: linalg._as_vector([np.True_, 2.0], "v"), "v",
                 id="numpy-bool-in-vector-list"),
    pytest.param(lambda: ptr.as_matrix([np.array([True, False]), [0.5, 1.0]]), MATRIX,
                 id="bool-array-in-matrix-list"),
    pytest.param(lambda: ptr.bw_propagator([0.5, True], P), "E", id="bool-in-energy-list"),
    pytest.param(lambda: ptr.evolve(H, STATE, [0, True, 2]), "times", id="bool-in-time-list"),
    pytest.param(lambda: ptr.as_matrix([[1, 2], [3]]), MATRIX, id="ragged-matrix"),
    pytest.param(lambda: linalg._require_grid([[0, 1], [2]]), "times", id="ragged-grid"),
]


@pytest.mark.parametrize("call, name", MOTIVATION)
def test_formerly_accepted_or_mistyped(call, name):
    _refused(call, name)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: ResonanceParams([1, 2], 1), "resonance parameters", id="level-pair"),
    pytest.param(lambda: ptr.quadrature_ift(P, [1.0], 10, 10), "t", id="quadrature-time"),
    pytest.param(lambda: _ivp(c1=[1]), "c1, c0, psi0 and dpsi0", id="ivp-coefficient"),
])
def test_single_number_refuses_an_array(call, name):
    _refused(call, f"{name} must be a single number, got shape (")


def test_refusal_names_the_cause():
    """A bool among numbers is named as a bool, a ragged list as one, and an
    object as what numpy reads as one: an int beyond 64 bits among them."""
    cases = [(lambda: ptr.evolve(H, STATE, [0, True, 2]), "times must be real numbers, got bool"),
             (lambda: ptr.as_matrix([[1, 2], [3]]),
              "matrix entries must be numbers in a regular array"),
             (lambda: ptr.bw_propagator(10**20, P), "E must be real numbers, got object (None, "
              "an int beyond 64 bits or another Python object)")]
    for call, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: ptr.bw_propagator("ab", P), "E must be real numbers, got text"),
    (lambda: ptr.evolve(H, STATE, ["x", 1.0]), "times must be real numbers, got text"),
    (lambda: ptr.as_matrix(np.array([["a"]])), "matrix entries must be numbers, got text"),
    (lambda: ResonanceParams(b"ab", 1.0), "resonance parameters must be real numbers, got bytes"),
    (lambda: ptr.bw_propagator(1 + 2j, P), "E must be real numbers, got complex"),
    (lambda: ptr.matrix_from_json({"n": 1, "entries": [[["1", 0]]]}),
     "matrix JSON: entries[0][0] must be real numbers, got text"),
    (lambda: ptr.bw_propagator(np.zeros(2, dtype=[("a", float)]), P),
     "E must be real numbers, got structured record"),
    (lambda: ptr.evolve(H, STATE, np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]")),
     "times must be real numbers, got date-time"),
    (lambda: ResonanceParams(np.timedelta64(3, "s"), 1.0),
     "resonance parameters must be real numbers, got duration"),
], ids=["str", "str-in-list", "str-array", "bytes", "complex", "json-entry", "structured",
        "datetime", "timedelta"])
def test_refusal_names_the_input_kind(call, message):
    """Text, bytes, a structured record, a date-time, a duration and a complex
    number where a real one is due are named by their kind, not by numpy's
    dtype with its byte width or unit (``str64``, ``void64``,
    ``datetime64[D]``, ``timedelta64[s]``)."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("number", [np.float64, np.int64, np.float32, np.array],
                         ids=["float64", "int64", "float32", "0-d array"])
def test_numpy_scalars_keep_their_bits(number):
    """0-d numpy floats, ints and float32 are numbers: each door keeps the
    value (a float32 widens exactly) and gives the bits its Python float gives."""
    t, L, halfwidth, s, E, e0, gamma = (number(x) for x in (0.8, 100.0, 20.5, 0.6, 1.3, 1.3, 2.5))
    p = ResonanceParams(e0, gamma)
    assert type(p.e0) is float and p.e0 == float(e0) and p.gamma == float(gamma)
    assert _ivp(step=number(1.5)).step == float(number(1.5))
    pairs = [
        (ptr.quadrature_ift(p, t, L, np.int64(11)),
         ptr.quadrature_ift(p, float(t), float(L), 11)),
        (ptr.default_energy_grid(p, halfwidth, np.int32(5)),
         ptr.default_energy_grid(p, float(halfwidth), 5)),
        (ptr.gain_loss_dimer(s), ptr.gain_loss_dimer(float(s))),
        (ptr.bw_propagator(E, p), ptr.bw_propagator(float(E), p)),
        (ptr.mat_exp_evolution(ptr.eig(H), t), ptr.mat_exp_evolution(ptr.eig(H), float(t))),
    ]
    for got, expected in pairs:
        np.testing.assert_array_equal(_bits(got), _bits(expected))


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=complex)).view(np.uint64)
