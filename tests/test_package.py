"""The package surface: public names, each listed once in its own module, the
one record kind, and the README library example."""

import ast
import collections
import copy
import inspect
import pathlib
import pickle
import re

import numpy as np
import pytest

import ptresonance
from ptresonance import cli, errors, evolution, linalg, metric, odes, response, symmetry

MODULES = (errors, evolution, linalg, metric, odes, response, symmetry)


def test_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert ptresonance.__all__ == names
    assert [n for n, k in collections.Counter(names).items() if k > 1] == []


def test_every_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ptresonance, name) is getattr(module, name)


def test_module_level_names_are_package_names():
    for name in ("DefectCluster", "PTCheck", "PseudoHermiticityResiduals",
                 "characteristic_roots", "energy_response"):
        assert name in ptresonance.__all__


def test_one_exception_type_per_exit_code():
    """Exit 1 is ``ValueError`` and exit 5 ``FloatingPointError``; the package's
    own types for those failures are kinds of them, and ``cli.main`` catches
    one type per exit code."""
    assert issubclass(errors.ConvergenceError, ValueError)
    assert issubclass(errors.OverflowRangeError, FloatingPointError)
    tree = ast.parse(inspect.getsource(cli.main))
    caught = [ast.unparse(h.type) for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)]
    assert caught == ["ValueError", "DefectiveMatrixError", "NoMetricError", "FloatingPointError"]


def _functions_calling(predicate):
    """``module.function`` for every function of the package and ``cli`` with a
    call for which ``predicate(call)`` holds, in source order."""
    found = []
    for module in MODULES + (cli,):
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and predicate(call) for call in ast.walk(fn)
            ):
                found.append(f"{module.__name__}.{fn.name}")
    return found


def test_one_door_per_vector_and_matrix():
    """Input becomes a float or complex array in one function only, the number
    rule ``linalg._numbers``: no other function calls ``np.asarray`` with a
    dtype or ``astype``.  The matrix door ``as_matrix``, the vector door
    ``linalg._as_vector``, the grid rule, the offset door, the JSON matrix
    door's entries and the scalar rule ``_number`` are built on it, and every
    other door on them."""
    def converts(call):
        func = ast.unparse(call.func)
        return func.endswith(".astype") or (
            func == "np.asarray" and any(k.arg == "dtype" for k in call.keywords))

    assert _functions_calling(converts) == ["ptresonance.linalg._numbers"]
    readers = _functions_calling(lambda call: ast.unparse(call.func) == "_numbers")
    assert readers == [
        "ptresonance.linalg._number",
        "ptresonance.linalg._require_grid",
        "ptresonance.linalg._as_vector",
        "ptresonance.linalg.as_matrix",
        "ptresonance.linalg.matrix_from_json",
        "ptresonance.linalg.mat_exp_evolution",
        "ptresonance.metric.closure_check",
        "ptresonance.response._offsets",
        "ptresonance.response.energy_response",
    ]


def test_one_rule_per_count_and_choice():
    """A bool is refused as a count by ``linalg._count`` alone, and a choice
    is refused as unknown by ``linalg._require_choice`` alone."""
    bool_checks = _functions_calling(lambda call: ast.unparse(call.func) == "isinstance"
                                     and "bool" in ast.unparse(call.args[1]))
    assert bool_checks == ["ptresonance.linalg._count"]
    unknown = []
    for module in MODULES + (cli,):
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(fn, ast.FunctionDef) and "unknown {" in ast.unparse(fn):
                unknown.append(f"{module.__name__}.{fn.name}")
    assert unknown == ["ptresonance.linalg._require_choice"]
    assert not hasattr(response, "_require_kind")


def _functions_with(predicate):
    """``module.function`` for every function of the package and ``cli`` with a
    node for which ``predicate(node)`` holds, in source order."""
    found = []
    for module in MODULES + (cli,):
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(fn, ast.FunctionDef) and any(map(predicate, ast.walk(fn))):
                found.append(f"{module.__name__}.{fn.name}")
    return found


def test_one_rule_tells_a_bool_from_a_number():
    """A bool is told apart from a number only by the count rule and by the
    number rule, through its walk of nested lists ``_holds_bool``: no door
    checks the entries of its input by hand (the JSON matrix door did)."""
    def tells_bool(node):
        checks = isinstance(node, ast.Compare) or (
            isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance")
        return checks and re.search(r"\bbool_?\b", ast.unparse(node)) is not None

    assert _functions_with(tells_bool) == ["ptresonance.linalg._holds_bool",
                                           "ptresonance.linalg._count"]
    walkers = _functions_calling(lambda call: ast.unparse(call.func) == "_holds_bool")
    assert walkers == ["ptresonance.linalg._holds_bool", "ptresonance.linalg._numbers"]


def test_one_finiteness_refusal():
    """``np.isfinite`` is read by the number rule, by the one refusal of a
    quantity beyond the double range, ``linalg._require_finite``, and by the
    two span rules of an energy or time grid, which refuse a span with exit 1;
    ``odes`` refuses its discriminant and its trajectory through
    ``_require_finite``."""
    assert _functions_calling(lambda call: ast.unparse(call.func) == "np.isfinite") == [
        "ptresonance.linalg._require_finite",
        "ptresonance.linalg._numbers",
        "ptresonance.response.default_energy_grid",
        "ptresonance.cli._linspace",
    ]


def test_one_frobenius_norm():
    """Outside ``linalg._frobenius``, every ``np.linalg.norm`` is a 2-norm
    (``ord=2``) or a vector norm along one integer axis."""
    def other_norm(call):
        if ast.unparse(call.func) != "np.linalg.norm":
            return False
        ord_ = call.args[1:2] or [k.value for k in call.keywords if k.arg == "ord"]
        axis = [k.value for k in call.keywords if k.arg == "axis"]
        two = [ast.unparse(x) for x in ord_] == ["2"]
        one_axis = not ord_ and len(axis) == 1 and isinstance(axis[0], ast.Constant) \
            and isinstance(axis[0].value, int)
        return not (two or one_axis)

    assert _functions_calling(other_norm) == ["ptresonance.linalg._frobenius"]


def test_one_guard_per_propagator_value():
    """In ``response`` and ``odes`` the range rule ``_require_normal_range`` is
    the only function that raises ``OverflowRangeError`` itself: no propagator
    value, two-pole form or characteristic root is checked again once the
    rule has accepted it (other quantities beyond the double range are refused
    through ``linalg._require_finite``)."""
    def raises_range_error(node):
        return isinstance(node, ast.Raise) and node.exc is not None \
            and ast.unparse(node.exc).startswith("OverflowRangeError")

    raisers = [f for f in _functions_with(raises_range_error)
               if f.startswith(("ptresonance.response.", "ptresonance.odes."))]
    assert raisers == ["ptresonance.response._require_normal_range"]
    for module, name in ((response, "_FORM_CHECK_TOL"), (response, "_PART_TOL"),
                         (odes, "_check_roots")):
        assert not hasattr(module, name)


def test_no_module_imports_dataclasses():
    """Records are NamedTuples: no module of the package imports ``dataclasses``."""
    importers = []
    for module in MODULES + (cli, ptresonance):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                importers.append(module.__name__)
    assert importers == []


RECORDS = [getattr(ptresonance, name) for name in ptresonance.__all__
           if isinstance(getattr(ptresonance, name), type)
           and not issubclass(getattr(ptresonance, name), Exception)]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_every_record_is_a_frozen_named_tuple(record):
    assert issubclass(record, tuple) and record._fields
    unchecked = tuple.__new__(record, [None] * len(record._fields))
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(unchecked, field, 1.0)
    with pytest.raises(AttributeError):
        unchecked.extra = 1.0


# (record, working fields, a field, a value it refuses, the refusal's message)
CHECKED = [
    (ptresonance.ResonanceParams, {"e0": 1.0, "gamma": 0.8}, "gamma", -1.0,
     "gamma must be positive"),
    (ptresonance.PropagatorModel, {"poles": [1.0 - 0.8j], "residues": [1.0]}, "poles",
     [np.nan], "poles and residues must be finite"),
    (ptresonance.AntilinearSymmetry, {"P": ptresonance.PAULI_X}, "P", np.zeros((2, 2)),
     "linear part P is singular"),
    (ptresonance.SecondOrderIVP, {"c1": 0.0, "c0": 1.0, "psi0": 1.0, "dpsi0": 0.0,
                                  "times": [0.0, 1.0], "step": 0.01}, "step", -1.0,
     "step must be positive and finite"),
    (ptresonance.StateTrajectory, {"times": [0.0, 1.0], "states": np.zeros((2, 2)),
                                   "dirac_norms": np.ones(2), "v_norms": None}, "times",
     [1.0, 0.0], "times must be strictly ascending"),
]


@pytest.mark.parametrize("record, fields, field, bad, message", CHECKED,
                         ids=[case[0].__name__ for case in CHECKED])
def test_checking_records_check_every_construction_path(record, fields, field, bad, message):
    """The constructor, ``_make``, ``_replace``, a copy and unpickling all run
    the record's check; a refused record can be made only by ``tuple.__new__``."""
    good = record(**fields)
    values = [bad if name == field else getattr(good, name) for name in record._fields]
    unchecked = tuple.__new__(record, values)
    paths = {
        "constructor": lambda: record(*values),
        "_make": lambda: record._make(values),
        "_replace": lambda: good._replace(**{field: bad}),
        "copy": lambda: copy.copy(unchecked),
        "deepcopy": lambda: copy.deepcopy(unchecked),
        "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
    }
    for path, build in paths.items():
        with pytest.raises(ValueError, match=message):
            build()
    for kept in (record._make(good), good._replace(), copy.copy(good),
                 pickle.loads(pickle.dumps(good))):
        assert type(kept) is record
        assert all(np.array_equal(a, b) if a is not None else b is None
                   for a, b in zip(kept, good))


def test_readme_library_example_runs(capsys):
    """README's "Library example" block, run verbatim: its asserts hold and
    the pseudounitarity residual it prints is at most 1e-10."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) <= 1e-10
