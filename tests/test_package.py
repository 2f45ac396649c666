"""The package surface: public names, each listed once in its own module, and
the README library example."""

import ast
import collections
import inspect
import pathlib

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


def test_one_door_per_vector_and_matrix():
    """Input becomes a complex array in two functions only: ``as_matrix`` and
    the vector door ``linalg._as_vector``; every other entry calls them."""
    readers = []
    for module in MODULES + (cli,):
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and ast.unparse(call.func) == "np.asarray"
                and any(ast.unparse(k.value) == "complex" for k in call.keywords)
                for call in ast.walk(fn)
            ):
                readers.append(f"{module.__name__}.{fn.name}")
    assert readers == ["ptresonance.linalg._as_vector", "ptresonance.linalg.as_matrix"]


def test_readme_library_example_runs(capsys):
    """README's "Library example" block, run verbatim: its asserts hold and
    the pseudounitarity residual it prints is at most 1e-10."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) <= 1e-10
