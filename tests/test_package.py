"""The package's public names: each listed once, in its own module."""

import collections

import ptresonance
from ptresonance import errors, evolution, linalg, metric, odes, response, symmetry

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
