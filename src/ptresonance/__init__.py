"""Numerical toolkit for non-Hermitian level pairs with antilinear symmetry.

Modules
-------
linalg
    Biorthogonal eigendecomposition, defect detection, intertwiner null
    space, spectral evolution operator.
symmetry
    Antilinear-symmetry check, spectrum classification.
metric
    Metric-operator construction, conserved inner product, closure and
    pseudo-Hermiticity checks.
evolution
    State evolution with Dirac- and metric-norm tracks, pseudounitarity,
    two-channel gain/loss scenario.
response
    Resonance propagators, phase shifts, Wigner time delay/advance,
    residue and quadrature inverse transforms.
odes
    The two associated second-order wave equations and a fixed-step RK4
    integrator.
cli
    Command-line front end (``ptresonance``).
"""

from . import errors, evolution, linalg, metric, odes, response, symmetry
from .errors import *  # noqa: F403 -- each module's __all__ is its public list
from .evolution import *  # noqa: F403
from .linalg import *  # noqa: F403
from .metric import *  # noqa: F403
from .odes import *  # noqa: F403
from .response import *  # noqa: F403
from .symmetry import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (errors, evolution, linalg, metric, odes, response, symmetry)
__all__ = [name for module in _MODULES for name in module.__all__]
