"""Antilinear symmetry checks and spectrum classification.

An antilinear symmetry is an invertible linear map P composed with complex
conjugation (T = K).  A matrix H commuting with it satisfies
``P conj(H) P^-1 = H`` and its eigenvalues are forced to be real or to come
in complex-conjugate pairs; this module checks the symmetry and classifies a
spectrum into those categories, both within the one backward error
``linalg.RESIDUAL_CAP``.  The symmetry is unbroken when the classification
reports real values only.
"""

from typing import NamedTuple

import numpy as np

from .linalg import (
    RESIDUAL_CAP,
    _as_vector,
    _Checked,
    _cluster_eigenvalues,
    _conjugate_permutation,
    _frobenius,
    _radii,
    _require_finite,
    _require_invertible,
    _unit,
    as_matrix,
    eig,
)

__all__ = [
    "AntilinearSymmetry",
    "PTCheck",
    "SpectrumReport",
    "check_pt",
    "classify_spectrum",
    "classify_hamiltonian",
    "gain_loss_dimer",
]


def gain_loss_dimer(s: float) -> np.ndarray:
    """Balanced gain/loss two-site matrix ``[[1+i, s], [s, 1-i]]``.

    The real coupling ``s`` tunes the spectrum: real for ``s >= 1``, a
    complex-conjugate pair for ``s < 1``, with the transition at ``s = 1``
    where the matrix becomes defective.
    """
    return as_matrix([[1.0 + 1.0j, s], [s, 1.0 - 1.0j]])


class AntilinearSymmetry(_Checked, NamedTuple("AntilinearSymmetry", [("P", np.ndarray)])):
    """Antilinear map ``v -> P conj(v)``: invertible linear part P, T = K."""

    __slots__ = ()

    def __new__(cls, P):
        P = as_matrix(P)
        _require_invertible(P, "linear part P")
        return super().__new__(cls, P)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply the antilinear map to a vector of P's size."""
        return self.P @ np.conj(_as_vector(v, "v", self.P.shape[0]))


class PTCheck(NamedTuple):
    is_symmetric: bool
    residual: float


def check_pt(H, sym: AntilinearSymmetry) -> PTCheck:
    """Check invariance of H under the antilinear map.

    Returns whether ``||P conj(H) P^-1 - H|| <= RESIDUAL_CAP * ||H||`` (Frobenius
    norms) together with the relative residual, formed from H and P at unit
    scale (``linalg._unit``): it does not change when either is rescaled.
    """
    H = as_matrix(H)
    if H.shape != sym.P.shape:
        raise ValueError(
            f"dimension mismatch: H is {H.shape[0]}x{H.shape[0]}, "
            f"P is {sym.P.shape[0]}x{sym.P.shape[0]}"
        )
    H, P = _unit(H), _unit(sym.P)
    residual = float(_frobenius(P @ np.conj(H) @ np.linalg.inv(P) - H))
    residual /= float(_frobenius(H)) or 1.0
    return PTCheck(residual <= RESIDUAL_CAP, residual)


class SpectrumReport(NamedTuple):
    """Classification of a spectrum into antilinear-symmetry categories.

    ``real_values`` lists ``(value, multiplicity)``, ``conjugate_pairs``
    lists ``(E0, Gamma)`` with eigenvalues ``E0 +/- i Gamma``, and
    ``unmatched`` collects complex values with no conjugate partner within
    the backward error (a broken-antilinearity flag).  Every input eigenvalue lands in
    exactly one of those three; ``exceptional`` annotates defective clusters
    on top of that partition without removing values from it.
    """

    real_values: tuple[tuple[float, int], ...]
    conjugate_pairs: tuple[tuple[float, float], ...]
    unmatched: tuple[complex, ...]
    exceptional: tuple[tuple[complex, int], ...]

    @property
    def broken(self) -> bool:
        return len(self.unmatched) > 0

    @property
    def total_multiplicity(self) -> int:
        return (
            sum(m for _, m in self.real_values)
            + 2 * len(self.conjugate_pairs)
            + len(self.unmatched)
        )

    def eigenvalue_list(self) -> list[complex]:
        """Reconstruct the classified eigenvalue multiset."""
        out: list[complex] = []
        for value, mult in self.real_values:
            out.extend([complex(value, 0.0)] * mult)
        for e0, gamma in self.conjugate_pairs:
            out.append(complex(e0, gamma))
            out.append(complex(e0, -gamma))
        out.extend(self.unmatched)
        return out

    def to_json(self) -> dict:
        return {
            "real": [{"value": v, "multiplicity": m} for v, m in self.real_values],
            "pairs": [{"e0": e0, "gamma": g} for e0, g in self.conjugate_pairs],
            "unmatched": [[z.real, z.imag] for z in self.unmatched],
            "exceptional": [
                {"value": [z.real, z.imag], "multiplicity": m} for z, m in self.exceptional
            ],
            "broken": self.broken,
        }


def classify_spectrum(eigenvalues, defective_clusters=()) -> SpectrumReport:
    """Classify eigenvalues into real values, conjugate pairs and leftovers.

    The rule of ``classify_hamiltonian`` for the normal matrix ``diag(w)``:
    every value has condition number 1 and ``||diag(w)||_2 = max|lambda|``.
    ``defective_clusters`` (value, multiplicity) fill ``exceptional``.
    """
    w = _as_vector(list(eigenvalues), "eigenvalues")
    return _classify(w, _radii(np.ones(w.shape), float(np.max(np.abs(w), initial=0.0))),
                     defective_clusters)


def _classify(w: np.ndarray, radii: np.ndarray, defective_clusters) -> SpectrumReport:
    """The classification of values with their backward-error radii."""
    order = np.lexsort((w.imag, w.real))
    w, radii = w[order], radii[order]
    perm = _conjugate_permutation(w, radii)
    real = perm == np.arange(w.size)
    up = np.flatnonzero(~real & (perm >= 0) & (w.imag > 0))
    down = perm[up]
    mid = w[up] / 2.0 + np.conj(w[down]) / 2.0  # E0 + i Gamma, halved first: a sum may overflow
    reals = w[real].real
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean is refused
        means = [(np.mean(reals[c]), len(c)) for c in _cluster_eigenvalues(reals, radii[real])]
    return SpectrumReport(
        real_values=tuple((float(v), m) for v, m in _require_finite(means, "real cluster mean")),
        conjugate_pairs=tuple(sorted(zip(mid.real.tolist(), mid.imag.tolist()))),
        unmatched=tuple(complex(z) for z in w[perm < 0]),
        exceptional=tuple((complex(v), int(m)) for v, m in defective_clusters),
    )


def classify_hamiltonian(H):
    """Eigendecompose H and classify its spectrum.

    Each eigenvalue has the radius ``r_i = kappa_i RESIDUAL_CAP ||H||_2``,
    how far it moves under a perturbation of H within the backward error.
    The pairing verdict ``linalg._conjugate_permutation``, which the
    intertwiner basis and ``build_metric`` read too, sorts the values into
    real ones (``|Im lambda_i| <= r_i``), conjugate pairs (within ``r_i +
    r_j``) and unmatched ones; real values share a multiplicity by
    ``linalg._cluster_eigenvalues``.  A spectrum reported without unmatched
    values gets a metric, one with them none.

    Defective clusters found by the rank test are annotated in the report's
    ``exceptional`` list; their values are still categorized, snapped to the
    cluster centre with condition number 1 (a two-fold defect with a real
    eigenvalue shows up as a real value of multiplicity 2 plus the
    annotation).

    Returns
    -------
    (SpectrumReport, EigenSystem)
    """
    eigsys = eig(H)
    # The rank test certifies each defective cluster as one eigenvalue; snap
    # its members to the cluster center so the sqrt-of-eps numerical splitting
    # at the defect does not masquerade as a genuine pair.
    w, kappa = eigsys.eigenvalues.copy(), eigsys.kappa.copy()
    for d in eigsys.defects:
        w[list(d.members)], kappa[list(d.members)] = d.value, 1.0
    defects = [(d.value, d.algebraic) for d in eigsys.defects]
    return _classify(w, _radii(kappa, eigsys.norm), defects), eigsys
