"""Antilinear symmetry checks and spectrum classification.

An antilinear symmetry is an invertible linear map P composed with complex
conjugation (T = K).  A matrix H commuting with it satisfies
``P conj(H) P^-1 = H`` and its eigenvalues are forced to be real or to come
in complex-conjugate pairs; this module checks the symmetry, classifies a
spectrum into those categories, and decides whether the symmetry is unbroken
(all eigenvalues real, eigenvectors shared with the antilinear map).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    EigenSystem,
    _cluster_eigenvalues,
    _conjugate_partners,
    _require_eigenbasis,
    _require_invertible,
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
    "pt_unbroken",
    "gain_loss_dimer",
]

# Classification tolerance, relative to the spectral radius.
DEFAULT_CLASSIFY_TOL = 1e-9


def gain_loss_dimer(s: float) -> np.ndarray:
    """Balanced gain/loss two-site matrix ``[[1+i, s], [s, 1-i]]``.

    The real coupling ``s`` tunes the spectrum: real for ``s >= 1``, a
    complex-conjugate pair for ``s < 1``, with the transition at ``s = 1``
    where the matrix becomes defective.
    """
    return np.array([[1.0 + 1.0j, s], [s, 1.0 - 1.0j]], dtype=complex)


@dataclass(frozen=True, eq=False)
class AntilinearSymmetry:
    """Antilinear map ``v -> P conj(v)``: invertible linear part P, T = K."""

    P: np.ndarray

    def __post_init__(self):
        P = as_matrix(self.P)
        object.__setattr__(self, "P", P)
        _require_invertible(P, "linear part P")

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply the antilinear map to a vector."""
        return self.P @ np.conj(v)


class PTCheck(NamedTuple):
    is_symmetric: bool
    residual: float


def check_pt(H, sym: AntilinearSymmetry) -> PTCheck:
    """Check invariance of H under the antilinear map.

    Returns whether ``||P conj(H) P^-1 - H|| <= 1e-10 * ||H||`` together with
    the relative residual.
    """
    H = as_matrix(H)
    if H.shape != sym.P.shape:
        raise ValueError(
            f"dimension mismatch: H is {H.shape[0]}x{H.shape[0]}, "
            f"P is {sym.P.shape[0]}x{sym.P.shape[0]}"
        )
    P_inv = np.linalg.inv(sym.P)
    transformed = sym.P @ np.conj(H) @ P_inv
    h_norm = float(np.linalg.norm(H, "fro"))
    residual = float(np.linalg.norm(transformed - H, "fro"))
    if h_norm > 0.0:
        residual /= h_norm
    return PTCheck(residual <= 1e-10, residual)


@dataclass(frozen=True)
class SpectrumReport:
    """Classification of a spectrum into antilinear-symmetry categories.

    ``real_values`` lists ``(value, multiplicity)``, ``conjugate_pairs``
    lists ``(E0, Gamma)`` with eigenvalues ``E0 +/- i Gamma``, and
    ``unmatched`` collects complex values with no conjugate partner within
    tolerance (a broken-antilinearity flag).  Every input eigenvalue lands in
    exactly one of those three; ``exceptional`` annotates defective clusters
    on top of that partition without removing values from it.
    """

    real_values: tuple[tuple[float, int], ...]
    conjugate_pairs: tuple[tuple[float, float], ...]
    unmatched: tuple[complex, ...]
    exceptional: tuple[tuple[complex, int], ...]
    tol_used: float

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
            "tol_used": self.tol_used,
        }


def classify_spectrum(
    eigenvalues,
    tol: float = DEFAULT_CLASSIFY_TOL,
    defective_clusters=(),
) -> SpectrumReport:
    """Classify eigenvalues into real values, conjugate pairs and leftovers.

    Values with ``|Im| <= tol * spectral_radius`` count as real, with the
    multiplicities of ``linalg._cluster_eigenvalues`` at that radius.  A value
    above the real axis pairs with the value below it that the intertwiner
    basis's matching, ``linalg._conjugate_partners``, gives it (within
    ``linalg.PAIR_TOL * spectral_radius``, whatever ``tol``), so values paired
    here are paired there too.  Other complex values are reported unmatched.
    ``defective_clusters`` (value, multiplicity) fill ``exceptional``.
    ``tol`` must lie in (0, 1), since ``|Im| <= max|lambda|`` always
    (``ValueError`` otherwise).
    """
    w = np.asarray(list(eigenvalues), dtype=complex)
    if w.size and not np.all(np.isfinite(w)):
        raise ValueError("eigenvalues must be finite")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if tol >= 1:
        raise ValueError(f"tol must be below 1, got {tol!r}: every value would count as real")
    w = w[np.lexsort((w.imag, w.real))]
    abs_tol = tol * (float(np.max(np.abs(w))) if w.size else 0.0)

    real = np.abs(w.imag) <= abs_tol
    reals = w[real].real
    partner = _conjugate_partners(w)
    lower = ~real & (w.imag < 0)
    up = [k for k in np.flatnonzero(~real & (w.imag > 0)) if partner[k] >= 0 and lower[partner[k]]]
    down = partner[up]
    e0, gamma = (w[up].real + w[down].real) / 2.0, (w[up].imag - w[down].imag) / 2.0
    single = ~real
    single[up] = single[down] = False
    return SpectrumReport(
        real_values=tuple(
            (float(np.mean(reals[c])), len(c)) for c in _cluster_eigenvalues(reals, abs_tol)
        ),
        conjugate_pairs=tuple(sorted(zip(e0.tolist(), gamma.tolist()))),
        unmatched=tuple(complex(z) for z in w[single]),
        exceptional=tuple((complex(v), int(m)) for v, m in defective_clusters),
        tol_used=tol,
    )


def classify_hamiltonian(H, tol: float = DEFAULT_CLASSIFY_TOL):
    """Eigendecompose H and classify its spectrum.

    Defective clusters found by the rank test are annotated in the report's
    ``exceptional`` list; their values are still categorized (a two-fold
    defect with a real eigenvalue shows up as a real value of multiplicity 2
    plus the annotation).

    Returns
    -------
    (SpectrumReport, EigenSystem)
    """
    eigsys = eig(H)
    # The rank test certifies each defective cluster as one eigenvalue; snap
    # its members to the cluster center so the sqrt-of-eps numerical splitting
    # at the defect does not masquerade as a genuine pair.
    w = eigsys.eigenvalues.copy()
    for d in eigsys.defects:
        for idx in d.members:
            w[idx] = d.value
    defects = [(d.value, d.algebraic) for d in eigsys.defects]
    report = classify_spectrum(w, tol=tol, defective_clusters=defects)
    return report, eigsys


def pt_unbroken(sym: AntilinearSymmetry, eigsys: EigenSystem) -> bool:
    """Whether the antilinear symmetry is unbroken on the eigenbasis.

    True iff every right eigenvector is mapped to a multiple of itself by
    ``v -> P conj(v)`` (within 1e-8 relative), which for a symmetric H with
    complete spectrum is equivalent to all eigenvalues being real.
    """
    _require_eigenbasis(eigsys)
    if sym.P.shape != (eigsys.n, eigsys.n):
        raise ValueError(f"dimension mismatch: {eigsys.n} eigenvalues, P is {sym.P.shape}")
    for k in range(eigsys.n):
        v = eigsys.right[:, k]
        image = sym.apply(v)
        coeff = np.vdot(v, image) / np.vdot(v, v)
        defect = np.linalg.norm(image - coeff * v)
        scale = max(np.linalg.norm(image), 1e-300)
        if defect / scale > 1e-8:
            return False
    return True
