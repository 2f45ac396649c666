"""Dense complex linear algebra for small non-Hermitian operators.

Provides the biorthogonal eigendecomposition (right and left eigenvectors
normalized to ``L_i R_j = delta_ij``) with detection of defective spectra,
the solver for the intertwiner equation ``V H = H^dag V`` from the
eigensystem, and the spectral time-evolution operator ``U(t) = exp(-i H t)``.
Every routine that needs a complete eigenbasis refuses a defective spectrum
through one guard, ``_require_eigenbasis``.

All routines work on plain ``numpy`` arrays of complex numbers.  Three rules
say what an input is, each raising ``ValueError`` naming it:

* a number by ``_numbers`` (``_number`` for a single one): ints or floats,
  complex numbers too where the input is complex, never a bool (not even one
  inside a list), text, None or another object, in a regular array, and finite;
* a count by ``_count``: a positive integer, not a bool;
* a named choice (a policy, a branch, a model kind) by ``_require_choice``.

Each input kind of the package enters by one door built on them:

* a matrix (H, P, V) by ``as_matrix``: square, non-empty, finite;
* a vector (a state, a ket or bra, a pole or residue list, a polynomial's
  coefficients, a spectrum) by ``_as_vector``: 1-D, of a given length, finite;
* a time or energy grid by ``_require_grid``: 1-D, finite, strictly ascending;
* a level pair (E0, Gamma) by ``response.ResonanceParams``: finite, Gamma > 0;
* an energy or time offset by ``response._offsets``, and a metric given to a
  consumer by ``metric._metric_matrix``.

A product or norm of finite inputs that leaves the double range is formed with
overflow ignored and refused once, by ``_require_finite``, with
``OverflowRangeError``.  A relative residual that is homogeneous in its inputs
(the intertwiner, similarity, antilinear, closure and eigen-equation
residuals) is formed from inputs put at unit scale by ``_unit``, a power of two
that moves no bit where the inputs were in range, so none of its products can
overflow or underflow.  Every Frobenius norm of the package is
``_frobenius``'s, scaled where numpy's sum of squares overflows or underflows:
the residuals that are not homogeneous, ``V^-1 U^dag V U - I`` and ``L R - I``,
read it without unit-scaled inputs.  Every other norm is a 2-norm or a vector
norm along one axis.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DefectiveMatrixError, OverflowRangeError

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "as_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "DefectCluster",
    "EigenSystem",
    "IntertwinerSpace",
    "eig",
    "solve_intertwiner",
    "mat_exp_evolution",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# The one relative backward error of every spectral verdict: H is known to
# within RESIDUAL_CAP * ||H||_2, so eigenvalue i to within kappa_i times that.
# Realness, pairing, clusters, the defect rank test, the antilinear-symmetry
# check and a metric's intertwiner residual all read it.
RESIDUAL_CAP = 1e-10

# exp() overflows double precision near 709; stay clear of it.
EXP_CAP = 300.0

# Condition number above which a matrix is treated as singular.
_CONDITION_CAP = 1e12

# The smallest normal double.  Where a sum of squares is at least
# _NORMAL_MIN / eps, no square below it moves the sum by a rounding: the least
# norm ``_frobenius`` takes from numpy.
_NORMAL_MIN = np.finfo(float).tiny
_NORMAL_NORM = math.sqrt(_NORMAL_MIN / np.finfo(float).eps)


def _guard_exponent(rates, times, what: str) -> None:
    """Raise ``OverflowRangeError`` when the largest growth exponent, a product
    ``rate * time`` of the two (arrays or scalars), exceeds ``EXP_CAP``.

    The products are formed with overflow ignored, so an exponent beyond the
    double range is reported here as inf, without a numpy warning.
    """
    with np.errstate(over="ignore"):
        top = float(np.max(np.multiply.outer(rates, times)))
    if top > EXP_CAP:
        raise OverflowRangeError(f"{what} {top:.3g} exceeds cap {EXP_CAP:g}")


def _require_finite(value, what: str):
    """Return ``value``, a quantity its caller formed with overflow ignored;
    ``OverflowRangeError`` naming ``what`` when an entry is beyond the double
    range (inf, or the NaN an overflow leaves)."""
    if not np.isfinite(value).all():
        raise OverflowRangeError(f"{what} is beyond the double range")
    return value


def _frobenius(x: np.ndarray, axis=None):
    """The package's one Frobenius norm of a residual or a scale: of the matrix
    x, or of each matrix of a stack over ``axis = (-2, -1)``.

    numpy's norm wherever its sum of squares is a normal double with room to
    spare, ``||x||_F >= sqrt(tiny / eps)`` and finite, and for a zero matrix;
    elsewhere ``s ||x / s||_F`` with ``s = max|x|``, so that neither squares
    that underflow nor squares that overflow move it.  Like every quantity
    ``_require_finite`` judges, it is formed under its caller's ``errstate``
    with overflow ignored: a norm beyond the double range is inf or NaN."""
    norm = np.linalg.norm(x, axis=axis)
    if norm.ndim == 0 and (_NORMAL_NORM <= norm < math.inf or not (norm or x.any())):
        return norm
    keep = (norm >= _NORMAL_NORM) & (norm < np.inf)  # NaN is not kept
    if keep.all():
        return norm
    rescale = ~keep & np.any(x, axis=axis)  # a zero matrix keeps numpy's 0
    # |x| / s is 0 / 0 for a zero matrix of a stack; a real quotient, since a
    # complex one by a subnormal s overflows
    with np.errstate(invalid="ignore"):
        s = np.max(mag := np.abs(x), axis=(-2, -1), keepdims=True)
        scaled = np.linalg.norm(mag / s, axis=axis) * np.squeeze(s, axis=(-2, -1))
    return np.where(rescale, scaled, norm)


def _parts(y) -> np.ndarray:
    """The float view of y: its real and imaginary parts for a complex y."""
    y = np.asarray(y, order="C")
    return y.view(float) if y.dtype.kind == "c" else y


def _unit(x: np.ndarray, *more):
    """x, an array of floats or complex numbers, times the power of two that
    puts its largest real or imaginary part in [0.5, 1), or that of each
    matrix for a stack (``x.ndim > 2``); a zero x is left as it is.  With
    ``more``, the tuple of x and each of them times that power.

    The package's one rule for the inputs of a residual that does not change
    when they are rescaled.  ``np.ldexp`` on the float view is exact for every
    double, bar the parts it pushes below the normal range, which lie 2^-1022
    below the largest.  So each product, sum and norm formed from scaled
    inputs is the one formed from the inputs times a power of two, bit for bit
    where they were in range, and none can overflow or underflow.
    """
    stack = x.ndim > 2
    parts = _parts(x)
    top = np.maximum.reduce(np.abs(parts), (-2, -1) if stack else None, keepdims=stack, initial=0)
    e = np.frexp(top)[1] if stack else math.frexp(top)[1]
    unit = np.ldexp(parts, -e).view(x.dtype)
    if not more:
        return unit
    return (unit, *(np.ldexp(_parts(y), -e).view(np.result_type(y)) for y in more))


def _condition(M: np.ndarray) -> tuple[float, bool]:
    """M's 2-norm condition number and the package's one invertibility verdict
    on it: finite and at most ``_CONDITION_CAP``."""
    cond = float(np.linalg.cond(M, 2))
    return cond, cond <= _CONDITION_CAP


def _require_invertible(M: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` when M is singular by ``_condition``'s verdict."""
    cond, invertible = _condition(M)
    if not invertible:
        raise ValueError(f"{name} is singular (condition estimate {cond:.3g})")


def _distances(a: np.ndarray, b) -> np.ndarray:
    """``|a_i - b_j|``, shape ``shape(a) + shape(b)``; a distance beyond the
    double range is inf, without a numpy warning, and within no cutoff."""
    with np.errstate(over="ignore"):
        return np.abs(np.subtract.outer(a, b))


def _greedy_match(a: np.ndarray, b: np.ndarray, cutoff) -> np.ndarray:
    """Greedy nearest-partner matching of the points ``a`` to the points ``b``.

    For each ``a[k]`` in order, ``match[k]`` is the index of the nearest
    still-unused ``b[m]`` with ``|b[m] - a[k]| <= cutoff[k, m]`` (ties go to
    the lowest index), or -1 when there is none.  ``cutoff`` is a scalar or
    broadcasts to shape ``(len(a), len(b))``.  When no point has two
    candidates on either side, that unique assignment is the result.
    """
    dist = _distances(a, b)
    candidate = (dist <= cutoff) & (dist < np.inf)
    match = np.full(len(a), -1)
    rows, cols = np.nonzero(candidate)
    if len(set(rows.tolist())) == rows.size == len(set(cols.tolist())):
        match[rows] = cols
        return match
    dist[~candidate] = np.inf  # beyond the cutoff, like a used b: never a partner
    for k in range(len(a)):
        m = int(np.argmin(dist[k]))
        if dist[k, m] < np.inf:
            match[k] = m
            dist[:, m] = np.inf
    return match


def _radii(kappa: np.ndarray, norm: float) -> np.ndarray:
    """How far eigenvalues of condition numbers ``kappa`` move under a
    perturbation of H (``norm = ||H||_2``) within the backward error."""
    return kappa * (RESIDUAL_CAP * norm)


def _pair_cutoffs(radii: np.ndarray) -> np.ndarray:
    """``radii[i] + radii[j]``: values i and j within it count as one, for
    conjugate pairing and clustering alike."""
    return np.add.outer(radii, radii)


def _conjugate_permutation(w: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The one pairing verdict of a sorted spectrum with its radii, read by
    the classification, the intertwiner basis and the metric.

    A greedy matching gives each value in order the free value nearest its
    conjugate within ``_pair_cutoffs``.  ``perm[k]`` is k for a real value
    (``|Im lambda_k| <= radii[k]``: it is its own partner), the other's index
    for a value above the real axis matched to one below and for that one,
    and -1 for an unmatched value.  An invertible metric ``L^dag P L`` exists
    iff no entry is -1.
    """
    real = np.abs(w.imag) <= radii
    partner = _greedy_match(np.conj(w), w, _pair_cutoffs(radii))
    perm = np.where(real, np.arange(w.size), -1)
    k = np.flatnonzero(~real & (w.imag > 0) & (partner >= 0))
    m = partner[k]
    pair = ~real[m] & (w[m].imag < 0)
    k, m = k[pair], m[pair]
    # the matching uses each value once, so no entry is written twice
    perm[k], perm[m] = m, k
    return perm


def _holds_bool(seq) -> bool:
    """Whether a bool, an ``np.bool_`` or a bool array lies anywhere in the
    nested lists and tuples ``seq``, where numpy reads it as a number."""
    kinds = set(map(type, seq))
    if not any(issubclass(k, (list, tuple, np.ndarray)) for k in kinds):
        return bool in kinds or np.bool_ in kinds
    return any(_holds_bool(x) if isinstance(x, (list, tuple)) else
               type(x) is bool or getattr(x, "dtype", None) == bool for x in seq)


# What a refusal says it got, by numpy's dtype kind; an object array is what
# numpy makes of None, an int beyond 64 bits or another Python object.
_INPUT_KINDS = {"b": "bool", "c": "complex", "U": "text", "S": "bytes",
                "O": "object (None, an int beyond 64 bits or another Python object)"}


def _numbers(data, name: str, dtype=float, what: str = "finite") -> np.ndarray:
    """The one number rule: ``data`` as an array of ``dtype``, float or complex.

    Raises ``ValueError`` naming ``name`` unless numpy reads ``data`` as ints
    or floats, or as complex numbers where ``dtype`` is complex: a bool (also
    one inside a list or tuple), text, None, an int beyond 64 bits or any
    other object is refused, as are a ragged list and a complex number where a
    real one is due, each by its kind (``_INPUT_KINDS``).  An entry that is NaN or infinite in double precision is
    refused too, saying ``name`` must be ``what``.
    """
    kinds = "iuf" if dtype is float else "iufc"
    try:
        arr = np.asarray(data)
    except ValueError:  # numpy's message for a ragged list names no input
        raise ValueError(f"{name} must be numbers in a regular array") from None
    if arr.dtype.kind not in kinds or isinstance(data, (list, tuple)) and _holds_bool(data):
        kind = arr.dtype.kind if arr.dtype.kind not in kinds else "b"
        got = _INPUT_KINDS.get(kind, arr.dtype.name)
        raise ValueError(f"{name} must be {'real ' if dtype is float else ''}numbers, got {got}")
    with np.errstate(over="ignore"):  # a long double beyond the double range is inf
        arr = arr.astype(dtype, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be {what}")
    return arr


def _number(x, name: str, what: str = "finite", dtype=float):
    """One number by the number rule, as a Python float (or complex)."""
    x = _numbers(x, name, dtype, what)
    if x.ndim:
        raise ValueError(f"{name} must be a single number, got shape {x.shape}")
    return x.item()


def _count(n, name: str) -> int:
    """The one count rule: ``n`` as an int, refused with ``ValueError`` naming
    ``name`` unless it is a positive Python or numpy integer (not a bool) that
    numpy can index with."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 < n <= sys.maxsize:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def _require_choice(value, choices: tuple[str, ...], what: str) -> str:
    """The one rule for a named choice: ``value`` if it is one of the strings
    ``choices``, else ``ValueError`` naming ``what``."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")
    return value


def _require_grid(values, name: str = "times") -> np.ndarray:
    """Validate and return ``values`` as a grid: 1-D, non-empty, finite and
    strictly ascending.  Raises ``ValueError`` naming ``name`` otherwise."""
    grid = _numbers(values, name)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D grid")
    if np.any(np.diff(grid) <= 0):
        raise ValueError(f"{name} must be strictly ascending")
    return grid


def _as_vector(data, name: str, n: int | None = None, what: str = "a vector") -> np.ndarray:
    """The one door for a vector: ``data`` as a finite 1-D complex array, of
    length n when given; else ``ValueError`` saying ``name`` must be ``what``."""
    v = _numbers(data, name, complex)
    if v.ndim != 1 or (n is not None and v.size != n):
        expected = "" if n is None else f", expected ({n},)"
        raise ValueError(f"{name} must be {what}, got shape {v.shape}{expected}")
    return v


def as_matrix(data) -> np.ndarray:
    """Validate and return ``data`` as a square complex matrix.

    Raises ``ValueError`` for input that is not numbers, non-square shapes or
    non-finite entries.
    """
    m = _numbers(data, "matrix entries", complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"matrix must be square and non-empty, got shape {m.shape}")
    return m


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the matrix interchange format.

    The wire format is ``{"n": int, "entries": [[[re, im], ...], ...]}`` with
    row-major entries.  Raises ``ValueError`` naming the offending field on
    malformed input.
    """
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON: top-level value must be an object")
    for field in ("n", "entries"):
        if field not in obj:
            raise ValueError(f"matrix JSON: missing field '{field}'")
    n = _count(obj["n"], "matrix JSON: field 'n'")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise ValueError(f"matrix JSON: field 'entries' must be a list of {n} rows")
    try:  # the number rule once, on the whole list
        parts = _numbers(entries, "matrix JSON: entries")
    except ValueError:
        parts = np.empty(0)
    if parts.shape == (n, n, 2) and all(isinstance(row, list) for row in entries):
        return parts.view(complex).reshape(n, n)  # the bits of complex(re, im)
    # entry by entry, so that a refusal names the row or the entry
    m = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"matrix JSON: entries[{i}] must be a list of {n} entries")
        for j, pair in enumerate(row):
            where = f"matrix JSON: entries[{i}][{j}]"
            pair = _numbers(pair, where)
            if pair.shape != (2,):
                raise ValueError(f"{where} must be a [re, im] pair")
            m[i, j] = complex(*pair.tolist())
    return m


def matrix_to_json(m) -> dict:
    """Serialize a square complex matrix to the interchange format."""
    m = as_matrix(m)
    return {"n": m.shape[0], "entries": np.stack((m.real, m.imag), axis=-1).tolist()}


class _Checked:
    """Mixin of a record whose ``__new__`` checks its fields: ``_make``, and so
    ``_replace``, builds through that constructor, as copying and unpickling do."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class DefectCluster(NamedTuple):
    """An eigenvalue cluster whose geometric multiplicity is deficient."""

    value: complex
    algebraic: int
    geometric: int
    members: tuple[int, ...]  # indices into the sorted eigenvalue array


class EigenSystem(NamedTuple):
    """Eigenvalues with biorthonormalized right/left eigenvectors.

    ``right`` holds right eigenvectors as columns, ``left`` holds left
    eigenvectors as rows, scaled so that ``left @ right == I`` and each right
    vector has unit Euclidean norm with its first nonzero component real
    positive.  When the spectrum is defective (``defects`` is non-empty) both
    are ``None``.

    ``residual`` is the largest of the eigen-equation, biorthonormality and
    completeness residuals (eigen-equation only when defective).  ``kappa``
    holds the eigenvalue condition numbers, the norms of the left rows (inf
    for singular right vectors), and ``norm`` is ``||H||_2``, defective or not.
    """

    eigenvalues: np.ndarray
    right: np.ndarray | None
    left: np.ndarray | None
    residual: float
    defects: tuple[DefectCluster, ...]
    kappa: np.ndarray
    norm: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def defective(self) -> bool:
        return bool(self.defects)


class IntertwinerSpace(NamedTuple):
    """Basis of the solution space of ``V H = H^dag V``.

    The basis elements are orthonormal under the Frobenius inner product
    (a QR factorization), hence linearly independent.  ``basis[0]`` is
    invertible whenever every eigenvalue has a conjugate partner.
    """

    basis: tuple[np.ndarray, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _require_eigenbasis(eigsys: EigenSystem) -> None:
    """Raise ``DefectiveMatrixError`` naming each defective cluster.

    The one refusal of every computation that needs a complete eigenbasis:
    the spectral evolution formula, the intertwiner basis and the metric.
    """
    if eigsys.defective:
        raise DefectiveMatrixError(
            "no complete eigenbasis: "
            + ", ".join(
                f"eigenvalue {d.value:.6g} has geometric multiplicity "
                f"{d.geometric} < algebraic {d.algebraic}"
                for d in eigsys.defects
            )
        )


def _phase_gauge(columns: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero component is real positive."""
    mag = np.abs(columns)
    nrm = mag.max(axis=0)
    pivots = columns[np.argmax(mag > 1e-12 * nrm, axis=0), np.arange(columns.shape[1])]
    # One numpy-scalar division per column, and the phases multiplied in as a
    # row: an array division, or a 1-d broadcast on a single column, rounds
    # differently from the product taken column by column.
    phases = np.array([1.0 if m == 0.0 else abs(p) / p for p, m in zip(pivots, nrm)])
    return columns * phases[np.newaxis, :]


def _cluster_eigenvalues(w: np.ndarray, radii: np.ndarray) -> list[list[int]]:
    """Cluster values sorted by real, then imaginary part: each cluster takes
    in every value j within ``radii[j]`` plus its members' largest radius of
    its mean, so values i and j start one iff they lie within
    ``_pair_cutoffs``.  The one merge rule of the defect test and of the
    classification's real multiplicities."""
    n = w.shape[0]
    # A cluster grows only from a value within reach of its seed, so when
    # only the n self-distances are that small, every value is a singleton.
    if np.count_nonzero(_distances(w, w) <= _pair_cutoffs(radii)) == n:
        return [[i] for i in range(n)]
    clusters: list[list[int]] = []
    assigned = np.zeros(n, dtype=bool)
    for i in range(n):
        if assigned[i]:
            continue
        members = [i]
        assigned[i] = True
        while True:
            reach = radii + np.max(radii[members])
            near = np.flatnonzero(~assigned & (_distances(w, np.mean(w[members])) <= reach))
            if near.size == 0:
                break
            members += near.tolist()
            assigned[near] = True
        clusters.append(sorted(members))
    return clusters


def eig(H) -> EigenSystem:
    """Biorthogonal eigendecomposition of a square complex matrix.

    Eigenvalues are sorted by real part, then imaginary part.  H is
    defective when it lies within the backward error ``RESIDUAL_CAP *
    ||H||_2`` of a defective matrix: values cluster by
    ``_cluster_eigenvalues`` with the radii ``kappa_i RESIDUAL_CAP ||H||_2``,
    and a cluster of m values is defective when ``H - mean(cluster) I`` has
    fewer than m singular values at most ``RESIDUAL_CAP * ||H||_2``.  For a
    defective spectrum the eigenvector blocks are omitted (the spectral
    formula is invalid there).  A residual, ``||H||_2`` or a cluster mean
    beyond the double range raises ``OverflowRangeError``.

    Parameters
    ----------
    H : array_like, shape (n, n)
        Complex matrix.

    Returns
    -------
    EigenSystem
    """
    H = as_matrix(H)
    n = H.shape[0]
    try:
        w, R_raw = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        # LAPACK does not expose the iteration count; forward its message.
        raise ConvergenceError(f"eigenvalue iteration failed to converge: {exc}") from exc

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    R_raw = R_raw[:, order]

    h_norm = float(np.linalg.norm(H, 2))
    # H, its values and its norm at unit scale; LAPACK can return an infinite
    # eigenvalue of a finite H near the top of the range, whose residual is refused
    with np.errstate(over="ignore", invalid="ignore"):
        Hu, wu, hu_norm = _unit(H, w, h_norm)
        eig_res = float(_frobenius(Hu @ R_raw - R_raw * wu)) / (float(hu_norm) or 1.0)
    eig_res = _require_finite(eig_res, "eigen-equation residual")
    # a 2-norm beyond the double range would make every radius inf
    _require_finite(h_norm, "2-norm of H")

    R = _phase_gauge(R_raw / np.linalg.norm(R_raw, axis=0, keepdims=True))
    # R singular, exactly or so nearly that its inverse overflows: kappa = inf,
    # and every value clusters
    try:
        L = _require_finite(np.linalg.inv(R), "inverse of the eigenvectors")
    except (np.linalg.LinAlgError, OverflowRangeError):
        L = None

    # Rank test for geometric multiplicity on each eigenvalue cluster.  A kappa
    # beyond the double range is inf, like a singular R's; a non-finite mean is
    # refused below.
    floor = RESIDUAL_CAP * h_norm
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.full(n, np.inf) if L is None else np.linalg.norm(L, axis=1)
        clusters = [(m, complex(np.mean(w[m])))
                    for m in _cluster_eigenvalues(w, _radii(kappa, h_norm)) if len(m) > 1]
    defects: list[DefectCluster] = []
    for members, center in clusters:
        _require_finite(center, "eigenvalue cluster centre")
        sv = np.linalg.svd(H - center * np.eye(n), compute_uv=False)
        geometric = int(np.sum(sv <= floor))
        if geometric < len(members):
            defects.append(DefectCluster(center, len(members), geometric, tuple(members)))

    if defects:  # a defective spectrum keeps no eigenvector blocks
        R = L = None
    else:
        eig_res = float(max(eig_res, _frobenius(L @ R - np.eye(n)), _frobenius(R @ L - np.eye(n))))
    return EigenSystem(eigenvalues=w, right=R, left=L, residual=eig_res,
                       defects=tuple(defects), kappa=kappa, norm=h_norm)


def _null_space_correction(res, H, right, paired, pin: float) -> np.ndarray:
    """The X with ``X H - H^dag X = res[m]`` for each m, found in Schur coordinates.

    With ``H = U S U^dag`` (U from a QR of the eigenvectors ``right``, S upper
    triangular up to rounding) and ``Y = U^dag X U``, column c of Y solves a
    lower-triangular system with diagonal ``S[c, c] - conj(S[i, i])``.  The
    entries at the paired positions, where that diagonal vanishes, are held
    at zero by a row of ``pin`` on the diagonal.  Unlike a solve in
    eigenvector coordinates, the triangular solves stay accurate when the
    eigenvectors are ill-conditioned.  H and res come at unit scale.
    """
    n = H.shape[0]
    U, _ = np.linalg.qr(right)
    S = np.triu(U.conj().T @ H @ U)
    # Y[c] holds column c of each res[m] until it is overwritten by its solution.
    Y = np.moveaxis(U.conj().T @ res @ U, 2, 0).copy()
    eye, SH = np.eye(n), S.conj().T
    for c in range(n):
        A = S[c, c] * eye - SH
        rhs = Y[c] - np.tensordot(S[:c, c], Y[:c], axes=(0, 0))
        free = paired[:, c]
        A[free, :] = 0.0
        A[free, free] = pin
        rhs[:, free] = 0.0
        Y[c] = np.linalg.solve(A, rhs.T).T
    Y = U @ np.moveaxis(Y, 0, 2)  # rebinding frees the solved Y before the last product
    return Y @ U.conj().T


def solve_intertwiner(H) -> IntertwinerSpace:
    """Basis of all solutions V of the intertwiner equation ``V H = H^dag V``.

    Writing ``V = L^dag M L`` with the biorthonormal left eigenvectors L
    turns the equation into ``M_ij lambda_j = conj(lambda_i) M_ij``, so the
    solutions are spanned by the outer products ``L_i^dag L_j`` over the
    index pairs within the backward error, ``|lambda_j - conj(lambda_i)| <=
    (kappa_i + kappa_j) RESIDUAL_CAP ||H||_2``.
    Those are orthonormalized by a QR factorization, with the sum over a
    matching of the pairs in front, so that ``basis[0]`` is invertible
    whenever every eigenvalue has a conjugate partner.  When the eigenvectors
    are ill-conditioned, that basis can miss the equation by more than
    rounding; it is then corrected once by triangular solves in Schur
    coordinates and orthonormalized again.  That correction divides rounding
    noise by the gaps ``lambda_j - conj(lambda_i)`` just beyond the cutoff: on
    a spectrum the pairing leaves unpaired, the space can hold directions of
    condition about 1e7, which ``build_metric`` refuses by the pairing
    verdict but a direct caller gets.  The cost is O(n^4) for a
    spectrum without degeneracies.  A defective spectrum has no complete
    eigenbasis and raises ``DefectiveMatrixError``, and a correction beyond
    the double range ``OverflowRangeError``.

    Parameters
    ----------
    H : array_like, shape (n, n)

    Returns
    -------
    IntertwinerSpace
    """
    H = as_matrix(H)
    eigsys = eig(H)
    _require_eigenbasis(eigsys)
    w, L, radii = eigsys.eigenvalues, eigsys.left, _radii(eigsys.kappa, eigsys.norm)
    n = eigsys.n
    paired = _distances(np.conj(w), w) <= _pair_cutoffs(radii)
    i, j = np.nonzero(paired)
    k = i.size
    if k == 0:
        return IntertwinerSpace(basis=())
    outer = np.conj(L[i])[:, :, np.newaxis] * L[j][:, np.newaxis, :]
    # Put the sum over a conjugate matching of the pairs in front, in place of
    # one of its own terms so that the span is kept: L^dag P L with P a
    # permutation, invertible when the spectrum pairs up.
    in_match = j == _conjugate_permutation(w, radii)[i]
    first = int(np.argmax(in_match))
    outer[first] = outer[in_match].sum(axis=0)
    outer[[0, first]] = outer[[first, 0]]
    Q, _ = np.linalg.qr(outer.reshape(k, n * n).T)
    del outer
    B = Q.T.reshape(k, n, n)
    # The Kronecker null space reaches about 1.5 eps ||H||_F; correct only
    # above 4 eps ||H||_F, since near rounding level a correction is noise.
    # The correction pins its held entries at 1 in the units of H (at most
    # 2^1000, a double): its solves pivot on that value, so the bases keep the
    # bits they had before H was put at unit scale.  A correction beyond the
    # double range is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        H, pin = _unit(H, 1.0)
        res = B @ H
        res -= H.conj().T @ B
        if np.max(_frobenius(res, (-2, -1))) > 4 * np.finfo(float).eps * _frobenius(H):
            B -= _null_space_correction(res, H, eigsys.right, paired, min(pin, 2.0**1000))
            del res
            Q, _ = np.linalg.qr(_require_finite(B, "intertwiner correction").reshape(k, n * n).T)
            B = Q.T.reshape(k, n, n)
    return IntertwinerSpace(basis=tuple(B))


def _phases(t, values: np.ndarray, what: str) -> np.ndarray:
    """The phases ``exp(-i lambda_j t_k)``, shape ``shape(t) + shape(values)``:
    the one guarded phase rule of the spectral evolution and the residue sum
    (``EXP_CAP`` guard named ``what``; a phase past double range refused)."""
    _guard_exponent(t, values.imag, what)
    with np.errstate(over="ignore"):
        phase = np.multiply.outer(t, values)
    return np.exp(-1j * _require_finite(phase, "phase lambda t"))


def _spectral_phases(eigsys: EigenSystem, t) -> np.ndarray:
    """``_phases`` of the eigenvalues, after the eigenbasis guard."""
    _require_eigenbasis(eigsys)
    return _phases(t, eigsys.eigenvalues, "growing-mode exponent")


def mat_exp_evolution(eigsys: EigenSystem, t) -> np.ndarray:
    """Evolution operator ``U(t) = sum_i exp(-i lambda_i t) R_i L_i``.

    ``t`` is a time or an array of times; the result has shape
    ``shape(t) + (n, n)``.  Raises ``ValueError`` for a non-finite time,
    ``DefectiveMatrixError`` for a defective eigensystem and
    ``OverflowRangeError`` for a growing mode past ``exp(300)`` or a phase
    ``lambda t`` beyond the double range.
    """
    phases = _spectral_phases(eigsys, _numbers(t, "t"))
    return (eigsys.right * np.expand_dims(phases, -2)) @ eigsys.left
