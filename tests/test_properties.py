"""Property tests of the spectral decisions.

Scaling H by ``c > 0`` or shifting it by a real multiple of the identity maps
every eigenvalue by the same real affine map, so neither may change which
values are real (with their multiplicities), which pair up, which are left
over, or the dimension of the intertwiner space.  The classification itself
must not depend on the order of its input, and a report must survive a round
trip through its own eigenvalue list.  ``classify``'s verdict and the metric's
agree: a spectrum reported paired gets a metric, any other none.  The
matching and the pairing verdict give what their loop forms give.

Inputs are random PT-symmetric matrices from ``helpers.random_pt_symmetric``
at unit 2-norm, and drawn spectra ``S diag(w) S^-1`` with values moved to
within a few pairing cutoffs of their conjugate partner.  Every test is
derandomized, yet the examples it draws can depend on how pytest is invoked:
a run of this file alone and a run of the whole suite have drawn different
ones.  So the regressions the properties found are pinned as explicit
examples, which every run tries first.

Two properties span the double range.  Every public callable of ``linalg``,
``symmetry``, ``metric`` and ``evolution`` returns finite output or refuses
with one of the package's four exception types, without a numpy warning, on
inputs of any magnitude from 1e-320 to 1e308; and the verdicts on ``c H`` for
a power of two c, with their relative residuals, are those on H.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import numbers_in, random_pt_symmetric
from ptresonance import (
    PAULI_X,
    AntilinearSymmetry,
    DefectiveMatrixError,
    EigenSystem,
    NoMetricError,
    OverflowRangeError,
    as_matrix,
    build_metric,
    check_pt,
    classify_hamiltonian,
    classify_spectrum,
    closure_check,
    dual_pair,
    eig,
    evolve,
    gain_loss_dimer,
    linalg,
    mat_exp_evolution,
    matrix_from_json,
    matrix_to_json,
    metric,
    pseudounitarity_residual,
    solve_intertwiner,
    two_level_hamiltonian,
    two_level_scenario,
    v_inner,
    verify_pseudo_hermiticity,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def unit_pt_symmetric(draw):
    n = draw(st.sampled_from(range(2, 13)))
    H, _ = random_pt_symmetric(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return H / np.linalg.norm(H, 2)


# Multiples of 1/8 keep every sum and mean exact, so a real value of any
# multiplicity survives the round trip bit for bit.
EIGHTHS = st.integers(-24, 24).map(lambda k: k / 8)


@st.composite
def paired_spectrum(draw):
    """Repeated real values and exact conjugate pairs, some pairs repeated."""
    values = []
    for value in draw(st.lists(EIGHTHS, max_size=5)):
        values += [complex(value)] * draw(st.integers(1, 3))
    for e0, gamma in draw(st.lists(st.tuples(EIGHTHS, st.integers(1, 24)), max_size=4)):
        values += [complex(e0, gamma / 8), complex(e0, -gamma / 8)] * draw(st.integers(1, 2))
    return values


def categories(H):
    report, _ = classify_hamiltonian(H)
    return (
        [m for _, m in report.real_values],
        len(report.conjugate_pairs),
        len(report.unmatched),
        solve_intertwiner(H).dimension,
    )


@PROPERTY
@given(unit_pt_symmetric(), st.floats(1e-3, 1e3))
def test_scaling_keeps_categories(H, c):
    assert categories(c * H) == categories(H)


@PROPERTY
@given(unit_pt_symmetric(), st.floats(-3.0, 3.0))
def test_shift_keeps_categories(H, a):
    assert categories(H + a * np.eye(H.shape[0])) == categories(H)


@PROPERTY
@given(unit_pt_symmetric())
def test_partition_sums_to_n(H):
    report, _ = classify_hamiltonian(H)
    assert report.total_multiplicity == H.shape[0]
    assert len(report.eigenvalue_list()) == H.shape[0]


@PROPERTY
@given(paired_spectrum().flatmap(lambda w: st.tuples(st.just(w), st.permutations(w))))
def test_classification_is_permutation_invariant(lists):
    values, shuffled = lists
    assert classify_spectrum(shuffled).to_json() == classify_spectrum(values).to_json()


@PROPERTY
@given(paired_spectrum())
def test_drawn_report_round_trips(values):
    report = classify_spectrum(values)
    assert not report.broken
    assert classify_spectrum(report.eigenvalue_list()) == report


@PROPERTY
@given(unit_pt_symmetric())
def test_hamiltonian_report_round_trips(H):
    report, _ = classify_hamiltonian(H)
    again = classify_spectrum(report.eigenvalue_list(), defective_clusters=report.exceptional)
    assert again == report


@st.composite
def near_paired_similar(draw):
    """``S diag(w) S^-1`` with cond(S) <= 10 and w of real values (some
    repeated) and conjugate pairs, then one value moved by a factor in [0, 4]
    of its pairing cutoff ``(kappa_i + kappa_j) RESIDUAL_CAP ||H||_2``, off its
    partner's conjugate (or, for a real value, off the real axis or its
    repeated copy)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            w += [complex(draw(EIGHTHS), draw(st.integers(1, 16)) / 8)]
            w += [w[-1].conjugate()]
        else:
            w += [complex(draw(EIGHTHS))] * draw(st.integers(1, 2))
    n = len(w)
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    S = Q1 @ np.diag(np.geomspace(1.0, 10.0, n)) @ Q2
    S_inv = np.linalg.inv(S)
    kappa = np.linalg.norm(S, axis=0) * np.linalg.norm(S_inv, axis=1)
    norm = np.linalg.norm(S @ np.diag(w) @ S_inv, 2)
    k = draw(st.integers(0, n - 1))
    partner = int(np.argmin(np.abs(np.conj(w) - w[k]) + np.where(np.arange(n) == k, 1e-300, 0)))
    cutoff = (kappa[k] + kappa[partner]) * linalg.RESIDUAL_CAP * norm
    angle = draw(st.floats(0.0, 2 * np.pi))
    w[k] += draw(st.floats(0.0, 4.0)) * cutoff * np.exp(1j * angle)
    return S @ np.diag(w) @ S_inv


@settings(PROPERTY, max_examples=150)
@given(near_paired_similar())
def test_verdicts_agree_near_the_cutoff(H):
    """``classify_hamiltonian`` reports neither an unmatched value nor an
    exceptional cluster iff ``build_metric`` returns a V, and an exceptional
    cluster iff ``solve_intertwiner`` refuses the spectrum as defective."""
    report, eigsys = classify_hamiltonian(H)
    try:
        space = solve_intertwiner(H)
    except DefectiveMatrixError:
        space = None
    assert bool(report.exceptional) == (space is None)
    try:
        build_metric(eigsys, space if space is not None else linalg.IntertwinerSpace(()), H=H)
        built = True
    except (NoMetricError, DefectiveMatrixError):
        built = False
    assert built == (not report.unmatched and not report.exceptional)


def _loop_greedy_match(a, b, cutoff):
    """``linalg._greedy_match`` as a loop over every point of ``a``."""
    dist = np.abs(np.subtract.outer(a, b))
    dist[~(dist <= cutoff)] = np.inf
    match = np.full(len(a), -1)
    for k in range(len(a) if len(b) else 0):
        m = int(np.argmin(dist[k]))
        if dist[k, m] < np.inf:
            match[k] = m
            dist[:, m] = np.inf
    return match


def _loop_conjugate_permutation(w, radii):
    """``linalg._conjugate_permutation`` with the pairs written one by one."""
    real = np.abs(w.imag) <= radii
    partner = _loop_greedy_match(np.conj(w), w, np.add.outer(radii, radii))
    perm = np.where(real, np.arange(w.size), -1)
    for k in np.flatnonzero(~real & (w.imag > 0)):
        m = partner[k]
        if m >= 0 and not real[m] and w[m].imag < 0:
            perm[k], perm[m] = m, k
    return perm


# Points on a lattice of 1/32 with radii of 1/16 to 1/4: distances are exact,
# so equal distances tie exactly, and a value lies within the cutoff of none,
# one or several others.
LATTICE = st.builds(complex, st.integers(-40, 40).map(lambda k: k / 32),
                    st.integers(-12, 12).map(lambda k: k / 32))
RADII = st.sampled_from([1 / 16, 1 / 8, 1 / 4])


@st.composite
def crowded_points(draw, max_size=12):
    """Lattice points, some repeated, and near-conjugate chains: a value,
    then copies of its conjugate and of itself each one lattice step further
    from the real axis."""
    points = draw(st.lists(LATTICE, max_size=max_size))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=4))
    for start in draw(st.lists(LATTICE, max_size=2)):
        for j in range(draw(st.integers(1, 4))):
            z = start + 1j * j / 32
            points += [z, z.conjugate()]
    return np.array(points, dtype=complex)


@st.composite
def crowded_spectrum(draw):
    """Crowded points and a radius for each."""
    w = draw(crowded_points())
    return w, np.array(draw(st.lists(RADII, min_size=w.size, max_size=w.size)), dtype=float)


@PROPERTY
@given(crowded_points(), crowded_spectrum(), st.one_of(RADII, st.just(np.inf), st.none()))
def test_greedy_match_is_the_loop(a, spectrum, cutoff):
    """With at most one candidate per point the matching skips the loop;
    either way it is the loop's matching, for a scalar cutoff and for the
    per-pair cutoffs ``radius_a + radius_b`` (None)."""
    b, radii = spectrum
    if cutoff is None:
        cutoff = np.add.outer(np.resize(radii, a.size), radii)
    np.testing.assert_array_equal(
        linalg._greedy_match(a, b, cutoff), _loop_greedy_match(a, b, cutoff)
    )


@PROPERTY
@given(crowded_spectrum())
def test_conjugate_permutation_is_the_loop(spectrum):
    """In drawn and in sorted order, the pairs written at once are the pairs
    written one by one."""
    w, radii = spectrum
    order = np.lexsort((w.imag, w.real))
    for values, r in ((w, radii), (w[order], radii[order])):
        np.testing.assert_array_equal(
            linalg._conjugate_permutation(values, r), _loop_conjugate_permutation(values, r)
        )


# Finite out at every magnitude, and verdicts that do not depend on the units
# of H.  Magnitudes are log-uniform over the whole double range, subnormals
# included.
MAGNITUDES = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)
PHASES = st.floats(0.0, 2 * np.pi).map(lambda a: np.exp(1j * a))
ALLOWED = (ValueError, OverflowRangeError, DefectiveMatrixError, NoMetricError)


@st.composite
def wide_inputs(draw):
    """A PT-symmetric H (n = 2-4) at a drawn magnitude, with up to three
    entries then set to drawn magnitudes and phases; its P at a drawn
    magnitude; a state, a metric scale and a level pair (E0, Gamma) of drawn
    magnitudes; and a time grid up to a drawn fraction (to 1.05) of the growth
    guard ``EXP_CAP / max|Im lambda|``."""
    n = draw(st.integers(2, 4))
    H, P = random_pt_symmetric(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    H = H / np.linalg.norm(H, 2) * draw(MAGNITUDES)
    for _ in range(draw(st.integers(0, 3))):
        H[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = (
            draw(MAGNITUDES) * draw(PHASES))
    psi0 = np.array([draw(MAGNITUDES) * draw(PHASES) for _ in range(n)])
    with np.errstate(all="ignore"):
        rate = np.max(np.abs(np.linalg.eigvals(H).imag))
        stop = draw(st.floats(0.01, 1.05)) * linalg.EXP_CAP / rate
    times = np.linspace(0.0, min(stop, 1e300), draw(st.integers(2, 11)))
    P = P / np.max(np.abs(P)) * draw(MAGNITUDES)
    return H, P, psi0, times, [draw(MAGNITUDES) for _ in range(3)]


def _finite_or_refused(call, *args, **kwargs):
    """``call(*args, **kwargs)`` with every numpy warning an error: its output, which
    must be all-finite, or None where it raises one of the allowed types."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(*args, **kwargs)
        except ALLOWED:
            return None
    # an EigenSystem's kappa is inf by design for a value whose right vector is singular
    parts = [x._replace(kappa=()) if isinstance(x, EigenSystem) else x
             for x in (out if type(out) is tuple else [out])]
    assert np.all(np.isfinite(numbers_in(parts))), call.__name__
    return out


# A unit 2x2 H whose eigenvalues have imaginary parts of rounding size, up to
# 6.5e-17, so that times up to 4.6e18 pass the growth guard and the entries of
# the pseudounitarity residual pass 1e154, where an unscaled Frobenius norm
# overflows.
_NEARLY_REAL_H, _NEARLY_REAL_P = random_pt_symmetric(np.random.default_rng(0), 2)

# Finite matrices whose 2-norm passes the largest double: eig refuses them,
# where every radius was inf, so that the 2x2 had one real value 0.0 of
# multiplicity 2 and the 3x3, a Jordan block, no defect.
_WIDE_2 = np.array([[1.2e308, 1.2e308], [0.0, -1.2e308]])
_WIDE_3 = np.triu(np.full((3, 3), 1e308))
_WIDE_3[2, 2] = -1e308


@settings(PROPERTY, max_examples=500)
@given(wide_inputs())
@example((_NEARLY_REAL_H / np.linalg.norm(_NEARLY_REAL_H, 2), _NEARLY_REAL_P,
          np.array([0.6, 0.8j]), np.linspace(0.0, 4.6e18, 11), [1.0, 1.0, 0.8]))
@example((_WIDE_2, np.array(PAULI_X), np.array([0.6, 0.8j]), np.linspace(0.0, 1.0, 5),
          [1.0, 1.0, 0.8]))
@example((_WIDE_3, np.eye(3), np.array([0.6, 0.8j, 1.0]), np.linspace(0.0, 1.0, 5),
          [1.0, 1.0, 0.8]))
def test_finite_out_at_every_magnitude(inputs):
    """Every public callable of ``linalg``, ``symmetry``, ``metric`` and
    ``evolution`` returns all-finite output or raises ``ValueError``,
    ``OverflowRangeError``, ``DefectiveMatrixError`` or ``NoMetricError``, and
    never a numpy warning."""
    H, P, psi0, times, (v_scale, e0, gamma) = inputs
    run = _finite_or_refused
    run(matrix_from_json, run(matrix_to_json, run(as_matrix, H)))
    run(gain_loss_dimer, e0)
    run(classify_spectrum, np.concatenate([psi0, np.conj(psi0)]))
    run(classify_hamiltonian, H)
    sym = run(AntilinearSymmetry, P)
    if sym is not None:
        run(check_pt, H, sym)
    eigsys, space = run(eig, H), run(solve_intertwiner, H)
    V = np.eye(H.shape[0])
    if eigsys is not None:
        run(mat_exp_evolution, eigsys, times)
        ops = [run(build_metric, eigsys, space or linalg.IntertwinerSpace(()), policy, H=H)
               for policy in metric.POLICIES]
        V = next((op.V for op in ops if op is not None), V)
        if eigsys.right is not None:
            run(closure_check, v_scale * eigsys.right.T, eigsys.left)
    V = v_scale * V
    run(v_inner, psi0, psi0[::-1], V)
    run(dual_pair, psi0, V)
    run(verify_pseudo_hermiticity, H, V)
    run(evolve, H, psi0, times, V)
    run(pseudounitarity_residual, H, V, times)
    run(two_level_hamiltonian, e0, gamma)
    run(two_level_scenario, e0, gamma, psi0[:2], times)


@st.composite
def unit_inputs(draw):
    """A ``helpers.random_pt_symmetric`` H (n = 2-6) with its P, or a
    complex Gaussian 2x2 H with ``sigma_x``; a state of two complex Gaussian
    components; and two independent powers of two, ``c = 2^k`` for H and
    ``d = 2^j`` for everything else, k and j in [-1000, 1000]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        H, P = random_pt_symmetric(rng, draw(st.integers(2, 6)))
    else:
        H, P = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), PAULI_X
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return H, P, psi, 2.0 ** draw(st.integers(-1000, 1000)), 2.0 ** draw(st.integers(-1000, 1000))


# Decisions whose every input is rescaled and that refuse nothing a rescaling
# can cause: the outcome at (c, d), a refusal included, is the one at (1, 1).
SCALE_FREE = ("check_pt", "pseudo-hermiticity I", "pseudo-hermiticity V", "closure")


def _verdicts(H, P, psi, c=1.0, d=1.0):
    """Each decision on ``c H`` as ``(verdict, relative residuals)``: the name
    of the exception it raises, or OverflowRangeError where it is refused.
    ``d`` scales P, the metrics given to ``verify_pseudo_hermiticity`` (the
    identity, and the first metric the policies build for H), the kets and
    bras of H's eigenbasis given to ``closure_check`` and the state of
    ``two_level_scenario`` at the paper's E0 = 1, Gamma = 0.8."""

    def decide(call, read):
        try:
            return read(call())
        except OverflowRangeError:
            return OverflowRangeError
        except (ValueError, DefectiveMatrixError, NoMetricError) as exc:
            return type(exc).__name__, ()

    n = H.shape[0]
    base = eig(H)
    with np.errstate(over="ignore"):
        kets, bras = (None, None) if base.left is None else (d * base.right.T, d * base.left)
    ops = [decide(lambda: build_metric(base, solve_intertwiner(H), policy, H=H), lambda op: op.V)
           for policy in metric.POLICIES]
    V = next((op for op in ops if isinstance(op, np.ndarray)), np.eye(n))
    out = {
        "eig": decide(lambda: eig(c * H), lambda e: (e.defective, (e.residual,))),
        "check_pt": decide(lambda: check_pt(c * H, AntilinearSymmetry(d * P)),
                           lambda r: (r.is_symmetric, (r.residual,))),
        "classify": decide(lambda: categories(c * H), lambda r: (r, ())),
        "pseudo-hermiticity I": decide(lambda: verify_pseudo_hermiticity(c * H, d * np.eye(n)),
                                       lambda r: ("residuals", r)),
        "pseudo-hermiticity V": decide(lambda: verify_pseudo_hermiticity(c * H, d * V),
                                       lambda r: ("residuals", r)),
        # None where H has no eigenbasis or d L leaves the double range
        "closure": decide(lambda: closure_check(kets, bras), lambda r: ("closure", (r,)))
        if bras is not None and np.isfinite(bras).all() else None,
        "scenario": decide(lambda: two_level_scenario(1.0, 0.8, d * psi, np.linspace(0, 1, 5)),
                           lambda r: ((r.dirac_conserved, r.v_conserved), ())),
    }
    for policy in metric.POLICIES:
        out[policy] = decide(
            lambda: build_metric(eig(c * H), solve_intertwiner(c * H), policy, H=c * H),
            lambda op: ("metric", (op.residual,)))
    return out


# A complex Gaussian 2x2 H with sigma_x, scaled to where the squares of an
# unscaled Frobenius norm overflow (c = 2^563, 3.02e169: eig's residual), underflow
# to zero (c = 2^-538, 1.11e-162: check_pt's verdict) and are subnormal
# (c = 2^-520, 2.91e-157: check_pt's residual, off by 1.4e-11).
_GAUSSIAN_H = (lambda rng: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))(
    np.random.default_rng(0))
_STATE = np.array([0.6, 0.8j])
# The paper's dimer at s = 0.6 with P = [[0, 2], [0.5, 0]] (check_pt's residual
# 0.854), and the diagonal pair whose eigenbasis is the standard basis.
_DIMER, _SKEW_P = gain_loss_dimer(0.6), np.array([[0.0, 2.0], [0.5, 0.0]])
_DIAGONAL_PAIR = np.diag([1 + 0.8j, 1 - 0.8j])


@settings(PROPERTY, max_examples=300)
@given(unit_inputs())
@example((_GAUSSIAN_H, PAULI_X, _STATE, 2.0**563, 1.0))
@example((_GAUSSIAN_H, PAULI_X, _STATE, 2.0**-538, 1.0))
@example((_GAUSSIAN_H, PAULI_X, _STATE, 2.0**-520, 1.0))
# V = I with the dimer at 1e-200: the intertwiner residual was 0.0 (0.92)
@example((_DIMER, PAULI_X, _STATE, 2.0**-664, 2.0**-664))
# the standard basis at 1.4e-160 (closure refused) and 1e-200 ("incomplete")
@example((_DIAGONAL_PAIR, PAULI_X, _STATE, 1.0, 2.0**-531))
@example((_DIAGONAL_PAIR, PAULI_X, _STATE, 1.0, 2.0**-664))
# H and P both at 1e-200 (residual 1.0) and at 2e300 (refused)
@example((_DIMER, _SKEW_P, _STATE, 2.0**-664, 2.0**-664))
@example((_DIMER, _SKEW_P, _STATE, 2.0**997, 2.0**997))
# a state at 1.8e-158: its Dirac norm, which grows 5-fold, was "conserved"
@example((_GAUSSIAN_H, PAULI_X, _STATE, 1.0, 2.0**-525))
def test_verdicts_do_not_depend_on_the_units_of_h(inputs):
    """``eig`` accepts ``c H``, whose 2-norm is a double with room to spare.
    The antilinear check, both pseudo-Hermiticity residuals and the closure
    relation, whose inputs are all rescaled, give the outcome they give at
    c = d = 1, a refusal included.  Wherever nothing is refused, the
    classification's categories, each metric policy's outcome (a V, or the
    exception it raises) and the scenario's two verdicts are those at
    c = d = 1 too, and every relative residual agrees to 1e-12.  V itself is
    not compared."""
    H, P, psi, c, d = inputs
    base = _verdicts(H, P, psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = _verdicts(H, P, psi, c, d)
    assert scaled["eig"] is not OverflowRangeError
    for name, outcome in scaled.items():
        if outcome is None:
            continue
        if name in SCALE_FREE or outcome is not OverflowRangeError:
            assert (outcome is OverflowRangeError) == (base[name] is OverflowRangeError), name
        if outcome is not OverflowRangeError and base[name] is not OverflowRangeError:
            assert outcome[0] == base[name][0], name
            np.testing.assert_allclose(outcome[1], base[name][1], rtol=1e-12, atol=1e-12,
                                       err_msg=name)
