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
derandomized, so a run always draws the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pt_symmetric
from ptresonance import (
    DefectiveMatrixError,
    NoMetricError,
    build_metric,
    classify_hamiltonian,
    classify_spectrum,
    linalg,
    solve_intertwiner,
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
