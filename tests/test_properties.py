"""Property tests of the spectral decisions.

Scaling H by ``c > 0`` or shifting it by a real multiple of the identity maps
every eigenvalue by the same real affine map, so neither may change which
values are real (with their multiplicities), which pair up, which are left
over, or the dimension of the intertwiner space.  The classification itself
must not depend on the order of its input, and a report must survive a round
trip through its own eigenvalue list.  ``classify``'s verdict and the metric's
agree: a spectrum reported paired gets a metric, any other none.

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
