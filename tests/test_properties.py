"""Property tests of the spectral decisions.

Scaling H by ``c > 0`` or shifting it by a real multiple of the identity maps
every eigenvalue by the same real affine map, so neither may change which
values are real (with their multiplicities), which pair up, which are left
over, or the dimension of the intertwiner space.  The classification itself
must not depend on the order of its input, and a report must survive a round
trip through its own eigenvalue list.

Inputs are random PT-symmetric matrices from ``helpers.random_pt_symmetric``
at unit 2-norm.  Every test is derandomized, so a run always draws the same
examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_pt_symmetric
from ptresonance import classify_hamiltonian, classify_spectrum, solve_intertwiner

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
TOLS = st.sampled_from([1e-12, 1e-9, 1e-6])


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
@given(unit_pt_symmetric(), TOLS)
def test_partition_sums_to_n(H, tol):
    report, _ = classify_hamiltonian(H, tol=tol)
    assert report.total_multiplicity == H.shape[0]
    assert len(report.eigenvalue_list()) == H.shape[0]


@PROPERTY
@given(paired_spectrum().flatmap(lambda w: st.tuples(st.just(w), st.permutations(w))), TOLS)
def test_classification_is_permutation_invariant(lists, tol):
    values, shuffled = lists
    assert classify_spectrum(shuffled, tol=tol).to_json() == classify_spectrum(values, tol=tol).to_json()


@PROPERTY
@given(paired_spectrum(), TOLS)
def test_drawn_report_round_trips(values, tol):
    report = classify_spectrum(values, tol=tol)
    assert not report.broken
    assert classify_spectrum(report.eigenvalue_list(), tol=tol) == report


@PROPERTY
@given(unit_pt_symmetric(), TOLS)
def test_hamiltonian_report_round_trips(H, tol):
    report, _ = classify_hamiltonian(H, tol=tol)
    again = classify_spectrum(report.eigenvalue_list(), tol=tol, defective_clusters=report.exceptional)
    assert again == report
