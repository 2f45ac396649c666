"""Tests for metric construction, the conserved inner product and closure."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from helpers import random_complex_matrix, random_pt_symmetric
from ptresonance import linalg, metric
from ptresonance import (
    PAPER_GAUGE_V,
    AntilinearSymmetry,
    DefectiveMatrixError,
    IntertwinerSpace,
    NoMetricError,
    OverflowRangeError,
    build_metric,
    check_pt,
    classify_hamiltonian,
    closure_check,
    dual_pair,
    eig,
    evolve,
    gain_loss_dimer,
    pseudounitarity_residual,
    solve_intertwiner,
    v_inner,
    verify_pseudo_hermiticity,
)

DIAG_PAIR = np.diag([1 + 0.8j, 1 - 0.8j])


def _metric_for(H, policy="hermitian-representative"):
    return build_metric(eig(H), solve_intertwiner(H), policy=policy, H=H)


class TestBuildMetric:
    def test_paper_gauge_exact(self):
        op = _metric_for(DIAG_PAIR, policy="paper-gauge")
        assert np.array_equal(op.V, np.array([[0, -1], [1, 0]], dtype=complex))
        assert not op.hermitian
        assert op.invertible
        assert op.residual == 0.0

    def test_paper_gauge_requires_diagonal_pair(self):
        with pytest.raises(ValueError):
            _metric_for(gain_loss_dimer(0.6), policy="paper-gauge")
        with pytest.raises(ValueError):
            _metric_for(np.diag([1.0, 2.0]).astype(complex), policy="paper-gauge")

    def test_hermitian_input_gives_identity(self):
        rng = np.random.default_rng(53)
        A = random_complex_matrix(rng, 4)
        H = (A + A.conj().T) / 2
        op = _metric_for(H)
        npt.assert_allclose(op.V, np.eye(4), atol=1e-12)
        assert op.hermitian and op.invertible

    def test_diagonal_pair_hermitian_representative(self):
        """The Hermitian element of the {[[0, v], [w, 0]]} family has w = conj(v);
        at unit spectral norm and positive sign that is the real swap matrix."""
        op = _metric_for(DIAG_PAIR)
        npt.assert_allclose(op.V, np.array([[0, 1], [1, 0]]), atol=1e-14)
        assert op.hermitian

    def test_first_basis_policy(self):
        H = gain_loss_dimer(0.6)
        op = _metric_for(H, policy="first-basis")
        assert np.linalg.norm(op.V, 2) == pytest.approx(1.0, abs=1e-12)
        assert op.residual <= 1e-12
        assert op.invertible

    def test_defective_refused(self):
        """build_metric refuses a defective eigensystem on its own, even when
        handed an intertwiner space that solve_intertwiner would not build."""
        H = gain_loss_dimer(1.0)
        space = solve_intertwiner(gain_loss_dimer(0.6))
        with pytest.raises(DefectiveMatrixError):
            build_metric(eig(H), space, H=H)

    def test_empty_space_refused(self):
        H = np.array([[1 + 1j, 0.3], [0.0, 2 - 0.5j]])
        with pytest.raises(NoMetricError):
            build_metric(eig(H), solve_intertwiner(H), H=H)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            _metric_for(DIAG_PAIR, policy="nonsense")

    def test_source_reconstruction_when_h_omitted(self):
        """H is a required keyword: the metric is certified against the
        source Hamiltonian only, never against one rebuilt from the
        eigensystem."""
        eigsys = eig(DIAG_PAIR)
        space = solve_intertwiner(DIAG_PAIR)
        for policy in metric.POLICIES:
            with pytest.raises(TypeError, match="'H'"):
                build_metric(eigsys, space, policy=policy)
        with pytest.raises(TypeError):
            build_metric(eigsys, space, "paper-gauge", DIAG_PAIR)
        op = build_metric(eigsys, space, policy="paper-gauge", H=DIAG_PAIR)
        assert np.array_equal(op.V, np.array([[0, -1], [1, 0]], dtype=complex))

    @pytest.mark.parametrize("policy", metric.POLICIES)
    def test_sizes_must_agree(self, policy):
        """H, ``eigsys`` and ``space`` of different sizes are refused by name,
        not by numpy's matmul or broadcast message."""
        H2, H3 = gain_loss_dimer(0.6), np.diag([1.0, 2.0, 3.0]).astype(complex)
        cases = [(eig(H2), solve_intertwiner(H2), H3, "3, 2 and 2"),
                 (eig(H3), solve_intertwiner(H2), H3, "3, 3 and 2")]
        for eigsys, space, H, sizes in cases:
            with pytest.raises(ValueError, match=r"H, eigsys and space must be of one size, "
                                                 rf"got n = {sizes}$"):
                build_metric(eigsys, space, policy, H=H)

    def test_random_symmetric_constructions(self):
        rng = np.random.default_rng(59)
        for n in (2, 3, 4, 6):
            H, _ = random_pt_symmetric(rng, n)
            eigsys = eig(H)
            if eigsys.defective:
                continue
            op = build_metric(eigsys, solve_intertwiner(H), H=H)
            assert op.hermitian and op.invertible
            res = verify_pseudo_hermiticity(H, op.V)
            assert res.intertwiner <= 1e-10
            assert res.similarity <= 1e-10


def _reference_search(space, H):
    """The hermitian-representative search scored one candidate at a time."""
    gens = []
    for B in space.basis:
        gens += [(B + B.conj().T) / 2.0, (B - B.conj().T) / 2.0j]
    candidates = list(gens)
    rng = np.random.default_rng(20250513)
    for _ in range(128):
        coeffs = rng.standard_normal(len(gens))
        candidates.append(sum(c * g for c, g in zip(coeffs, gens)))
    best_v, best_smin = None, -1.0
    for V in candidates:
        nrm = np.linalg.norm(V, 2)
        if nrm < 1e-14:
            continue
        V = V / nrm
        fro = np.linalg.norm(V, "fro")
        if np.linalg.norm(V - V.conj().T, "fro") / fro > 1e-10:
            continue
        if np.linalg.norm(V @ H - H.conj().T @ V, "fro") / (fro * np.linalg.norm(H, "fro")) > 1e-10:
            continue
        smin = np.linalg.svd(V, compute_uv=False)[-1]
        if smin > best_smin * (1.0 + 1e-9):
            best_v, best_smin = V, smin
    return metric._fix_sign(best_v)


class TestBatchedSearch:
    def test_same_metric_as_per_candidate_search(self):
        rng = np.random.default_rng(83)
        inputs = [DIAG_PAIR, gain_loss_dimer(0.6), np.diag([1.0, 2.0, 2.0]).astype(complex)]
        inputs += [random_pt_symmetric(rng, n)[0] for n in (2, 3, 4, 5, 6) for _ in range(4)]
        for H in inputs:
            eigsys = eig(H)
            space = solve_intertwiner(H)
            op = build_metric(eigsys, space, H=H)
            npt.assert_allclose(op.V, _reference_search(space, H), rtol=0, atol=1e-14)


def _svd_scored_search(space, H, residual_filter=True):
    """The hermitian-representative search scored by a batched SVD of the
    candidates, each normalized to unit spectral norm before the filters,
    which run on the whole stack.

    Returns the chosen V and the number of would-be leaders (candidates whose
    score beats the current best) that the residual filter rejected.
    """
    n = H.shape[0]
    B = np.stack(space.basis)
    Bh = np.conj(np.swapaxes(B, 1, 2))
    gens = np.stack([(B + Bh) / 2.0, (B - Bh) / 2.0j], axis=1).reshape(-1, n, n)
    coeffs = np.random.default_rng(20250513).standard_normal((128, len(gens)))
    C = np.concatenate([gens, np.tensordot(coeffs, gens, axes=1)])
    s = np.linalg.svd(C, compute_uv=False)
    nonzero = s[:, 0] >= 1e-14
    nrm = np.where(nonzero, s[:, 0], 1.0)
    C = C / nrm[:, np.newaxis, np.newaxis]
    residual_ok = metric._intertwiner_residual(C, H) <= metric.RESIDUAL_CAP
    if not residual_filter:
        residual_ok[:] = True
    keep = nonzero & metric._is_hermitian(C, 1e-10) & residual_ok
    smin = s[:, -1] / nrm
    best_v, best_smin = None, -1.0
    rejected = 0
    for k in np.flatnonzero(nonzero):
        if smin[k] > best_smin * (1.0 + 1e-9):
            if keep[k]:
                best_v, best_smin = C[k], smin[k]
            elif not residual_ok[k]:
                rejected += 1
    return metric._fix_sign(best_v), rejected


class TestEigenvalueScoring:
    """Scoring by ``eigvalsh``, with the filters run on would-be leaders only,
    picks, and returns bit for bit, the V that scoring by singular values with
    the filters run on every candidate picks."""

    def test_same_metric_as_svd_scored_search(self):
        rng = np.random.default_rng(101)
        rejected = 0
        for n in (2, 2, 2, 4, 4, 4, 8, 8, 8, 16, 16, 16, 24, 32):
            H, _ = random_pt_symmetric(rng, n)
            space = solve_intertwiner(H)
            op = build_metric(eig(H), space, H=H)
            V, rejected_here = _svd_scored_search(space, H)
            assert np.array_equal(op.V, V)
            rejected += rejected_here
        # The inputs must exercise the residual filter on a would-be leader,
        # or running the filters lazily is not tested at all.
        assert rejected >= 1

    def test_residual_filter_decides_the_winner(self):
        # The anti-Hermitian part of a basis element that is Hermitian up to
        # rounding is rounding noise (norm 2e-14 here): it passes the nonzero cut
        # and scores best, but misses the equation by far more than
        # RESIDUAL_CAP.  Without the filter it would win.
        H, _ = random_pt_symmetric(np.random.default_rng(1001), 6)
        space = solve_intertwiner(H)
        op = build_metric(eig(H), space, H=H)
        assert op.residual <= metric.RESIDUAL_CAP
        assert np.array_equal(op.V, _svd_scored_search(space, H)[0])
        unfiltered, _ = _svd_scored_search(space, H, residual_filter=False)
        assert metric._intertwiner_residual(unfiltered, H) > metric.RESIDUAL_CAP

    def test_singular_winner_reported(self):
        H = np.diag([1 + 5e-10j, 2]).astype(complex)
        with pytest.raises(NoMetricError, match="smallest singular value 0 ") as info:
            build_metric(eig(H), solve_intertwiner(H), H=H)
        V = info.value.best_candidate
        assert np.linalg.norm(V, 2) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.svd(V, compute_uv=False)[-1] == 0.0


def _one_batch_search(space, H):
    """The hermitian-representative search with every candidate in one stack:
    the generators and all their seeded combinations concatenated, scored by
    one batched ``eigvalsh``.

    Returns the chosen V and the index of the winning candidate.
    """
    n = H.shape[0]
    B = np.stack(space.basis)
    Bh = np.conj(np.swapaxes(B, 1, 2))
    gens = np.stack([(B + Bh) / 2.0, (B - Bh) / 2.0j], axis=1).reshape(-1, n, n)
    coeffs = np.random.default_rng(20250513).standard_normal((128, len(gens)))
    C = np.concatenate([gens, np.tensordot(coeffs, gens, axes=1)])
    s = np.abs(np.linalg.eigvalsh(C))
    smax = s.max(axis=1)
    score = s.min(axis=1) / np.where(smax >= 1e-14, smax, 1.0)
    best, best_score = -1, -1.0
    for k, score_k in enumerate(score.tolist()):
        if score_k > best_score * (1.0 + 1e-9) and smax[k] >= 1e-14:
            if metric._intertwiner_residual(C[k], H) <= metric.RESIDUAL_CAP:
                best, best_score = k, score_k
    s = np.linalg.svd(C[best], compute_uv=False)
    return metric._fix_sign(C[best] / s[0]), best


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBlockedSearch:
    """The search scores the seeded combinations block by block and picks, bit
    for bit, the V of the one-batch search, wherever the block edges fall."""

    @pytest.fixture(scope="class")
    def systems(self):
        rng = np.random.default_rng(1401)
        inputs = [gain_loss_dimer(s) for s in (0.6, 0.3, 2.0)]
        inputs += [random_pt_symmetric(rng, n)[0] for n in (2, 4, 8, 16, 24) for _ in range(2)]
        out = []
        for H in inputs:
            eigsys, space = eig(H), solve_intertwiner(H)
            V, best = _one_batch_search(space, H)
            out.append((H, eigsys, space, V, best - 2 * space.dimension))
        return out

    @staticmethod
    def _search(monkeypatch, H, eigsys, space, size):
        """``build_metric`` with blocks of ``size`` combinations."""
        monkeypatch.setattr(metric, "_SEARCH_BLOCK_BYTES", 0)
        monkeypatch.setattr(metric, "_SEARCH_BLOCK_MIN", size)
        return build_metric(eigsys, space, H=H).V

    def test_default_blocks(self, systems):
        for H, eigsys, space, V, _ in systems:
            assert np.array_equal(_bits(build_metric(eigsys, space, H=H).V), _bits(V))
        # n = 24 takes 28 combinations a block: 128 is not a multiple of it
        assert 128 % (metric._SEARCH_BLOCK_BYTES // (16 * 24 * 24)) != 0

    @pytest.mark.parametrize("size", [2, 3, 5, 126, 128])
    def test_block_sizes(self, monkeypatch, systems, size):
        # 128 = 42*3 + 2 = 25*5 + 3 = 126 + 2: the last block is short.  A
        # block of one combination is left out: numpy takes the matrix-vector
        # product for it, which rounds differently.
        for H, eigsys, space, V, _ in systems:
            assert np.array_equal(_bits(self._search(monkeypatch, H, eigsys, space, size)), _bits(V))

    def test_winner_in_last_block(self, monkeypatch, systems):
        checked = 0
        for H, eigsys, space, V, j in systems:
            # blocks of size > 127 - j end with one that holds combination j
            sizes = [b for b in range(2, j + 1) if (127 // b) * b <= j and 128 % b != 1]
            for size in sizes[:2]:
                assert np.array_equal(_bits(self._search(monkeypatch, H, eigsys, space, size)), _bits(V))
                checked += 1
        assert checked >= 2


class TestWorkingMemory:
    """From H to a metric in bounded memory, as multiples of the generator
    stack (the ``2k`` Hermitian generators of an intertwiner basis of
    dimension k, ``2k n^2`` complex entries).  Measured by ``tracemalloc``,
    which counts numpy's array data; the one-batch search held up to 5.7 and
    the intertwiner basis 3.6 generator stacks at n = 48."""

    @pytest.fixture(scope="class")
    def system(self):
        H, _ = random_pt_symmetric(np.random.default_rng(48), 48)
        return H / np.linalg.norm(H, 2), 2 * 48 * H.nbytes

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_intertwiner_basis(self, system):
        H, gens_bytes = system
        space, peak = self._peak(lambda: solve_intertwiner(H))
        assert 2 * space.dimension * H.nbytes == gens_bytes
        assert peak <= 2.5 * gens_bytes

    def test_metric_search(self, system):
        H, gens_bytes = system
        eigsys, space = eig(H), solve_intertwiner(H)
        op, peak = self._peak(lambda: build_metric(eigsys, space, H=H))
        assert op.invertible
        assert peak <= 2.0 * gens_bytes


class TestPairability:
    """``classify_hamiltonian`` and ``build_metric`` agree on whether a
    spectrum pairs up: paired spectra get a metric, unmatched ones none."""

    def test_symmetric_inputs_pair_and_get_a_metric(self):
        rng = np.random.default_rng(89)
        for n in (2, 3, 4, 5, 6, 8):
            for _ in range(3):
                H, _ = random_pt_symmetric(rng, n)
                report, eigsys = classify_hamiltonian(H)
                assert not report.unmatched
                assert build_metric(eigsys, solve_intertwiner(H), H=H).invertible

    @pytest.mark.parametrize(
        "H",
        [
            np.diag([1 + 1j, 2 - 1j]),
            np.diag([1 + 1j, 1 - 1j, 3 + 0.5j]),
            np.diag([2.0, 1 + 1j, 1 - 1j, 4 - 2j, 4 - 2j]),
            np.diag([1 + 1j, 1 - 1j + 5e-10]),
            1e-12 * np.diag([1 + 1j, 2 - 1j]),
        ],
    )
    def test_broken_spectra_are_unmatched_and_get_no_metric(self, H):
        H = H.astype(complex)
        report, eigsys = classify_hamiltonian(H)
        assert report.unmatched
        with pytest.raises(NoMetricError):
            build_metric(eigsys, solve_intertwiner(H), H=H)


class TestInnerProduct:
    def test_gauge_table_values(self):
        u_plus = np.array([1.0, 0.0], dtype=complex)
        u_minus = np.array([0.0, 1.0], dtype=complex)
        assert v_inner(u_minus, u_plus, PAPER_GAUGE_V) == 1.0 + 0.0j
        assert v_inner(u_plus, u_minus, PAPER_GAUGE_V) == -1.0 + 0.0j
        assert v_inner(u_plus, u_plus, PAPER_GAUGE_V) == 0.0 + 0.0j
        assert v_inner(u_minus, u_minus, PAPER_GAUGE_V) == 0.0 + 0.0j

    def test_identity_metric_reduces_to_dirac(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert v_inner(x, y, np.eye(3)) == pytest.approx(np.vdot(x, y))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            v_inner(np.ones(3), np.ones(2), np.eye(2))

    def test_conjugate_symmetry_iff_hermitian(self):
        rng = np.random.default_rng(67)
        xs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(6)]
        hermitian_v = np.array([[0, 1], [1, 0]], dtype=complex)
        for x in xs:
            for y in xs:
                assert v_inner(x, y, hermitian_v) == pytest.approx(
                    np.conj(v_inner(y, x, hermitian_v))
                )
        # the antisymmetric gauge is anti-Hermitian: the relation must fail somewhere
        broken = any(
            abs(v_inner(x, y, PAPER_GAUGE_V) - np.conj(v_inner(y, x, PAPER_GAUGE_V))) > 1e-6
            for x in xs
            for y in xs
        )
        assert broken

    def test_dual_pair(self):
        ket = np.array([1.0, 0.0], dtype=complex)
        pair = dual_pair(ket, PAPER_GAUGE_V)
        npt.assert_array_equal(pair.bra, np.array([0.0, -1.0], dtype=complex))


class TestGramStructure:
    def test_pair_spectrum_links_partners_only(self):
        """One nonzero entry per row, sitting on the conjugate partner; the
        diagonal metric norms vanish (cross terms only)."""
        for H in (DIAG_PAIR, gain_loss_dimer(0.6)):
            eigsys = eig(H)
            op = build_metric(eigsys, solve_intertwiner(H), H=H)
            R = eigsys.right
            n = eigsys.n
            G = np.array(
                [[v_inner(R[:, i], R[:, j], op.V) for j in range(n)] for i in range(n)]
            )
            scale = np.max(np.abs(G))
            for i in range(n):
                row = np.abs(G[i]) > 1e-8 * scale
                assert row.sum() == 1
                j = int(np.argmax(row))
                assert eigsys.eigenvalues[j] == pytest.approx(
                    np.conj(eigsys.eigenvalues[i]), abs=1e-8
                )
                assert abs(G[i, i]) <= 1e-10 * scale


class TestClosure:
    def test_unit_vectors_exact(self):
        kets = [np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)]
        bras = [dual_pair(k, PAPER_GAUGE_V).bra for k in kets]
        assert closure_check(kets, bras) == 0.0

    def test_hermitian_orthonormal_basis(self):
        rng = np.random.default_rng(71)
        A = random_complex_matrix(rng, 3)
        H = (A + A.conj().T) / 2
        eigsys = eig(H)
        kets = [eigsys.right[:, i] for i in range(3)]
        bras = [dual_pair(k, np.eye(3)).bra for k in kets]
        assert closure_check(kets, bras) <= 1e-12

    def test_dimer_eigensystem(self):
        H = gain_loss_dimer(0.6)
        eigsys = eig(H)
        op = build_metric(eigsys, solve_intertwiner(H), H=H)
        kets = [eigsys.right[:, i] for i in range(2)]
        bras = [dual_pair(k, op.V).bra for k in kets]
        assert closure_check(kets, bras) <= 1e-10

    def test_degenerate_duals_rejected(self):
        kets = [np.array([1.0, 0.0], complex), np.array([1.0, 0.0], complex)]
        bras = [dual_pair(k, np.eye(2)).bra for k in kets]
        with pytest.raises(DefectiveMatrixError):
            closure_check(kets, bras)

    def test_count_and_length_checked(self):
        kets = [np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)]
        with pytest.raises(ValueError, match="need 2 kets and 2 bras of length 2"):
            closure_check(kets, kets[:1])
        with pytest.raises(ValueError, match="need 3 kets and 3 bras of length 3"):
            closure_check([np.ones(3)] * 2, [np.ones(3)] * 2)

    def test_metric_argument_removed(self):
        """The bras already carry the metric."""
        kets = [np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)]
        with pytest.raises(TypeError):
            closure_check(kets, kets, np.eye(2))


class TestPseudoHermiticity:
    def test_diagonal_pair_with_gauge_metric(self):
        res = verify_pseudo_hermiticity(DIAG_PAIR, PAPER_GAUGE_V)
        assert res.intertwiner == 0.0
        assert res.similarity == 0.0

    def test_hermitian_identity(self):
        H = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
        res = verify_pseudo_hermiticity(H, np.eye(2))
        assert res.intertwiner == 0.0
        assert res.similarity == 0.0

    def test_dimer_with_built_metric(self):
        H = gain_loss_dimer(0.6)
        op = _metric_for(H)
        res = verify_pseudo_hermiticity(H, op.V)
        assert res.intertwiner <= 1e-12
        assert res.similarity <= 1e-12

    def test_singular_metric_rejected(self):
        with pytest.raises(ValueError):
            verify_pseudo_hermiticity(np.eye(2), np.zeros((2, 2)))


class TestInvertibilityVerdict:
    """One verdict, ``linalg._condition``: a condition number that is finite
    and at most ``_CONDITION_CAP``."""

    def test_verdict(self):
        assert linalg._condition(np.diag([1.0, 2e-12])) == (5e11, True)
        assert linalg._condition(np.diag([1.0, 5e-13])) == (2e12, False)
        assert linalg._condition(np.zeros((2, 2))) == (np.inf, False)

    @pytest.mark.parametrize("policy", ["hermitian-representative", "first-basis"])
    @pytest.mark.parametrize(
        "H",
        [np.diag([1 + 1j, 1 - 1j, 2 + 0.5j]), np.diag([1 + 5e-10j, 2])],
        ids=["unpaired-3", "near-real"],
    )
    def test_every_policy_refuses_a_singular_metric(self, policy, H):
        # first-basis returned these singular V with invertible=False
        H = H.astype(complex)
        with pytest.raises(NoMetricError, match=f"the {policy} candidate has smallest "
                           "singular value 0 at unit spectral norm") as info:
            build_metric(eig(H), solve_intertwiner(H), policy, H=H)
        V = info.value.best_candidate
        assert np.linalg.norm(V, 2) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.cond(V) == np.inf

    def test_no_hermitian_intertwiner_found(self):
        # the identity misses V H = H^dag V for the pair: every candidate fails
        # the residual filter, or is zero
        space = IntertwinerSpace(basis=(np.eye(2, dtype=complex),))
        with pytest.raises(NoMetricError, match="no Hermitian intertwiner found"):
            build_metric(eig(DIAG_PAIR), space, H=DIAG_PAIR)

    def test_closure_refuses_by_the_cap(self):
        # G = diag(1, 1e-13): LAPACK solves it, the verdict refuses it
        kets = [np.array([1.0, 0.0], complex), np.array([0.0, 1e-13], complex)]
        bras = [np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)]
        with pytest.raises(DefectiveMatrixError, match="condition estimate 1e\\+13"):
            closure_check(kets, bras)
        with pytest.raises(ValueError, match="finite"):
            closure_check([np.array([np.nan, 0.0]), kets[1]], bras)


class TestPaperGauge:
    """The paper gauge is accepted exactly where ``[[0, -1], [1, 0]]``
    intertwines H within ``RESIDUAL_CAP``: ``[[a, i b], [i c, conj(a)]]``
    with real b and c."""

    @pytest.mark.parametrize(
        "H",
        [DIAG_PAIR, np.eye(2), np.zeros((2, 2)), np.array([[1 + 0.8j, 0.3j], [0.2j, 1 - 0.8j]]),
         np.array([[1 + 0.8j, 1e-12 + 0.3j], [0.2j, 1 - 0.8j]])],
        ids=["diagonal-pair", "identity", "zero", "coupled-pair", "within-cap"],
    )
    def test_accepted(self, H):
        op = _metric_for(H.astype(complex), policy="paper-gauge")
        assert np.array_equal(op.V, PAPER_GAUGE_V)
        assert op.residual <= metric.RESIDUAL_CAP and op.invertible

    @pytest.mark.parametrize(
        "H",
        [gain_loss_dimer(0.6), np.diag([1.0, 2.0]), np.diag([1 + 1j, 1 - 1j, 2.0]),
         np.array([[1 + 0.8j, 3e-10 + 0.3j], [0.2j, 1 - 0.8j]])],
        ids=["dimer", "real-pair", "3x3", "beyond-cap"],
    )
    def test_refused(self, H):
        H = H.astype(complex)
        assert solve_intertwiner(H).dimension >= 1  # refused by the gauge rule itself
        with pytest.raises(ValueError, match="paper-gauge needs a 2x2 H that"):
            _metric_for(H, policy="paper-gauge")


    def test_residual_beyond_the_double_range_is_refused(self):
        """At s = 1e308 the gauge's residual has entries +/-2e308 unscaled; from
        H at unit scale it is the finite value that refuses the gauge, as at
        s = 0.6."""
        H = gain_loss_dimer(1e308)
        with pytest.raises(ValueError, match="paper-gauge needs a 2x2 H that"):
            _metric_for(H, policy="paper-gauge")
        assert metric._intertwiner_residual(PAPER_GAUGE_V, linalg._unit(H)) == 1.414213562373095


def _similar_near_pair(factor):
    """``S diag(0.5, 1.5, 1 + 0.5i, 1 - 0.5i + g) S^-1`` with cond(S) = 10 and
    the gap g at ``factor`` times the pair's cutoff ``(kappa_3 + kappa_4)
    RESIDUAL_CAP ||H||_2``."""
    rng = np.random.default_rng(0)
    Q1, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    Q2, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    S = Q1 @ np.diag(np.geomspace(1.0, 10.0, 4)) @ Q2
    S_inv = np.linalg.inv(S)
    w = np.array([0.5, 1.5, 1 + 0.5j, 1 - 0.5j])
    kappa = np.linalg.norm(S, axis=0) * np.linalg.norm(S_inv, axis=1)
    norm = np.linalg.norm(S @ np.diag(w) @ S_inv, 2)
    w[3] += factor * (kappa[2] + kappa[3]) * linalg.RESIDUAL_CAP * norm
    return S @ np.diag(w) @ S_inv


class TestPairingVerdict:
    """``build_metric`` reads the pairing verdict that ``classify`` reports:
    a spectrum with unmatched values gets no metric, a paired one gets one,
    whichever side of ``RESIDUAL_CAP`` its pairs' gaps put the residual."""

    def test_invertible_candidate_of_an_unmatched_spectrum_refused(self):
        # The pair misses conjugacy by 3 cutoffs; the Schur correction divides
        # rounding noise by that gap, and the search found a V of condition
        # 6.6e7 from it, where classify reports the pair unmatched.
        H = _similar_near_pair(3.0)
        report, eigsys = classify_hamiltonian(H)
        assert len(report.unmatched) == 2
        with pytest.raises(NoMetricError, match="have no conjugate partner within the backward "
                           "error") as info:
            build_metric(eigsys, solve_intertwiner(H), H=H)
        assert linalg._condition(info.value.best_candidate)[1]

    def test_pair_within_the_backward_error_gets_a_metric(self):
        # At 0.9 cutoffs every intertwiner of the pair misses the equation by
        # more than RESIDUAL_CAP: the cap adds the residual of L^dag P L.
        H = _similar_near_pair(0.9)
        report, eigsys = classify_hamiltonian(H)
        assert report.unmatched == () and len(report.conjugate_pairs) == 1
        op = build_metric(eigsys, solve_intertwiner(H), H=H)
        assert metric.RESIDUAL_CAP < op.residual < 2 * metric.RESIDUAL_CAP
        assert op.condition_estimate < 10

    def test_near_real_value(self):
        """1 + 5e-10i is 2.5 radii off the real axis: unmatched, so no metric
        (classify had counted it real within 1e-9 max|lambda|)."""
        H = np.diag([1 + 5e-10j, 2]).astype(complex)
        report, _ = classify_hamiltonian(H)
        assert report.unmatched == (1 + 5e-10j,) and report.real_values == ((2.0, 1),)
        with pytest.raises(NoMetricError):
            _metric_for(H)

    def test_paper_gauge_of_a_pair_within_the_backward_error(self):
        """The pair misses conjugacy by 1.5e-10 < 2.56e-10, its cutoff: the
        space is not empty, and the paper gauge, residual 8.3e-11, is taken."""
        H = np.diag([1 + 0.8j, 1 - 0.8j + 1.5e-10])
        report, _ = classify_hamiltonian(H)
        assert report.unmatched == () and len(report.conjugate_pairs) == 1
        op = _metric_for(H, policy="paper-gauge")
        assert np.array_equal(op.V, PAPER_GAUGE_V)
        assert op.residual == pytest.approx(8.3e-11, rel=1e-2)


_CONSUMERS = {
    "evolve": lambda V: evolve(DIAG_PAIR, [1.0, 0.0], [0.0, 1.0], V=V),
    "pseudounitarity_residual": lambda V: pseudounitarity_residual(DIAG_PAIR, V, [0.0, 1.0]),
    "verify_pseudo_hermiticity": lambda V: verify_pseudo_hermiticity(DIAG_PAIR, V),
    "dual_pair": lambda V: dual_pair([1.0, 0.0], V),
    "v_inner": lambda V: v_inner([1.0, 0.0], [0.0, 1.0], V),
}


class TestMetricDoor:
    """Every consumer of a metric takes it through ``metric._metric_matrix``:
    a ``MetricOperator`` or a matrix, of H's size and invertible."""

    @pytest.mark.parametrize("consumer", _CONSUMERS)
    @pytest.mark.parametrize(
        "V, message",
        [(np.zeros((2, 2)), "V is singular"), (np.diag([1.0, 1e-13]), "V is singular"),
         (np.eye(3), r"V has shape \(3, 3\), expected \(2, 2\)")],
        ids=["zero", "ill-conditioned", "wrong-size"],
    )
    def test_refusals(self, consumer, V, message):
        with pytest.raises(ValueError, match=message):
            _CONSUMERS[consumer](V)

    @pytest.mark.parametrize("consumer", _CONSUMERS)
    def test_metric_operator_accepted(self, consumer):
        op = _metric_for(DIAG_PAIR, policy="paper-gauge")
        assert np.array_equal(metric._metric_matrix(op, 2), op.V)
        _CONSUMERS[consumer](op)

    def test_vector_shapes(self):
        with pytest.raises(ValueError, match="ket must be a vector"):
            dual_pair(np.ones((1, 2)), np.eye(2))
        with pytest.raises(ValueError, match="vectors of one length"):
            v_inner(np.ones((1, 2)), np.ones((1, 2)), np.eye(2))


# The relative residuals as they were formed before their inputs were put at
# unit scale by ``linalg._unit``: from the inputs as given, with the intertwiner
# residual divided by the two norms in turn where their product is not a normal
# double.  The reference of the bits those residuals keep in range.
def _reference_intertwiner(V, H):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v_norm, h_norm = (x + (x == 0.0) for x in (linalg._frobenius(V, (-2, -1)),
                                                   linalg._frobenius(H)))
        residual = linalg._frobenius(V @ H - H.conj().T @ V, (-2, -1))
        denom = v_norm * h_norm
        normal = (denom >= np.finfo(float).tiny) & (denom < np.inf)
        return np.where(normal, residual / denom, residual / v_norm / h_norm)


def _reference_similarity(H, V):
    h_norm = float(linalg._frobenius(H))
    return float(linalg._frobenius(V @ H @ np.linalg.inv(V) - H.conj().T)) / (h_norm or 1.0)


def _reference_antilinear(H, P):
    residual = float(linalg._frobenius(P @ np.conj(H) @ np.linalg.inv(P) - H))
    return residual / (float(linalg._frobenius(H)) or 1.0)


def _reference_eigen_residual(H, eigsys):
    w, R_raw = np.linalg.eig(H)
    order = np.lexsort((w.imag, w.real))
    w, R_raw = w[order], R_raw[:, order]
    h_norm = float(np.linalg.norm(H, 2))
    residual = float(linalg._frobenius(H @ R_raw - R_raw * w[np.newaxis, :])) / (h_norm or 1.0)
    R, L, n = eigsys.right, eigsys.left, H.shape[0]
    return float(max(residual, linalg._frobenius(L @ R - np.eye(n)),
                     linalg._frobenius(R @ L - np.eye(n))))


def _reference_closure(K, B):
    n = K.shape[0]
    return float(linalg._frobenius(K @ np.linalg.solve(B @ K, np.eye(n)) @ B - np.eye(n)))


def _same_bits(a, b):
    return np.array_equal(*(np.asarray(x, dtype=float).view(np.uint64) for x in (a, b)))


class TestUnitScaleKeepsBits:
    """A power of two moves no bit of a product, sum or norm in range, so the
    residuals formed from unit-scaled inputs are the reference formulas' bit
    for bit, for H at c and V, P, the kets and the bras at d."""

    SCALES = [2.0**-200, 0.5, 1.0, 8.0, 2.0**200]

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_same_bits_as_the_reference_formulas(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            H, P = random_pt_symmetric(rng, n)
            H = H / np.linalg.norm(H, 2)
            unit = eig(H)
            perm = linalg._conjugate_permutation(unit.eigenvalues,
                                                 linalg._radii(unit.kappa, unit.norm))
            metrics = [np.eye(n), unit.left.conj().T @ unit.left[perm], _metric_for(H).V]
            for c in self.SCALES:
                eigsys = eig(c * H)
                assert _same_bits(eigsys.residual, _reference_eigen_residual(c * H, eigsys))
                op = build_metric(eigsys, solve_intertwiner(c * H), H=c * H)
                assert _same_bits(op.residual, _reference_intertwiner(op.V, c * H))
                for d in self.SCALES:
                    sym = AntilinearSymmetry(d * P)  # P as a complex matrix
                    assert _same_bits(check_pt(c * H, sym).residual,
                                      _reference_antilinear(c * H, sym.P))
                    for V in metrics:
                        got = verify_pseudo_hermiticity(c * H, d * V)
                        assert _same_bits(got.intertwiner, _reference_intertwiner(d * V, c * H))
                        assert _same_bits(got.similarity, _reference_similarity(c * H, d * V))
                    K, B = d * unit.right, d * unit.left
                    assert _same_bits(closure_check(K.T, B), _reference_closure(K, B))
