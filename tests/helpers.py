"""Shared test oracles and random-input builders.

Everything here is deliberately independent of the package internals: the
quadratic eigenvalue oracle works straight from the characteristic
polynomial, and the symmetric-matrix builder constructs P conj(H) P^-1 = H
by hand from a real involution P.
"""

import numpy as np


def quadratic_eigenvalues(m):
    """Eigenvalues of a 2x2 matrix from the characteristic polynomial."""
    m = np.asarray(m, dtype=complex)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det + 0j)
    roots = [(tr + disc) / 2.0, (tr - disc) / 2.0]
    return sorted(roots, key=lambda z: (z.real, z.imag))


def random_involution(rng, n, max_cond=50.0):
    """Real matrix P with P @ P = I, moderately conditioned."""
    while True:
        S = rng.standard_normal((n, n))
        if np.linalg.cond(S) <= max_cond:
            break
    signs = rng.choice([-1.0, 1.0], size=n)
    return S @ np.diag(signs) @ np.linalg.inv(S)


def conditioned_involution(rng, n, max_cond=50.0):
    """Real P with P @ P = I and its similarity S, with cond(S) <= max_cond by
    construction rather than by rejection: ``S = Q1 diag(sigma) Q2`` with Q1
    and Q2 orthogonal and sigma drawn from [1, max_cond], and
    ``P = S D S^-1`` for a diagonal D of signs.  Returns ``(P, S)``."""
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    sigma = rng.uniform(1.0, max_cond, size=n)
    signs = rng.choice([-1.0, 1.0], size=n)
    S = (q1 * sigma) @ q2
    # S^-1 = Q2^T diag(1/sigma) Q1^T, exactly in exact arithmetic
    P = (q1 * sigma) @ ((q2 * signs) @ q2.T) @ (q1 / sigma).T
    return P, S


def random_pt_symmetric(rng, n):
    """Random H with P conj(H) P^-1 = H for a real involution P.

    Any B symmetrized as B + P conj(B) P^-1 commutes with the antilinear
    map v -> P conj(v) because P is real and squares to the identity.
    """
    P = random_involution(rng, n)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = B + P @ B.conj() @ np.linalg.inv(P)
    return H, P


def random_complex_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def kron_intertwiner(H, tol=1e-10):
    """Orthonormal basis of the solutions V of ``V H = H^dag V``, as arrays.

    The equation is vectorized row-major, giving the n^2 x n^2 linear map
    ``kron(I, H^T) - kron(H^dag, I)``; the solution space is read off from
    the singular vectors whose singular values fall below
    ``tol * max(singular values)``.  O(n^6), but needs no eigenvectors, so it
    also covers defective input.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    eye = np.eye(n)
    K = np.kron(eye, H.T) - np.kron(H.conj().T, eye)
    _, s, Vh = np.linalg.svd(K)
    null_idx = np.arange(n * n) if s[0] == 0.0 else np.nonzero(s <= tol * s[0])[0]
    return [Vh[i].conj().reshape(n, n) for i in null_idx]


def numbers_in(out):
    """Every number in a returned value, flattened into one complex array."""
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (list, tuple)):
        parts = [numbers_in(item) for item in out if not isinstance(item, (str, type(None)))]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)
    return np.asarray(out, dtype=complex).ravel()
