"""Symmetric indefinite factorization and eigenvalue-shift PSD modification.

``ldl_factor`` computes P A P^T = L B L^T with Bunch-Kaufman partial pivoting
(pivot constant alpha = (1 + sqrt(17))/8): L is unit lower triangular, B is
block diagonal with 1x1 and 2x2 blocks, and the inertia of B equals the
inertia of A.  The same pass takes each block's eigenpairs, B = Q diag(lam)
Q^T.  ``psd_modify`` shifts every block eigenvalue below delta up to delta
(Cheng & Higham 1998), giving A + E = P^T L Q diag(lam + tau) Q^T L^T P.
A + E is positive definite and its block eigenvalues are >= delta, up to
the rounding of lam + tau.  Its smallest eigenvalue is not bounded by delta,
because L is not orthogonal: it can fall far below delta.  When no block
eigenvalue is below delta, nothing is shifted and E is exactly zero.

Everything here is dense and sized for small n (every benchmark workload
has n <= 10, and SQP's Schur complements are at most 3x3); clarity over
blocking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0
_EPS = float(np.finfo(float).eps)


def default_delta(A):
    """Eigenvalue floor used when none is supplied: sqrt(eps) * max(1, max |a_ij|)."""
    scale = float(np.abs(np.asarray(A, dtype=float)).max(initial=0.0))
    return math.sqrt(_EPS) * max(1.0, scale)


def _check_symmetric(A):
    # A / pow2, symmetrized, and pow2: 1.0 near unit scale, and otherwise 2^e
    # with max |a_ij| / 2^e in [1, 2), so e <= 1023 and 2^e is a double.
    # Scaling first keeps A - A^T and A + A^T from overflowing.
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = float(np.abs(A).max(initial=0.0))
    if not np.isfinite(scale):  # max |a_ij| is NaN or inf exactly when an entry is
        raise ValueError("matrix contains non-finite entries")
    e = math.frexp(scale)[1]
    pow2 = math.ldexp(1.0, e - 1) if abs(e) > 256 else 1.0
    A, scale = A / pow2, scale / pow2
    asym = float(np.abs(A - A.T).max(initial=0.0))
    if asym > 1e-10 * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym * pow2:.3e})")
    return 0.5 * (A + A.T), pow2


def _swap(W, L, perm, k, r1, r2):
    # Interchange rows r1, r2 >= k as pivot k is chosen.  The full row and
    # column swap keeps W's trailing block symmetric; L's rows swap only over
    # the k columns already filled, since its columns from k on are still I's.
    W[[r1, r2], :] = W[[r2, r1], :]
    W[:, [r1, r2]] = W[:, [r2, r1]]
    L[[r1, r2], :k] = L[[r2, r1], :k]
    perm[r1], perm[r2] = perm[r2], perm[r1]


@dataclass(eq=False)
class FactorizationBundle:
    """P A P^T = L B L^T with B's blockwise spectral decomposition attached.

    ``matrix`` is the symmetrized A that was factored.  ``permutation``
    holds P as an index vector: (P x)[i] = x[permutation[i]].  ``blocks``
    lists B's diagonal blocks in order; ``block_eigenvectors`` is the
    block-diagonal orthogonal Q and ``block_eigenvalues`` the eigenvalues of
    B in block order.
    """

    matrix: np.ndarray
    permutation: np.ndarray
    lower_unit_triangular: np.ndarray
    blocks: list
    block_eigenvectors: np.ndarray
    block_eigenvalues: np.ndarray

    def solve(self, rhs):
        """Solve A x = rhs, a vector or a matrix of columns, on the factors.

        Raises ``numpy.linalg.LinAlgError`` when a block eigenvalue vanishes
        next to the largest one: |lam_i| <= n * eps * max |lam|.
        """
        mags = np.abs(self.block_eigenvalues)
        if (mags <= mags.size * _EPS * float(mags.max(initial=0.0))).any():
            raise np.linalg.LinAlgError("singular block in symmetric indefinite solve")
        return _factored_solve(self, self.block_eigenvalues, rhs)


def _factored_solve(bundle, eigenvalues, rhs):
    # A = P^T L Q diag(eigenvalues) Q^T L^T P, so permute, sweep forward with
    # L, solve diagonally in the blocks' eigenbasis, sweep backward with L's
    # columns (the rows of L^T), unpermute.
    rhs = np.asarray(rhs, dtype=float)
    perm = bundle.permutation
    L = bundle.lower_unit_triangular
    Q = bundle.block_eigenvectors
    z = rhs[perm]
    for i in range(1, z.shape[0]):
        z[i] -= L[i, :i] @ z[:i]
    y = Q @ ((Q.T @ z) / (eigenvalues if z.ndim == 1 else eigenvalues[:, None]))
    for i in range(y.shape[0] - 2, -1, -1):
        y[i] -= L[i + 1:, i] @ y[i + 1:]
    x = np.empty_like(y)
    x[perm] = y
    return x


def _reassemble(bundle, eigenvalues):
    # P^T L Q diag(eigenvalues) Q^T L^T P, unpermuted as (P^T M P)[perm, perm] = M
    Q = bundle.block_eigenvectors
    L = bundle.lower_unit_triangular
    perm = bundle.permutation
    out = np.empty((perm.shape[0], perm.shape[0]))
    out[np.ix_(perm, perm)] = L @ ((Q * eigenvalues) @ Q.T) @ L.T
    return out


def ldl_factor(A):
    """Bunch-Kaufman factorization P A P^T = L B L^T of a symmetric matrix.

    The input is symmetrized first; asymmetry beyond 1e-10 * max |a_ij| is an
    error, as are non-finite entries.  One pass over the pivots fills L, B's
    blocks and their eigenpairs as each pivot is chosen: 1x1 blocks pass
    through, and 2x2 blocks use the closed-form symmetric eigensolver with
    eigenvalues in descending order.  A zero column of the reduced matrix is
    a 1x1 zero pivot with nothing to eliminate.
    """
    # Factoring W = A / pow2 keeps every 2x2 determinant and eigenvector norm
    # from under- or overflowing; A, B and its eigenvalues are multiplied back
    # by the power of two, exactly.
    W, pow2 = _check_symmetric(A)
    A_sym = W * pow2
    n = W.shape[0]
    perm = np.arange(n)
    L = np.eye(n)
    Q = np.zeros((n, n))
    lam = np.zeros(n)
    blocks = []
    k = 0
    while k < n:
        absakk = abs(W[k, k])
        col = np.abs(W[k + 1:, k])
        colmax = float(col.max(initial=0.0))
        size = 1
        if absakk < _ALPHA * colmax:
            imax = k + 1 + int(col.argmax())
            # rowmax: largest off-diagonal magnitude in row imax of the
            # trailing submatrix, read from the lower triangle (colmax > 0
            # here, so imax > k and the part left of the diagonal is nonempty).
            rowmax = float(max(np.abs(W[imax, k:imax]).max(),
                               np.abs(W[imax + 1:, imax]).max(initial=0.0)))
            # A 1x1 pivot without interchange passes the first test; a zero
            # pivot would pass it when colmax**2 underflows.  Otherwise move
            # imax to k (1x1 pivot) or to k + 1 (2x2 pivot).
            if not (absakk > 0.0 and absakk * rowmax >= _ALPHA * colmax * colmax):
                if abs(W[imax, imax]) < _ALPHA * rowmax:
                    size = 2
                if imax != k + size - 1:
                    _swap(W, L, perm, k, k + size - 1, imax)
        if size == 1:
            # d == 0 only in a zero column, which has nothing to eliminate; a
            # zero column with d != 0 still updates W, whose zeros may flip sign.
            # At the last pivot the slices below k are empty.
            d = W[k, k]
            colv = W[k + 1:, k]
            if d != 0.0:
                colv = colv / d
                W[k + 1:, k + 1:] -= colv[:, None] * W[k + 1:, k]
            L[k + 1:, k] = colv
            lam[k] = d * pow2
            blocks.append(np.array([[lam[k]]]))
            Q[k, k] = 1.0
        else:
            a, b, c = W[k, k], W[k + 1, k], W[k + 1, k + 1]
            if k + 2 < n:
                det = a * c - b * b
                C = W[k + 2:, k:k + 2]  # a view: the update writes only columns k + 2 on
                # T = C @ inv([[a, b], [b, c]])
                T = np.column_stack(((C[:, 0] * c - C[:, 1] * b) / det,
                                     (C[:, 1] * a - C[:, 0] * b) / det))
                W[k + 2:, k + 2:] -= T @ C.T
                L[k + 2:, k:k + 2] = T
            # B = Q diag(lam) Q^T blockwise: the closed-form symmetric 2x2
            # eigensolver, eigenvalues descending.  The pivot search put the
            # nonzero colmax entry at b, so b != 0.
            blocks.append(np.array([[a, b], [b, c]]) * pow2)
            half = 0.5 * (a + c)
            disc = math.hypot(0.5 * (a - c), b)
            l1 = half + disc
            v = np.array([b, l1 - a])
            alt = np.array([l1 - c, b])
            if alt @ alt > v @ v:
                v = alt
            v /= math.sqrt(v @ v)
            Q[k:k + 2, k] = v
            Q[k:k + 2, k + 1] = (-v[1], v[0])
            lam[k] = l1 * pow2
            lam[k + 1] = (half - disc) * pow2
        k += size
    return FactorizationBundle(matrix=A_sym,
                               permutation=perm,
                               lower_unit_triangular=L,
                               blocks=blocks,
                               block_eigenvectors=Q,
                               block_eigenvalues=lam)


@dataclass(eq=False)
class PsdModification:
    """Positive definite A + E held as A's factorization shifted up to delta.

    ``shifts`` holds tau = max(delta - lam, 0) for each block eigenvalue lam
    and ``modified_eigenvalues`` lam + tau: A + E and E are P^T L Q diag(v)
    Q^T L^T P at v = lam + tau and v = tau.  Where delta - lam overflows, tau is
    inf, as ||E|| exceeds the largest double, and lam + tau, taken in halves, is
    about delta.  ``modified_matrix`` and ``modification_frobenius`` are built
    on first read; with no shift they are the symmetrized input and exactly 0.
    """

    bundle: FactorizationBundle
    delta: float
    shifts: np.ndarray = field(init=False)
    modified_eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        lam, delta = self.bundle.block_eigenvalues, self.delta
        if delta - float(np.minimum.reduce(lam, initial=0.0)) < np.inf:  # a float overflows quietly
            self.shifts = np.maximum(delta - lam, 0.0)
            self.modified_eigenvalues = lam + self.shifts
            return
        half = 0.5 * delta - 0.5 * lam  # tau / 2 cannot overflow; tau does where it is >= 2^1023
        over = half >= 2.0 ** 1023
        self.shifts = np.where(over, np.inf, np.maximum(delta - np.where(over, delta, lam), 0.0))
        self.modified_eigenvalues = np.where(over, 2.0 * (0.5 * lam + half), lam + self.shifts)

    def solve(self, rhs):
        """Solve (A + E) x = rhs, a vector or a matrix, on the held factors (no inverse)."""
        return _factored_solve(self.bundle, self.modified_eigenvalues, rhs)

    @functools.cached_property
    def modified_matrix(self):
        if not (self.shifts > 0.0).any():
            return self.bundle.matrix
        M = _reassemble(self.bundle, self.modified_eigenvalues)
        return 0.5 * M + 0.5 * M.T  # halved first: M + M^T can overflow

    @functools.cached_property
    def modification_frobenius(self):
        # E is linear in tau: E(tau) = 2^e E(tau / 2^e) bit for bit, short of under-
        # and overflow, and no square of E(tau / 2^e) overflows at max tau / 2^e in [1, 2)
        top = float(self.shifts.max(initial=0.0))
        if not 0.0 < top < np.inf:
            return top
        pow2 = math.ldexp(1.0, math.frexp(top)[1] - 1)
        return float(np.linalg.norm(_reassemble(self.bundle, self.shifts / pow2), "fro")) * pow2


def psd_modify(A, delta=None):
    """Shift the block eigenvalues of A's indefinite factorization up to delta.

    Returns the factorization with the shifts; when every block eigenvalue
    is already >= delta, nothing is shifted and the modified matrix is the
    (symmetrized) input, bitwise.
    """
    bundle = ldl_factor(A)
    delta = float(default_delta(bundle.matrix) if delta is None else delta)
    if not 0.0 < delta < np.inf:  # "not" also rejects NaN
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    return PsdModification(bundle=bundle, delta=delta)
