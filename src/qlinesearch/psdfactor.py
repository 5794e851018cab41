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

Everything here is dense and sized for small n (the solvers use n <= ~20);
clarity over blocking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0
_EPS = float(np.finfo(float).eps)


def default_delta(A):
    """Eigenvalue floor used when none is supplied: sqrt(eps) * max(1, max |a_ij|)."""
    A = np.asarray(A, dtype=float)
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    return math.sqrt(_EPS) * max(1.0, scale)


def _check_symmetric(A):
    # the symmetrized A and max |a_ij|
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    asym = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    if asym > 1e-10 * max(scale, 1e-300):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return 0.5 * (A + A.T), scale


def _swap(W, perm, r1, r2):
    # Full row and column swap keeps the trailing block symmetric and permutes
    # the already-stored multiplier rows consistently.
    W[[r1, r2], :] = W[[r2, r1], :]
    W[:, [r1, r2]] = W[:, [r2, r1]]
    perm[r1], perm[r2] = perm[r2], perm[r1]


@dataclass
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

    def block_diagonal(self):
        """B assembled as a dense matrix."""
        n = self.lower_unit_triangular.shape[0]
        B = np.zeros((n, n))
        j = 0
        for blk in self.blocks:
            s = blk.shape[0]
            B[j:j + s, j:j + s] = blk
            j += s
        return B

    def solve(self, rhs):
        """Solve A x = rhs, a vector or a matrix of columns, on the factors.

        Raises ``numpy.linalg.LinAlgError`` when a block eigenvalue vanishes
        next to the largest one: |lam_i| <= n * eps * max |lam|.
        """
        lam = self.block_eigenvalues
        tiny = lam.size * _EPS * float(np.max(np.abs(lam), initial=0.0))
        if np.any(np.abs(lam) <= tiny):
            raise np.linalg.LinAlgError("singular block in symmetric indefinite solve")
        return _factored_solve(self, lam, rhs)


def _forward_unit_lower(L, b):
    x = np.array(b, dtype=float, copy=True)
    for i in range(x.shape[0]):
        x[i] -= L[i, :i] @ x[:i]
    return x


def _backward_unit_upper(U, b):
    x = np.array(b, dtype=float, copy=True)
    for i in range(x.shape[0] - 1, -1, -1):
        x[i] -= U[i, i + 1:] @ x[i + 1:]
    return x


def _factored_solve(bundle, eigenvalues, rhs):
    # A = P^T L Q diag(eigenvalues) Q^T L^T P, so permute, two triangular
    # solves around a diagonal solve in the blocks' eigenbasis, unpermute.
    rhs = np.asarray(rhs, dtype=float)
    perm = bundle.permutation
    L = bundle.lower_unit_triangular
    Q = bundle.block_eigenvectors
    z = _forward_unit_lower(L, rhs[perm])
    w = Q @ ((Q.T @ z) / (eigenvalues if z.ndim == 1 else eigenvalues[:, None]))
    y = _backward_unit_upper(L.T, w)
    x = np.empty_like(y)
    x[perm] = y
    return x


def _reassemble(bundle, eigenvalues):
    # P^T L Q diag(eigenvalues) Q^T L^T P, unpermuted as (P^T M P)[perm, perm] = M
    Q = bundle.block_eigenvectors
    L = bundle.lower_unit_triangular
    perm = bundle.permutation
    out = np.empty((perm.shape[0], perm.shape[0]))
    out[np.ix_(perm, perm)] = L @ (Q @ np.diag(eigenvalues) @ Q.T) @ L.T
    return out


def ldl_factor(A):
    """Bunch-Kaufman factorization P A P^T = L B L^T of a symmetric matrix.

    The input is symmetrized first; asymmetry beyond 1e-10 * max |a_ij| is an
    error, as are non-finite entries.  Each block's eigenpairs are taken in
    the loop that fills L: 1x1 blocks pass through, and 2x2 blocks use the
    closed-form symmetric eigensolver with eigenvalues in descending order.
    """
    A_sym, size = _check_symmetric(A)
    # Far from unit scale, factor A / 2^e with max |a_ij| near 1: the power
    # of two is exact, and no 2x2 determinant or eigenvector norm under- or
    # overflows.  B and its eigenvalues are scaled back.
    e = math.frexp(size)[1]
    scale = math.ldexp(1.0, e) if abs(e) > 256 else 1.0
    W = A_sym / scale
    n = W.shape[0]
    perm = np.arange(n)
    pivots = []
    k = 0
    while k < n:
        absakk = abs(W[k, k])
        if k + 1 < n:
            col = np.abs(W[k + 1:, k])
            imax = k + 1 + int(np.argmax(col))
            colmax = float(col[imax - k - 1])
        else:
            imax = k
            colmax = 0.0
        if max(absakk, colmax) == 0.0:
            # Zero column in the reduced matrix: 1x1 zero pivot, no update.
            pivots.append((k, 1))
            k += 1
            continue
        size = 1
        swap_to = None
        if absakk >= _ALPHA * colmax:
            pass  # 1x1 pivot, no interchange
        else:
            # rowmax: largest off-diagonal magnitude in row imax of the
            # trailing submatrix (read from the lower triangle).
            left = np.abs(W[imax, k:imax])
            below = np.abs(W[imax + 1:, imax])
            rowmax = float(max(left.max() if left.size else 0.0,
                               below.max() if below.size else 0.0))
            # (a zero pivot passes this test when colmax**2 underflows)
            if absakk > 0.0 and absakk * rowmax >= _ALPHA * colmax * colmax:
                pass  # 1x1 pivot, no interchange
            elif abs(W[imax, imax]) >= _ALPHA * rowmax:
                swap_to = (k, imax)  # 1x1 pivot after interchange
            else:
                swap_to = (k + 1, imax)  # 2x2 pivot after interchange
                size = 2
        if swap_to is not None and swap_to[0] != swap_to[1]:
            _swap(W, perm, swap_to[0], swap_to[1])
        if size == 1:
            d = W[k, k]
            if k + 1 < n:
                colv = W[k + 1:, k].copy()
                mult = colv / d
                W[k + 1:, k + 1:] -= np.outer(mult, colv)
                W[k + 1:, k] = mult
            pivots.append((k, 1))
            k += 1
        else:
            if k + 2 < n:
                d11 = W[k, k]
                d21 = W[k + 1, k]
                d22 = W[k + 1, k + 1]
                det = d11 * d22 - d21 * d21
                C = W[k + 2:, k:k + 2].copy()
                # T = C @ inv([[d11, d21], [d21, d22]])
                T = np.column_stack(((C[:, 0] * d22 - C[:, 1] * d21) / det,
                                     (C[:, 1] * d11 - C[:, 0] * d21) / det))
                W[k + 2:, k + 2:] -= T @ C.T
                W[k + 2:, k:k + 2] = T
            pivots.append((k, 2))
            k += 2

    L = np.eye(n)
    Q = np.zeros((n, n))
    lam = np.zeros(n)
    blocks = []
    for (j, s) in pivots:
        if j + s < n:
            L[j + s:, j:j + s] = W[j + s:, j:j + s]
        if s == 1:
            lam[j] = W[j, j] * scale
            blocks.append(np.array([[lam[j]]]))
            Q[j, j] = 1.0
            continue
        # B = Q diag(lam) Q^T blockwise: the closed-form symmetric 2x2
        # eigensolver, eigenvalues descending.  The pivot search put the
        # nonzero colmax entry at b, so b != 0.
        a, b, c = W[j, j], W[j + 1, j], W[j + 1, j + 1]
        blocks.append(np.array([[a, b], [b, c]]) * scale)
        half = 0.5 * (a + c)
        disc = math.hypot(0.5 * (a - c), b)
        l1 = half + disc
        v = np.array([b, l1 - a])
        alt = np.array([l1 - c, b])
        if alt @ alt > v @ v:
            v = alt
        v /= math.sqrt(v @ v)
        Q[j:j + 2, j] = v
        Q[j:j + 2, j + 1] = (-v[1], v[0])
        lam[j] = l1 * scale
        lam[j + 1] = (half - disc) * scale
    return FactorizationBundle(matrix=A_sym,
                               permutation=perm,
                               lower_unit_triangular=L,
                               blocks=blocks,
                               block_eigenvectors=Q,
                               block_eigenvalues=lam)


@dataclass
class PsdModification:
    """Positive definite A + E held as A's factorization and the block shifts.

    ``shifts`` holds tau = max(delta - lam, 0) for each block eigenvalue lam,
    so A + E = P^T L Q diag(lam + tau) Q^T L^T P and E = P^T L Q diag(tau)
    Q^T L^T P.  ``modified_matrix`` and ``modification_frobenius`` are
    assembled on first read; with no shift they are the symmetrized input
    itself and exactly 0.
    """

    bundle: FactorizationBundle
    delta: float
    shifts: np.ndarray

    def solve(self, rhs):
        """Solve (A + E) x = rhs, a vector or a matrix, on the held factors (no inverse)."""
        return _factored_solve(self.bundle, self.bundle.block_eigenvalues + self.shifts, rhs)

    @functools.cached_property
    def modified_matrix(self):
        if not np.any(self.shifts > 0.0):
            return self.bundle.matrix
        M = _reassemble(self.bundle, self.bundle.block_eigenvalues + self.shifts)
        return 0.5 * (M + M.T)

    @functools.cached_property
    def modification_frobenius(self):
        if not np.any(self.shifts > 0.0):
            return 0.0
        return float(np.linalg.norm(_reassemble(self.bundle, self.shifts), "fro"))


def psd_modify(A, delta=None):
    """Shift the block eigenvalues of A's indefinite factorization up to delta.

    Returns the factorization with the shifts; when every block eigenvalue
    is already >= delta, nothing is shifted and the modified matrix is the
    (symmetrized) input, bitwise.
    """
    bundle = ldl_factor(A)
    if delta is None:
        delta = default_delta(bundle.matrix)
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    lam = bundle.block_eigenvalues
    return PsdModification(bundle=bundle, delta=delta,
                           shifts=np.where(lam < delta, delta - lam, 0.0))
