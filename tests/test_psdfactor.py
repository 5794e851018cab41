import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlinesearch import psdfactor
from qlinesearch.psdfactor import default_delta, ldl_factor, psd_modify

from conftest import MAX_N


def reconstruct(bundle):
    # B = Q diag(lam) Q^T, as the module docstring states
    P = np.eye(bundle.permutation.shape[0])[bundle.permutation]
    L = bundle.lower_unit_triangular
    Q, lam = bundle.block_eigenvectors, bundle.block_eigenvalues
    return P, L @ ((Q * lam) @ Q.T) @ L.T


def spectral_residual(bundle):
    # Q diag(lam) Q^T less each of B's blocks on its diagonal; B is zero off them
    Q = bundle.block_eigenvectors
    R = (Q * bundle.block_eigenvalues) @ Q.T
    j = 0
    for blk in bundle.blocks:
        s = blk.shape[0]
        R[j:j + s, j:j + s] -= blk
        j += s
    return R


def random_symmetric(rng, n):
    M = rng.uniform(-1, 1, (n, n))
    return 0.5 * (M + M.T)


class TestLdlFactor:
    def test_identity(self):
        b = ldl_factor(np.eye(3))
        assert b.permutation.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(b.lower_unit_triangular, np.eye(3))
        np.testing.assert_array_equal(b.blocks, [[[1.0]], [[1.0]], [[1.0]]])

    def test_no_pivoting_example(self):
        b = ldl_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(b.lower_unit_triangular, [[1.0, 0.0], [0.5, 1.0]])
        np.testing.assert_allclose(b.blocks, [[[4.0]], [[2.0]]])

    def test_zero_diagonal_forces_2x2_block(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = ldl_factor(A)
        assert len(b.blocks) == 1 and b.blocks[0].shape == (2, 2)
        np.testing.assert_array_equal(b.blocks[0], A)
        np.testing.assert_array_equal(b.lower_unit_triangular, np.eye(2))

    @pytest.mark.parametrize("rest", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]]],
                             ids=["singular", "tiny-coupling"])
    def test_zero_pivot_with_underflowing_column(self, rest):
        # t**2 underflows to 0, so the 1x1 test on the zero diagonal entry
        # reads 0 >= 0; the zero must not become a pivot (a division by
        # zero, then NaN factors or an index past the matrix)
        t = 8e-268
        A = np.zeros((3, 3))
        A[0, 1:] = A[1:, 0] = t
        A[1:, 1:] = rest
        b = ldl_factor(A)
        assert all(np.all(np.isfinite(blk)) for blk in b.blocks)
        assert np.all(np.isfinite(b.lower_unit_triangular))
        with pytest.raises(np.linalg.LinAlgError):
            b.solve(np.ones(3))  # t**2 is below every scale: singular

    def test_interchange_swaps_the_filled_rows_of_l(self):
        # pivot 4 fills column 0 with (1/2, 1); the reduced matrix
        # [[0, 1], [1, 3]] then takes 3 as a 1x1 pivot after interchanging
        # rows 1 and 2, which must carry column 0's multipliers with them
        A = np.array([[4.0, 2.0, 4.0], [2.0, 1.0, 3.0], [4.0, 3.0, 7.0]])
        b = ldl_factor(A)
        assert b.permutation.tolist() == [0, 2, 1]
        np.testing.assert_array_equal(
            b.lower_unit_triangular, [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.5, 1.0 / 3.0, 1.0]])
        np.testing.assert_array_equal(b.blocks, [[[4.0]], [[3.0]], [[-1.0 / 3.0]]])
        P, rec = reconstruct(b)
        np.testing.assert_allclose(rec, P @ A @ P.T, atol=1e-15)

    def test_rank_one_far_below_unit_scale(self):
        # entries near 1e-157: unscaled, the 2x2 pivot's determinant and the
        # eigenvector norm underflow to 0, giving NaN factors and an index
        # past the matrix
        x = np.array([1.0, 9.0, 12171.1, 0.0]) * 1e-81
        A = -np.outer(x, x)
        b = ldl_factor(A)
        assert all(np.all(np.isfinite(blk)) for blk in b.blocks)
        assert np.all(np.isfinite(b.block_eigenvectors))
        P, rec = reconstruct(b)
        assert np.max(np.abs(P @ A @ P.T - rec)) <= 1e-12 * np.max(np.abs(A))
        np.linalg.cholesky(psd_modify(A).modified_matrix)

    @pytest.mark.parametrize("A, blocks", [
        (np.diag([2.0 ** 1023, -(2.0 ** 1023)]), [[[2.0 ** 1023]], [[-(2.0 ** 1023)]]]),
        (np.array([[1e308, 0.0], [0.0, 1.0]]), [[[1e308]], [[1.0]]]),
        (np.array([[0.0, 1.7e308, 0.0], [1.7e308, 0.0, 0.0], [0.0, 0.0, 1.0]]),
         [[[0.0, 1.7e308], [1.7e308, 0.0]], [[1.0]]]),
    ], ids=["2^1023", "1e308", "1.7e308-2x2"])
    def test_entries_up_to_the_largest_double(self, A, blocks):
        # A + A^T overflowed as A was symmetrized, and then 2^1024 as the
        # scale: a RuntimeWarning, then OverflowError.  A / 2^1023 has 1 in
        # [1, 2) and 1 / 2^1023, a subnormal power of two, so every value
        # below is exact.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = ldl_factor(A)
            mod = psd_modify(A)
            M = mod.modified_matrix
            x = mod.solve(np.ones(A.shape[0]))
        assert np.array_equal(b.matrix, A)
        assert [blk.tolist() for blk in b.blocks] == blocks
        lam = [1.7e308, -1.7e308, 1.0] if len(blocks[0]) == 2 else np.diag(A).tolist()
        assert b.block_eigenvalues.tolist() == lam
        # sqrt(eps) = 2^-26 of max |a_ij|: the two negative and the two unit
        # eigenvalues shift up to it
        assert mod.delta == 2.0 ** -26 * np.abs(A).max()
        assert b.block_eigenvalues[mod.shifts > 0.0].tolist() == [v for v in lam if v <= 1.0]
        np.linalg.cholesky(M)
        np.testing.assert_allclose(M @ x, 1.0, rtol=1e-12)

    def test_multipliers_stay_modest_on_uniform_matrices(self):
        # Bunch-Kaufman does not bound |l_ij|: a zero diagonal whose column
        # entries differ by a factor of 50 gives a multiplier of 50.  On
        # uniform entries partial pivoting keeps them modest (a loose margin)
        rng = np.random.default_rng(29)
        for _ in range(300):
            A = random_symmetric(rng, int(rng.integers(1, 11)))
            assert np.max(np.abs(ldl_factor(A).lower_unit_triangular)) < 50.0

    def test_rejects_asymmetric_and_nonfinite(self):
        with pytest.raises(ValueError):
            ldl_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))
        # asymmetry is relative to max |a_ij| at every scale: below 1e-300 it
        # used to be measured against 1e-310
        with pytest.raises(ValueError):
            ldl_factor(np.array([[1e-305, 1e-312], [0.0, 1e-305]]))
        with pytest.raises(ValueError):
            ldl_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("d", [0.0, -2.0])
    def test_one_by_one_is_its_own_last_pivot(self, d):
        # the last 1x1 pivot has nothing below it to eliminate, zero or not
        b = ldl_factor([[d]])
        assert b.permutation.tolist() == [0]
        np.testing.assert_array_equal(b.lower_unit_triangular, [[1.0]])
        np.testing.assert_array_equal(b.blocks, [[[d]]])
        np.testing.assert_array_equal(b.block_eigenvectors, [[1.0]])
        assert b.block_eigenvalues.tolist() == [d]

    @pytest.mark.parametrize("shape", [(2, 3), (3,)], ids=str)
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            ldl_factor(np.ones(shape))

    def test_solve_matches_dense(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            A = random_symmetric(rng, n) + np.eye(n) * 0.5  # keep well conditioned
            b = rng.uniform(-1, 1, n)
            x = ldl_factor(A).solve(b)
            np.testing.assert_allclose(A @ x, b, atol=1e-9)


class TestBlockSpectral:
    """B = Q diag(lam) Q^T, as ``ldl_factor`` takes it block by block."""

    def test_diagonal_blocks(self):
        b = ldl_factor(np.diag([3.0, 5.0]))
        assert [blk.shape for blk in b.blocks] == [(1, 1), (1, 1)]
        np.testing.assert_array_equal(b.block_eigenvectors, np.eye(2))
        assert b.block_eigenvalues.tolist() == [3.0, 5.0]

    def test_antidiagonal_block(self):
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = ldl_factor(B)
        Q, lam = b.block_eigenvectors, b.block_eigenvalues
        assert lam.tolist() == [1.0, -1.0]
        s = 1.0 / np.sqrt(2.0)
        # eigenvector signs are free; compare columns up to sign
        assert np.allclose(np.abs(Q[:, 0]), [s, s])
        assert np.allclose(np.abs(Q[:, 1]), [s, s])
        np.testing.assert_allclose(Q @ np.diag(lam) @ Q.T, B, atol=1e-14)

    def test_mixed_blocks(self):
        # a 1x1 pivot -2, then the antidiagonal 2x2 block
        A = np.array([[-2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        b = ldl_factor(A)
        assert [blk.shape for blk in b.blocks] == [(1, 1), (2, 2)]
        Q, lam = b.block_eigenvectors, b.block_eigenvalues
        assert lam.tolist() == [-2.0, 1.0, -1.0]
        np.testing.assert_array_equal(Q[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(Q[:, 0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(spectral_residual(b), 0.0, atol=1e-14)


class TestPsdModify:
    def test_delta_validation(self):
        # a NaN delta shifted nothing: an indefinite "modification"
        for delta in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                psd_modify(np.diag([-2.0, 1.0]), delta)

    def test_default_delta_scales_with_matrix(self):
        eps = np.finfo(float).eps
        assert default_delta(np.eye(2)) == pytest.approx(np.sqrt(eps))
        assert default_delta(100.0 * np.eye(2)) == pytest.approx(100.0 * np.sqrt(eps))

    def test_solve_consistent_with_modified_matrix(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            A = random_symmetric(rng, n)
            mod = psd_modify(A, 0.05)
            b = rng.uniform(-1, 1, n)
            x = mod.solve(b)
            resid = np.max(np.abs(mod.modified_matrix @ x - b))
            assert resid <= 1e-8 * max(1.0, np.max(np.abs(x)))

    def test_symmetry_checked_once(self, monkeypatch):
        calls = []
        check = psdfactor._check_symmetric
        monkeypatch.setattr(psdfactor, "_check_symmetric",
                            lambda A: calls.append(1) or check(A))
        A = np.array([[1.0, 2.0 + 1e-13], [2.0, -1.0]])
        mod = psd_modify(A)
        assert len(calls) == 1
        assert np.array_equal(mod.bundle.matrix, 0.5 * (A + A.T))


_KINDS = ("dense", "rank_deficient", "zero_columns", "zero_diagonal", "positive_definite")


@st.composite
def symmetric_matrices(draw, kinds=_KINDS, scales=(1e-150, 1.0, 1e150)):
    """A symmetric matrix of one of ``kinds``, scaled by one of ``scales``.

    Entries lie on a grid of 1e-6, so none is subnormal after scaling.  A
    zero diagonal forces a 2x2 pivot first; "rank_deficient" is X D X^T
    with X of fewer columns than rows and D = diag(+-1).
    """
    n = draw(st.integers(1, MAX_N))
    kind = draw(st.sampled_from(kinds))
    scale = draw(st.sampled_from(scales))
    entries = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n * n, max_size=n * n))
    M = np.reshape(np.array(entries, dtype=float) * 1e-6, (n, n))
    if kind == "rank_deficient":
        r = draw(st.integers(0, n - 1))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=r, max_size=r))
        A = (M[:, :r] * np.array(signs)) @ M[:, :r].T
    elif kind == "positive_definite":
        A = M @ M.T + 0.5 * np.eye(n)
    else:
        A = M + M.T
    if kind == "zero_columns":
        zero = list(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        A[zero, :] = 0.0
        A[:, zero] = 0.0
    if kind == "zero_diagonal":
        np.fill_diagonal(A, 0.0)
    return 0.5 * (A + A.T) * scale


def _size(A):
    return float(np.max(np.abs(A), initial=0.0))


class TestFactorProperties:
    @given(symmetric_matrices())
    def test_factors_reassemble_the_matrix(self, A):
        b = ldl_factor(A)
        P, rec = reconstruct(b)
        assert np.max(np.abs(P @ A @ P.T - rec), initial=0.0) <= 1e-12 * _size(A)
        Q = b.block_eigenvectors
        n = A.shape[0]
        assert np.max(np.abs(Q.T @ Q - np.eye(n)), initial=0.0) <= 1e-14
        B_size = max(_size(blk) for blk in b.blocks)
        assert _size(spectral_residual(b)) <= 1e-14 * B_size
        # L is exactly unit lower triangular, and zero below each 2x2 block's
        # diagonal, where B holds the coupling instead
        L = b.lower_unit_triangular
        assert np.all(np.diag(L) == 1.0)
        assert not np.any(np.triu(L, 1))
        j = 0
        for blk in b.blocks:
            if blk.shape[0] == 2:
                assert L[j + 1, j] == 0.0
            j += blk.shape[0]

    @given(symmetric_matrices(kinds=("zero_diagonal",)))
    def test_zero_diagonal_forces_a_2x2_pivot(self, A):
        # a nonzero first column below a zero diagonal entry fails both 1x1 tests
        if np.any(A[:, 0]):
            assert ldl_factor(A).blocks[0].shape == (2, 2)

    @given(symmetric_matrices())
    def test_inertia_where_the_spectrum_is_clear_of_zero(self, A):
        ew = np.linalg.eigvalsh(A)
        if A.size == 0 or np.min(np.abs(ew)) <= 1e-8 * A.shape[0] * _size(A):
            return
        lam = ldl_factor(A).block_eigenvalues
        assert np.sum(ew > 0) == np.sum(lam > 0)
        assert np.sum(ew < 0) == np.sum(lam < 0)
        assert not np.any(lam == 0.0)

    # the default delta at every scale, and delta = 0.05, which shifts most
    # block eigenvalues, at scales 1e-150 and 1: far below a matrix at 1e150
    # it can leave A + E too ill-conditioned for Cholesky, as the module
    # docstring allows
    @given(st.one_of(st.tuples(symmetric_matrices(), st.none()),
                     st.tuples(symmetric_matrices(scales=(1e-150, 1.0)), st.just(0.05))))
    def test_modification_is_positive_definite(self, case):
        A, delta = case
        mod = psd_modify(A, delta)
        np.linalg.cholesky(mod.modified_matrix)
        lam = mod.bundle.block_eigenvalues
        shifted = lam + mod.shifts
        assert np.array_equal(mod.shifts > 0.0, lam < mod.delta)
        # lam + tau is delta up to its own rounding; the smallest eigenvalue
        # of A + E is not bounded by delta, because L is not orthogonal
        eps = np.finfo(float).eps
        assert np.all(shifted >= mod.delta - eps * (mod.delta + np.abs(lam)))
        # _reassemble scales Q's columns where Q @ diag(e) @ Q^T would be formed
        Q = mod.bundle.block_eigenvectors
        for e in (shifted, mod.shifts):
            assert np.array_equal((Q * e) @ Q.T, Q @ np.diag(e) @ Q.T)
        # ||E||_F is built on first read from the factors; it agrees with the
        # dense difference (A + E) - A, is zero exactly when nothing is
        # shifted, and then A comes back bitwise
        dense = float(np.linalg.norm(mod.modified_matrix - A, "fro"))
        assert mod.modification_frobenius == pytest.approx(
            dense, rel=1e-8, abs=1e-10 * max(_size(A), mod.delta))
        assert (mod.modification_frobenius > 0.0) == np.any(mod.shifts > 0.0)
        if not np.any(mod.shifts > 0.0):
            assert np.array_equal(mod.modified_matrix, A)

    @given(symmetric_matrices(kinds=("positive_definite",), scales=(1.0, 1e150)))
    def test_unshifted_input_comes_back_bitwise(self, A):
        # only a positive definite input can go unshifted; here every block
        # eigenvalue is >= lambda_min(A) >= 0.5 * scale > delta (at 1e-150,
        # delta = sqrt(eps) lies above every eigenvalue)
        mod = psd_modify(A)
        assert not np.any(mod.shifts > 0.0)
        assert np.array_equal(mod.modified_matrix, A)
        assert mod.modification_frobenius == 0.0
