"""Sparse symmetric storage and Matrix Market round trips."""

import io
import tracemalloc

import numpy as np
import pytest

from almprec import sparse
from almprec.auxprecond import KINDS, build_aux
from almprec.sparse import (MatrixMarketError, SparseSymmetricMatrix,
                            norm1_diff, read_matrix_market,
                            write_matrix_market)


def random_symmetric(rng, n, density=0.4):
    dense = rng.standard_normal((n, n))
    dense = np.tril(dense)
    mask = rng.random((n, n)) < density
    dense = np.where(np.tril(mask), dense, 0.0)
    np.fill_diagonal(dense, rng.standard_normal(n))
    return dense + np.tril(dense, -1).T


def two_pass_matvec(a, x):
    """Reference product: the stored triangle, then its mirror without
    the diagonal, each added entry by entry in storage order."""
    y = np.zeros(a.n)
    np.add.at(y, a.rows, a.vals * x[a.cols])
    off = a.rows != a.cols
    np.add.at(y, a.cols[off], a.vals[off] * x[a.rows[off]])
    return y


def merge_norm1_diff(a, b):
    """Reference 1-norm of A - B that merges the entries by position."""
    n = a.n
    keys, slot = np.unique(np.concatenate((a.rows * n + a.cols,
                                           b.rows * n + b.cols)),
                           return_inverse=True)
    diff = np.abs(np.bincount(slot, np.concatenate((a.vals, -b.vals)),
                              minlength=keys.size))
    rows, cols = np.divmod(keys, n)
    colsum = (np.bincount(cols, diff, minlength=n)
              + np.bincount(rows, np.where(rows != cols, diff, 0.0),
                            minlength=n))
    return float(colsum.max(initial=0.0))


def oracle_matrices():
    """Seeded matrices: n = 1, diagonal only, dense, stored signed zeros,
    and random sparse ones."""
    rng = np.random.default_rng(8)
    yield SparseSymmetricMatrix(1, [0], [0], [2.5])
    yield SparseSymmetricMatrix.from_dense(np.diag(rng.standard_normal(9)))
    yield SparseSymmetricMatrix.from_dense(random_symmetric(rng, 12, 1.0))
    dense = random_symmetric(rng, 8, 0.5)
    dense[np.abs(dense) < 0.5] = -0.0
    rows, cols = np.tril_indices(8)
    yield SparseSymmetricMatrix(8, rows, cols, dense[rows, cols])
    for _ in range(20):
        yield SparseSymmetricMatrix.from_dense(
            random_symmetric(rng, int(rng.integers(1, 30)), rng.random()))


class TestCsrMatvec:
    def test_bitwise_equal_to_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        for a in oracle_matrices():
            for x in (rng.standard_normal(a.n)
                      * 10.0 ** rng.integers(-8, 8, a.n),
                      np.where(rng.random(a.n) < 0.5, -0.0, 0.0)):
                assert a.matvec(x).tobytes() == two_pass_matvec(a, x).tobytes()

    def test_block_matches_columns(self):
        rng = np.random.default_rng(10)
        for a in oracle_matrices():
            for k in (0, 1, 4):
                block = rng.standard_normal((a.n, k))
                for x in (block, np.asfortranarray(block)):
                    y = a.matvec(x)
                    assert y.shape == (a.n, k)
                    for j in range(k):
                        assert (y[:, j].tobytes()
                                == two_pass_matvec(a, x[:, j]).tobytes())

    @pytest.mark.parametrize("shape", [(), (2,), (4, 2), (2, 3),
                                       (3, 2, 1), (1, 3)])
    def test_bad_shapes_raise(self, shape):
        a = SparseSymmetricMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            a.matvec(np.ones(shape))

    def test_unsorted_input_is_sorted(self):
        rng = np.random.default_rng(11)
        a = SparseSymmetricMatrix.from_dense(random_symmetric(rng, 10))
        order = rng.permutation(a.nnz)
        b = SparseSymmetricMatrix(a.n, a.rows[order], a.cols[order],
                                  a.vals[order])
        for field in ("rows", "cols", "vals"):
            np.testing.assert_array_equal(getattr(b, field),
                                          getattr(a, field))
        x = rng.standard_normal(a.n)
        assert b.matvec(x).tobytes() == two_pass_matvec(a, x).tobytes()

    @pytest.mark.parametrize("rows, cols", [
        ([0, 1, 1, 2], [0, 0, 0, 1]),   # sorted, repeats (1, 0)
        ([2, 1, 0, 1], [1, 0, 0, 0]),   # unsorted, repeats (1, 0)
        ([1, 1], [1, 1]),
    ])
    def test_duplicates_rejected_sorted_or_not(self, rows, cols):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSymmetricMatrix(3, rows, cols, np.ones(len(rows)))

    def test_entries_are_read_only_copies(self):
        rows = np.array([0, 1, 1])
        cols = np.array([0, 0, 1])
        vals = np.array([2.0, 1.0, 3.0])
        a = SparseSymmetricMatrix(2, rows, cols, vals)
        for field in (a.rows, a.cols, a.vals):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0
        x = np.array([1.0, -2.0])
        before = a.matvec(x)
        # The caller's arrays stay writeable, and writing them changes
        # neither the stored entries nor the cached product.
        vals[:] = 7.0
        rows[:] = 1
        np.testing.assert_array_equal(a.vals, [2.0, 1.0, 3.0])
        assert a.matvec(x).tobytes() == before.tobytes()
        fresh = SparseSymmetricMatrix(2, [0, 1, 1], [0, 0, 1], [2.0, 1.0, 3.0])
        assert fresh.matvec(x).tobytes() == before.tobytes()

    def test_csr_is_built_lazily_and_once(self, monkeypatch):
        built = []
        csr_array = sparse.csr_array

        def counting_csr_array(*args, **kwargs):
            built.append(1)
            return csr_array(*args, **kwargs)

        monkeypatch.setattr(sparse, "csr_array", counting_csr_array)
        rng = np.random.default_rng(12)
        dense = random_symmetric(rng, 8, 1.0) + 8.0 * np.eye(8)
        a = SparseSymmetricMatrix.from_dense(dense)
        sub = a.submatrix(np.array([0, 2, 5]))
        norm1_diff(a, SparseSymmetricMatrix.from_dense(2.0 * dense))
        norm1_diff(sub, sub)
        assert built == []
        # `exact` factors one new CSR of its own; no build caches one.
        for kind in KINDS:
            before = len(built)
            build_aux(a, kind, 0.0)
            assert a._csr is None, kind
            assert len(built) - before == (kind == "exact"), kind
        before = len(built)
        x = rng.standard_normal(8)
        first = a.matvec(x)
        assert a.matvec(x).tobytes() == first.tobytes()
        assert len(built) == before + 1


class TestSparseSymmetricMatrix:
    def test_round_trip_dense(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dense = random_symmetric(rng, 7)
            a = SparseSymmetricMatrix.from_dense(dense)
            np.testing.assert_allclose(a.to_dense(), dense)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            dense = random_symmetric(rng, n)
            a = SparseSymmetricMatrix.from_dense(dense)
            x = rng.standard_normal(n)
            np.testing.assert_allclose(a.matvec(x), dense @ x,
                                       rtol=1e-13, atol=1e-13)

    def test_nnz_counts_lower_triangle_only(self):
        a = SparseSymmetricMatrix(3, [0, 1, 2, 2], [0, 0, 1, 2],
                                  [1.0, 2.0, 3.0, 4.0])
        assert a.nnz == 4

    def test_diagonal(self):
        dense = np.diag([3.0, -1.0, 2.0])
        dense[2, 0] = dense[0, 2] = 5.0
        a = SparseSymmetricMatrix.from_dense(dense)
        np.testing.assert_allclose(a.diagonal(), [3.0, -1.0, 2.0])

    def test_rejects_upper_triangle_entry(self):
        with pytest.raises(ValueError, match="row >= col"):
            SparseSymmetricMatrix(2, [0], [1], [1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSymmetricMatrix(2, [1, 1], [0, 0], [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SparseSymmetricMatrix(2, [0], [0], [np.nan])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseSymmetricMatrix(2, [2], [0], [1.0])

    def test_matvec_dimension_check(self):
        a = SparseSymmetricMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            a.matvec(np.ones(4))

    def test_from_dense_tol_drops_entries_in_row_major_order(self):
        dense = np.array([[4.0, 0.5, 1e-3, 0.0],
                          [0.5, -2.0, 0.1, 3.0],
                          [1e-3, 0.1, 0.0, -0.1],
                          [0.0, 3.0, -0.1, -1e-4]])
        a = SparseSymmetricMatrix.from_dense(dense, tol=0.1)
        # Entries with |a_ij| <= tol are dropped, the upper triangle is
        # ignored, and the kept ones come row by row, columns ascending.
        np.testing.assert_array_equal(a.rows, [0, 1, 1, 3])
        np.testing.assert_array_equal(a.cols, [0, 0, 1, 1])
        np.testing.assert_array_equal(a.vals, [4.0, 0.5, -2.0, 3.0])
        kept = SparseSymmetricMatrix.from_dense(dense, tol=0.0)
        np.testing.assert_array_equal(kept.rows, [0, 1, 1, 2, 2, 3, 3, 3])
        np.testing.assert_array_equal(kept.cols, [0, 0, 1, 0, 1, 1, 2, 3])

    def test_from_dense_rejects_negative_or_nan_tol(self):
        for tol in (-1.0, -1e-300, np.nan):
            with pytest.raises(ValueError, match="tol"):
                SparseSymmetricMatrix.from_dense(np.eye(3), tol=tol)


    @pytest.mark.parametrize("tol", [0.0, 0.5])
    def test_from_dense_rejects_nan(self, tol):
        with pytest.raises(ValueError, match="finite"):
            SparseSymmetricMatrix.from_dense([[2.0, np.nan], [np.nan, 2.0]],
                                             tol=tol)

    def test_from_dense_rejects_empty_input(self):
        with pytest.raises(ValueError, match="dimension"):
            SparseSymmetricMatrix.from_dense(np.zeros((0, 0)))

    def test_from_dense_needs_no_dense_temporary(self):
        # A tridiagonal matrix of order 1000: the scan reads it in blocks
        # of 2^16 entries; one n x n float array is 8 MB.
        n = 1000
        dense = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        tracemalloc.start()
        try:
            a = SparseSymmetricMatrix.from_dense(dense)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.nnz == 2 * n - 1
        assert peak < 8 * n * n


class TestLowerNonzeros:
    """The block scan against a mask of the whole array."""

    @staticmethod
    def check(dense, tol):
        rows, cols = sparse._lower_nonzeros(dense, tol)
        want = np.divmod(np.flatnonzero(np.tril(np.abs(dense) > tol)),
                         dense.shape[0])
        assert rows.dtype == cols.dtype == np.intp
        np.testing.assert_array_equal(rows, want[0])
        np.testing.assert_array_equal(cols, want[1])

    @pytest.mark.parametrize("budget", [1 << 16, 30, 5])
    def test_matches_dense_mask_on_random_sparse_input(self, budget,
                                                       monkeypatch):
        monkeypatch.setattr(sparse, "_SCAN_ENTRIES", budget)
        rng = np.random.default_rng(16)
        for _ in range(20):
            dense = random_symmetric(rng, int(rng.integers(1, 60)),
                                     rng.random())
            for tol in (0.0, 0.5):
                self.check(dense, tol)

    @pytest.mark.parametrize("budget, n, heights", [
        (30, 7, [4, 3]),        # 7 rows in blocks of 30 // 7 = 4
        (5, 9, [1] * 9),        # n above the budget: one row per block
        (1 << 16, 1, [1]),
    ])
    def test_blocks_cover_the_rows(self, budget, n, heights, monkeypatch):
        monkeypatch.setattr(sparse, "_SCAN_ENTRIES", budget)
        blocks = sparse._row_blocks(n)
        assert [b.stop - b.start for b in blocks] == heights
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        dense = random_symmetric(np.random.default_rng(n), n, 0.5)
        self.check(dense, 0.0)
        self.check(dense, 0.5)

    def test_one_by_one(self):
        for value, want in ((2.0, [0]), (-0.0, []), (0.0, [])):
            rows, cols = sparse._lower_nonzeros(np.array([[value]]), 0.0)
            np.testing.assert_array_equal(rows, want)
            np.testing.assert_array_equal(cols, want)

    def test_all_zero(self):
        for tol in (0.0, 0.5):
            rows, cols = sparse._lower_nonzeros(np.zeros((9, 9)), tol)
            assert rows.size == cols.size == 0
            assert rows.dtype == cols.dtype == np.intp

    def test_tol_keeps_entries_strictly_above_it(self):
        dense = np.array([[0.5, 0.5000001], [0.5000001, -0.6]])
        rows, cols = sparse._lower_nonzeros(dense, 0.5)
        np.testing.assert_array_equal(rows, [1, 1])
        np.testing.assert_array_equal(cols, [0, 1])

    @pytest.mark.parametrize("tol", [0.0, 0.5])
    def test_nan_is_kept(self, tol):
        dense = np.array([[1.0, np.nan, 0.0], [np.nan, 0.0, 0.0],
                          [0.0, 0.0, np.nan]])
        rows, cols = sparse._lower_nonzeros(dense, tol)
        np.testing.assert_array_equal(rows, [0, 1, 2])
        np.testing.assert_array_equal(cols, [0, 0, 2])


class TestSubmatrix:
    def test_matches_dense_restriction(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            dense = random_symmetric(rng, n)
            a = SparseSymmetricMatrix.from_dense(dense)
            k = int(rng.integers(1, n + 1))
            for idx in (np.sort(rng.choice(n, k, replace=False)),
                        rng.choice(n, k, replace=False), np.arange(n)):
                sub = a.submatrix(idx)
                assert sub.n == idx.size
                np.testing.assert_array_equal(
                    sub.to_dense(), a.to_dense()[np.ix_(idx, idx)])
                assert np.all(sub.rows >= sub.cols)

    def test_sorted_indices_match_dense_round_trip_exactly(self):
        rng = np.random.default_rng(5)
        dense = random_symmetric(rng, 9)
        a = SparseSymmetricMatrix.from_dense(dense)
        idx = np.array([0, 2, 3, 7, 8])
        want = SparseSymmetricMatrix.from_dense(
            a.to_dense()[np.ix_(idx, idx)])
        got = a.submatrix(idx)
        for field in ("rows", "cols", "vals"):
            np.testing.assert_array_equal(getattr(got, field),
                                          getattr(want, field))

    def test_full_index_set_is_the_matrix(self):
        rng = np.random.default_rng(6)
        a = SparseSymmetricMatrix.from_dense(random_symmetric(rng, 6))
        full = a.submatrix(np.arange(6))
        np.testing.assert_array_equal(full.rows, a.rows)
        np.testing.assert_array_equal(full.cols, a.cols)
        np.testing.assert_array_equal(full.vals, a.vals)

    def test_empty_index_set_rejected_as_by_dense_route(self):
        a = SparseSymmetricMatrix.from_dense(np.eye(3))
        empty = np.array([], dtype=int)
        with pytest.raises(ValueError):
            SparseSymmetricMatrix.from_dense(a.to_dense()[np.ix_(empty,
                                                                 empty)])
        with pytest.raises(ValueError):
            a.submatrix(empty)

    @pytest.mark.parametrize("idx", [[0, 0], [3], [-1], [[0, 1]]])
    def test_bad_indices_rejected(self, idx):
        a = SparseSymmetricMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            a.submatrix(idx)


class TestRevalued:
    """`_revalued`, the private value swap: the same pattern with other
    values, checked for length and finiteness only."""

    @staticmethod
    def _matrix():
        return SparseSymmetricMatrix(3, [0, 1, 2, 2], [0, 0, 1, 2],
                                     [1.0, 2.0, 3.0, 4.0])

    def test_shares_the_pattern_and_freezes_a_copy_of_the_values(self):
        a = self._matrix()
        a.matvec(np.ones(3))
        vals = np.array([5.0, -6.0, 0.0, 8.0])
        b = a._revalued(vals)
        assert b.n == a.n and b.rows is a.rows and b.cols is a.cols
        assert b.vals.tobytes() == vals.tobytes()
        assert not b.vals.flags.writeable and b.vals is not vals
        vals[0] = 7.0
        assert b.vals[0] == 5.0
        want = SparseSymmetricMatrix(3, a.rows, a.cols, b.vals)
        np.testing.assert_array_equal(b.to_dense(), want.to_dense())
        x = np.arange(3.0)
        assert b.matvec(x).tobytes() == want.matvec(x).tobytes()
        # The original keeps its values and its product.
        assert a.vals.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert a.matvec(x).tobytes() == self._matrix().matvec(x).tobytes()

    @pytest.mark.parametrize("vals", [
        np.ones(3), np.ones(5), np.ones((2, 2)), [1.0, np.nan, 1.0, 1.0],
        [1.0, 1.0, np.inf, 1.0], [-np.inf, 1.0, 1.0, 1.0]])
    def test_rejects_a_wrong_length_and_nonfinite_values(self, vals):
        with pytest.raises(ValueError):
            self._matrix()._revalued(vals)


def _same_matrix(a, b):
    return (a.n == b.n and a.rows.tobytes() == b.rows.tobytes()
            and a.cols.tobytes() == b.cols.tobytes()
            and a.vals.tobytes() == b.vals.tobytes())


def _shift_cases(rng):
    """(dense, matrix) pairs: random patterns with some diagonal entries
    missing, each stored as from_dense stores it and with every
    lower-triangle position stored, zeros included."""
    for n in (1, 2, 7, 30):
        dense = random_symmetric(rng, n, density=0.3)
        dense[np.diag_indices(n)] = np.where(rng.random(n) < 0.6,
                                             dense.diagonal(), 0.0)
        yield dense, SparseSymmetricMatrix.from_dense(dense)
        rows, cols = np.tril_indices(n)
        yield dense, SparseSymmetricMatrix(n, rows, cols, dense[rows, cols])


class TestShifted:
    """`shifted(sigma)` is from_dense(to_dense() + sigma I), bit for bit,
    and `min_eigenvalue()` the smallest eigenvalue of the dense array."""

    def test_matches_the_dense_shift_bitwise(self):
        rng = np.random.default_rng(21)
        for dense, a in _shift_cases(rng):
            diag = dense.diagonal()
            # 0 drops stored zeros; -a_ii cancels a stored diagonal entry.
            sigmas = [0.0, 1e-8, -2.5, float(rng.standard_normal())]
            for sigma in sigmas + [-float(v) for v in diag[diag != 0][:1]]:
                want = SparseSymmetricMatrix.from_dense(
                    dense + sigma * np.eye(a.n))
                assert _same_matrix(a.shifted(sigma), want)

    def test_zero_shift_drops_stored_zeros(self):
        a = SparseSymmetricMatrix(3, [0, 1, 1, 2], [0, 0, 1, 2],
                                  [0.0, 2.0, 0.0, 3.0])
        b = a.shifted(0.0)
        assert b.rows.tolist() == [1, 2] and b.cols.tolist() == [0, 2]
        assert b.vals.tolist() == [2.0, 3.0]

    def test_cancelled_diagonal_entry_is_dropped(self):
        a = SparseSymmetricMatrix.from_dense(np.array([[2.0, 1.0],
                                                       [1.0, 5.0]]))
        b = a.shifted(-2.0)
        assert b.rows.tolist() == [1, 1] and b.cols.tolist() == [0, 1]
        assert b.vals.tolist() == [1.0, 3.0]

    def test_shares_index_arrays_when_nothing_is_dropped(self):
        dense = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.5],
                          [0.0, 0.5, 3.0]])
        full = SparseSymmetricMatrix.from_dense(dense + np.eye(3))
        b = full.shifted(0.5)
        assert b.rows is full.rows and b.cols is full.cols
        # A missing diagonal entry: the padded pattern is built once and
        # kept, so every shift shares its index arrays.
        a = SparseSymmetricMatrix.from_dense(dense)
        b, c = a.shifted(0.5), a.shifted(2.0)
        assert b.nnz == c.nnz == a.nnz + 1
        assert b.rows is c.rows and b.cols is c.cols
        assert norm1_diff(b, c) == 1.5
        # A dropped entry gives arrays of its own.
        d = a.shifted(-2.0)
        assert d.nnz == a.nnz and d.rows is not b.rows

    def test_min_eigenvalue_is_the_dense_one_bitwise(self):
        rng = np.random.default_rng(22)
        for dense, a in _shift_cases(rng):
            assert a.min_eigenvalue() == float(
                np.linalg.eigvalsh(dense).min())


class TestPlus:
    """`plus` is from_dense of the dense sum, taken in the order of the
    terms, bit for bit."""

    def test_matches_the_dense_sum_bitwise(self):
        rng = np.random.default_rng(23)
        for n in (1, 4, 25):
            base = random_symmetric(rng, n, density=0.3)
            others = [random_symmetric(rng, n, density=0.2)
                      for _ in range(3)]
            coefs = rng.standard_normal(3)
            dense = base.copy()
            for coef, h in zip(coefs, others):
                dense += coef * h
            got = SparseSymmetricMatrix.from_dense(base).plus(
                [(coef, SparseSymmetricMatrix.from_dense(h))
                 for coef, h in zip(coefs, others)])
            assert _same_matrix(got, SparseSymmetricMatrix.from_dense(dense))

    def test_exact_cancellation_is_dropped(self):
        dense = np.array([[1.0, 2.0], [2.0, 0.0]])
        a = SparseSymmetricMatrix.from_dense(dense)
        b = SparseSymmetricMatrix.from_dense(np.eye(2))
        got = a.plus([(-1.0, a), (3.0, b)])
        assert got.rows.tolist() == [0, 1] and got.cols.tolist() == [0, 1]
        assert got.vals.tolist() == [3.0, 3.0]

    def test_no_terms_gives_the_same_entries(self):
        a = SparseSymmetricMatrix.from_dense(random_symmetric(
            np.random.default_rng(24), 6))
        assert _same_matrix(a.plus([]), a)

    def test_dimension_mismatch(self):
        a = SparseSymmetricMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match="dimension"):
            a.plus([(1.0, SparseSymmetricMatrix.from_dense(np.eye(3)))])


class TestNorm1Diff:
    def test_matches_dense_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            da = random_symmetric(rng, n)
            db = random_symmetric(rng, n)
            a = SparseSymmetricMatrix.from_dense(da)
            b = SparseSymmetricMatrix.from_dense(db)
            expected = np.abs(da - db).sum(axis=0).max()
            assert norm1_diff(a, b) == pytest.approx(expected, rel=1e-13)

    def test_disjoint_patterns_match_dense_oracle(self):
        # Entries stored in only one of the two matrices, diagonal ones
        # included, entries in both, and entries that cancel exactly.
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            da = random_symmetric(rng, n, density=0.3)
            db = random_symmetric(rng, n, density=0.3)
            pattern = np.tril(rng.random((n, n)) < 0.5)
            pattern = pattern | pattern.T
            da = np.where(pattern, da, 0.0)
            db = np.where(pattern, 0.0, db)
            shared = np.tril(rng.random((n, n)) < 0.2)
            shared = shared | shared.T
            common = random_symmetric(rng, n, density=1.0)
            da = np.where(shared, common, da)
            db = np.where(shared, common + rng.integers(0, 2) * 0.5, db)
            a = SparseSymmetricMatrix.from_dense(da)
            b = SparseSymmetricMatrix.from_dense(db)
            expected = np.abs(da - db).sum(axis=0).max()
            assert norm1_diff(a, b) == pytest.approx(expected, rel=1e-13)
            assert norm1_diff(b, a) == pytest.approx(expected, rel=1e-13)

    def test_one_sided_entries(self):
        a = SparseSymmetricMatrix(3, [0, 2], [0, 1], [1.0, -2.0])
        b = SparseSymmetricMatrix(3, [1, 2], [1, 0], [5.0, 3.0])
        dense = a.to_dense() - b.to_dense()
        assert norm1_diff(a, b) == np.abs(dense).sum(axis=0).max() == 7.0

    def test_equal_patterns_match_the_merge_bitwise(self):
        rng = np.random.default_rng(13)
        for a in oracle_matrices():
            b = SparseSymmetricMatrix(a.n, a.rows.copy(), a.cols.copy(),
                                      rng.standard_normal(a.nnz))
            assert b.rows is not a.rows
            for x, y in ((a, b), (b, a), (a, a)):
                assert norm1_diff(x, y) == merge_norm1_diff(x, y)

    def test_shared_patterns_match_the_merge_bitwise(self):
        # A re-valued matrix shares its pattern's index arrays.
        rng = np.random.default_rng(14)
        for a in oracle_matrices():
            b = a._revalued(rng.standard_normal(a.nnz))
            assert b.rows is a.rows and b.cols is a.cols
            for x, y in ((a, b), (b, a)):
                assert norm1_diff(x, y) == merge_norm1_diff(x, y)

    def test_differing_patterns_of_equal_size_take_the_merge(self):
        # Same entry count, different positions: no entrywise pairing.
        a = SparseSymmetricMatrix(3, [0, 2], [0, 1], [1.0, -2.0])
        b = SparseSymmetricMatrix(3, [0, 2], [0, 0], [4.0, 3.0])
        dense = a.to_dense() - b.to_dense()
        assert norm1_diff(a, b) == merge_norm1_diff(a, b) \
            == np.abs(dense).sum(axis=0).max() == 6.0

    def test_zero_for_identical(self):
        a = SparseSymmetricMatrix.from_dense(np.eye(4))
        assert norm1_diff(a, a) == 0.0

    def test_dimension_mismatch(self):
        a = SparseSymmetricMatrix.from_dense(np.eye(2))
        b = SparseSymmetricMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            norm1_diff(a, b)


class TestMatrixMarket:
    def test_symmetric_round_trip(self):
        rng = np.random.default_rng(3)
        dense = random_symmetric(rng, 6)
        a = SparseSymmetricMatrix.from_dense(dense)
        text = write_matrix_market(a)
        b = read_matrix_market(text)
        np.testing.assert_allclose(b.to_dense(), dense)

    def test_write_to_file(self, tmp_path):
        a = SparseSymmetricMatrix.from_dense(np.diag([1.0, 2.0]))
        path = tmp_path / "m.mtx"
        write_matrix_market(a, str(path))
        b = read_matrix_market(str(path))
        np.testing.assert_allclose(b.to_dense(), a.to_dense())

    def test_write_to_stream(self):
        a = SparseSymmetricMatrix.from_dense(np.eye(2))
        buf = io.StringIO()
        write_matrix_market(a, buf)
        assert buf.getvalue().startswith("%%MatrixMarket")

    def test_general_symmetric_accepted(self):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "2 2 4\n1 1 2.0\n1 2 3.0\n2 1 3.0\n2 2 4.0\n")
        a = read_matrix_market(text)
        np.testing.assert_allclose(a.to_dense(), [[2.0, 3.0], [3.0, 4.0]])

    def test_general_asymmetric_rejected(self):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "2 2 4\n1 1 2.0\n1 2 3.0\n2 1 3.5\n2 2 4.0\n")
        with pytest.raises(MatrixMarketError, match="not numerically"):
            read_matrix_market(text)

    def test_comments_and_blank_lines(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "% a comment\n\n2 2 1\n% another\n2 1 5.0\n")
        a = read_matrix_market(text)
        assert a.to_dense()[1, 0] == 5.0

    def test_bad_header_names_line(self):
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix_market("%%MatrixMarket matrix array real\n1 1 1\n")
        assert exc.value.line_number == 1

    def test_upper_entry_in_symmetric_names_line(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 1\n1 2 5.0\n")
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix_market(text)
        assert exc.value.line_number == 3

    def test_nnz_mismatch(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 2\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="declared"):
            read_matrix_market(text)

    def test_index_out_of_range(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="out of declared"):
            read_matrix_market(text)

    def test_non_real_value(self):
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "1 1 1\n1 1 abc\n")
        with pytest.raises(MatrixMarketError, match="non-real"):
            read_matrix_market(text)

    def test_full_precision_survives(self):
        val = 1.0 / 3.0
        a = SparseSymmetricMatrix(1, [0], [0], [val])
        b = read_matrix_market(write_matrix_market(a))
        assert b.vals[0] == val
