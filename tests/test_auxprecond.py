"""Auxiliary preconditioner kinds and the shift ladder of an
unfactorable block."""

import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from almprec import auxprecond
from almprec.auxprecond import (KINDS, AuxPrecond, _incomplete_cholesky,
                                build_aux)
from almprec.sparse import SparseSymmetricMatrix


def spd_matrix(rng, n):
    a = rng.standard_normal((n, n))
    return SparseSymmetricMatrix.from_dense(a @ a.T + n * np.eye(n))


def laplacian_5pt(k):
    """The 5-point Laplacian (4 on the diagonal, -1 for each grid
    neighbour) on a k x k grid, n = k^2."""
    idx = np.arange(k * k).reshape(k, k)
    rows = np.concatenate((idx.ravel(), idx[:, 1:].ravel(),
                           idx[1:, :].ravel()))
    cols = np.concatenate((idx.ravel(), idx[:, :-1].ravel(),
                           idx[:-1, :].ravel()))
    vals = np.where(rows == cols, 4.0, -1.0)
    return SparseSymmetricMatrix(k * k, rows, cols, vals)


def dense_incomplete_cholesky(a, drop_tol):
    """
    Reference left-looking incomplete Cholesky on a dense array.
    Sub-diagonal entries smaller than drop_tol times the norm of the
    corresponding column of A are dropped as the factor is formed.
    Returns None on a nonpositive pivot.
    """
    n = a.shape[0]
    lower = np.zeros((n, n))
    col_norms = np.linalg.norm(a, axis=0)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= 0.0:
            return None
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            col = ((a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j])
                   / lower[j, j])
            col[np.abs(col) < drop_tol * col_norms[j]] = 0.0
            lower[j + 1:, j] = col
    return lower


def ic_factor(m, drop_tol):
    """The factor `_incomplete_cholesky` forms of m, as a CSC matrix."""
    factor = _incomplete_cholesky(m, drop_tol)
    return (None if factor is None
            else scipy.sparse.csc_matrix(factor, shape=(m.n, m.n)))


class TestKinds:
    def test_identity(self):
        m = spd_matrix(np.random.default_rng(0), 5)
        aux = build_aux(m, "identity")
        r = np.arange(5.0)
        np.testing.assert_allclose(aux.apply(r), r)
        assert aux.nnz == 0

    def test_jacobi_inverts_diagonal(self):
        m = SparseSymmetricMatrix.from_dense(np.diag([2.0, 4.0, 8.0]))
        aux = build_aux(m, "jacobi")
        np.testing.assert_allclose(aux.apply(np.ones(3)),
                                   [0.5, 0.25, 0.125])

    def test_jacobi_shifts_a_nonpositive_diagonal(self):
        # 1e-3 ||diag||_inf leaves -2 negative; the Gershgorin rung,
        # 2 + 0.1 * 2 = 2.2, makes the diagonal (3.2, 0.2).
        m = SparseSymmetricMatrix.from_dense(np.diag([1.0, -2.0]))
        aux = build_aux(m, "jacobi")
        assert aux.shift == 2.2 and aux.inverts is None
        assert aux.apply(np.ones(2)).tobytes() == (
            1.0 / (m.diagonal() + aux.shift)).tobytes()

    def test_exact_dense_is_exact(self):
        rng = np.random.default_rng(1)
        m = spd_matrix(rng, 9)
        aux = build_aux(m, "exact")
        r = rng.standard_normal(9)
        np.testing.assert_allclose(aux.apply(r),
                                   np.linalg.solve(m.to_dense(), r),
                                   rtol=1e-10)

    def test_incomplete_cholesky_zero_drop_is_exact(self):
        rng = np.random.default_rng(2)
        m = spd_matrix(rng, 8)
        aux = build_aux(m, "incomplete-cholesky", drop_tol=0.0)
        r = rng.standard_normal(8)
        np.testing.assert_allclose(aux.apply(r),
                                   np.linalg.solve(m.to_dense(), r),
                                   rtol=1e-9)

    def test_incomplete_cholesky_dropping_reduces_nnz(self):
        rng = np.random.default_rng(3)
        m = spd_matrix(rng, 20)
        exact = build_aux(m, "incomplete-cholesky", drop_tol=0.0)
        dropped = build_aux(m, "incomplete-cholesky", drop_tol=0.2)
        assert dropped.nnz < exact.nnz

    def test_incomplete_cholesky_requires_drop_tol(self):
        m = spd_matrix(np.random.default_rng(4), 4)
        with pytest.raises(ValueError, match="drop tolerance"):
            build_aux(m, "incomplete-cholesky")

    @pytest.mark.parametrize("drop_tol", [True, False])
    def test_incomplete_cholesky_rejects_a_bool_drop_tol(self, drop_tol):
        # A bool is an int: True would build IC(1.0).
        m = spd_matrix(np.random.default_rng(4), 4)
        with pytest.raises(ValueError, match="drop tolerance"):
            build_aux(m, "incomplete-cholesky", drop_tol)

    def test_incomplete_cholesky_rejects_negative_drop_tol(self):
        m = spd_matrix(np.random.default_rng(4), 4)
        with pytest.raises(ValueError, match="nonnegative"):
            build_aux(m, "incomplete-cholesky", drop_tol=-0.1)

    def test_unknown_kind(self):
        m = spd_matrix(np.random.default_rng(5), 3)
        for kind in ("nope", "exact-dense"):
            with pytest.raises(ValueError, match="unknown"):
                build_aux(m, kind)

    def test_inverts_only_when_apply_is_exact(self):
        rng = np.random.default_rng(9)
        m = spd_matrix(rng, 6)
        diag = SparseSymmetricMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        assert build_aux(m, "identity").inverts is None
        assert build_aux(m, "jacobi").inverts is None
        assert build_aux(diag, "jacobi").inverts is diag
        assert build_aux(m, "exact").inverts is m
        assert build_aux(m, "incomplete-cholesky", 0.0).inverts is m
        assert build_aux(m, "incomplete-cholesky", 0.1).inverts is None

    def test_all_kinds_produce_spd_apply(self):
        rng = np.random.default_rng(6)
        m = spd_matrix(rng, 10)
        for kind in KINDS:
            aux = build_aux(m, kind,
                            0.1 if kind == "incomplete-cholesky" else None)
            op = np.column_stack([aux.apply(col) for col in np.eye(10)])
            eigs = np.linalg.eigvalsh(0.5 * (op + op.T))
            assert eigs.min() > 0.0, kind


class TestRetryAndFailure:
    def test_shift_retry_recovers_semidefinite(self):
        # Singular PSD matrices: plain factorization hits a zero pivot, the
        # shifted retry succeeds.  A dense Cholesky of the second one
        # rounds its zero pivot to 4.4e-16 and accepts it.
        for dense in (np.ones((3, 3)), np.array([[2.0, -2.0], [-2.0, 2.0]])):
            m = SparseSymmetricMatrix.from_dense(dense)
            aux = build_aux(m, "exact")
            assert aux.shift > 0.0 and aux.inverts is None
            r = np.ones(m.n)
            assert np.all(np.isfinite(aux.apply(r)))

    def test_shift_reaches_an_unstored_diagonal_entry(self):
        # PSD with a zero diagonal entry that m does not store: only a
        # shift on the whole diagonal makes it definite.
        m = SparseSymmetricMatrix(2, [0], [0], [1.0])
        aux = build_aux(m, "exact")
        assert aux.shift > 0.0 and aux.inverts is None
        np.testing.assert_allclose(
            aux.apply(np.ones(2)),
            [1.0 / (1.0 + aux.shift), 1.0 / aux.shift], rtol=1e-15)

    def test_indefinite_takes_the_gershgorin_rung(self):
        # 1e-3 ||diag||_inf = 0.1 leaves -100 negative; the Gershgorin
        # rung, 100 + 0.1 * 100 = 110, makes the diagonal (111, 10).
        m = SparseSymmetricMatrix.from_dense(np.diag([1.0, -100.0]))
        for kind in ("exact", "incomplete-cholesky"):
            aux = build_aux(m, kind, 0.1)
            assert aux.shift == 110.0 and aux.inverts is None
            np.testing.assert_allclose(aux.apply(np.ones(2)),
                                       1.0 / (m.diagonal() + aux.shift),
                                       rtol=1e-15)


FACTORED = [kind for kind in KINDS if kind != "identity"]


def laplacian_minus(sigma):
    """The 4 x 4-grid 5-point Laplacian minus sigma I, indefinite for
    sigma > 0.76, with diagonal 4 - sigma (not stored when 0)."""
    return SparseSymmetricMatrix.from_dense(laplacian_5pt(4).to_dense()
                                            - sigma * np.eye(16))


def with_a_nonpositive_diagonal(rng):
    """A seeded symmetric matrix, n in [1, 29], off-diagonal density
    about 0.3, whose diagonal is positive but for one entry: zero or
    negative."""
    n = int(rng.integers(1, 30))
    a = np.tril(rng.standard_normal((n, n))
                * (rng.random((n, n)) < 0.3), -1)
    a = a + a.T + np.diag(rng.uniform(0.1, 10.0, n))
    j = int(rng.integers(n))
    a[j, j] = 0.0 if rng.random() < 0.5 else -rng.uniform(1e-3, 10.0)
    return SparseSymmetricMatrix.from_dense(a)


def gershgorin_shift(m):
    """The last rung of `build_aux`, from the dense array of m:
    max(beta_G, 0) + 0.1 max(||diag m||_inf, max_i r_i), with r_i the
    off-diagonal absolute row sums and beta_G = max_i (r_i - m_ii)."""
    a = m.to_dense()
    diag = np.diag(a)
    radius = np.abs(a).sum(axis=1) - np.abs(diag)
    scale = max(np.abs(diag).max(), radius.max())
    return max((radius - diag).max(), 0.0) + 0.1 * scale


def arbitrary_symmetric(rng):
    """A seeded symmetric matrix of any inertia: n in [1, 39], a random
    off-diagonal density, each diagonal entry positive, negative, a
    stored zero or not stored, and every entry scaled by 10^k for a
    uniform k in [-8, 8]."""
    n = int(rng.integers(1, 40))
    rows, cols = np.tril_indices(n)
    on = rows == cols
    keep = on | (rng.random(rows.size) < rng.random())
    vals = rng.standard_normal(rows.size)
    sign = rng.integers(4, size=n)
    size = np.abs(vals[on])
    vals[on] = np.select([sign == 0, sign == 1], [size, -size], 0.0)
    keep[on] = sign != 3
    return SparseSymmetricMatrix(n, rows[keep], cols[keep],
                                 vals[keep] * 10.0 ** rng.uniform(-8, 8))


class TestShiftLadder:
    """`build_aux` is the one owner of an unfactorable block: every kind
    but `identity` tries M, then M + 1e-3 ||diag M||_inf I, each through
    `shifted`, skipping a rung whose shift leaves a diagonal entry
    nonpositive, and last M + beta_3 I for the Gershgorin-bound shift
    beta_3, which cannot fail."""

    @staticmethod
    def tried(monkeypatch):
        """The (block, shift) pairs that `build_aux` factors, in order."""
        given, build = [], auxprecond._build

        def recording(m, kind, drop_tol, shift):
            given.append((m, shift))
            return build(m, kind, drop_tol, shift)
        monkeypatch.setattr(auxprecond, "_build", recording)
        return given

    @pytest.mark.parametrize("kind", FACTORED)
    def test_negative_diagonal_skips_two_rungs(self, kind, monkeypatch):
        # The diagonal is -1: neither 0 nor 1e-3 ||diag||_inf = 1e-3 can
        # make it positive, so only beta_3 = (4 + 1) + 0.1 * 4 is factored.
        m = laplacian_minus(5.0)
        given = self.tried(monkeypatch)
        aux = build_aux(m, kind, 1e-2)
        assert aux.shift == gershgorin_shift(m) == 5.4
        assert aux.inverts is None
        assert given == [(m, aux.shift)]

    @pytest.mark.parametrize("kind", FACTORED)
    def test_a_zero_diagonal_skips_the_second_rung(self, kind, monkeypatch):
        # 1e-3 ||diag||_inf = 0 leaves the diagonal 0, as m itself has it.
        m = laplacian_minus(4.0)
        assert not np.any(m.diagonal())
        given = self.tried(monkeypatch)
        aux = build_aux(m, kind, 1e-2)
        assert aux.shift == gershgorin_shift(m) == 4.4
        assert given == [(m, aux.shift)]

    @pytest.mark.parametrize("kind", FACTORED)
    def test_a_positive_diagonal_tries_every_rung(self, kind, monkeypatch):
        # The diagonal is 0.1 and lambda_min -3.1: Jacobi builds on m,
        # and each factorization fails until the Gershgorin rung.
        m = laplacian_minus(3.9)
        assert np.all(m.diagonal() > 0.0) and m.min_eigenvalue() < 0.0
        given = self.tried(monkeypatch)
        aux = build_aux(m, kind, 1e-2)
        if kind == "jacobi":
            assert aux.shift == 0.0 and given == [(m, 0.0)]
            return
        small = 1e-3 * np.max(np.abs(m.diagonal()))
        assert aux.shift == gershgorin_shift(m)
        assert given == [(m, 0.0), (m, small), (m, aux.shift)]

    @pytest.mark.parametrize("kind", FACTORED)
    def test_an_excluded_rung_is_neither_shifted_nor_factored(
            self, kind, monkeypatch):
        # Every block `shifted` is asked for, and every matrix handed to a
        # factorizer, has a positive diagonal.
        seen = []
        shifted, ldlt = SparseSymmetricMatrix.shifted, auxprecond.ldlt
        ic = auxprecond._incomplete_cholesky

        def recording_shifted(self, sigma):
            out = shifted(self, sigma)
            seen.append(("shifted", out.diagonal().min()))
            return out

        def recording_ldlt(full):
            seen.append(("ldlt", full.diagonal().min()))
            return ldlt(full)

        def recording_ic(a, drop_tol):
            seen.append(("ic", a.diagonal().min()))
            return ic(a, drop_tol)
        monkeypatch.setattr(SparseSymmetricMatrix, "shifted",
                            recording_shifted)
        monkeypatch.setattr(auxprecond, "ldlt", recording_ldlt)
        monkeypatch.setattr(auxprecond, "_incomplete_cholesky", recording_ic)
        rng = np.random.default_rng(11)
        blocks = [laplacian_minus(sigma) for sigma in (3.9, 4.0, 5.0)]
        blocks += [with_a_nonpositive_diagonal(rng) for _ in range(20)]
        for m in blocks:
            build_aux(m, kind, 1e-2)
        assert seen and all(lowest > 0.0 for _, lowest in seen)
        factorizer = {"exact": "ldlt", "incomplete-cholesky": "ic"}
        assert {name for name, _ in seen} <= {"shifted",
                                              factorizer.get(kind)}

    def test_a_nonpositive_diagonal_entry_factors_nowhere(self):
        # The rule's premise: a zero or negative a_jj is a nonpositive
        # pivot in IC (a_jj - sum_k l_jk^2) and in the LDL' factor.
        rng = np.random.default_rng(2024)
        for _ in range(300):
            m = with_a_nonpositive_diagonal(rng)
            assert auxprecond.ldlt(m.to_csr()) is None
            for drop_tol in (0.0, 1e-2, 0.3):
                assert _incomplete_cholesky(m, drop_tol) is None

    @pytest.mark.parametrize("kind", FACTORED)
    def test_a_shifted_build_is_a_build_of_the_shifted_block(self, kind):
        r = np.linspace(1.0, 2.0, 16)
        for sigma in (4.0, 5.0):
            m = SparseSymmetricMatrix.from_dense(laplacian_5pt(4).to_dense()
                                                 - sigma * np.eye(16))
            aux = build_aux(m, kind, 1e-2)
            plain = build_aux(m.shifted(aux.shift), kind, 1e-2)
            assert aux.shift > 0.0 and plain.shift == 0.0
            assert aux.nnz == plain.nnz
            assert aux.apply(r).tobytes() == plain.apply(r).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_block_takes_a_dense_step(self, kind, monkeypatch):
        # No block takes a dense step: the definite ones build unshifted,
        # and the indefinite ones reach the Gershgorin rung without an
        # eigenvalue or a dense copy.
        def refused(self):
            raise AssertionError("dense step called")
        definite = [laplacian_5pt(8), seeded_laplacian(16, 7),
                    spd_matrix(np.random.default_rng(0), 30)]
        indefinite = [laplacian_minus(sigma) for sigma in (3.9, 4.0, 5.0)]
        for name in ("min_eigenvalue", "to_dense"):
            monkeypatch.setattr(SparseSymmetricMatrix, name, refused)
        for drop_tol in (0.0, 1e-2, 0.1):
            for m in definite:
                assert build_aux(m, kind, drop_tol).shift == 0.0
            for m in indefinite:
                build_aux(m, kind, drop_tol)

    @pytest.mark.parametrize("seed", range(4))
    def test_the_last_rung_never_fails(self, seed):
        """Every factored kind builds on every symmetric matrix, whatever
        its inertia, scale or unstored diagonal, and M = 0 gets the
        shift 0.1."""
        rng = np.random.default_rng(seed)
        zero = SparseSymmetricMatrix(int(rng.integers(1, 40)), [], [], [])
        for m in [arbitrary_symmetric(rng) for _ in range(50)] + [zero]:
            for kind, drop_tol in [("jacobi", None), ("exact", None),
                                   ("incomplete-cholesky", 0.0),
                                   ("incomplete-cholesky", 1e-2),
                                   ("incomplete-cholesky", 0.3)]:
                aux = build_aux(m, kind, drop_tol)
                assert isinstance(aux, AuxPrecond) and aux.shift >= 0.0
                assert np.all(np.isfinite(aux.apply(np.ones(m.n))))
                assert m is not zero or aux.shift == 0.1


# Two summation orders of the same sums: a few units of roundoff in the
# largest factor entry.
FACTOR_RTOL = 16 * np.finfo(np.float64).eps


def arrow_matrix(n):
    """4 on the diagonal and a full first column of ones: eliminating
    column 0 fills every (i, j), i > j > 0, outside A's pattern."""
    rows = np.concatenate((np.arange(n), np.arange(1, n)))
    cols = np.concatenate((np.arange(n), np.zeros(n - 1, dtype=int)))
    return SparseSymmetricMatrix(n, rows, cols, np.where(rows == cols, 4.0,
                                                         1.0))


ORACLE_CASES = (
    [("random-%d-%g" % (n, t), spd_matrix(np.random.default_rng(n), n), t)
     for n in (1, 2, 50) for t in (0.0, 1e-2, 0.2)]
    + [("laplacian-%g" % t, laplacian_5pt(8), t) for t in (0.0, 1e-2)]
    + [("arrow-%g" % t, arrow_matrix(12), t) for t in (0.0, 1e-2)])


def seeded_laplacian(k, seed, neumann=False):
    """The 5-point Laplacian of -div(a grad u) on a k x k grid, each edge
    coefficient log-uniform in [0.1, 10] from `seed`: Dirichlet boundary,
    or with `neumann` no boundary edges, which makes it singular."""
    rng = np.random.default_rng(seed)
    idx = np.arange(k * k).reshape(k, k)
    ah = 10.0 ** rng.uniform(-1.0, 1.0, size=(k, k + 1))
    av = 10.0 ** rng.uniform(-1.0, 1.0, size=(k + 1, k))
    if neumann:
        ah[:, [0, -1]] = 0.0
        av[[0, -1], :] = 0.0
    diag = (ah[:, :-1] + ah[:, 1:] + av[:-1, :] + av[1:, :]).ravel()
    rows = np.concatenate((idx.ravel(), idx[:, 1:].ravel(),
                           idx[1:, :].ravel()))
    cols = np.concatenate((idx.ravel(), idx[:, :-1].ravel(),
                           idx[:-1, :].ravel()))
    vals = np.concatenate((diag, -ah[:, 1:-1].ravel(), -av[1:-1, :].ravel()))
    return SparseSymmetricMatrix(k * k, rows, cols, vals)


def factor_digest(factor):
    """SHA-256 prefix of the factor's values, row indices and column
    pointers, as float64, int64 and int64 bytes."""
    h = hashlib.sha256()
    for part, dtype in zip(factor, (np.float64, np.int64, np.int64)):
        h.update(np.asarray(part, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


PINNED_FACTORS = [
    ("laplacian-0.01", seeded_laplacian(16, 7), 1e-2, 855,
     "87121ac9857142f6"),
    ("laplacian-0", seeded_laplacian(16, 7), 0.0, 4111, "4dc0cded163de08c"),
    ("arrow-0", arrow_matrix(12), 0.0, 78, "4e67d2154655449e"),
    ("arrow-0.2", arrow_matrix(12), 0.2, 12, "a41c9fe3b4a64ff8"),
]


class TestFactorBytes:
    """The IC factor byte for byte as the list-based build formed it:
    the digests were recorded with that build."""

    @pytest.mark.parametrize("name, m, drop_tol, nnz, digest",
                             PINNED_FACTORS,
                             ids=[c[0] for c in PINNED_FACTORS])
    def test_unshifted(self, name, m, drop_tol, nnz, digest):
        factor = _incomplete_cholesky(m, drop_tol)
        assert len(factor[0]) == nnz
        assert factor_digest(factor) == digest

    def test_shifted_retry(self):
        # The singular Neumann Laplacian has no complete Cholesky factor;
        # the retry factors it with the shift 1e-3 * max diag.
        m = seeded_laplacian(12, 8, neumann=True)
        assert _incomplete_cholesky(m, 0.0) is None
        aux = build_aux(m, "incomplete-cholesky", 0.0)
        assert aux.shift == 1e-3 * np.max(m.diagonal()) == 0.02945196344087693
        factor = _incomplete_cholesky(m.shifted(aux.shift), 0.0)
        assert len(factor[0]) == aux.nnz == 1739
        assert factor_digest(factor) == "ce51e697c4b9da2c"


class TestIncompleteCholeskyFactor:
    """The sparse factor against the dense reference loop: the same
    pattern and nnz, and the same entries up to summation order."""

    @staticmethod
    def assert_matches_oracle(m, shift, drop_tol):
        want = dense_incomplete_cholesky(m.to_dense() + shift * np.eye(m.n),
                                         drop_tol)
        lower = ic_factor(m.shifted(shift) if shift else m, drop_tol)
        assert want is not None and lower is not None
        assert lower.has_canonical_format
        got = lower.toarray()
        np.testing.assert_array_equal(got != 0.0, want != 0.0)
        assert lower.nnz == np.count_nonzero(want)
        assert (np.max(np.abs(got - want))
                <= FACTOR_RTOL * np.max(np.abs(want)))
        return lower

    @pytest.mark.parametrize("name, m, drop_tol", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    def test_matches_dense_oracle(self, name, m, drop_tol):
        lower = self.assert_matches_oracle(m, 0.0, drop_tol)
        if name.startswith("arrow"):
            assert np.any((lower.toarray() != 0.0) & (m.to_dense() == 0.0))

    def test_shifted_retry_drops_against_shifted_column_norms(self):
        # All-ones 2x2: unshifted, l_10 = 1 is kept and the second pivot
        # is 0.  The retry factors A + 1e-3 I, where
        # l_10 = 1/sqrt(1.001) = 0.99950 falls below
        # drop_tol * ||(A + 1e-3 I)[:, 0]|| = 0.99978 but not below
        # drop_tol * ||A[:, 0]|| = 0.99928.
        m = SparseSymmetricMatrix.from_dense(np.ones((2, 2)))
        drop_tol = 0.7066
        aux = build_aux(m, "incomplete-cholesky", drop_tol)
        assert aux.shift == 1e-3
        assert 1.0 / np.sqrt(1.0 + aux.shift) >= drop_tol * np.sqrt(2.0)
        lower = self.assert_matches_oracle(m, aux.shift, drop_tol)
        assert lower.nnz == aux.nnz == 2

    @pytest.mark.parametrize("rows, cols, vals", [
        # l_21 = (1 - l_20 l_10) / l_11 cancels to exactly 0.
        ([0, 1, 1, 2, 2, 2], [0, 0, 1, 0, 1, 2], [1, 1, 2, 1, 1, 2]),
        # An explicitly stored zero below the diagonal.
        ([0, 1, 1], [0, 0, 1], [2.0, 0.0, 3.0]),
    ])
    def test_zero_drop_tol_stores_no_exact_zeros(self, rows, cols, vals):
        m = SparseSymmetricMatrix(max(rows) + 1, rows, cols, vals)
        lower = self.assert_matches_oracle(m, 0.0, 0.0)
        assert np.all(lower.data != 0.0)
        assert lower.nnz < m.nnz
        assert build_aux(m, "incomplete-cholesky", 0.0).nnz == lower.nnz

    def test_missing_diagonal_entry_takes_the_gershgorin_rung(self):
        # (1, 1) is not stored: A = [[1, 1], [1, 0]] is indefinite, and
        # so is A + 1e-3 I; A + beta_3 I, beta_3 = 1 + 0.1, is definite.
        m = SparseSymmetricMatrix(2, [0, 1], [0, 0], [1.0, 1.0])
        for shift in (0.0, 1e-3):
            assert dense_incomplete_cholesky(
                m.to_dense() + shift * np.eye(2), 0.0) is None
            assert _incomplete_cholesky(m.shifted(shift), 0.0) is None
        aux = build_aux(m, "incomplete-cholesky", drop_tol=0.0)
        assert aux.shift == gershgorin_shift(m) == 1.1
        self.assert_matches_oracle(m, aux.shift, 0.0)

    @pytest.mark.parametrize("k", [50, 100])
    def test_builds_in_memory_linear_in_n(self, k):
        # The traced peak of a whole IC build on a 5-point Laplacian is
        # 350 B per variable at n = 2500 and 361 B at n = 10^4 (400 and
        # 412 B while the loop kept the column order and the column
        # starts as Python ints, 544 and 558 B while the factor's values
        # were Python floats in a list); one dense n x n array is 48 MiB
        # and 763 MiB.
        m = laplacian_5pt(k)
        bound = 364 * m.n
        assert 4 * bound <= 8 * m.n * m.n
        tracemalloc.start()
        try:
            aux = build_aux(m, "incomplete-cholesky", 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert aux.shift == 0.0 and aux.nnz < 5 * m.n
        assert peak <= bound


def test_exact_builds_without_an_n_by_n_array():
    # The traced peak of the exact build on a 5-point Laplacian was
    # 0.4 MiB at n = 1024, against 24 MiB for a dense factor of a dense
    # copy; one dense n x n array is 8 MiB.  SuperLU's own memory is not
    # traced; its fill is the factor's `nnz`.
    m = laplacian_5pt(32)
    tracemalloc.start()
    try:
        aux = build_aux(m, "exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aux.shift == 0.0 and aux.inverts is m
    assert aux.nnz < 12 * m.n
    assert peak <= 8 * m.n * m.n / 8


class TestSparseIncompleteCholesky:
    """The sparse IC apply against dense triangular solves with the factor
    that the build forms."""

    @staticmethod
    def matrix(n, shifted):
        # A singular PSD matrix has a zero pivot, so only the shifted
        # retry factors it; a 1x1 matrix cannot take that route.
        if shifted:
            return SparseSymmetricMatrix.from_dense(np.ones((n, n)))
        return spd_matrix(np.random.default_rng(n), n)

    @pytest.mark.parametrize("drop_tol", [0.0, 1e-2])
    @pytest.mark.parametrize("n, shifted", [(1, False), (2, False), (2, True),
                                            (50, False), (50, True)])
    def test_apply_matches_dense_triangular_solves(self, n, shifted,
                                                   drop_tol):
        m = self.matrix(n, shifted)
        aux = build_aux(m, "incomplete-cholesky", drop_tol=drop_tol)
        assert (aux.shift > 0.0) == shifted
        lower = ic_factor(m.shifted(aux.shift), drop_tol)
        assert aux.nnz == lower.nnz
        lower = lower.toarray()
        rhs = np.random.default_rng(0).standard_normal((n, 3))
        for r in [rhs[:, 0], rhs]:
            want = scipy.linalg.solve_triangular(
                lower, scipy.linalg.solve_triangular(lower, r, lower=True),
                lower=True, trans="T")
            got = aux.apply(r)
            assert got.shape == r.shape
            assert (np.linalg.norm(got - want)
                    <= 1e-14 * np.linalg.norm(want))

    @pytest.mark.parametrize("n, shifted", [(1, False), (50, False),
                                            (50, True)])
    def test_halves_are_the_triangular_solves_of_the_apply(self, n,
                                                           shifted):
        m = self.matrix(n, shifted)
        aux = build_aux(m, "incomplete-cholesky", drop_tol=1e-2)
        assert aux.split
        lower = ic_factor(m.shifted(aux.shift), 1e-2).toarray()
        rng = np.random.default_rng(1)
        for r in [rng.standard_normal(n), rng.standard_normal((n, 20))]:
            before = r.copy()
            forward = aux.apply(r, half="forward")
            backward = aux.apply(r, half="backward")
            assert r.tobytes() == before.tobytes()
            for got, trans in ((forward, "N"), (backward, "T")):
                want = scipy.linalg.solve_triangular(lower, r, lower=True,
                                                     trans=trans)
                assert got.shape == r.shape
                assert (np.linalg.norm(got - want)
                        <= 1e-14 * np.linalg.norm(want))
            whole = aux.apply(forward, half="backward")
            assert whole.tobytes() == aux.apply(r).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_block_apply_equals_columnwise_apply(kind):
    rng = np.random.default_rng(10)
    m = spd_matrix(rng, 12)
    aux = build_aux(m, kind, 0.1 if kind == "incomplete-cholesky" else None)
    for block in (rng.standard_normal((12, 4)),
                  np.asfortranarray(rng.standard_normal((12, 20)))):
        want = np.column_stack([aux.apply(col) for col in block.T])
        np.testing.assert_allclose(aux.apply(block), want, rtol=1e-15,
                                   atol=0.0)
    for bad in (np.ones(11), np.ones((11, 2)), np.ones((12, 2, 2))):
        with pytest.raises(ValueError, match="dimension"):
            aux.apply(bad)


@pytest.mark.parametrize("kind", KINDS)
def test_only_a_split_auxiliary_has_halves(kind):
    m = spd_matrix(np.random.default_rng(11), 6)
    aux = build_aux(m, kind, 0.1 if kind == "incomplete-cholesky" else None)
    assert aux.split == (kind == "incomplete-cholesky")
    halves = ("forward", "backward") if aux.split else ()
    for half in ("forward", "backward", "both"):
        if half in halves:
            assert aux.apply(np.ones(6), half=half).shape == (6,)
        else:
            with pytest.raises(ValueError, match="has no half"):
                aux.apply(np.ones(6), half=half)
