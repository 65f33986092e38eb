"""
sparse.py

Sparse symmetric matrices stored as their lower triangle, Matrix Market
coordinate I/O and the induced 1-norm of a difference of two matrices.
Products with a matrix go through a compiled CSR copy of the full
symmetric matrix, built on the first product and kept.
"""

import io

import numpy as np
from scipy.sparse import csr_array


class MatrixMarketError(ValueError):
    """Raised on malformed Matrix Market input; carries the offending line."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)
        self.line_number = line_number


def _strictly_row_major(rows, cols):
    """True when the (row, col) pairs strictly increase in row-major
    order: sorted, and no pair repeats."""
    step = np.diff(rows)
    return bool(np.all((step > 0) | ((step == 0) & (np.diff(cols) > 0))))


# Entries of a dense array that `_lower_nonzeros` reads per block of
# rows; its temporaries stay this small whatever the order of the array.
_SCAN_ENTRIES = 1 << 16


def _row_blocks(n):
    """Slices of consecutive rows that cover range(n), each of at most
    _SCAN_ENTRIES entries of an n-column array, and at least one row."""
    step = max(1, _SCAN_ENTRIES // max(n, 1))
    return [slice(r, min(r + step, n)) for r in range(0, n, step)]


def _lower_nonzeros(dense, tol):
    """(rows, cols) of the lower-triangle entries of the square array
    `dense` with |a_ij| > tol, or NaN, in row-major order: the entries
    that `np.abs(dense) > tol` selects, NaN aside.  The rows are read in
    the blocks of `_row_blocks`, so no temporary outgrows a block; whole
    rows, because a contiguous block scans faster than its triangle."""
    n = dense.shape[0]
    rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for blk in _row_blocks(n):
        part = dense[blk]
        keep = part != 0.0 if tol == 0.0 else ~(np.abs(part) <= tol)
        r, c = np.divmod(np.flatnonzero(keep), n)
        r += blk.start
        lower = r >= c
        rows.append(r[lower])
        cols.append(c[lower])
    return np.concatenate(rows), np.concatenate(cols)


class SparseSymmetricMatrix:
    """
    Symmetric sparse matrix of order n.  Only the lower triangle is stored
    (row >= col), once per symmetric pair, in row-major order; the upper
    triangle is implied.

    Immutable: `rows`, `cols` and `vals` are read-only copies of what the
    caller passed, sorted only when they were out of order.  So the CSR
    copy of the full matrix that `matvec` builds on its first call and
    keeps cannot go stale.  Matrices that are never multiplied build none.
    """

    def __init__(self, n, rows, cols, vals):
        n = int(n)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        rows = np.array(rows, dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        vals = np.array(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols and vals must have equal length")
        if rows.size:
            if rows.min(initial=0) < 0 or rows.max(initial=0) >= n:
                raise ValueError("row index out of range")
            if cols.min(initial=0) < 0 or cols.max(initial=0) >= n:
                raise ValueError("column index out of range")
            if np.any(rows < cols):
                raise ValueError("entries must satisfy row >= col")
            if not np.all(np.isfinite(vals)):
                raise ValueError("matrix entries must be finite")
        # Sort into row-major order only when needed; sorted input that
        # still fails the strict check repeats a position.
        if not _strictly_row_major(rows, cols):
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            if not _strictly_row_major(rows, cols):
                raise ValueError("duplicate (row, col) entry")
        for a in (rows, cols, vals):
            a.flags.writeable = False
        self.n = n
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self._csr = None
        self._padded = None

    @property
    def nnz(self):
        """Stored entry count (lower triangle only)."""
        return self.vals.size

    @classmethod
    def from_dense(cls, dense, tol=0.0):
        """Build from a dense symmetric array, keeping the lower-triangle
        entries with |a_ij| > tol, in row-major order; tol must be
        nonnegative.  The array is scanned a block of rows at a time
        (`_lower_nonzeros`), so no n x n temporary is made.  A NaN entry
        is kept, so the finiteness check rejects it."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("dense input must be square")
        if not tol >= 0.0:
            raise ValueError("tol must be nonnegative, got %r" % (tol,))
        rows, cols = _lower_nonzeros(dense, tol)
        return cls(dense.shape[0], rows, cols, dense[rows, cols])

    def to_dense(self):
        dense = np.zeros((self.n, self.n))
        dense[self.rows, self.cols] = self.vals
        dense[self.cols, self.rows] = self.vals
        return dense

    def diagonal(self):
        d = np.zeros(self.n)
        on_diag = self.rows == self.cols
        d[self.rows[on_diag]] = self.vals[on_diag]
        return d

    def min_eigenvalue(self):
        """The smallest eigenvalue, by LAPACK on a dense copy: O(n^2)
        memory, so only fallbacks call it."""
        return float(np.linalg.eigvalsh(self.to_dense()).min())

    def shifted(self, sigma):
        """A + sigma I, exactly as from_dense(to_dense() + sigma I) gives
        it: the pattern and the whole diagonal, exact zeros dropped.  A
        matrix without its whole diagonal pads its pattern with zeros on
        the first shift and keeps it, so each shift re-values a pattern
        in O(nnz); when none is dropped, it shares the index arrays."""
        on_diag = self.rows == self.cols
        if np.count_nonzero(on_diag) < self.n:
            if self._padded is None:
                pad = np.setdiff1d(np.arange(self.n), self.rows[on_diag])
                self._padded = SparseSymmetricMatrix(
                    self.n, np.r_[self.rows, pad], np.r_[self.cols, pad],
                    np.r_[self.vals, np.zeros(pad.size)])
            return self._padded.shifted(sigma)
        vals = self.vals + sigma * on_diag
        keep = vals != 0.0
        if keep.all():
            return self._revalued(vals)
        return SparseSymmetricMatrix(self.n, self.rows[keep], self.cols[keep],
                                     vals[keep])

    def plus(self, terms):
        """A + c_1 A_1 + c_2 A_2 + ... for the pairs (c_k, A_k) of
        `terms`, exactly as from_dense of the dense sum in that order
        gives it: the entries are merged by position, each summed from
        a_ij in the order of the terms, and exact zeros are dropped."""
        n, terms = self.n, [(1.0, self), *terms]
        if any(a.n != n for _, a in terms):
            raise ValueError("dimension mismatch")
        keys, slot = np.unique(np.concatenate(
            [a.rows * n + a.cols for _, a in terms]), return_inverse=True)
        vals, start = np.zeros(keys.size), 0
        for coef, a in terms:
            # Positions are distinct within one matrix: one add each.
            vals[slot[start:start + a.nnz]] += coef * a.vals
            start += a.nnz
        keep = vals != 0.0
        rows, cols = np.divmod(keys[keep], n)
        return SparseSymmetricMatrix(n, rows, cols, vals[keep])

    def matvec(self, x):
        """Product Ax with a vector of length n or an (n, k) block; a
        block gives the same result as multiplying each of its columns."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError("dimension mismatch: expected length %d or "
                             "an (%d, k) block" % (self.n, self.n))
        if self._csr is None:
            self._csr = self.to_csr()
        return self._csr @ x

    def to_csr(self):
        """A new scipy CSR array of the full symmetric matrix.  Row i
        holds its stored entries, then the mirrored entries (j, i) with
        j > i, both in ascending column order, so its columns ascend and
        the product sums each row in that order."""
        off = np.flatnonzero(self.rows != self.cols)
        # A stable sort by column keeps the rows of each column ascending.
        upper = off[np.argsort(self.cols[off], kind="stable")]
        rows = np.concatenate((self.rows, self.cols[upper]))
        order = np.argsort(rows, kind="stable")
        indices = np.concatenate((self.cols, self.rows[upper]))[order]
        data = np.concatenate((self.vals, self.vals[upper]))[order]
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=self.n))))
        return csr_array((data, indices, indptr), shape=(self.n, self.n))

    def submatrix(self, idx):
        """Principal submatrix A[idx, idx] for distinct indices `idx`, in
        their order, built by remapping the stored entries."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.ndim != 1 or (idx.size and (idx.min() < 0
                                           or idx.max() >= self.n)):
            raise ValueError("indices must be a 1-D array within range")
        pos = np.full(self.n, -1, dtype=np.intp)
        pos[idx] = np.arange(idx.size)
        if np.count_nonzero(pos >= 0) != idx.size:
            raise ValueError("indices must be distinct")
        rows, cols = pos[self.rows], pos[self.cols]
        keep = (rows >= 0) & (cols >= 0)
        rows, cols = rows[keep], cols[keep]
        return SparseSymmetricMatrix(idx.size, np.maximum(rows, cols),
                                     np.minimum(rows, cols), self.vals[keep])

    def _revalued(self, vals):
        """This matrix's pattern with the values `vals`, one per stored
        entry.  The new matrix shares `rows` and `cols`, which the
        constructor checked already, so only the values are checked; a
        zero value stays stored."""
        vals = np.array(vals, dtype=np.float64)
        if vals.shape != self.vals.shape:
            raise ValueError("expected %d values, got shape %s"
                             % (self.nnz, vals.shape))
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix entries must be finite")
        vals.flags.writeable = False
        out = object.__new__(SparseSymmetricMatrix)
        out.n, out.rows, out.cols = self.n, self.rows, self.cols
        out.vals, out._csr, out._padded = vals, None, None
        return out


def norm1_diff(a, b):
    """Induced 1-norm (max absolute column sum) of A - B.  The stored
    entries of both are merged by position (`plus`), or subtracted entry
    by entry when both store the same positions; column j of the full
    matrix is column j of the lower triangle plus, mirrored, row j
    without its diagonal entry."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    n = a.n
    if ((a.rows is b.rows and a.cols is b.cols)
            or (np.array_equal(a.rows, b.rows)
                and np.array_equal(a.cols, b.cols))):
        # Equal patterns: the merge would pair entry k with entry k.
        diff = np.abs(a.vals - b.vals)
        rows, cols = a.rows, a.cols
    else:
        d = a.plus([(-1.0, b)])
        diff, rows, cols = np.abs(d.vals), d.rows, d.cols
    colsum = (np.bincount(cols, diff, minlength=n)
              + np.bincount(rows, np.where(rows != cols, diff, 0.0),
                            minlength=n))
    return float(colsum.max(initial=0.0))


_SYMMETRY_RTOL = 1e-12


def read_matrix_market(source):
    """
    Parse a Matrix Market coordinate/real file into a SparseSymmetricMatrix.

    Accepts `symmetric` files directly; `general` files are accepted only
    when numerically symmetric to 1e-12 relative, and stored as their lower
    triangle.  `source` may be a path, text, bytes or a file-like object.
    """
    text = _read_text(source)
    lines = text.splitlines()
    if not lines:
        raise MatrixMarketError("empty input")
    header = lines[0].strip().split()
    if (len(header) < 4 or header[0] != "%%MatrixMarket"
            or header[1].lower() != "matrix"
            or header[2].lower() != "coordinate"
            or header[3].lower() != "real"):
        raise MatrixMarketError(
            "expected header '%%MatrixMarket matrix coordinate real ...'",
            line_number=1)
    qualifier = header[4].lower() if len(header) > 4 else "general"
    if qualifier not in ("symmetric", "general"):
        raise MatrixMarketError(
            "unsupported qualifier %r" % qualifier, line_number=1)

    size_line = None
    entries = []
    nrows = ncols = declared_nnz = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        fields = line.split()
        if size_line is None:
            if len(fields) != 3:
                raise MatrixMarketError("expected 'rows cols nnz'", lineno)
            try:
                nrows, ncols, declared_nnz = (int(f) for f in fields)
            except ValueError:
                raise MatrixMarketError("non-integer size field", lineno)
            if nrows != ncols:
                raise MatrixMarketError("matrix must be square", lineno)
            if nrows < 1:
                raise MatrixMarketError("dimension must be >= 1", lineno)
            size_line = lineno
            continue
        if len(fields) != 3:
            raise MatrixMarketError("expected 'row col value'", lineno)
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise MatrixMarketError("non-integer index", lineno)
        try:
            val = float(fields[2])
        except ValueError:
            raise MatrixMarketError("non-real value field", lineno)
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixMarketError(
                "index (%d, %d) out of declared range" % (i, j), lineno)
        entries.append((i - 1, j - 1, val, lineno))
    if size_line is None:
        raise MatrixMarketError("missing size line")
    if len(entries) != declared_nnz:
        raise MatrixMarketError(
            "declared %d entries, found %d" % (declared_nnz, len(entries)))

    if qualifier == "symmetric":
        lower = {}
        for i, j, val, lineno in entries:
            if i < j:
                raise MatrixMarketError(
                    "symmetric file stores upper-triangle entry", lineno)
            if (i, j) in lower:
                raise MatrixMarketError("duplicate entry", lineno)
            lower[(i, j)] = val
    else:
        full = {}
        for i, j, val, lineno in entries:
            if (i, j) in full:
                raise MatrixMarketError("duplicate entry", lineno)
            full[(i, j)] = val
        lower = {}
        for (i, j), val in full.items():
            mirror = full.get((j, i), 0.0)
            scale = max(abs(val), abs(mirror), 1.0)
            if abs(val - mirror) > _SYMMETRY_RTOL * scale:
                raise MatrixMarketError(
                    "general matrix is not numerically symmetric at "
                    "(%d, %d)" % (i + 1, j + 1))
            if i >= j:
                lower[(i, j)] = val
    keys = sorted(lower)
    rows = [k[0] for k in keys]
    cols = [k[1] for k in keys]
    vals = [lower[k] for k in keys]
    return SparseSymmetricMatrix(nrows, rows, cols, vals)


def write_matrix_market(a, target=None):
    """
    Write the lower triangle in Matrix Market symmetric coordinate format
    with 17 significant digits.  Returns the text when `target` is None.
    """
    buf = io.StringIO()
    buf.write("%%MatrixMarket matrix coordinate real symmetric\n")
    buf.write("%d %d %d\n" % (a.n, a.n, a.nnz))
    for i, j, v in zip(a.rows, a.cols, a.vals):
        buf.write("%d %d %.17g\n" % (i + 1, j + 1, v))
    text = buf.getvalue()
    if target is None:
        return text
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)
    return None


def _read_text(source):
    if hasattr(source, "read"):
        data = source.read()
    else:
        source_str = source.decode() if isinstance(source, bytes) else source
        if "\n" not in source_str and not source_str.lstrip().startswith("%%"):
            with open(source_str) as fh:
                return fh.read()
        return source_str
    return data.decode() if isinstance(data, bytes) else data
