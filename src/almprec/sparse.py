"""
sparse.py

Sparse symmetric matrices stored as their lower triangle, Matrix Market
coordinate I/O and the induced 1-norm of a difference of two matrices.
"""

import io

import numpy as np


class MatrixMarketError(ValueError):
    """Raised on malformed Matrix Market input; carries the offending line."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)
        self.line_number = line_number


class SparseSymmetricMatrix:
    """
    Symmetric sparse matrix of order n.  Only the lower triangle is stored
    (row >= col), once per symmetric pair; the upper triangle is implied.
    Instances are immutable after construction.
    """

    def __init__(self, n, rows, cols, vals):
        n = int(n)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=np.float64)
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
        # Sort into compressed-row order and reject duplicates.
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if np.any(same):
                raise ValueError("duplicate (row, col) entry")
        self.n = n
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.row_ptr = np.searchsorted(rows, np.arange(n + 1))

    @property
    def nnz(self):
        """Stored entry count (lower triangle only)."""
        return self.vals.size

    @classmethod
    def from_dense(cls, dense, tol=0.0):
        """Build from a dense symmetric array, keeping |a_ij| > tol."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("dense input must be square")
        rows, cols = np.tril_indices(dense.shape[0])
        vals = dense[rows, cols]
        keep = np.abs(vals) > tol
        return cls(dense.shape[0], rows[keep], cols[keep], vals[keep])

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

    def matvec(self, x):
        """Product Ax using symmetric expansion of the stored triangle."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError("dimension mismatch: expected length %d" % self.n)
        y = np.zeros(self.n)
        np.add.at(y, self.rows, self.vals * x[self.cols])
        off = self.rows != self.cols
        np.add.at(y, self.cols[off], self.vals[off] * x[self.rows[off]])
        return y

    def entry_dict(self):
        """Stored lower-triangle entries as {(row, col): value}."""
        return {(int(i), int(j)): float(v)
                for i, j, v in zip(self.rows, self.cols, self.vals)}


def norm1_diff(a, b):
    """Induced 1-norm (max absolute column sum) of A - B."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    diff = a.entry_dict()
    for key, val in b.entry_dict().items():
        diff[key] = diff.get(key, 0.0) - val
    colsum = np.zeros(a.n)
    for (i, j), val in diff.items():
        colsum[j] += abs(val)
        if i != j:
            colsum[i] += abs(val)
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
