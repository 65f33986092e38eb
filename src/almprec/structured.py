"""
structured.py

The structured preconditioner: applies [M + sum_i s_i v_i v_i']^-1
without ever assembling it, through a rank-1 Sherman-Morrison path for a
single column and a storage-matrix double recursion in general.  Also
hosts the column administration (activity, relaxation, ordering, secant
augmentation) and the update-decision policy.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .sparse import norm1_diff


class DenominatorBreakdownError(RuntimeError):
    """A Sherman-Morrison/Miller denominator is numerically singular.
    Carries the label of the offending column so callers can drop it and
    reassemble."""

    def __init__(self, message, label=None):
        super().__init__(message)
        self.label = label


class StaleBError(RuntimeError):
    """The storage matrix was built for different columns or auxiliary."""


LABEL_BFGS_Y = "bfgs-y"
LABEL_BFGS_W = "bfgs-w"


class ColumnSet:
    """
    Ordered dense columns with per-column signs and provenance labels.
    Columns are stored pre-scaled (sqrt(rho), sqrt(nu), sqrt(psi)), so the
    recursions use unit coefficients with a sign only.

    Immutable: `columns` and `signs` are read-only copies of what the
    caller passed, so a preconditioner built on a ColumnSet can check its
    staleness once, when it is constructed.
    """

    def __init__(self, n, columns, signs, labels, notes=()):
        columns = np.array(columns, dtype=np.float64)
        columns = (columns.reshape(n, 0) if columns.size == 0
                   else columns.reshape(n, -1))
        signs = np.array(signs, dtype=np.float64).ravel()
        if columns.shape[1] != signs.size or len(labels) != signs.size:
            raise ValueError("columns, signs and labels must agree in count")
        if signs.size and not np.all(np.isin(signs, (-1.0, 1.0))):
            raise ValueError("signs must be +1 or -1")
        if not np.all(np.isfinite(columns)):
            raise ValueError("columns must be finite")
        columns.flags.writeable = False
        signs.flags.writeable = False
        self.n = n
        self.columns = columns
        self.signs = signs
        self.labels = tuple(labels)
        self.notes = tuple(notes)

    @property
    def m(self):
        return self.signs.size

    def permuted(self, order):
        order = list(order)
        return ColumnSet(self.n, self.columns[:, order], self.signs[order],
                         [self.labels[i] for i in order], self.notes)

    def without_labels(self, labels):
        keep = [i for i, lab in enumerate(self.labels) if lab not in labels]
        return self.permuted(keep)


@dataclass
class UpdateThresholds:
    delta_m: float = 0.1
    delta_v: float = 0.01
    eps_v: float = 1e-3
    eps_c: float = 1e-3

    def __post_init__(self):
        if min(self.delta_m, self.delta_v, self.eps_v, self.eps_c) < 0:
            raise ValueError("thresholds must be nonnegative")


@dataclass
class UpdateDecision:
    refresh_aux: bool
    refresh_b: bool
    reason: str  # M-changed | V-changed | forced-bfgs | none

    def __post_init__(self):
        if self.refresh_aux and not self.refresh_b:
            raise ValueError("refreshing the auxiliary forces a B refresh")


@dataclass
class BStore:
    """Assembled recursion state: column i holds P_{i-1}^-1 v_i."""
    n: int
    m: int
    b: np.ndarray
    denoms: np.ndarray
    signs: np.ndarray
    source_fingerprint: str


def _denom_floor(v):
    return 1e-12 * (1.0 + float(v @ v))


def fingerprint(aux, cols):
    h = hashlib.sha256()
    h.update(aux.token.encode())
    h.update(np.int64(cols.m).tobytes())
    h.update(cols.columns.tobytes())
    h.update(cols.signs.tobytes())
    h.update(repr(cols.labels).encode())
    return h.hexdigest()


def apply_rank1(aux, v, rho, r):
    """
    h = a - [rho (v'a) / (1 + rho v'b)] b with a = aux(r), b = aux(v);
    exact (M + rho v v')^-1 r when the auxiliary is exact.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.any(v):
        raise ValueError("rank-1 column must be non-null")
    if rho <= 0:
        raise ValueError("rho must be positive")
    a = aux.apply(r)
    b = aux.apply(v)
    denom = 1.0 + rho * float(v @ b)
    if abs(denom) < _denom_floor(np.sqrt(rho) * v):
        raise DenominatorBreakdownError("denominator breakdown")
    return a - (rho * float(v @ a) / denom) * b


def assemble_B(aux, cols, prev=None, prev_cols=None):
    """
    First pass of the double recursion: column i is frozen at
    P_{i-1}^-1 v_i, denominators d_i = 1 + s_i v_i' B_i are cached.
    Cost O(m^2 n) plus one block auxiliary apply to the new columns.

    When `prev`/`prev_cols` share a leading run of identical columns under
    the same auxiliary, assembly restarts from the first differing
    position instead of from scratch.
    """
    n, m = cols.n, cols.m
    start = _common_prefix(aux, cols, prev, prev_cols)
    b = np.empty((n, m))
    denoms = np.empty(m)
    if start:
        b[:, :start] = prev.b[:, :start]
        denoms[:start] = prev.denoms[:start]
    if start < m:
        b[:, start:] = aux.apply(cols.columns[:, start:])
    for j in range(start, m):
        # Replay the updates of the already-frozen prefix.  `col` is a
        # contiguous copy: BLAS may sum a strided dot product in another
        # order, and B should not depend on the layout the apply returns.
        col = b[:, j].copy()
        for i in range(start):
            vi = cols.columns[:, i]
            col -= cols.signs[i] * (vi @ col) / denoms[i] * b[:, i]
        b[:, j] = col
    for i in range(start, m):
        vi = cols.columns[:, i]
        si = cols.signs[i]
        di = 1.0 + si * float(vi @ b[:, i])
        if abs(di) < _denom_floor(vi):
            raise DenominatorBreakdownError(
                "near-singular recursion step at column %r"
                % (cols.labels[i],), label=cols.labels[i])
        denoms[i] = di
        for j in range(i + 1, m):
            b[:, j] -= si * (vi @ b[:, j]) / di * b[:, i]
    return BStore(n, m, b, denoms, cols.signs.copy(), fingerprint(aux, cols))


def apply_structured(bs, aux, cols, r):
    """
    Second pass: h_0 = aux(r), h_i = h_{i-1} - s_i (v_i' h_{i-1}) / d_i B_i.
    With an exact auxiliary this equals [M + sum s_i v_i v_i']^-1 r in
    exact arithmetic.  The recursion is not backward stable (Yip 1986):
    its relative residual grows with the column scale, which is why
    `StructuredPrecond.apply` adds a refinement step when the auxiliary
    is exact.  This function never refines.

    Each call hashes aux and cols and raises StaleBError when `bs` was
    assembled for others; `StructuredPrecond` checks once, when it is
    constructed, and then applies without hashing.
    """
    _check_fresh(bs, aux, cols)
    return _recursion(bs, aux, cols, r)


def _check_fresh(bs, aux, cols):
    if bs.source_fingerprint != fingerprint(aux, cols):
        raise StaleBError(
            "stale B: columns or auxiliary changed since assembly")


def _recursion(bs, aux, cols, r):
    h = aux.apply(r)
    for i in range(bs.m):
        vi = cols.columns[:, i]
        h -= bs.signs[i] * float(vi @ h) / bs.denoms[i] * bs.b[:, i]
    return h


class StructuredPrecond:
    """
    An (aux, cols, B) bundle exposed as a single apply contract.

    A given `bs` is checked against aux and cols once, here: construction
    raises StaleBError when it was assembled for other columns or another
    auxiliary.  Both are immutable, so `apply` does not check again.

    With an inexact auxiliary (`aux.inverts is None`) the apply is
    `apply_structured`, bit for bit.  With an exact one it is followed by
    one step of iterative refinement (Skeel 1980),
    h <- h + P^-1 (r - (M + sum s_i v_i v_i') h), against the M that the
    auxiliary factored; with an inexact auxiliary 2P^-1 - P^-1 H P^-1 can
    be indefinite, so that case is left alone.

    Where the exact case loses accuracy, as the worst relative residual
    ||r - H P^-1 r|| / ||r|| for r = H x (n = 50, three standard-normal
    columns scaled by sqrt(rho), Jacobi on a diagonal M and exact-dense
    on a dense SPD M, seeds 0-99):

        rho          <=1e6   1e7     1e8     1e9     1e10
        refined      7e-15   2e-14   2e-12   2e-10   2e-8
        unrefined    2e-8    1e-7    1e-6    2e-5    2e-4

    The unrefined residual grows about linearly in rho from 1e-14 at
    rho=1; a dense LAPACK solve stays below 1e-14 at every rho.
    """

    def __init__(self, aux, cols, bs=None):
        if bs is None:
            bs = assemble_B(aux, cols)
        else:
            _check_fresh(bs, aux, cols)
        self.aux = aux
        self.cols = cols
        self.bs = bs
        self.n = aux.n

    def apply(self, r):
        h = _recursion(self.bs, self.aux, self.cols, r)
        m = self.aux.inverts
        if m is None:
            return h
        v = self.cols.columns
        resid = r - m.matvec(h) - v @ (self.cols.signs * (v.T @ h))
        return h + _recursion(self.bs, self.aux, self.cols, resid)


def build_column_set(jacobian_cols, kinds, c_vals, multipliers, rho, th,
                     secant=None, n=None):
    """
    Assemble the preconditioner columns from constraint data.

    Keeps equality columns always and inequality columns only while their
    shifted multiplier is positive; relaxes columns that are small in both
    gradient norm and infeasibility; scales survivors by sqrt(rho); orders
    by descending infeasibility, then descending norm, then index; and
    appends the two secant-correction columns last when the curvature
    condition holds.
    """
    jacobian_cols = [np.asarray(c, dtype=np.float64) for c in jacobian_cols]
    c_vals = np.asarray(c_vals, dtype=np.float64)
    multipliers = np.asarray(multipliers, dtype=np.float64)
    if not (len(jacobian_cols) == len(kinds) == c_vals.size
            == multipliers.size):
        raise ValueError("constraint data lengths disagree")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if n is None:
        if jacobian_cols:
            n = jacobian_cols[0].size
        elif secant is not None:
            n = np.asarray(secant[0]).size
        else:
            raise ValueError("cannot infer dimension without columns")

    kept = []
    for i, kind in enumerate(kinds):
        if kind == "equality":
            infeas = abs(float(c_vals[i]))
        elif kind == "inequality":
            if multipliers[i] + rho * c_vals[i] <= 0.0:
                continue
            infeas = max(0.0, float(c_vals[i]))
        else:
            raise ValueError("unknown constraint kind %r" % (kind,))
        norm = float(np.linalg.norm(jacobian_cols[i]))
        if norm <= th.eps_v and infeas <= th.eps_c:
            continue
        kept.append((i, infeas, norm))
    kept.sort(key=lambda t: (-t[1], -t[2], t[0]))

    columns = [np.sqrt(rho) * jacobian_cols[i] for i, _, _ in kept]
    signs = [1.0] * len(columns)
    labels = [i for i, _, _ in kept]
    notes = []

    if secant is not None:
        s, y, hplus_apply = secant
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = s.size
        sy = float(s @ y)
        if sy >= 1e-8 * np.linalg.norm(s) * np.linalg.norm(y) and sy > 0.0:
            w = np.asarray(hplus_apply(s), dtype=np.float64)
            sw = float(s @ w)
            if sw <= 0.0:
                notes.append("correction skipped")
            else:
                columns.append(np.sqrt(1.0 / sy) * y)
                signs.append(1.0)
                labels.append(LABEL_BFGS_Y)
                columns.append(np.sqrt(1.0 / sw) * w)
                signs.append(-1.0)
                labels.append(LABEL_BFGS_W)
    matrix = (np.column_stack(columns) if columns
              else np.zeros((n, 0)))
    return ColumnSet(n, matrix, signs, labels, notes)


def decide_update(prev_m, new_m, prev_v, new_v, th):
    """
    Refresh the auxiliary when ||M - M_prev||_1 exceeds delta_m; refresh B
    on any auxiliary refresh, on a column-count change, or when the
    largest per-column 1-norm change over shared labels exceeds delta_v.
    """
    m_change = norm1_diff(prev_m, new_m)
    refresh_aux = m_change > th.delta_m

    count_changed = prev_v.m != new_v.m
    bfgs_changed = (_bfgs_labels(prev_v) != _bfgs_labels(new_v))
    shared = set(prev_v.labels) & set(new_v.labels)
    v_change = 0.0
    for label in shared:
        a = prev_v.columns[:, prev_v.labels.index(label)]
        b = new_v.columns[:, new_v.labels.index(label)]
        v_change = max(v_change, float(np.abs(a - b).sum()))
    v_moved = v_change > th.delta_v

    refresh_b = refresh_aux or count_changed or v_moved
    if refresh_aux:
        reason = "M-changed"
    elif count_changed:
        reason = "forced-bfgs" if bfgs_changed else "V-changed"
    elif v_moved:
        reason = "V-changed"
    else:
        reason = "none"
    return UpdateDecision(refresh_aux, refresh_b, reason)


def _bfgs_labels(cols):
    return tuple(l for l in cols.labels if l in (LABEL_BFGS_Y, LABEL_BFGS_W))


def _common_prefix(aux, cols, prev, prev_cols):
    if prev is None or prev_cols is None:
        return 0
    if prev.n != cols.n:
        return 0
    if prev.source_fingerprint != fingerprint(aux, prev_cols):
        return 0
    k = 0
    limit = min(prev_cols.m, cols.m)
    while (k < limit
           and prev_cols.labels[k] == cols.labels[k]
           and prev_cols.signs[k] == cols.signs[k]
           and np.array_equal(prev_cols.columns[:, k], cols.columns[:, k])):
        k += 1
    return k
