"""
structured.py

The structured preconditioner: [M + sum_i s_i v_i v_i']^-1 with the
auxiliary Q ~ M^-1 corrected by rank m, P^-1 = Q - W K^-1 W' (Woodbury),
W = QV, capacitance matrix K = S + V'W factored once per column set.
Also hosts the column administration (activity, relaxation, ordering,
secant augmentation) and the update-decision policy.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm

from .sparse import norm1_diff


class DenominatorBreakdownError(RuntimeError):
    """A Sherman-Morrison/Miller denominator is numerically singular.
    Carries the label of the offending column so callers can drop it and
    reassemble."""

    def __init__(self, message, label=None):
        super().__init__(message)
        self.label = label


LABEL_BFGS_Y = "bfgs-y"
LABEL_BFGS_W = "bfgs-w"


class ColumnSet:
    """
    Ordered dense columns with per-column signs and provenance labels.
    Columns are stored pre-scaled (sqrt(rho), sqrt(nu), sqrt(psi)), so the
    correction uses unit coefficients with a sign only.

    Immutable: `columns` and `signs` are read-only copies of what the
    caller passed, so a preconditioner built on a ColumnSet stays valid
    for as long as it is used.  Labels must be distinct: dropping a
    column by label and pairing the columns of two sets go by label.
    """

    def __init__(self, n, columns, signs, labels, notes=()):
        columns = np.array(columns, dtype=np.float64)
        columns = (columns.reshape(n, 0) if columns.size == 0
                   else columns.reshape(n, -1))
        signs = np.array(signs, dtype=np.float64).ravel()
        if columns.shape[1] != signs.size or len(labels) != signs.size:
            raise ValueError("columns, signs and labels must agree in count")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +1 or -1")
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            repeated = next(lab for lab in labels if labels.count(lab) > 1)
            raise ValueError("labels must be distinct; %r repeats"
                             % (repeated,))
        if not np.all(np.isfinite(columns)):
            raise ValueError("columns must be finite")
        columns.flags.writeable = False
        signs.flags.writeable = False
        self.n = n
        self.columns = columns
        self.signs = signs
        self.labels = labels
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
    """Capacitance factor K = L D L': b = W L^-T (column i is P_{i-1}^-1
    v_i), c = V L^-T and the denominators d_i = 1 + s_i v_i' b_i = s_i D_ii."""
    b: np.ndarray
    c: np.ndarray
    denoms: np.ndarray
    signs: np.ndarray


def _denom_floor(v):
    """Breakdown floor of the denominator of v, or of each column of v."""
    return 1e-12 * (1.0 + (v * v).sum(axis=0))


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


def assemble_B(aux, cols):
    """
    Factor the capacitance matrix K = S + V'W, W = aux(V), symmetrised, as
    an unpivoted L D L' (Hager 1989).  Pivot i is s_i d_i, d_i the
    Sherman-Morrison denominator of column i after the columns before it,
    so a pivot below the floor raises DenominatorBreakdownError with that
    column's label.  Cost: one block auxiliary apply, O(m^2 n) in BLAS,
    and an m-step loop on m x m arrays.
    """
    m = cols.m
    v, signs = cols.columns, cols.signs
    w = aux.apply(v)
    k = v.T @ w
    k = 0.5 * (k + k.T) + np.diag(signs)
    floors = _denom_floor(v)
    lower = np.eye(m)
    for i in range(m):
        if abs(k[i, i]) < floors[i]:
            raise DenominatorBreakdownError(
                "near-singular correction at column %r" % (cols.labels[i],),
                label=cols.labels[i])
        lower[i + 1:, i] = k[i + 1:, i] / k[i, i]
        k[i + 1:, i + 1:] -= lower[i + 1:, i, None] * k[i, i + 1:]
    # Step i leaves k[i, i] alone from then on: the diagonal is D.
    b, c = (dtrsm(1.0, lower, x, side=1, lower=1, trans_a=1, diag=1)
            for x in (w, v))
    return BStore(b, c, signs * k.diagonal(), signs.copy())


def _apply(bs, aux, r):
    a = aux.apply(r)
    return a - bs.b @ (bs.signs / bs.denoms * (bs.c.T @ a))


class StructuredPrecond:
    """
    An (aux, cols, B) bundle exposed as a single apply contract.  It
    assembles its own B from aux and cols, both immutable, so B always
    belongs to them.

    With an inexact auxiliary (`aux.inverts is None`) the apply is the
    Woodbury form h = a - b D^-1 (c'a), a = aux(r), which is
    [M + sum s_i v_i v_i']^-1 r in exact arithmetic when the auxiliary is
    exact.  That form is not
    backward stable (Yip 1986), so with an exact auxiliary it is followed
    by one step of iterative refinement (Skeel 1980),
    h <- h + P^-1 (r - (M + sum s_i v_i v_i') h), against the M that the
    auxiliary factored; with an inexact auxiliary 2P^-1 - P^-1 H P^-1 can
    be indefinite, so that case is left alone.

    Where the exact case loses accuracy, as the worst relative residual
    ||r - H P^-1 r|| / ||r|| for r = H x (n = 50, three standard-normal
    columns scaled by sqrt(rho), Jacobi on a diagonal M and `exact` on a
    dense SPD M, seeds 0-99):

        rho          <=1e6   1e7     1e8     1e9     1e10
        refined      3e-15   8e-14   1e-11   7e-10   4e-8
        unrefined    3e-8    3e-7    3e-6    2e-5    2e-4

    The unrefined residual grows about linearly in rho from 3e-14 at
    rho=1; a dense LAPACK solve stays below 1e-14 at every rho.
    """

    def __init__(self, aux, cols):
        self.aux = aux
        self.cols = cols
        self.bs = assemble_B(aux, cols)

    def apply(self, r):
        h = _apply(self.bs, self.aux, r)
        m = self.aux.inverts
        if m is None:
            return h
        v = self.cols.columns
        resid = r - m.matvec(h) - v @ (self.cols.signs * (v.T @ h))
        return h + _apply(self.bs, self.aux, resid)


def build_column_set(jacobian, equality, c_vals, multipliers, rho, th,
                     secant=None, free=None):
    """
    Assemble the preconditioner columns from constraint data: `jacobian`
    is n x m with column i the gradient of c_i, and `equality` is the
    problem's boolean mask of equality constraints.

    Keeps equality columns always and inequality columns only while their
    shifted multiplier is positive; relaxes columns that are small in both
    gradient norm and infeasibility; scales survivors by sqrt(rho); orders
    by descending infeasibility, then descending norm, then index; and
    appends the two secant-correction columns last when the curvature
    condition holds.  `secant` is (s, y, w) with w = H+ s, the model's
    Hessian without the secant correction applied to the step s.

    With `free`, an index array of variables, the set holds only the rows
    `free` of those columns, and a column whose restricted 2-norm is at
    most 1e-12 is dropped.  Which columns are kept, their order and the
    secant test still go by the whole columns and vectors.

    The kept constraint columns are gathered in one step and scaled in
    place, so beside the input no more than two n x m arrays are alive
    at a time: the gathered one and the ColumnSet's copy, or, with
    `free`, the gathered one and its column-major copy.
    """
    jacobian = np.asarray(jacobian, dtype=np.float64)
    equality = np.asarray(equality, dtype=bool)
    c_vals = np.asarray(c_vals, dtype=np.float64)
    multipliers = np.asarray(multipliers, dtype=np.float64)
    if not (jacobian.ndim == 2 and jacobian.shape[1] == equality.size
            == c_vals.size == multipliers.size):
        raise ValueError("constraint data lengths disagree")
    if rho <= 0:
        raise ValueError("rho must be positive")

    idx = np.flatnonzero(equality | (multipliers + rho * c_vals > 0.0))
    infeas = np.where(equality, np.abs(c_vals),
                      np.maximum(0.0, c_vals))[idx]
    # One norm per column, summed as the per-column loop did: the order
    # of tied columns depends on the last bit.
    norm = np.array([np.linalg.norm(jacobian[:, i]) for i in idx])
    keep = (norm > th.eps_v) | (infeas > th.eps_c)
    idx, infeas, norm = idx[keep], infeas[keep], norm[keep]
    order = idx[np.lexsort((idx, -norm, -infeas))]

    columns = (np.take(jacobian, order, axis=1) if free is None
               else jacobian[np.ix_(free, order)])
    columns *= np.sqrt(rho)
    signs = [1.0] * order.size
    labels = order.tolist()
    notes = []

    if secant is not None:
        s, y, w = (np.asarray(a, dtype=np.float64) for a in secant)
        sy = float(s @ y)
        if sy >= 1e-8 * np.linalg.norm(s) * np.linalg.norm(y) and sy > 0.0:
            sw = float(s @ w)
            if sw <= 0.0:
                notes.append("correction skipped")
            else:
                rows = slice(None) if free is None else free
                columns = np.column_stack((columns,
                                           np.sqrt(1.0 / sy) * y[rows],
                                           np.sqrt(1.0 / sw) * w[rows]))
                signs += [1.0, -1.0]
                labels += [LABEL_BFGS_Y, LABEL_BFGS_W]

    if free is not None:
        kept = np.flatnonzero(np.linalg.norm(columns, axis=0) > 1e-12)
        # Always gathered, also when every column is kept: this gather
        # stores the set column-major, and BLAS products with it round
        # differently than with a row-major one.
        columns = columns[:, kept]
        signs = [signs[j] for j in kept]
        labels = [labels[j] for j in kept]
    return ColumnSet(columns.shape[0], columns, signs, labels, notes)


def decide_update(prev_m, new_m, prev_v, new_v, th):
    """
    Refresh the auxiliary when ||M - M_prev||_1 exceeds delta_m; refresh B
    on any auxiliary refresh, on a column-count change, or when the
    largest per-column 1-norm change over shared labels exceeds delta_v.
    """
    m_change = 0.0 if prev_m is new_m else norm1_diff(prev_m, new_m)
    refresh_aux = m_change > th.delta_m

    count_changed = prev_v.m != new_v.m
    bfgs_changed = (_bfgs_labels(prev_v) != _bfgs_labels(new_v))
    prev_position = {label: i for i, label in enumerate(prev_v.labels)}
    v_change = 0.0
    for j, label in enumerate(new_v.labels):
        i = prev_position.get(label)
        if i is not None:
            a, b = prev_v.columns[:, i], new_v.columns[:, j]
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

