"""
structured.py

The structured preconditioner: [M + sum_i s_i v_i v_i']^-1 with the
auxiliary Q ~ M^-1 corrected by rank m.  The capacitance matrix
K = S + V'QV = L D L' is factored once per column set into the stored
Sherman-Morrison form (Hager 1989): columns b_i and weights
s_i / d_i = 1 / D_ii, so that every apply is one correction step
x - b (weights * b'y).  A split auxiliary, Q = L_Q^-T L_Q^-1, takes the
step between its halves, P^-1 = L_Q^-T (I - b D^-1 b') L_Q^-1 with
b = Y L^-T, Y = L_Q^-1 V (split preconditioning, Saad 2003, sec. 9.2);
any other one after its whole apply, P^-1 = Q - b D^-1 b' with
b = W L^-T, W = QV (Woodbury).
Also hosts the column administration (activity, relaxation, ordering,
secant augmentation) and the update-decision policy.
"""

import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

from .problems import is_constant
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
_SECANT_PAIR = frozenset((LABEL_BFGS_Y, LABEL_BFGS_W))

# build_column_set leaves out the secant pair when the model already maps
# s to y, ||y - w|| <= SECANT_NOOP_RTOL ||y||: the BFGS update is then
# zero (Nocedal & Wright, Numerical Optimization, 2006, ch. 6), and its
# two nearly cancelling columns would only force a new B.  The measured
# ratios form two clusters.  No-op pairs, from QPs with linear
# constraints, where QN's model is exact, read at most 8.6e-9: 39 of the
# 465 pairs that reach the test on the 126-row solve grid, and 6.5e-10
# to 7.8e-9 on the obstacle workload (n = 196).  Informative pairs read
# at least 2.2e-4: the other 426, and 1.4e-2 and 5.4e-2 on the obstacle.
# 1e-6 sits two decades from each cluster.  The no-op cluster widens
# with n: on the obstacle at n = 784 and 1600 it reaches 2.9e-8 and
# 5.5e-8.
SECANT_NOOP_RTOL = 1e-6

# The updating strategy's thresholds, read when a decision is made, so a
# test can patch them on this module.  decide_update names a refresh of
# the auxiliary Q ~ M^-1 only past DELTA_M, and of B alone on a change
# of the column count or past DELTA_V; build_column_set relaxes small
# constraint columns away, judged on the whole column even when the set
# holds only the free rows.
DELTA_M = 0.1   # bound on ||M - M_prev||_1 that keeps the auxiliary
DELTA_V = 0.01  # bound on a shared column's 1-norm change that keeps B
EPS_V = 1e-3    # a column of 2-norm at most EPS_V is relaxed away ...
EPS_C = 1e-3    # ... when its constraint's infeasibility is at most EPS_C


def _check_finite(a):
    """Raise ValueError unless every entry of `a` is finite.  A finite
    sum proves it without a temporary the size of `a` (a NaN or an
    infinity makes the sum NaN or infinite); only a sum that is not
    finite, which an overflow can also give, reads the entries."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
    if not (np.isfinite(total) or np.isfinite(a).all()):
        raise ValueError("columns must be finite")


class ColumnSet:
    """
    Ordered dense columns with per-column signs and provenance labels.
    Columns are stored pre-scaled (sqrt(rho), sqrt(nu), sqrt(psi)), so the
    correction uses unit coefficients with a sign only.

    Immutable: `columns` and `signs` are read-only copies of what the
    caller passed, so a preconditioner built on a ColumnSet stays valid
    for as long as it is used.  `columns` must be an (n, k) array, k
    columns of length n, k = 0 included; every set stores it column-major,
    so each column is contiguous and BLAS products round the same way
    whichever way the set was made.  Sets built inside this module
    (`build_column_set`, `permuted`) hand over the array they have just
    gathered, which is frozen instead of copied.  Labels must be
    distinct: dropping a column by label and pairing the columns of two
    sets go by label.

    A set that `build_column_set` made from a constant Jacobian records
    what it was gathered from (`_source`: a weak reference to the
    Jacobian, rho and the free set), so that a later build can hand it
    back instead of gathering it again.
    """

    _source = None

    def __init__(self, n, columns, signs, labels, notes=()):
        self._hold(n, np.array(columns, dtype=np.float64, order="F"),
                   signs, labels, notes)
        _check_finite(self.columns)

    @classmethod
    def _owning(cls, n, columns, signs, labels, notes=()):
        """A set on `columns`, a new column-major float64 array that
        nothing else holds: it is frozen, not copied.  Its entries are
        not checked: `build_column_set` has checked its gathered array,
        and `permuted` gathers from a set that was checked."""
        cols = cls.__new__(cls)
        cols._hold(n, columns, signs, labels, notes)
        return cols

    def _hold(self, n, columns, signs, labels, notes):
        if isinstance(n, bool):  # an int, so read as 0 or 1
            raise ValueError("n must be an integer, got %r" % (n,))
        if columns.ndim != 2 or columns.shape[0] != n:
            raise ValueError("columns must be an (n, k) array with n = %d, "
                             "got shape %s" % (n, columns.shape))
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
        return ColumnSet._owning(self.n,
                                 np.asfortranarray(self.columns[:, order]),
                                 self.signs[order],
                                 [self.labels[i] for i in order], self.notes)

    def without_labels(self, labels):
        """The set without the columns `labels` names.  The secant pair
        goes together: naming either of its columns drops both."""
        labels = set(labels)
        if labels & _SECANT_PAIR:
            labels |= _SECANT_PAIR
        keep = [i for i, lab in enumerate(self.labels) if lab not in labels]
        return self.permuted(keep)


@dataclass
class BStore:
    """The Sherman-Morrison form of a column set V, from the factor
    K = L D L' of its capacitance matrix: the n x m array b, the
    denominators d_i = s_i D_ii and the weights s_i / d_i = 1 / D_ii
    that every apply takes.  In the Woodbury form b = W L^-T, W = QV, so
    column i is P_{i-1}^-1 v_i and d_i = 1 + s_i v_i' b_i.  In the split
    form b = Y L^-T, Y = L_Q^-1 V, so L_Q^-T b is the Woodbury form's b.
    b is a column-major n x m array of its own, sharing no memory with
    the column set; L is not kept, since no apply reads it."""
    b: np.ndarray
    denoms: np.ndarray
    weights: np.ndarray


def _denom_floor(v):
    """Breakdown floor of the denominator of v, or of each column of v,
    from its squared norm, taken without a temporary the size of v."""
    return 1e-12 * (1.0 + np.vecdot(v, v, axis=0))


def _breakdown(label):
    return DenominatorBreakdownError(
        "near-singular correction at column %r" % (label,), label=label)


def _factor(k, cols):
    """The unit lower triangular L and the pivots D of the unpivoted
    K = L D L', K the symmetric m x m `k` (overwritten) of the set
    `cols`.  Pivot i is s_i d_i, d_i the Sherman-Morrison denominator of
    column i after the columns before it.  K's leading block over the run
    of +1 signs is I plus a Gram matrix, so positive definite: one LAPACK
    Cholesky R R' factors it, with L = R diag(R)^-1 and D = diag(R)^2.
    The columns from the first -1 sign on (in the solver, the secant w)
    are eliminated one at a time.  Pivots are checked against their floor
    in column order, so a breakdown raises DenominatorBreakdownError with
    the label of the first column whose pivot is below it."""
    m, labels = cols.m, cols.labels
    floors = _denom_floor(cols.columns)
    negative = np.flatnonzero(cols.signs < 0.0)
    p = negative[0] if negative.size else m
    lower = np.eye(m, order="F")
    pivots = np.empty(m)
    if p:
        r, info = dpotrf(k[:p, :p], lower=1)
        d = np.square(r.diagonal())
        # A failed Cholesky formed the pivots before column info - 1 only.
        done = info - 1 if info else p
        below = np.flatnonzero(d[:done] < floors[:done])
        first = below[0] if below.size else done
        if first < p:
            raise _breakdown(labels[first])
        lower[:p, :p] = r / r.diagonal()
        pivots[:p] = d
        if p < m:
            x = dtrsm(1.0, r, k[p:, :p], side=1, lower=1, trans_a=1)
            lower[p:, :p] = x / r.diagonal()
            k[p:, p:] -= x @ x.T
    for i in range(p, m):
        if abs(k[i, i]) < floors[i]:
            raise _breakdown(labels[i])
        lower[i + 1:, i] = k[i + 1:, i] / k[i, i]
        k[i + 1:, i + 1:] -= lower[i + 1:, i, None] * k[i, i + 1:]
    # Step i leaves k[i, i] alone from then on: the diagonal is D.
    pivots[p:] = k.diagonal()[p:]
    return lower, pivots


def assemble_B(aux, cols):
    """
    Factor the capacitance matrix K = S + V'QV as an unpivoted L D L'
    (Hager 1989; `_factor`) and form b (see BStore).  With a split
    auxiliary (`aux.split`), Y = L_Q^-1 V by one forward block solve,
    K = S + Y'Y, exactly symmetric, and b = Y L^-T; otherwise W = QV by
    one block apply, K = S + V'W, symmetrised, and b = W L^-T.  Cost:
    that block solve or apply, O(m^2 n) in BLAS, one m x m LAPACK
    Cholesky, and a loop over the columns from the first -1 sign on.  A
    pivot below its floor raises DenominatorBreakdownError with its
    column's label.  Beside `cols`, it holds one n x m array, b, formed
    in place of Y or W.
    """
    v, signs = cols.columns, cols.signs
    if aux.split:
        y = aux.apply(v, half="forward")
        k = y.T @ y + np.diag(signs)
    else:
        y = aux.apply(v)
        k = v.T @ y
        k = 0.5 * (k + k.T) + np.diag(signs)
    lower, pivots = _factor(k, cols)
    # b overwrites Y or W, which the auxiliary made for this call in the
    # set's column-major layout, as dtrsm needs it.
    b = dtrsm(1.0, lower, y, side=1, lower=1, trans_a=1, diag=1,
              overwrite_b=1)
    denoms = signs * pivots
    return BStore(b, denoms, signs / denoms)


def _apply(bs, aux, r):
    """P^-1 r, unrefined, for a vector r or an (n, j) block: one
    correction step x - b (weights * b'y).  Split form: x = y = L_Q^-1 r,
    corrected between the halves, then h = L_Q^-T x, so two triangular
    solves and two n x m products.  Woodbury form: x = Qr and y = r,
    corrected after the whole apply, so one auxiliary apply and two
    n x m products."""
    if aux.split:
        x = y = aux.apply(r, half="forward")
    else:
        x, y = aux.apply(r), r
    t = bs.b.T @ y
    t *= bs.weights if t.ndim == 1 else bs.weights[:, None]
    x -= bs.b @ t
    return aux.apply(x, half="backward") if aux.split else x


class StructuredPrecond:
    """
    An (aux, cols, B) bundle exposed as a single apply contract.  It
    assembles its own B from aux and cols, both immutable, so B always
    belongs to them.  `apply` takes a vector of length n or an (n, j)
    block; a block gives the same result as applying each column.

    The apply is [M + sum s_i v_i v_i']^-1 r in exact arithmetic when
    the auxiliary is exact.  Both forms are one correction step
    x - b D^-1 (b'y) on B's stored b.  With a split auxiliary (IC) it runs
    between the halves, x = y = L_Q^-1 r, and h = L_Q^-T x: the
    auxiliary's two triangular solves and two n x m products.  Otherwise
    it runs after the whole apply, x = Qr and y = r, which is the
    Woodbury form Qr - W K^-1 W'r: one auxiliary apply and two n x m
    products.  The Woodbury form is not backward stable (Yip 1986), so
    with an exact auxiliary (`aux.inverts` set) the apply is followed by
    one step of iterative refinement (Skeel 1980),
    h <- h + P^-1 (r - (M + sum s_i v_i v_i') h), against the M that the
    auxiliary factored; with an inexact auxiliary 2P^-1 - P^-1 H P^-1 can
    be indefinite, so that case is left alone.

    Where the exact case loses accuracy, as the worst relative residual
    ||r - H P^-1 r|| / ||r|| for r = H x (n = 50, three standard-normal
    columns scaled by sqrt(rho), rho = 1, 10, ..., 1e10; Jacobi on a
    diagonal M, uniform on [0.5, 50], and `exact` on the dense SPD
    M = A A'/n + I, A standard normal; seeds 0-99, five x each, as in
    TestExactRefinement; one BLAS thread):

        rho          <=1e6    1e7      1e8      1e9      1e10
        refined      4.6e-15  8.1e-14  7.6e-12  4.0e-10  3.4e-8
        unrefined    2.5e-8   3.0e-7   2.6e-6   2.0e-5   2.1e-4

    The unrefined residual grows about linearly in rho from 2e-14 at
    rho=1; a dense LAPACK solve of the same systems stays at or below
    4e-15 at every rho.
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
        signs = self.cols.signs if h.ndim == 1 else self.cols.signs[:, None]
        resid = r - m.matvec(h) - v @ (signs * (v.T @ h))
        return h + _apply(self.bs, self.aux, resid)


def column_norms(jacobian):
    """The 2-norm of each column of `jacobian`, without an n x m
    temporary."""
    jacobian = np.asarray(jacobian, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->j", jacobian, jacobian))


def build_column_set(jacobian, equality, c_vals, multipliers, rho,
                     secant=None, free=None, norms=None, held=None):
    """
    Assemble the preconditioner columns from constraint data: `jacobian`
    is n x m with column i the gradient of c_i, and `equality` is the
    problem's boolean mask of equality constraints.

    Keeps equality columns always and inequality columns only while their
    shifted multiplier is positive; relaxes columns that are small in both
    gradient norm and infeasibility (at most EPS_V and EPS_C); scales
    survivors by sqrt(rho); orders by descending infeasibility, then
    descending norm, then index; and appends the two secant-correction
    columns last when the curvature condition holds.  `secant` is (s, y,
    w) with w = H+ s, the model's Hessian without the secant correction
    applied to the step s.  The pair is left out, with the note
    "correction skipped", when s'w <= 0, and, with the note "secant
    reproduced", when the model already maps s to y, ||y - w|| <=
    SECANT_NOOP_RTOL ||y|| = 1e-6 ||y||: its BFGS update is then zero, and
    leaving it out keeps the set, and so B, unchanged between iterations
    that differ only in the pair.  No-op pairs measured at most 5.5e-8 and
    informative ones at least 2.2e-4 (see SECANT_NOOP_RTOL).

    With `free`, an index array of variables, the set holds only the rows
    `free` of those columns: which columns are kept, their order and the
    secant test go by the whole columns and vectors, so the set is the
    full one cut down.  A column that vanishes on those rows is kept and
    does no harm: its row and column of the capacitance matrix are zero
    off the diagonal, so its pivot is its sign, far above its floor, and
    its column of b is zero.

    `norms` are `column_norms(jacobian)`, computed here when the caller
    does not have them.

    `held`, a set this function built before (the one a preconditioner
    holds), is returned unchanged, with no gather and no finiteness scan,
    when it cannot differ from the set this call would build: the
    Jacobian is a constant (`problems.is_constant`) and the same object,
    rho is equal, `free` is the same object, the kept labels form the
    same set, the notes are equal, and neither set carries the secant
    pair.  Its columns are then those of the new set, in the held order.

    Every set is column-major.  The kept constraint columns and the
    secant pair are gathered and scaled one column at a time, straight
    into one preallocated column-major block that the ColumnSet keeps, so
    beside the input the build holds one n x m array and one column.
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
    # One norm per column, as column_norms sums it: the order of tied
    # columns depends on the last bit.
    norm = (column_norms(jacobian) if norms is None else norms)[idx]
    keep = (norm > EPS_V) | (infeas > EPS_C)
    # A NaN norm compares False: its column would be relaxed away unseen.
    # A kept column is checked below, on the rows the set holds.
    if np.isnan(norm[~keep]).any():
        raise ValueError("columns must be finite")
    idx, infeas, norm = idx[keep], infeas[keep], norm[keep]
    order = idx[np.lexsort((idx, -norm, -infeas))]
    signs = [1.0] * order.size
    labels = order.tolist()
    notes = []

    pair = []
    if secant is not None:
        s, y, w = (np.asarray(a, dtype=np.float64) for a in secant)
        sy, y_norm = float(s @ y), np.linalg.norm(y)
        if sy >= 1e-8 * np.linalg.norm(s) * y_norm and sy > 0.0:
            sw = float(s @ w)
            if sw <= 0.0:
                notes.append("correction skipped")
            elif np.linalg.norm(y - w) <= SECANT_NOOP_RTOL * y_norm:
                notes.append("secant reproduced")
            else:
                pair = [(y, np.sqrt(1.0 / sy)), (w, np.sqrt(1.0 / sw))]
                signs += [1.0, -1.0]
                labels += [LABEL_BFGS_Y, LABEL_BFGS_W]

    source = held._source if held is not None else None
    if (source is not None and source[0]() is jacobian
            and is_constant(jacobian) and source[1] == rho
            and source[2] is free and not pair
            and held.notes == tuple(notes)
            and set(held.labels) == set(labels)):
        return held

    rows, size = ((slice(None), jacobian.shape[0]) if free is None
                  else (free, len(free)))
    # One scaled column at a time, straight into a block allocated
    # transposed, so it is column-major.
    columns = np.empty((len(signs), size)).T
    sources = [(jacobian[:, i], np.sqrt(rho)) for i in order.tolist()]
    for j, (u, scale) in enumerate(sources + pair):
        np.multiply(u[rows], scale, out=columns[:, j])
    _check_finite(columns)
    cols = ColumnSet._owning(size, columns, signs, labels, notes)
    if is_constant(jacobian):
        cols._source = weakref.ref(jacobian), rho, free
    return cols


def decide_update(prev_m, new_m, prev_v, new_v):
    """
    Why the bundle built on M_prev and the set prev_v is refreshed for
    M and new_v: "M-changed" when ||M - M_prev||_1 exceeds DELTA_M, and
    then the auxiliary and B are rebuilt; otherwise B alone, on
    "forced-bfgs" when the column count changed as the secant pair came
    or went, on "V-changed" when it changed otherwise or when a column
    that both sets hold (by label) changed by more than DELTA_V in the
    1-norm; "none" keeps both.  It returns as soon as the reason is
    known, so the columns are compared only when neither M nor the
    count changed, and only up to the first that moved.  An M or a set
    that is the held object itself is not compared: `hessian_model`
    hands back the held ones when an inner iteration cannot have changed
    them (`build_column_set`'s `held`, `_SolveMemo.restricted`).
    """
    if prev_m is not new_m and norm1_diff(prev_m, new_m) > DELTA_M:
        return "M-changed"
    if new_v is prev_v:
        return "none"
    if prev_v.m != new_v.m:
        if (_SECANT_PAIR.intersection(prev_v.labels)
                != _SECANT_PAIR.intersection(new_v.labels)):
            return "forced-bfgs"
        return "V-changed"
    prev_position = {label: i for i, label in enumerate(prev_v.labels)}
    for j, label in enumerate(new_v.labels):
        i = prev_position.get(label)
        if (i is not None and np.abs(prev_v.columns[:, i]
                                     - new_v.columns[:, j]).sum() > DELTA_V):
            return "V-changed"
    return "none"

