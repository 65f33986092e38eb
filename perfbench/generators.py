"""
Seeded input generators for the benchmark workloads, each with the
benchmark's own reference check.  Nothing here calls into almprec except
to wrap generated data in its public types (SparseSymmetricMatrix,
NlpProblem); every check is computed with numpy/scipy alone.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from almprec.problems import NlpProblem
from almprec.sparse import SparseSymmetricMatrix

# Edge coefficients of the variable-coefficient Laplacians are log-uniform
# in [1/CONTRAST, CONTRAST].
CONTRAST = 2.0


def laplacian_2d(k, rng=None):
    """
    5-point Laplacian of -div(a grad u) on the interior of a k x k grid
    with Dirichlet boundary, as a scipy CSR matrix.  With `rng`, each edge
    coefficient is log-uniform in [1/CONTRAST, CONTRAST]; without, all
    coefficients are 1 (the plain 4/-1 stencil).
    """
    n = k * k
    idx = np.arange(n).reshape(k, k)

    def coeffs(shape):
        if rng is None:
            return np.ones(shape)
        return CONTRAST ** rng.uniform(-1.0, 1.0, size=shape)

    # Horizontal edges: (k) rows x (k+1) edges; vertical: (k+1) x (k).
    ah = coeffs((k, k + 1))
    av = coeffs((k + 1, k))
    diag = (ah[:, :-1] + ah[:, 1:] + av[:-1, :] + av[1:, :]).ravel()
    rows = [np.arange(n), idx[:, 1:].ravel(), idx[1:, :].ravel()]
    cols = [np.arange(n), idx[:, :-1].ravel(), idx[:-1, :].ravel()]
    vals = [diag, -ah[:, 1:-1].ravel(), -av[1:-1, :].ravel()]
    lower = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    return (lower + scipy.sparse.tril(lower, k=-1).T).tocsr()


def to_symmetric(csr):
    """almprec's lower-triangle storage of a symmetric scipy matrix."""
    low = scipy.sparse.tril(csr).tocoo()
    return SparseSymmetricMatrix(csr.shape[0], low.row, low.col, low.data)


def patch_columns(k, m, width, rng, values="normal"):
    """
    m dense n-vectors, each supported on a width x width patch of the
    k x k grid.  The patches sit on a fixed lattice, so the seed moves
    values, not geometry.  `values="normal"` gives unit-norm Gaussian
    entries drawn from `rng`,
    `"flat"` a unit-norm constant on the patch.
    """
    n = k * k
    out = np.zeros((n, m))
    idx = np.arange(n).reshape(k, k)
    rows = int(np.floor(np.sqrt(m)))
    cols = -(-m // rows)
    top = np.linspace(0, k - width, rows).round().astype(int)
    left = np.linspace(0, k - width, cols).round().astype(int)
    for j in range(m):
        r, c = top[j % rows], left[j // rows]
        support = idx[r:r + width, c:c + width].ravel()
        if values == "normal":
            w = rng.standard_normal(support.size)
            out[support, j] = w / np.linalg.norm(w)
        else:
            out[support, j] = 1.0 / np.sqrt(support.size)
    return out


def _frozen(a):
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# linsys-rho-sweep: (M + rho V V') x = b over a rho sweep
# ---------------------------------------------------------------------------

RHO_SWEEP = tuple(10.0 ** e for e in range(7))
# V has LINSYS_COLUMNS columns, each on a LINSYS_PATCH x LINSYS_PATCH patch.
LINSYS_COLUMNS = 20
LINSYS_PATCH = 4


@dataclass
class LinsysInputs:
    m_sym: SparseSymmetricMatrix
    m_csr: scipy.sparse.csr_matrix
    v: np.ndarray
    b: np.ndarray
    rhos: tuple = RHO_SWEEP


def linsys_inputs(seed, k):
    rng = np.random.default_rng([seed, 1])
    m_csr = laplacian_2d(k, rng)
    v = _frozen(patch_columns(k, LINSYS_COLUMNS, LINSYS_PATCH, rng))
    b = _frozen(rng.standard_normal(k * k))
    return LinsysInputs(to_symmetric(m_csr), m_csr, v, b)


def linsys_residual(inp, rho, x):
    """True relative residual ||b - (M + rho V V')x|| / ||b||."""
    hx = inp.m_csr @ x + rho * (inp.v @ (inp.v.T @ x))
    return float(np.linalg.norm(inp.b - hx) / np.linalg.norm(inp.b))


# ---------------------------------------------------------------------------
# alm-eq-tn: convex Poisson QP with sparse equality rows, no bounds
# ---------------------------------------------------------------------------

# EQ_ROWS equality rows, each an average over an EQ_PATCH x EQ_PATCH patch.
EQ_ROWS = 20
EQ_PATCH = 3


def poisson_eq_qp(seed, k):
    """
    min 1/2 x'Qx - c'x  s.t.  A'x = d, with Q a variable-coefficient
    5-point Laplacian, c = h^2 f for a positive source f, and each column
    of A unit-norm and constant on a grid patch.  Returns the problem and
    the x part of the KKT solution from a direct sparse solve of
    [Q A; A' 0] [x; lambda] = [c; d].
    """
    rng = np.random.default_rng([seed, 2])
    n = k * k
    h = 1.0 / (k + 1)
    q_csr = laplacian_2d(k, rng)
    c = h * h * rng.uniform(0.5, 1.5, size=n)
    a = patch_columns(k, EQ_ROWS, EQ_PATCH, rng, values="flat")
    d = 0.1 * rng.uniform(0.9, 1.1, size=EQ_ROWS)

    q_dense, a_fro = _frozen(q_csr.toarray()), _frozen(a)
    c_fro, zero = _frozen(c), _frozen(np.zeros((n, n)))

    problem = NlpProblem(
        name="POISSON-EQ-QP", n=n, x0=np.zeros(n),
        kinds=("equality",) * EQ_ROWS,
        f=lambda x: float(0.5 * x @ (q_csr @ x) - c_fro @ x),
        grad=lambda x: q_csr @ x - c_fro,
        hess=lambda x: q_dense,
        cons=lambda x: a_fro.T @ x - d,
        jac_cols=lambda x: a_fro,
        cons_hess=lambda i, x: zero)

    a_sp = scipy.sparse.csr_matrix(a)
    kkt = scipy.sparse.bmat([[q_csr, a_sp], [a_sp.T, None]], format="csc")
    return problem, scipy.sparse.linalg.spsolve(
        kkt, np.concatenate([c, d]))[:n]


def eq_qp_error(x_ref, x):
    """||x - x*||_inf / max(1, ||x*||_inf)."""
    return float(np.max(np.abs(x - x_ref))
                 / max(1.0, float(np.max(np.abs(x_ref)))))


# ---------------------------------------------------------------------------
# alm-obstacle-pspg: obstacle problem with averaged-cap inequality rows
# ---------------------------------------------------------------------------

# Quadrants 0 and 2 get a cap that binds at the solution, 1 and 3 one
# that does not.
CAP_SCALE = (0.8, 1.5, 0.8, 1.5)


def obstacle_problem(seed, k):
    """
    MINPACK-2 style obstacle problem on the unit square: minimise
    1/2 v'Lv - h^2 f'v with L the 5-point Laplacian, between the
    obstacles (sin(9.2x) sin(9.3y))^3 and (sin(9.2x) sin(9.3y))^2 + 0.02,
    plus one inequality per grid quadrant capping the quadrant's mean of
    v.  The source is f = 6 perturbed by the seed by up to 10% per node.
    Caps are CAP_SCALE times (0.02 plus the quadrant mean of the positive
    part of the lower obstacle).
    """
    rng = np.random.default_rng([seed, 3])
    n = k * k
    h = 1.0 / (k + 1)
    grid = h * np.arange(1, k + 1)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    s = np.sin(9.2 * xx) * np.sin(9.3 * yy)
    lower = (s ** 3).ravel()
    upper = (s ** 2 + 0.02).ravel()
    l_csr = laplacian_2d(k)
    f = h * h * 6.0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=n))

    half = k // 2
    quads = np.zeros((n, 4))
    idx = np.arange(n).reshape(k, k)
    for q, (rs, cs) in enumerate([(slice(0, half), slice(0, half)),
                                  (slice(0, half), slice(half, k)),
                                  (slice(half, k), slice(0, half)),
                                  (slice(half, k), slice(half, k))]):
        support = idx[rs, cs].ravel()
        quads[support, q] = 1.0 / support.size
    caps = np.asarray(CAP_SCALE) * (
        0.02 + quads.T @ np.maximum(lower, 0.0))

    l_dense, quads_fro = _frozen(l_csr.toarray()), _frozen(quads)
    f_fro, zero = _frozen(f), _frozen(np.zeros((n, n)))
    return NlpProblem(
        name="OBSTACLE", n=n, x0=np.clip(np.zeros(n), lower, upper),
        kinds=("inequality",) * 4,
        f=lambda v: float(0.5 * v @ (l_csr @ v) - f_fro @ v),
        grad=lambda v: l_csr @ v - f_fro,
        hess=lambda v: l_dense,
        cons=lambda v: quads_fro.T @ v - caps,
        jac_cols=lambda v: quads_fro,
        cons_hess=lambda i, v: zero,
        lower=lower, upper=upper)


def kkt_error(problem, x, lam):
    """
    The benchmark's own first-order check from the problem callables and
    the reported multipliers: projected-gradient norm of the Lagrangian,
    constraint and bound violation, complementarity, multiplier sign.
    Returns the largest of them.
    """
    grad_l = problem.grad(x) + problem.jac_cols(x) @ lam
    proj = np.minimum(np.maximum(x - grad_l, problem.lower), problem.upper)
    c = problem.cons(x)
    ineq = np.array([kind == "inequality" for kind in problem.kinds])
    parts = [
        np.max(np.abs(proj - x), initial=0.0),
        np.max(np.abs(c[~ineq]), initial=0.0),
        np.max(np.maximum(c[ineq], 0.0), initial=0.0),
        np.max(np.abs(np.minimum(-c[ineq], lam[ineq])), initial=0.0),
        np.max(np.maximum(-lam[ineq], 0.0), initial=0.0),
        np.max(np.maximum(problem.lower - x, 0.0), initial=0.0),
        np.max(np.maximum(x - problem.upper, 0.0), initial=0.0),
    ]
    return float(max(parts))
