"""Built-in problem library: derivative consistency and known solutions."""

import numpy as np
import pytest

from almprec.problems import (NlpProblem, equality_mask, get_problem,
                              problem_names)


def central_diff(fun, x, h=1e-6):
    n = x.size
    out = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return out


@pytest.mark.parametrize("name", problem_names())
class TestDerivatives:
    def test_gradient(self, name):
        p = get_problem(name)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(p.n)
            np.testing.assert_allclose(p.grad(x),
                                       central_diff(p.f, x),
                                       rtol=1e-5, atol=1e-5)

    def test_hessian(self, name):
        p = get_problem(name)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(p.n)
        h = 1e-6
        fd = np.empty((p.n, p.n))
        for i in range(p.n):
            e = np.zeros(p.n)
            e[i] = h
            fd[:, i] = (p.grad(x + e) - p.grad(x - e)) / (2 * h)
        np.testing.assert_allclose(p.hess(x), fd, rtol=1e-4, atol=1e-4)

    def test_constraint_jacobian(self, name):
        p = get_problem(name)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(p.n)
        jac = p.jac_cols(x)
        assert jac.shape == (p.n, p.m)
        for i in range(p.m):
            np.testing.assert_allclose(
                jac[:, i],
                central_diff(lambda z: p.cons(z)[i], x),
                rtol=1e-5, atol=1e-5)

    def test_constraint_hessians(self, name):
        p = get_problem(name)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(p.n)
        h = 1e-6
        for i in range(p.m):
            fd = np.empty((p.n, p.n))
            for j in range(p.n):
                e = np.zeros(p.n)
                e[j] = h
                fd[:, j] = (p.jac_cols(x + e)[:, i]
                            - p.jac_cols(x - e)[:, i]) / (2 * h)
            np.testing.assert_allclose(p.cons_hess(i, x), fd,
                                       rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("name", problem_names())
def test_known_solution_is_feasible_and_matches_f_star(name):
    p = get_problem(name)
    x = p.solution
    assert np.all(x >= p.lower - 1e-8) and np.all(x <= p.upper + 1e-8)
    c = p.cons(x)
    for i, kind in enumerate(p.kinds):
        if kind == "equality":
            assert abs(c[i]) < 1e-6
        else:
            assert c[i] < 1e-6
    assert p.f(x) == pytest.approx(p.f_star, abs=1e-6)


def test_equality_mask_marks_equalities():
    mask = equality_mask(("equality", "inequality", "equality"))
    assert mask.dtype == bool and mask.tolist() == [True, False, True]
    assert equality_mask(()).shape == (0,)
    assert not mask.flags.writeable


def test_unknown_constraint_kind_rejected_at_construction():
    p = get_problem("EQ-QP")
    with pytest.raises(ValueError, match="unknown constraint kind 'equalty'"):
        NlpProblem(name=p.name, n=p.n, x0=p.x0, kinds=("equalty",), f=p.f,
                   grad=p.grad, hess=p.hess, cons=p.cons,
                   jac_cols=p.jac_cols, cons_hess=p.cons_hess)


def _with(p, **changes):
    """`p` rebuilt from its fields with `changes`."""
    fields = dict(name=p.name, n=p.n, x0=p.x0, kinds=p.kinds, f=p.f,
                  grad=p.grad, hess=p.hess, cons=p.cons, jac_cols=p.jac_cols,
                  cons_hess=p.cons_hess, lower=p.lower, upper=p.upper)
    return NlpProblem(**{**fields, **changes})


@pytest.mark.parametrize("name", ["x0", "lower", "upper"])
def test_point_and_bounds_of_the_wrong_shape_rejected(name):
    p = get_problem("HS48")
    for value in (np.zeros(p.n - 1), np.zeros((p.n, 1)), 0.0):
        with pytest.raises(ValueError, match="^%s must have shape" % name):
            _with(p, **{name: value})


@pytest.mark.parametrize("name", ["x0", "lower", "upper"])
def test_nan_in_point_or_bounds_rejected(name):
    p = get_problem("HS48")
    value = np.zeros(p.n)
    value[1] = np.nan
    with pytest.raises(ValueError, match="^%s must not hold NaN" % name):
        _with(p, **{name: value})


def test_infinite_bounds_stay_legal():
    p = get_problem("HS48")
    q = _with(p, lower=np.full(p.n, -np.inf), upper=[np.inf] * p.n)
    assert q.upper.dtype == np.float64 and np.isinf(q.upper).all()


def test_unknown_problem_lists_available():
    with pytest.raises(KeyError, match="available"):
        get_problem("nope")


def test_problem_names_sorted():
    names = problem_names()
    assert names == sorted(names)
    assert "EQ-QP" in names and "HS63" in names
