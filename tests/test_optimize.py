import numpy as np
import pytest

from loudclass.errors import NumericError
from loudclass.optimize import minimize_lbfgs, minimize_newton


def quadratic(center, scales):
    center = np.asarray(center, dtype=float)
    scales = np.asarray(scales, dtype=float)

    def fun_grad(x):
        d = x - center
        return float(np.sum(scales * d * d)), 2.0 * scales * d

    return fun_grad


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
    g = np.array([
        -2.0 * (1 - a) - 400.0 * a * (b - a * a),
        200.0 * (b - a * a),
    ])
    return float(f), g


def test_quadratic_bowl():
    center = np.array([3.0, -2.0, 0.5, 8.0])
    result = minimize_lbfgs(quadratic(center, [1.0, 10.0, 0.1, 4.0]),
                            np.zeros(4), gtol=1e-10)
    assert result.converged
    assert result.grad_inf_norm <= 1e-10
    assert result.x == pytest.approx(center, abs=1e-7)
    assert result.fun == pytest.approx(0.0, abs=1e-12)


def test_rosenbrock_valley():
    result = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), gtol=1e-8,
                            max_iter=5000)
    assert result.converged
    assert result.x == pytest.approx([1.0, 1.0], abs=1e-5)


def test_iteration_budget_reported():
    result = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), gtol=1e-12,
                            max_iter=3)
    assert not result.converged
    assert result.iterations == 3


def test_non_finite_start_rejected():
    def bad(x):
        return float("nan"), np.zeros_like(x)

    with pytest.raises(NumericError):
        minimize_lbfgs(bad, np.zeros(2))


def test_ftol_stops_on_flat_objective():
    # Plateau after the first step: relative improvement below ftol.
    result = minimize_lbfgs(quadratic([0.0], [1.0]), np.array([1e-9]),
                            gtol=0.0, ftol=1e-9, max_iter=100)
    assert result.iterations < 100


def test_matches_scipy_on_logistic_fit(rng):
    from scipy.optimize import minimize as scipy_minimize

    from loudclass.classifiers import penalized_logistic

    X = rng.normal(size=(60, 4))
    w = np.array([1.5, -2.0, 0.0, 0.5])
    y = (X @ w + 0.3 * rng.normal(size=60) > 0).astype(float)
    x0 = np.zeros(5)

    def fun_grad(t):
        return penalized_logistic(t, X, y, 1e-4)[:2]

    mine = minimize_lbfgs(fun_grad, x0, gtol=1e-8, max_iter=2000)
    ref = scipy_minimize(fun_grad, x0, jac=True, method="L-BFGS-B",
                         options={"gtol": 1e-8, "maxiter": 2000})
    assert mine.fun == pytest.approx(ref.fun, abs=1e-6)


def quadratic_with_hessian(center, scales):
    fun_grad = quadratic(center, scales)

    def fun_grad_hess(x):
        return (*fun_grad(x), np.diag(2.0 * np.asarray(scales, dtype=float)))

    return fun_grad_hess


def test_newton_solves_a_quadratic_in_one_step():
    center = np.array([3.0, -2.0, 0.5, 8.0])
    result = minimize_newton(quadratic_with_hessian(center, [1.0, 10.0, 0.1, 4.0]),
                             np.zeros(4), gtol=1e-10)
    assert result.converged
    assert result.iterations == 1
    assert result.grad_inf_norm <= 1e-10
    assert result.x == pytest.approx(center, abs=1e-12)


def test_newton_iteration_budget_reported():
    # Newton's full step overshoots on log(cosh(x)) from x = 1.2, so it needs
    # the line search and several iterations.
    def log_cosh(x):
        return float(np.sum(np.log(np.cosh(x)))), np.tanh(x), np.diag(1.0 - np.tanh(x) ** 2)

    full = minimize_newton(log_cosh, np.array([1.2]), gtol=1e-12, max_iter=100)
    assert full.converged and full.iterations > 2
    result = minimize_newton(log_cosh, np.array([1.2]), gtol=1e-12, max_iter=2)
    assert not result.converged
    assert result.iterations == 2
    assert result.grad_inf_norm > 1e-12


def test_newton_line_search_failure_is_not_converged():
    # 1 + 1e-20 * |x|^2 rounds to 1 everywhere near the start, so no step
    # decreases f: the run stops at once instead of stalling to max_iter.
    def flat(x):
        return 1.0 + 1e-20 * float(x @ x), 2e-20 * x, 2e-20 * np.eye(len(x))

    result = minimize_newton(flat, np.ones(2), gtol=0.0, max_iter=100)
    assert not result.converged
    assert result.iterations == 0
    assert np.array_equal(result.x, np.ones(2))


def test_newton_non_finite_start_rejected():
    def bad(x):
        return float("nan"), np.zeros_like(x), np.eye(len(x))

    with pytest.raises(NumericError):
        minimize_newton(bad, np.zeros(2))
