import numpy as np
import pytest

from loudclass.errors import NumericError
from loudclass.optimize import minimize_lbfgs, minimize_newton


def quadratic(center, scales):
    """(value, gradient) of sum(scales * (x - center)**2)."""
    center = np.asarray(center, dtype=float)
    scales = np.asarray(scales, dtype=float)

    def fun(x):
        d = x - center
        return float(np.sum(scales * d * d))

    def grad(x):
        return 2.0 * scales * (x - center)

    return fun, grad


def rosenbrock(x):
    a, b = x
    return float((1 - a) ** 2 + 100.0 * (b - a * a) ** 2)


def rosenbrock_grad(x):
    a, b = x
    return np.array([
        -2.0 * (1 - a) - 400.0 * a * (b - a * a),
        200.0 * (b - a * a),
    ])


def test_quadratic_bowl():
    center = np.array([3.0, -2.0, 0.5, 8.0])
    result = minimize_lbfgs(*quadratic(center, [1.0, 10.0, 0.1, 4.0]),
                            np.zeros(4), gtol=1e-10)
    assert result.converged
    assert result.stop == "gtol"
    assert result.grad_inf_norm <= 1e-10
    assert result.x == pytest.approx(center, abs=1e-7)
    assert result.fun == pytest.approx(0.0, abs=1e-12)


def test_rosenbrock_valley():
    result = minimize_lbfgs(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]),
                            gtol=1e-8, max_iter=5000)
    assert result.converged
    assert result.x == pytest.approx([1.0, 1.0], abs=1e-5)


def test_iteration_budget_reported():
    result = minimize_lbfgs(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]),
                            gtol=1e-12, max_iter=3)
    assert not result.converged
    assert result.stop == "max_iter"
    assert result.iterations == 3


def test_non_finite_start_rejected():
    def bad(x):
        return float("nan")

    with pytest.raises(NumericError):
        minimize_lbfgs(bad, np.zeros_like, np.zeros(2))


def test_ftol_stops_on_flat_objective():
    # Plateau after the first step: relative improvement below ftol.
    result = minimize_lbfgs(*quadratic([0.0], [1.0]), np.array([1e-9]),
                            gtol=0.0, ftol=1e-9, max_iter=100)
    assert result.iterations < 100
    assert result.stop == "ftol"
    assert not result.converged


def test_gradient_only_at_accepted_points():
    calls = []

    def fun(x):
        calls.append(("fun", x))
        return rosenbrock(x)

    def grad(x):
        kind, valued = calls[-1]
        assert kind == "fun" and valued is x  # right after fun at this x
        calls.append(("grad", x))
        return rosenbrock_grad(x)

    result = minimize_lbfgs(fun, grad, np.array([-1.2, 1.0]), gtol=1e-8,
                            max_iter=5000)
    kinds = [kind for kind, _ in calls]
    assert kinds.count("grad") == result.iterations + 1
    assert kinds.count("fun") > kinds.count("grad")  # rejected trial steps


def test_stationary_start_is_no_descent():
    # gtol=0 is never met, and the zero gradient gives no direction to try.
    result = minimize_lbfgs(*quadratic([1.0, 2.0], [1.0, 1.0]), np.array([1.0, 2.0]),
                            gtol=0.0)
    assert result.stop == "no_descent"
    assert not result.converged
    assert result.iterations == 0


def test_line_search_failure_stops_at_the_last_point():
    # Every point but the start is infinite, so no trial step is accepted;
    # the gradient is steep enough that even the shortest trial step moves x.
    start = np.array([1.0, -1.0])

    def fun(x):
        return 0.5e6 * float(x @ x) if np.array_equal(x, start) else float("inf")

    result = minimize_lbfgs(fun, lambda x: 1e6 * x, start, gtol=1e-8)
    assert result.stop == "line_search"
    assert not result.converged
    assert result.iterations == 0
    assert np.array_equal(result.x, start)


def test_matches_scipy_on_logistic_fit(rng):
    from scipy.optimize import minimize as scipy_minimize

    from loudclass.classifiers.linear import penalized_logistic_objective

    X = rng.normal(size=(60, 4))
    w = np.array([1.5, -2.0, 0.0, 0.5])
    y = (X @ w + 0.3 * rng.normal(size=60) > 0).astype(float)
    x0 = np.zeros(5)
    objective = penalized_logistic_objective(X, y, 1e-4)

    def fun_grad(t):
        return objective(t)[:2]

    mine = minimize_lbfgs(lambda t: fun_grad(t)[0], lambda t: fun_grad(t)[1], x0,
                          gtol=1e-8, max_iter=2000)
    ref = scipy_minimize(fun_grad, x0, jac=True, method="L-BFGS-B",
                         options={"gtol": 1e-8, "maxiter": 2000})
    assert mine.fun == pytest.approx(ref.fun, abs=1e-6)


def quadratic_with_hessian(center, scales):
    fun, grad = quadratic(center, scales)

    def fun_grad_hess(x):
        return fun(x), grad(x), np.diag(2.0 * np.asarray(scales, dtype=float))

    return fun_grad_hess


def test_newton_solves_a_quadratic_in_one_step():
    center = np.array([3.0, -2.0, 0.5, 8.0])
    result = minimize_newton(quadratic_with_hessian(center, [1.0, 10.0, 0.1, 4.0]),
                             np.zeros(4), gtol=1e-10)
    assert result.converged
    assert result.stop == "gtol"
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
    assert result.stop == "max_iter"
    assert result.iterations == 2
    assert result.grad_inf_norm > 1e-12


def test_newton_line_search_failure_is_not_converged():
    # 1 + 1e-20 * |x|^2 rounds to 1 everywhere near the start, so no step
    # decreases f: the run stops at once instead of stalling to max_iter.
    def flat(x):
        return 1.0 + 1e-20 * float(x @ x), 2e-20 * x, 2e-20 * np.eye(len(x))

    result = minimize_newton(flat, np.ones(2), gtol=0.0, max_iter=100)
    assert not result.converged
    assert result.stop == "line_search"
    assert result.iterations == 0
    assert np.array_equal(result.x, np.ones(2))


def test_newton_non_finite_start_rejected():
    def bad(x):
        return float("nan"), np.zeros_like(x), np.eye(len(x))

    with pytest.raises(NumericError):
        minimize_newton(bad, np.zeros(2))
