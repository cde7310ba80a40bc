"""L2-penalized logistic regression trained by Newton's method."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..errors import ConfigurationError

# minimize_lbfgs is unused here, but perfbench/spans.py wraps this module's name.
from ..optimize import minimize_lbfgs, minimize_newton  # noqa: F401

# The L2 penalty on lr's weights, the same as nn's default ``alpha``.
ALPHA = 1e-4


def logistic_loss(z: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss of raw scores ``z`` against 0/1 targets ``y``."""
    # softplus(z) - y*z, stable for large |z|, in two buffers; the sum over
    # the length is np.mean's own add.reduce and divide.
    t = np.abs(z)
    np.log1p(np.exp(np.negative(t, out=t), out=t), out=t)
    u = np.maximum(z, 0.0)
    t += u
    t -= np.multiply(y, z, out=u)
    return float(t.sum() / len(t))


def penalized_logistic(theta: np.ndarray, X: np.ndarray, y: np.ndarray, alpha: float):
    """Mean logistic loss plus alpha * ||w||^2 / (2n), its gradient and its
    Hessian; theta packs (weights, bias) and the bias is not penalized."""
    return penalized_logistic_objective(X, y, alpha)(theta)


def penalized_logistic_objective(X: np.ndarray, y: np.ndarray, alpha: float):
    """``penalized_logistic`` as a function of theta alone. The design
    matrix with its column of ones, the ridge vector and its diagonal
    matrix are built once, not at every evaluation."""
    n = len(y)
    A = np.column_stack([X, np.ones(n)])
    ridge = np.full(A.shape[1], alpha / n)
    ridge[-1] = 0.0
    ridge_matrix = np.diag(ridge)

    def objective(theta: np.ndarray):
        z = A @ theta
        p = expit(z)
        loss = logistic_loss(z, y) + 0.5 * float(ridge @ (theta * theta))
        grad = A.T @ ((p - y) / n) + ridge * theta
        # p * (1 - p) computed as expit(z) * expit(-z) keeps its tails above zero.
        hess = (A.T * (p * expit(-z) / n)) @ A + ridge_matrix
        return loss, grad, hess

    return objective


class LogisticRegressionBinary:
    """Logistic regression for one one-vs-rest problem.

    The weights (not the bias) carry the L2 penalty ALPHA * ||w||^2 / (2n),
    so the objective is strictly convex and its minimizer unique even when
    the classes are separable. Newton's method runs from zero until the
    gradient infinity norm reaches ``gtol`` or for ``max_iter`` iterations,
    so the fit is deterministic. ``result_`` holds the optimizer's result of
    the last fit, with its stop reason; it is not part of the fitted state.
    """

    def __init__(self, *, gtol: float = 1e-6, max_iter: int = 100):
        self.gtol = gtol
        self.max_iter = max_iter
        self.weights_: np.ndarray | None = None
        self.bias_: float | None = None
        self.result_ = None

    def fit(self, X, y01) -> "LogisticRegressionBinary":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y01, dtype=np.float64)
        self.result_ = minimize_newton(
            penalized_logistic_objective(X, y, ALPHA),
            np.zeros(X.shape[1] + 1),
            gtol=self.gtol,
            max_iter=self.max_iter,
        )
        self.weights_ = self.result_.x[:-1]
        self.bias_ = float(self.result_.x[-1])
        return self

    def decision(self, X) -> np.ndarray:
        if self.weights_ is None:
            raise ConfigurationError("model is not fitted")
        return np.asarray(X, dtype=np.float64) @ self.weights_ + self.bias_

    def predict_score(self, X) -> np.ndarray:
        return expit(self.decision(X))

    def fitted_state(self) -> dict:
        return {"weights": self.weights_.tolist(), "bias": self.bias_}

    def load_fitted_state(self, state: dict) -> "LogisticRegressionBinary":
        self.weights_ = np.asarray(state["weights"], dtype=np.float64)
        self.bias_ = state["bias"]
        return self
