"""Unregularized logistic regression trained by deterministic L-BFGS."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..errors import ConfigurationError
from ..optimize import minimize_lbfgs


def logistic_loss_and_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Mean logistic loss and its gradient; theta packs (weights, bias)."""
    w, b = theta[:-1], theta[-1]
    z = X @ w + b
    # softplus(z) - y*z, stable for large |z|
    loss = float(np.mean(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0) - y * z))
    delta = (expit(z) - y) / len(y)
    grad = np.concatenate([X.T @ delta, [delta.sum()]])
    return loss, grad


class LogisticRegressionBinary:
    """Plain logistic regression for one one-vs-rest problem.

    No regularization; optimization runs until the gradient infinity norm
    drops below ``gtol`` or ``max_iter`` iterations. Zero initialization
    makes the fit deterministic.
    """

    def __init__(self, *, gtol: float = 1e-6, max_iter: int = 10000):
        self.gtol = gtol
        self.max_iter = max_iter
        self.weights_: np.ndarray | None = None
        self.bias_: float | None = None

    def fit(self, X, y01) -> "LogisticRegressionBinary":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y01, dtype=np.float64)
        theta0 = np.zeros(X.shape[1] + 1)
        result = minimize_lbfgs(
            lambda theta: logistic_loss_and_grad(theta, X, y),
            theta0,
            gtol=self.gtol,
            max_iter=self.max_iter,
        )
        self.weights_ = result.x[:-1]
        self.bias_ = float(result.x[-1])
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
