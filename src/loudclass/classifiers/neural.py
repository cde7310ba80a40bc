"""Small feed-forward network: rectifier hidden layers, sigmoid output,
logistic loss with an L2 weight penalty, trained full-batch by L-BFGS."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..errors import ConfigurationError
from ..optimize import minimize_lbfgs
from .linear import logistic_loss


def _layer_shapes(n_inputs: int, hidden: tuple[int, ...]) -> list[tuple[int, int]]:
    sizes = [n_inputs, *hidden, 1]
    return [(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]


def _unpack(theta: np.ndarray, shapes: list[tuple[int, int]]):
    weights, biases = [], []
    pos = 0
    for fi, fo in shapes:
        weights.append(theta[pos : pos + fi * fo].reshape(fi, fo))
        pos += fi * fo
        biases.append(theta[pos : pos + fo])
        pos += fo
    return weights, biases


class NeuralNetBinary:
    """One-vs-rest network with the fixed 20/10 hidden architecture.

    The L2 penalty follows the alpha * sum(W^2) / (2n) convention (biases
    exempt). Weights start from a seeded Glorot-uniform draw, biases from
    zero; everything after initialization is deterministic.
    """

    def __init__(
        self,
        n_inputs: int,
        *,
        seed_key: tuple[int, ...],
        hidden: tuple[int, ...] = (20, 10),
        alpha: float = 1e-4,
        max_iter: int = 3000,
        gtol: float = 1e-5,
        ftol: float | None = 1e-11,
    ):
        if any(h < 1 for h in hidden):
            raise ConfigurationError("hidden layer sizes must be >= 1")
        self.n_inputs = n_inputs
        self.hidden = tuple(hidden)
        self.alpha = alpha
        self.max_iter = max_iter
        self.gtol = gtol
        self.ftol = ftol
        self.seed_key = tuple(seed_key)
        self.shapes = _layer_shapes(n_inputs, self.hidden)
        self.theta_: np.ndarray | None = None

    def initial_parameters(self) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(list(self.seed_key)))
        parts = []
        for fi, fo in self.shapes:
            bound = np.sqrt(6.0 / (fi + fo))
            parts.append(rng.uniform(-bound, bound, size=fi * fo))
            parts.append(np.zeros(fo))
        return np.concatenate(parts)

    def _forward(self, theta: np.ndarray, X: np.ndarray):
        """Weights, each layer's input (the last is the raw score column)
        and each layer's pre-activation."""
        weights, biases = _unpack(theta, self.shapes)
        last = len(self.shapes) - 1
        activations = [X]
        pre_activations = []
        for i, (W, b) in enumerate(zip(weights, biases)):
            z = activations[-1] @ W + b
            pre_activations.append(z)
            activations.append(np.maximum(z, 0.0) if i < last else z)
        return weights, activations, pre_activations

    def loss_and_grad(self, theta: np.ndarray, X: np.ndarray, y: np.ndarray):
        """Penalized mean logistic loss and its analytic gradient."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = len(y)
        weights, activations, pre_activations = self._forward(theta, X)
        raw = activations[-1][:, 0]

        data_loss = logistic_loss(raw, y)
        penalty = self.alpha * sum(float((W * W).sum()) for W in weights) / (2.0 * n)

        n_layers = len(weights)
        grad_w, grad_b = [None] * n_layers, [None] * n_layers
        delta = ((expit(raw) - y) / n)[:, None]
        for i in range(n_layers - 1, -1, -1):
            grad_w[i] = activations[i].T @ delta + self.alpha * weights[i] / n
            grad_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i].T) * (pre_activations[i - 1] > 0.0)

        grad = np.concatenate(
            [np.concatenate([gw.ravel(), gb]) for gw, gb in zip(grad_w, grad_b)]
        )
        return data_loss + penalty, grad

    def fit(self, X, y01) -> "NeuralNetBinary":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y01, dtype=np.float64)
        result = minimize_lbfgs(
            lambda theta: self.loss_and_grad(theta, X, y),
            self.initial_parameters(),
            gtol=self.gtol,
            max_iter=self.max_iter,
            ftol=self.ftol,
        )
        self.theta_ = result.x
        return self

    def decision(self, X) -> np.ndarray:
        if self.theta_ is None:
            raise ConfigurationError("network is not fitted")
        _, activations, _ = self._forward(self.theta_, np.asarray(X, dtype=np.float64))
        return activations[-1][:, 0]

    def predict_score(self, X) -> np.ndarray:
        return expit(self.decision(X))

    def fitted_state(self) -> dict:
        return {"theta": self.theta_.tolist()}

    def load_fitted_state(self, state: dict) -> "NeuralNetBinary":
        self.theta_ = np.asarray(state["theta"], dtype=np.float64)
        return self
