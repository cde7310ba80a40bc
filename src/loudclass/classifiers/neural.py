"""Small feed-forward network: rectifier hidden layers, sigmoid output,
logistic loss with an L2 weight penalty, trained full-batch by L-BFGS.

L-BFGS values the objective at every line-search trial but needs its
gradient only at the accepted points, so a fit's objective keeps the
forward pass of the last point it valued and backpropagates from it when
the gradient is asked for.
"""

from __future__ import annotations

from typing import Annotated

import numpy as np

from ..errors import ConfigurationError
from ..optimize import minimize_lbfgs
from ..domains import Above, AtLeast
from .linear import expit, logistic_loss


def _layout(n_inputs: int, hidden: tuple[int, ...]):
    """Each layer's weight slice, weight shape and bias slice of theta."""
    sizes = [n_inputs, *hidden, 1]
    layout = []
    pos = 0
    for fi, fo in zip(sizes[:-1], sizes[1:]):
        end = pos + fi * fo
        layout.append((slice(pos, end), (fi, fo), slice(end, end + fo)))
        pos = end + fo
    return layout


def _forward(layout, theta: np.ndarray, X: np.ndarray):
    """Each layer's weight matrix and each layer's input; the last input is
    the raw score column. Hidden layers are rectified in place, so an
    activation is positive exactly where its pre-activation is."""
    last = len(layout) - 1
    weights = []
    activations = [X]
    for i, (w, shape, b) in enumerate(layout):
        W = theta[w].reshape(shape)
        z = activations[-1] @ W
        z += theta[b]
        if i < last:
            np.maximum(z, 0.0, out=z)
        weights.append(W)
        activations.append(z)
    return weights, activations


class _Objective:
    """Penalized mean logistic loss of one fit, valued and differentiated
    separately.

    ``value`` runs the forward pass and keeps it; ``gradient`` backpropagates
    from that pass, so it accepts only the point last valued.
    """

    def __init__(self, layout, alpha: float, X, y):
        self.layout = layout
        self.alpha = alpha
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self._theta: np.ndarray | None = None

    def value(self, theta: np.ndarray) -> float:
        n = len(self.y)
        weights, activations = _forward(self.layout, theta, self.X)
        data_loss = logistic_loss(activations[-1][:, 0], self.y)
        penalty = self.alpha * sum(float((W * W).sum()) for W in weights) / (2.0 * n)
        self._theta = theta.copy()
        self._weights, self._activations = weights, activations
        return data_loss + penalty

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        if self._theta is None or not np.array_equal(theta, self._theta):
            raise ValueError("gradient asked at a point other than the last one valued")
        n = len(self.y)
        weights, activations = self._weights, self._activations
        grad = np.empty(len(theta))
        delta = expit(activations[-1][:, 0])
        delta -= self.y
        delta /= n
        delta = delta[:, None]
        for i in range(len(self.layout) - 1, -1, -1):
            w, shape, b = self.layout[i]
            grad_w = grad[w].reshape(shape)
            np.matmul(activations[i].T, delta, out=grad_w)
            grad_w += self.alpha * weights[i] / n
            # np.sum(axis=0) adds the rows of a C-ordered matrix one after
            # another, and so does einsum, in a third of the time; a single
            # column numpy sums pairwise, so that one keeps np.sum.
            if shape[1] == 1:
                np.sum(delta, axis=0, out=grad[b])
            else:
                np.einsum("ij->j", delta, out=grad[b])
            if i > 0:
                # With one output column, delta @ W.T has one product per
                # entry, which broadcasting rounds the same way.
                delta = delta * weights[i].T if shape[1] == 1 else delta @ weights[i].T
                delta *= activations[i] > 0.0
        return grad


class NeuralNetBinary:
    """One-vs-rest network with the fixed 20/10 hidden architecture.

    The L2 penalty follows the alpha * sum(W^2) / (2n) convention (biases
    exempt). Weights start from a seeded Glorot-uniform draw, biases from
    zero; everything after initialization is deterministic. ``result_``
    holds the optimizer's result of the last fit, with its stop reason.
    """

    def __init__(
        self,
        n_inputs: int,
        *,
        seed_key: tuple[int, ...],
        hidden: tuple[Annotated[int, AtLeast(1)], ...] = (20, 10),
        alpha: Annotated[float, AtLeast(0)] = 1e-4,
        max_iter: Annotated[int, AtLeast(1)] = 3000,
        gtol: Annotated[float, Above(0)] = 1e-5,
        ftol: Annotated[float, Above(0)] | None = 1e-11,
    ):
        self.n_inputs = n_inputs
        self.hidden = tuple(hidden)
        self.alpha = alpha
        self.max_iter = max_iter
        self.gtol = gtol
        self.ftol = ftol
        self.seed_key = tuple(seed_key)
        self.layout = _layout(n_inputs, self.hidden)
        self.theta_: np.ndarray | None = None
        self.result_ = None

    def initial_parameters(self) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(list(self.seed_key)))
        parts = []
        for _, (fi, fo), _ in self.layout:
            bound = np.sqrt(6.0 / (fi + fo))
            parts.append(rng.uniform(-bound, bound, size=fi * fo))
            parts.append(np.zeros(fo))
        return np.concatenate(parts)

    def fit(self, X, y01) -> "NeuralNetBinary":
        objective = _Objective(self.layout, self.alpha, X, y01)
        self.result_ = minimize_lbfgs(
            objective.value,
            objective.gradient,
            self.initial_parameters(),
            gtol=self.gtol,
            max_iter=self.max_iter,
            ftol=self.ftol,
        )
        self.theta_ = self.result_.x
        return self

    def decision(self, X) -> np.ndarray:
        if self.theta_ is None:
            raise ConfigurationError("network is not fitted")
        _, activations = _forward(self.layout, self.theta_, np.asarray(X, dtype=np.float64))
        return activations[-1][:, 0]

    def predict_score(self, X) -> np.ndarray:
        return expit(self.decision(X))

    def fitted_state(self) -> dict:
        return {"theta": self.theta_.tolist()}

    def load_fitted_state(self, state: dict) -> "NeuralNetBinary":
        self.theta_ = np.asarray(state["theta"], dtype=np.float64)
        return self
