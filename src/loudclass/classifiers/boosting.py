"""Gradient boosting on logistic loss with depth-2 regression trees."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from ..errors import ConfigurationError
from .tree import TreeNode, build_tree, presort, tree_predict

_HESSIAN_EPS = 1e-16


def _log_loss(y: np.ndarray, raw: np.ndarray) -> float:
    # softplus(raw) - y*raw, stable for large |raw|
    return float(np.mean(np.log1p(np.exp(-np.abs(raw))) + np.maximum(raw, 0.0) - y * raw))


class GradientBoostingBinary:
    """Additive model of regression trees fitted to logistic-loss residuals.

    Each stage fits a depth-limited squared-error tree to y - p and replaces
    leaf means with Newton steps sum(r)/sum(p(1-p)). When the configured
    learning rate overshoots (possible at 1.0), the stage's contribution is
    halved until training loss is non-increasing, so the staged-loss
    invariant holds by construction.
    """

    def __init__(
        self,
        *,
        n_estimators: int = 100,
        learning_rate: float = 1.0,
        max_depth: int = 2,
        min_samples_split: int = 2,
    ):
        if n_estimators < 1:
            raise ConfigurationError("n_estimators must be >= 1")
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.base_score_: float | None = None
        self.stages_: list[tuple[TreeNode, float]] | None = None
        self.train_losses_: list[float] | None = None

    def fit(self, X, y01) -> "GradientBoostingBinary":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y01, dtype=np.float64)
        order = presort(X)  # X is the same for every stage
        base_rate = min(max(float(y.mean()), 1e-10), 1.0 - 1e-10)
        self.base_score_ = math.log(base_rate / (1.0 - base_rate))
        raw = np.full(len(y), self.base_score_)
        self.stages_ = []
        self.train_losses_ = [_log_loss(y, raw)]
        for _ in range(self.n_estimators):
            p = expit(raw)
            residual = y - p
            hessian = p * (1.0 - p)

            def newton_leaf(idx, residual=residual, hessian=hessian) -> float:
                return float(residual[idx].sum() / (hessian[idx].sum() + _HESSIAN_EPS))

            tree = build_tree(
                X,
                residual,
                order,
                criterion="mse",
                min_samples_split=self.min_samples_split,
                max_depth=self.max_depth,
                leaf_value=newton_leaf,
            )
            step = tree_predict(tree, X)
            previous = self.train_losses_[-1]
            scale = self.learning_rate
            for _ in range(30):
                loss = _log_loss(y, raw + scale * step)
                if loss <= previous + 1e-12:
                    break
                scale *= 0.5
            else:
                scale, loss = 0.0, previous
            raw = raw + scale * step
            self.stages_.append((tree, scale))
            self.train_losses_.append(loss)
        return self

    def decision(self, X) -> np.ndarray:
        if self.base_score_ is None:
            raise ConfigurationError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        raw = np.full(len(X), self.base_score_)
        for tree, scale in self.stages_:
            if scale != 0.0:
                raw += scale * tree_predict(tree, X)
        return raw

    def predict_score(self, X) -> np.ndarray:
        return expit(self.decision(X))

    def fitted_state(self) -> dict:
        return {
            "base_score": self.base_score_,
            "stages": [[t.to_jsonable(), s] for t, s in self.stages_],
        }

    def load_fitted_state(self, state: dict) -> "GradientBoostingBinary":
        self.base_score_ = state["base_score"]
        self.stages_ = [(TreeNode.from_jsonable(t), s) for t, s in state["stages"]]
        return self
