"""Binary CART trees shared by the tree, forest, and boosting classifiers.

Split search is exhaustive over midpoints between consecutive distinct
feature values, presorted as in CART (Breiman et al. 1984) and SLIQ (Mehta,
Agrawal & Rissanen 1996). ``presort(X)`` runs one stable argsort per feature;
boosting sorts once for all its stages, the forest once per bootstrap. A
split divides each feature's order between the children with a boolean
filter, which keeps the order a stable sort of the child's rows would give
(equal values in ascending row order). One pass of cumulative sums over the
sorted targets of all candidate features then scores every split position:
entropy gain on 0/1 targets, squared-error reduction for regression.
Equal-gain ties resolve to the lowest feature index, then the lowest
threshold, which makes every build deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, ShapeError


@dataclass
class TreeNode:
    """Internal node (feature/threshold set) or leaf (value set)."""

    value: float
    n_samples: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_jsonable(self) -> dict:
        if self.is_leaf:
            return {"value": self.value, "n": self.n_samples}
        return {
            "value": self.value,
            "n": self.n_samples,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_jsonable(),
            "right": self.right.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "TreeNode":
        node = cls(value=payload["value"], n_samples=payload["n"])
        if "feature" in payload:
            node.feature = payload["feature"]
            node.threshold = payload["threshold"]
            node.left = cls.from_jsonable(payload["left"])
            node.right = cls.from_jsonable(payload["right"])
        return node


_GAIN_EPS = 1e-12


def _entropy_from_counts(pos: np.ndarray, total) -> np.ndarray:
    p = np.divide(pos, total, out=np.zeros_like(pos, dtype=np.float64), where=total > 0)
    q = 1.0 - p
    # 0 log 0 = 0: log2(1) stands in where p or q is 0.
    return -(p * np.log2(np.where(p > 0, p, 1.0))) - q * np.log2(np.where(q > 0, q, 1.0))


def _entropy_gain(ys: np.ndarray) -> np.ndarray:
    """Entropy gain of a split after each position of each row of sorted 0/1
    targets; the last column, with nothing to its right, is unused."""
    n = ys.shape[1]
    n_left = np.arange(1, n + 1, dtype=np.float64)
    n_right = n - n_left
    pos_left = np.cumsum(ys, axis=1)
    total = pos_left[:, -1:]
    h_parent = _entropy_from_counts(total, float(n))
    h_left = _entropy_from_counts(pos_left, n_left)
    h_right = _entropy_from_counts(total - pos_left, n_right)
    return h_parent - (n_left * h_left + n_right * h_right) / n


def _mse_gain(ys: np.ndarray) -> np.ndarray:
    """Squared-error reduction of a split after each position of each row of
    sorted targets; the last column, with nothing to its right, is unused."""
    n = ys.shape[1]
    n_left = np.arange(1, n + 1, dtype=np.float64)
    s_left = np.cumsum(ys, axis=1)
    s2_left = np.cumsum(ys * ys, axis=1)
    s_total, s2_total = s_left[:, -1:], s2_left[:, -1:]
    s_right = s_total - s_left
    sse_left = s2_left - s_left * s_left / n_left
    # The floor only touches the unused last column, where n_right is 0.
    sse_right = (s2_total - s2_left) - s_right * s_right / np.maximum(n - n_left, 1.0)
    sse_parent = s2_total - s_total * s_total / n
    return sse_parent - (sse_left + sse_right)


_GAINS = {"entropy": _entropy_gain, "mse": _mse_gain}


def presort(X: np.ndarray) -> np.ndarray:
    """``d x n`` row order: a stable argsort of each feature column."""
    return np.argsort(np.asarray(X, dtype=np.float64).T, axis=1, kind="stable")


def _best_split(X, y, order, candidates, gain_fn):
    """Best (gain, feature, threshold) over ``candidates``, or None.

    ``order`` holds the node's rows sorted by each feature. Every candidate
    feature is scanned at once; positions between equal values get -inf.
    """
    rows = order[candidates]
    ys = y[rows]
    if len(ys) == 0 or ys[0].min() == ys[0].max():  # constant targets never split
        return None
    xs = np.take(X, rows * X.shape[1] + candidates[:, None])  # X[rows, f] per row f
    gains = gain_fn(ys)
    gains[:, :-1][np.diff(xs, axis=1) == 0] = -np.inf
    gains[:, -1] = -np.inf
    at = np.argmax(gains, axis=1)  # first maximum = lowest threshold
    per_feature = gains[np.arange(len(candidates)), at]
    j = int(np.argmax(per_feature))  # first maximum = lowest feature
    if per_feature[j] <= _GAIN_EPS:
        return None
    threshold = (xs[j, at[j]] + xs[j, at[j] + 1]) / 2.0
    return float(per_feature[j]), int(candidates[j]), float(threshold)


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    *,
    criterion: str,
    min_samples_split: int = 2,
    max_depth: int | None = None,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
    leaf_value: Callable[[np.ndarray], float] | None = None,
) -> TreeNode:
    """Grow a tree on ``(X, y)`` from ``order = presort(X)``.

    ``max_features`` draws that many candidate features per split from
    ``rng`` (the forest's subsampling); both default to using every feature.
    ``leaf_value`` maps the ascending sample indices of a leaf to its
    payload and defaults to the target mean (positive fraction on 0/1
    targets).
    """
    if criterion not in _GAINS:
        raise ConfigurationError(f"criterion must be 'entropy' or 'mse', got {criterion!r}")
    if max_features is not None and rng is None:
        raise ConfigurationError("feature subsampling needs an rng")
    X = np.ascontiguousarray(X, dtype=np.float64)  # _best_split indexes it flat
    y = np.asarray(y, dtype=np.float64)
    if order.shape != X.shape[::-1]:
        raise ShapeError(f"order must have shape {X.shape[::-1]}, got {order.shape}")
    if leaf_value is None:
        leaf_value = lambda idx: float(y[idx].mean())
    n_features = X.shape[1]
    gain_fn = _GAINS[criterion]

    def grow(indices, order, side, depth) -> TreeNode:
        node = TreeNode(value=leaf_value(indices), n_samples=len(indices))
        if len(indices) < min_samples_split:
            return node
        if max_depth is not None and depth >= max_depth:
            return node
        if side is not None:
            # Filtering the parent's order keeps each feature's sorted order.
            order = order[side[order]].reshape(n_features, -1)
        if max_features is None:
            candidates = np.arange(n_features)
        else:
            k = min(max_features, n_features)
            # Sorted so the lowest-index tie-break is independent of draw order.
            candidates = np.sort(rng.choice(n_features, size=k, replace=False))
        found = _best_split(X, y, order, candidates, gain_fn)
        if found is None:
            return node
        _, node.feature, node.threshold = found
        goes_left = X[:, node.feature] <= node.threshold
        node.left = grow(indices[goes_left[indices]], order, goes_left, depth + 1)
        node.right = grow(indices[~goes_left[indices]], order, ~goes_left, depth + 1)
        return node

    return grow(np.arange(len(y)), order, None, depth=0)


def tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
    """Leaf value per row."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(len(X), dtype=np.float64)
    _route(node, X, np.arange(len(X)), out)
    return out


def _route(node: TreeNode, X, indices, out) -> None:
    if node.is_leaf:
        out[indices] = node.value
        return
    mask = X[indices, node.feature] <= node.threshold
    _route(node.left, X, indices[mask], out)
    _route(node.right, X, indices[~mask], out)


class DecisionTreeBinary:
    """Entropy CART for one one-vs-rest problem; score = leaf positive fraction."""

    def __init__(self, *, min_samples_split: int = 5):
        self.min_samples_split = min_samples_split
        self.tree_: TreeNode | None = None

    def fit(self, X, y01) -> "DecisionTreeBinary":
        self.tree_ = build_tree(
            X, y01, presort(X), criterion="entropy",
            min_samples_split=self.min_samples_split,
        )
        return self

    def predict_score(self, X) -> np.ndarray:
        if self.tree_ is None:
            raise ConfigurationError("tree is not fitted")
        return tree_predict(self.tree_, X)

    def fitted_state(self) -> dict:
        return {"tree": self.tree_.to_jsonable()}

    def load_fitted_state(self, state: dict) -> "DecisionTreeBinary":
        self.tree_ = TreeNode.from_jsonable(state["tree"])
        return self
