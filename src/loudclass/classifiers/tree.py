"""Binary CART trees shared by the tree, forest, and boosting classifiers.

Split search is exhaustive over midpoints between consecutive distinct
feature values, presorted as in CART (Breiman et al. 1984) and SLIQ (Mehta,
Agrawal & Rissanen 1996). ``presort(X)`` runs one stable argsort per feature;
boosting sorts once for all its stages. The forest ranks its training
values once (``value_ranks``) and sorts each bootstrap by those integer
ranks, which gives the same order as sorting the bootstrap's values. A
split divides each feature's order between the children with a boolean
filter, which keeps the order a stable sort of the child's rows would give
(equal values in ascending row order). One pass of cumulative sums over the
sorted targets of all candidate features then scores every split position:
entropy gain on 0/1 targets, squared-error reduction for regression.
The largest gain as computed in floating point wins. Among gains that are
equal in floating point, the lowest feature index wins, then the lowest
threshold. Gains that are equal in exact arithmetic but summed in another
order (two features that cut the rows alike, or two cuts with the same
rational gain) can round apart, and then the larger rounded gain wins.
Either way the arithmetic is fixed, so every build is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Callable

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..domains import AtLeast


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


def small_index_dtype(count: int):
    """int16 for indices into fewer than 2**15 items, else intp."""
    return np.int16 if count < 2**15 else np.intp


def value_ranks(X: np.ndarray) -> np.ndarray:
    """``d x n`` dense ranks: row i of feature f gets the number of distinct
    values of column f below ``X[i, f]``.

    Ranks order rows as their values do and tie exactly where the values
    tie, so a stable argsort of ``value_ranks(X)[:, rows]`` is
    ``presort(X[rows])`` for any row selection, repeats included. The ranks
    are int16 while n < 2**15, which numpy's stable sort orders by radix.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    order = presort(X)
    sorted_values = np.take_along_axis(X.T, order, axis=1)
    steps = sorted_values[:, 1:] != sorted_values[:, :-1]
    dtype = small_index_dtype(n)
    dense = np.zeros((d, n), dtype=dtype)
    np.cumsum(steps, axis=1, out=dense[:, 1:])
    ranks = np.empty((d, n), dtype=dtype)
    np.put_along_axis(ranks, order, dense, axis=1)
    return ranks


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
    # argmax keeps the first of equal floating-point maxima: the lowest
    # threshold, then the lowest feature. Exactly equal gains that round
    # apart are no tie here (see the module docstring).
    at = np.argmax(gains, axis=1)
    per_feature = gains[np.arange(len(candidates)), at]
    j = int(np.argmax(per_feature))
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

    def at_leaf(leaf, rows):
        out[rows] = leaf.value

    _route(node, X, np.arange(len(X)), at_leaf)
    return out


def tree_leaves(node: TreeNode, X: np.ndarray) -> np.ndarray:
    """The leaf each row reaches, numbered as ``leaf_boxes`` orders them.

    With ``leaf_boxes`` this is the record of each row's path: the path
    tests feature f exactly where its leaf's box is finite in f, and a row
    reaches the same leaf whatever its value of f within the box.
    """
    X = np.asarray(X, dtype=np.float64)
    number = {id(leaf): i for i, leaf in enumerate(_leaves(node))}
    out = np.empty(len(X), dtype=small_index_dtype(len(number)))

    def at_leaf(leaf, rows):
        out[rows] = number[id(leaf)]

    _route(node, X, np.arange(len(X)), at_leaf)
    return out


def _route(node: TreeNode, X, indices, at_leaf) -> None:
    """Send the rows ``indices`` down from ``node``; ``at_leaf(leaf, rows)``
    receives the rows that reach each leaf, and a subtree that no row
    reaches is not visited."""
    if len(indices) == 0:
        return
    if node.is_leaf:
        at_leaf(node, indices)
        return
    mask = X[indices, node.feature] <= node.threshold
    _route(node.left, X, indices[mask], at_leaf)
    _route(node.right, X, indices[~mask], at_leaf)


def _leaves(node: TreeNode) -> list[TreeNode]:
    """The leaves, left subtree first, as ``leaf_boxes`` walks them."""
    if node.is_leaf:
        return [node]
    return _leaves(node.left) + _leaves(node.right)


def leaf_boxes(node: TreeNode, n_features: int):
    """``(lo, hi, value)``: a row reaches leaf l exactly when
    ``lo[l] < row <= hi[l]`` holds in every feature.

    Each split on the path narrows one feature's interval, so a feature
    split twice on a path keeps the tighter bound on each side.
    """
    lows, highs, values = [], [], []

    def walk(node, lo, hi):
        if node.is_leaf:
            lows.append(lo)
            highs.append(hi)
            values.append(node.value)
            return
        f, t = node.feature, node.threshold
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[f] = min(hi[f], t)
        right_lo[f] = max(lo[f], t)
        walk(node.left, lo, left_hi)
        walk(node.right, right_lo, hi)

    walk(node, [-np.inf] * n_features, [np.inf] * n_features)
    return (np.array(lows, dtype=np.float64), np.array(highs, dtype=np.float64),
            np.array(values, dtype=np.float64))


class LeafVoteModel:
    """A binary model that scores a row from the one leaf it reaches in each
    of its ``trees``.

    Each tree's leaf value becomes a vote (``tree_votes``), and the score is
    a function of the votes summed over the trees (``score_from_votes``),
    linear in the sum. ``predict_score``, ``leaf_table`` and the permutation
    importance of ``explain`` all score through these two methods, so each
    model states its rule once.
    """

    @property
    def trees(self) -> list[TreeNode]:
        raise NotImplementedError

    def tree_votes(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def score_from_votes(self, votes: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_score(self, X) -> np.ndarray:
        votes = [self.tree_votes(tree_predict(tree, X)) for tree in self.trees]
        return self.score_from_votes(np.sum(votes, axis=0))

    def leaf_table(self, n_features: int):
        """``(lo, hi, payload)`` over every tree's leaves: the score is the
        sum of the payloads of the leaves whose boxes hold the row, one per
        tree (see ``leaf_boxes``)."""
        lo, hi, value = (
            np.concatenate(parts)
            for parts in zip(*(leaf_boxes(t, n_features) for t in self.trees))
        )
        return lo, hi, self.score_from_votes(self.tree_votes(value))


class DecisionTreeBinary(LeafVoteModel):
    """Entropy CART for one one-vs-rest problem; score = leaf positive fraction."""

    def __init__(self, *, min_samples_split: Annotated[int, AtLeast(2)] = 5):
        self.min_samples_split = min_samples_split
        self.tree_: TreeNode | None = None

    def fit(self, X, y01) -> "DecisionTreeBinary":
        self.tree_ = build_tree(
            X, y01, presort(X), criterion="entropy",
            min_samples_split=self.min_samples_split,
        )
        return self

    @property
    def trees(self) -> list[TreeNode]:
        if self.tree_ is None:
            raise ConfigurationError("tree is not fitted")
        return [self.tree_]

    def tree_votes(self, values: np.ndarray) -> np.ndarray:
        return values

    def score_from_votes(self, votes: np.ndarray) -> np.ndarray:
        return votes

    def fitted_state(self) -> dict:
        return {"tree": self.tree_.to_jsonable()}

    def load_fitted_state(self, state: dict) -> "DecisionTreeBinary":
        self.tree_ = TreeNode.from_jsonable(state["tree"])
        return self
