"""Random forest of entropy trees with bootstrap rows and feature subsampling."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from .tree import TreeNode, build_tree, presort, tree_predict


class RandomForestBinary:
    """Majority-vote forest; score = fraction of trees voting positive.

    Each tree sees a bootstrap sample and draws ceil(sqrt(d)) candidate
    features per split. Per-tree RNG streams are keyed by (seed_key, tree),
    so results do not depend on fitting order.
    """

    def __init__(
        self,
        *,
        n_trees: int = 10,
        min_samples_split: int = 2,
        max_features: int | None = None,
        seed_key: tuple[int, ...] = (0,),
    ):
        if n_trees < 1:
            raise ConfigurationError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed_key = tuple(seed_key)
        self.trees_: list[TreeNode] | None = None

    def fit(self, X, y01) -> "RandomForestBinary":
        X = np.asarray(X, dtype=np.float64)
        y01 = np.asarray(y01, dtype=np.float64)
        n, d = X.shape
        max_features = self.max_features or math.ceil(math.sqrt(d))
        self.trees_ = []
        for t in range(self.n_trees):
            rng = np.random.default_rng(np.random.SeedSequence([*self.seed_key, t]))
            bootstrap = rng.integers(0, n, size=n)
            X_boot = X[bootstrap]
            self.trees_.append(
                build_tree(
                    X_boot,
                    y01[bootstrap],
                    presort(X_boot),
                    criterion="entropy",
                    min_samples_split=self.min_samples_split,
                    max_features=max_features,
                    rng=rng,
                )
            )
        return self

    def predict_score(self, X) -> np.ndarray:
        if self.trees_ is None:
            raise ConfigurationError("forest is not fitted")
        votes = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees_:
            votes += tree_predict(tree, X) > 0.5
        return votes / len(self.trees_)

    def fitted_state(self) -> dict:
        return {"trees": [t.to_jsonable() for t in self.trees_]}

    def load_fitted_state(self, state: dict) -> "RandomForestBinary":
        self.trees_ = [TreeNode.from_jsonable(t) for t in state["trees"]]
        return self
