"""Random forest of entropy trees with bootstrap rows and feature subsampling."""

from __future__ import annotations

import math
from typing import Annotated

import numpy as np

from ..errors import ConfigurationError
from ..domains import AtLeast
from .tree import LeafVoteModel, TreeNode, build_tree, value_ranks


class RandomForestBinary(LeafVoteModel):
    """Majority-vote forest; score = fraction of trees voting positive.

    Each tree sees a bootstrap sample and draws ``max_features`` candidate
    features per split: ceil(sqrt(d)) when it is None, and all d when it
    is d or more (``build_tree`` clips it). Per-tree RNG streams are keyed
    by (seed_key, tree), so results do not depend on fitting order.
    """

    def __init__(
        self,
        *,
        seed_key: tuple[int, ...],
        n_trees: Annotated[int, AtLeast(1)] = 10,
        min_samples_split: Annotated[int, AtLeast(2)] = 2,
        max_features: Annotated[int, AtLeast(1)] | None = None,
    ):
        self.n_trees = n_trees
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed_key = tuple(seed_key)
        self.trees_: list[TreeNode] | None = None

    def fit(self, X, y01) -> "RandomForestBinary":
        X = np.asarray(X, dtype=np.float64)
        y01 = np.asarray(y01, dtype=np.float64)
        n, d = X.shape
        max_features = self.max_features
        if max_features is None:
            max_features = math.ceil(math.sqrt(d))
        ranks = value_ranks(X)
        self.trees_ = []
        for t in range(self.n_trees):
            rng = np.random.default_rng(np.random.SeedSequence([*self.seed_key, t]))
            bootstrap = rng.integers(0, n, size=n)
            self.trees_.append(
                build_tree(
                    X[bootstrap],
                    y01[bootstrap],
                    # presort(X[bootstrap]), sorted by radix (see value_ranks).
                    np.argsort(ranks[:, bootstrap], axis=1, kind="stable"),
                    criterion="entropy",
                    min_samples_split=self.min_samples_split,
                    max_features=max_features,
                    rng=rng,
                )
            )
        return self

    @property
    def trees(self) -> list[TreeNode]:
        if self.trees_ is None:
            raise ConfigurationError("forest is not fitted")
        return self.trees_

    def tree_votes(self, values: np.ndarray) -> np.ndarray:
        """True where the tree's leaf is mostly positive. Their sums are
        integer counts, exact in any order."""
        return values > 0.5

    def score_from_votes(self, votes: np.ndarray) -> np.ndarray:
        return votes / len(self.trees_)

    def fitted_state(self) -> dict:
        return {"trees": [t.to_jsonable() for t in self.trees_]}

    def load_fitted_state(self, state: dict) -> "RandomForestBinary":
        self.trees_ = [TreeNode.from_jsonable(t) for t in state["trees"]]
        return self
