"""k-nearest-neighbor classifier, natively multi-class.

Unlike the other variants this is not wrapped one-vs-rest: neighbor
votes over the stored training set already produce a score per class.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ShapeError
from .base import TrainedModel


class NearestNeighbors:
    """The standardized training rows and class indices that knn votes over.

    Neighbor order is deterministic: equal distances resolve by
    training-set position.
    """

    def __init__(self, *, k: int = 2):
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        self.k = k
        self.X: np.ndarray | None = None
        self.y_idx: np.ndarray | None = None

    def fit(self, Z, y_idx) -> "NearestNeighbors":
        if self.k > len(Z):
            raise ConfigurationError(f"k={self.k} exceeds {len(Z)} training records")
        self.X = np.asarray(Z, dtype=np.float64)
        self.y_idx = np.asarray(y_idx, dtype=np.intp)
        return self

    def neighbor_labels(self, Z: np.ndarray) -> np.ndarray:
        """Class indices of the k nearest training rows, nearest first."""
        sq = (
            (Z * Z).sum(axis=1)[:, None]
            + (self.X * self.X).sum(axis=1)[None, :]
            - 2.0 * (Z @ self.X.T)
        )
        order = np.argsort(sq, axis=1, kind="stable")
        return self.y_idx[order[:, : self.k]]

    def fitted_state(self) -> dict:
        return {"x": self.X.tolist(), "y_idx": self.y_idx.tolist()}

    def load_fitted_state(self, state: dict) -> "NearestNeighbors":
        self.X = np.asarray(state["x"], dtype=np.float64)
        self.y_idx = np.asarray(state["y_idx"], dtype=np.intp)
        return self


class KnnModel(TrainedModel):
    """Distance votes of one ``NearestNeighbors`` in standardized space.

    Prediction breaks voting ties in favor of the tied class with the
    nearest neighbor, which matters for even k.
    """

    @staticmethod
    def targets(y_idx: np.ndarray, n_classes: int) -> list[np.ndarray]:
        return [y_idx]

    def _neighbor_labels(self, X: np.ndarray) -> np.ndarray:
        return self.submodels[0].neighbor_labels(self.scaler.transform(X))

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ShapeError("expected a 2-d feature matrix")
        labels = self._neighbor_labels(X)
        n_classes = len(self.classes)
        proba = np.zeros((len(X), n_classes))
        for ci in range(n_classes):
            proba[:, ci] = (labels == ci).mean(axis=1)
        return proba

    def predict(self, X) -> list:
        out = []
        for labels in self._neighbor_labels(np.asarray(X, dtype=np.float64)):
            counts = np.bincount(labels, minlength=len(self.classes))
            top = counts.max()
            tied = np.flatnonzero(counts == top)
            if len(tied) == 1:
                out.append(self.classes[tied[0]])
            else:
                # Row is already sorted by distance; the first neighbor
                # whose class is tied for the majority wins.
                tied_set = set(tied.tolist())
                winner = next(int(l) for l in labels if int(l) in tied_set)
                out.append(self.classes[winner])
        return out
