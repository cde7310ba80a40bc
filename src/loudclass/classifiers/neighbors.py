"""k-nearest-neighbor classifier, natively multi-class.

Unlike the other variants this is not wrapped one-vs-rest: neighbor
votes over the stored training set already produce a score per class.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DataError
from .base import TrainedModel

# Distance-matrix entries (query rows x training rows) scored per block.
BLOCK_CELLS = 2**20


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|a|^2 + |b|^2 - 2 a.b for every row a of ``A`` and b of ``B``.

    Raises DataError when a row's squared norm overflows. Training rows are
    standardized, so with finite norms no distance to them overflows.
    """
    with np.errstate(over="ignore"):
        a_sq, b_sq = (A * A).sum(axis=1), (B * B).sum(axis=1)
    if not (np.isfinite(a_sq).all() and np.isfinite(b_sq).all()):
        raise DataError("features too large: a row's squared norm overflows")
    return a_sq[:, None] + b_sq[None, :] - 2.0 * (A @ B.T)


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
        """Class indices of the k nearest training rows, nearest first.

        Each of k passes takes every row's first smallest squared distance
        (so ties go to the lower training position) and sets it to +inf for
        the next pass. Query rows are scored in blocks of at most
        ``BLOCK_CELLS`` distances (at least one row), so memory stays
        bounded by the block, not by the number of queries or training
        rows.
        """
        rows = max(1, BLOCK_CELLS // len(self.X))
        nearest = np.empty((len(Z), self.k), dtype=np.intp)
        for start in range(0, len(Z), rows):
            sq = squared_distances(Z[start : start + rows], self.X)
            at = np.arange(len(sq))
            for j in range(self.k):
                nearest[start : start + rows, j] = col = sq.argmin(axis=1)
                sq[at, col] = np.inf
        return self.y_idx[nearest]

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

    def _votes(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor class indices (n, k) and per-row class counts (n, classes)."""
        labels = self.submodels[0].neighbor_labels(self.scaler.transform(X))
        n, n_classes = len(labels), len(self.classes)
        rows = np.arange(n)[:, None]
        counts = np.bincount(
            (rows * n_classes + labels).ravel(), minlength=n * n_classes
        ).reshape(n, n_classes)
        return labels, counts

    def predict_proba(self, X) -> np.ndarray:
        labels, counts = self._votes(X)
        return counts / labels.shape[1]

    def predict_index(self, X) -> np.ndarray:
        # Rows are sorted by distance; the first neighbor whose class count
        # equals the row's maximum wins, so ties go to the nearest class.
        labels, counts = self._votes(X)
        rows = np.arange(len(labels))[:, None]
        top = counts[rows, labels] == counts.max(axis=1, keepdims=True)
        return labels[rows[:, 0], top.argmax(axis=1)]

    # The inherited predict, bound here by name too: perfbench/spans.py
    # wraps KnnModel.predict.
    predict = TrainedModel.predict
