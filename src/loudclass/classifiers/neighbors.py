"""k-nearest-neighbor classifier, natively multi-class.

Unlike the other variants this is not wrapped one-vs-rest: neighbor
votes over the stored training set already produce a score per class.
"""

from __future__ import annotations

from typing import Annotated

import numpy as np

from ..errors import ConfigurationError, DataError
from ..domains import AtLeast
from .base import TrainedModel

# Distance-matrix entries (query rows x training rows) scored per block.
BLOCK_CELLS = 2**20

# Entries of the norm sums held at once while a distance matrix is finished
# (at least one row): 256 KiB, so each block's sums stay in cache.
FINISH_CELLS = 2**15


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|a|^2 + |b|^2 - 2 a.b for every row a of ``A`` and b of ``B``.

    The result is the buffer of the one product ``A @ B.T``, finished in
    place: it is doubled, then each block of at most ``FINISH_CELLS``
    entries becomes ``(a_sq + b_sq) - 2 a.b``, with the norm sums of the
    block in one reused buffer. The product is the same call on the same
    rows as ``a_sq[:, None] + b_sq[None, :] - 2.0 * (A @ B.T)``, and every
    entry takes the same three roundings in the same order, so the bits
    equal that expression's. The 2 is not folded into ``A``: ``(2A) @ B.T``
    rounds differently from ``2 (A @ B.T)`` where products near the
    subnormal range. Besides the result, only the norms, one block of sums
    and numpy's fixed-size buffer for the broadcast add are allocated, where
    the expression holds four full-size matrices.

    Raises DataError when a row's squared norm overflows. Training rows are
    standardized, so with finite norms no distance to them overflows.
    """
    with np.errstate(over="ignore"):
        a_sq, b_sq = (A * A).sum(axis=1), (B * B).sum(axis=1)
    if not (np.isfinite(a_sq).all() and np.isfinite(b_sq).all()):
        raise DataError("features too large: a row's squared norm overflows")
    g = A @ B.T
    g *= 2.0
    rows = max(1, FINISH_CELLS // max(1, len(b_sq)))
    sums = np.empty((min(rows, len(a_sq)), len(b_sq)))
    for start in range(0, len(a_sq), rows):
        block = g[start : start + rows]
        t = sums[: len(block)]
        t[:] = a_sq[start : start + rows, None]
        t += b_sq
        np.subtract(t, block, out=block)
    return g


class NearestNeighbors:
    """The standardized training rows and class indices that knn votes over.

    Neighbor order is deterministic: equal distances resolve by
    training-set position.
    """

    def __init__(self, *, k: Annotated[int, AtLeast(1)] = 2):
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
        rows. Each block's distances are one ``squared_distances`` call,
        finished in the product's own buffer, which the passes then mark in
        place. The blocks depend only on the query and training row counts,
        so a matrix product, whose rounding can depend on the rows it is
        given, sees the same rows in every call on the same ``Z``.
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

    def _votes(self, Z) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor class indices (n, k) and per-row class counts (n, classes)
        of standardized rows."""
        labels = self.submodels[0].neighbor_labels(Z)
        n, n_classes = len(labels), len(self.classes)
        rows = np.arange(n)[:, None]
        counts = np.bincount(
            (rows * n_classes + labels).ravel(), minlength=n * n_classes
        ).reshape(n, n_classes)
        return labels, counts

    def proba_standardized(self, Z: np.ndarray) -> np.ndarray:
        labels, counts = self._votes(Z)
        return counts / labels.shape[1]

    def index_standardized(self, Z: np.ndarray) -> np.ndarray:
        # Rows are sorted by distance; the first neighbor whose class count
        # equals the row's maximum wins, so ties go to the nearest class.
        labels, counts = self._votes(Z)
        rows = np.arange(len(labels))[:, None]
        top = counts[rows, labels] == counts.max(axis=1, keepdims=True)
        return labels[rows[:, 0], top.argmax(axis=1)]

    # The inherited predict_proba and predict, bound here by name too:
    # perfbench/spans.py wraps KnnModel.predict_proba and KnnModel.predict.
    predict_proba = TrainedModel.predict_proba
    predict = TrainedModel.predict
