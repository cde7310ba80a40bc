"""Principal component analysis of the standardized feature matrix.

Standardization uses the sample (n-1) convention. Components come from an
eigendecomposition of the 12x12 correlation matrix, ordered by decreasing
eigenvalue, with a deterministic sign: the largest-magnitude entry of each
loading vector is made positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import StandardScaler
from .errors import ConfigurationError, DataError, DegenerateFeatureError, ShapeError
from .loudness import column_name


@dataclass(frozen=True)
class PcaModel:
    """Fitted components of a standardized feature matrix."""

    loadings: np.ndarray  # (n_features, k), orthonormal columns
    explained_variance: np.ndarray  # (k,), non-increasing
    explained_variance_fraction: np.ndarray  # (k,)

    def __post_init__(self) -> None:
        for name in ("loadings", "explained_variance", "explained_variance_fraction"):
            getattr(self, name).setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.loadings.shape[1]


def standardize(X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center each column and scale it to unit sample (n-1) variance.

    Returns (Z, means, sds) from a ``StandardScaler`` fitted on X, so
    non-finite or overflowing columns are its ``DataError``s. A constant
    column (max == min) cannot be standardized and raises
    ``DegenerateFeatureError`` naming the column.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 2 and X.shape[0] < 2:
        raise DataError("standardization needs at least 2 rows")
    scaler = StandardScaler()
    Z = scaler.fit_transform(X)
    constant = np.flatnonzero(X.max(axis=0) == X.min(axis=0))
    if constant.size:
        name = column_name(int(constant[0]), X.shape[1])
        raise DegenerateFeatureError(f"{name} is constant and cannot be standardized")
    return Z, scaler.mean_, scaler.scale_


def fit_pca(Z, k: int) -> PcaModel:
    """Eigendecompose the sample correlation matrix of standardized data."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={Z.ndim}")
    n, d = Z.shape
    if not 1 <= k <= d:
        raise ConfigurationError(f"component count must lie in [1, {d}], got {k}")
    if n < 2:
        raise DataError("fitting needs at least 2 rows")
    corr = (Z.T @ Z) / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(corr)
    order = np.argsort(eigenvalues)[::-1]
    values = eigenvalues[order][:k].copy()
    vectors = eigenvectors[:, order][:, :k].copy()
    for j in range(k):
        pivot = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[pivot, j] < 0:
            vectors[:, j] = -vectors[:, j]
    total = float(eigenvalues.sum())
    return PcaModel(
        loadings=vectors,
        explained_variance=values,
        explained_variance_fraction=values / total,
    )


def transform(model: PcaModel, Z) -> np.ndarray:
    """Project standardized rows onto the fitted components."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.loadings.shape[0]:
        raise ShapeError(
            f"expected shape (n, {model.loadings.shape[0]}), got {Z.shape}"
        )
    return Z @ model.loadings
