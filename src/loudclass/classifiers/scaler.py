"""Feature standardization fitted on training folds only."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ShapeError


class StandardScaler:
    """Center to mean 0, scale to sample (n-1) standard deviation 1.

    Constant columns keep scale 1 so transforming never divides by zero.
    Statistics come exclusively from the data passed to ``fit``; test folds
    are transformed with those fixed parameters.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ShapeError(f"expected a 2-d matrix, got ndim={X.ndim}")
        self.mean_ = X.mean(axis=0)
        if X.shape[0] > 1:
            sd = X.std(axis=0, ddof=1)
        else:
            sd = np.zeros(X.shape[1])
        self.scale_ = np.where(sd == 0.0, 1.0, sd)
        return self

    def transform(self, X) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise ConfigurationError("scaler is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.mean_.shape[0]:
            raise ShapeError(
                f"expected shape (n, {self.mean_.shape[0]}), got {X.shape}"
            )
        return (X - self.mean_) / self.scale_

    def to_jsonable(self) -> dict:
        if self.mean_ is None or self.scale_ is None:
            raise ConfigurationError("scaler is not fitted")
        return {"mean": self.mean_.tolist(), "scale": self.scale_.tolist()}

    @classmethod
    def from_jsonable(cls, payload: dict) -> "StandardScaler":
        scaler = cls()
        scaler.mean_ = np.asarray(payload["mean"], dtype=np.float64)
        scaler.scale_ = np.asarray(payload["scale"], dtype=np.float64)
        return scaler
