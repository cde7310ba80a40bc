"""Feature standardization fitted on training folds only."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DataError, ShapeError
from ..loudness import column_name


def _check_finite(X: np.ndarray) -> None:
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise DataError(
            f"features must be finite; row {int(np.argmax(bad))} is not "
            f"({int(bad.sum())} of {len(X)} rows)"
        )


class StandardScaler:
    """Center to mean 0, scale to sample (n-1) standard deviation 1.

    A constant column (max == min) keeps scale 1, so it is centered and
    never divided by its computed sd, which can be rounding noise (about
    6e-17 for ten copies of 0.3) rather than 0.
    Statistics come exclusively from the data passed to ``fit``; test folds
    are transformed with those fixed parameters. ``fit`` and
    ``fit_transform`` reject rows holding NaN or an infinity, columns whose
    mean or sd overflows, and columns that are not constant yet whose sd
    underflows to 0, with ``DataError``; ``transform`` rejects
    rows that are not finite once standardized, which covers non-finite
    input rows. So every model's training and query rows are checked here,
    each matrix once.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ShapeError(f"expected a 2-d matrix, got ndim={X.ndim}")
        _check_finite(X)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = X.mean(axis=0)
            sd = X.std(axis=0, ddof=1) if X.shape[0] > 1 else np.zeros(X.shape[1])
        constant = X.max(axis=0, initial=-np.inf) == X.min(axis=0, initial=np.inf)
        bad = ~(np.isfinite(mean) & np.isfinite(sd) & (constant | (sd > 0.0)))
        if bad.any():
            raise DataError(
                f"{column_name(int(np.argmax(bad)), X.shape[1])} cannot be standardized: "
                "its mean or sd overflows, or its sd underflows to 0"
            )
        self.mean_ = mean
        self.scale_ = np.where(constant, 1.0, sd)
        return self

    def transform(self, X) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise ConfigurationError("scaler is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.mean_.shape[0]:
            raise ShapeError(
                f"expected shape (n, {self.mean_.shape[0]}), got {X.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            Z = (X - self.mean_) / self.scale_
        _check_finite(Z)
        return Z

    def fit_transform(self, X) -> np.ndarray:
        """``fit(X).transform(X)``, checking X once: a finite training row
        lies within sqrt(n-1) finite sds of a finite mean."""
        X = np.asarray(X, dtype=np.float64)
        self.fit(X)
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
