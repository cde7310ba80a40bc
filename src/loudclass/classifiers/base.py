"""The fitted-model interface shared by the one-vs-rest and knn models,
and the bounds that declare each hyperparameter's domain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AtLeast:
    """The lower bound of a numeric hyperparameter, declared once in the
    annotation of its constructor argument, as in
    ``k: Annotated[int, AtLeast(1)] = 2``. ``ovr.check_params`` reads it
    there and applies it. NaN is admitted by no bound."""

    low: int | float

    def admits(self, value) -> bool:
        return value >= self.low

    def __str__(self) -> str:
        return f">= {self.low}"


class Above(AtLeast):
    """A strict lower bound: the value must exceed ``low``."""

    def admits(self, value) -> bool:
        return value > self.low

    def __str__(self) -> str:
        return f"> {self.low}"


class TrainedModel:
    """A fitted classifier: its resolved parameters and seed, the scaler
    fitted on the training rows and the fitted parts built from them.

    Subclasses score each class of rows already standardized by ``scaler``
    (``proba_standardized``); ``predict_proba`` is the scaler's
    ``transform`` followed by it, so a caller that scores many matrices
    derived from one (the permutation copies) standardizes that one once.
    ``predict_index`` takes the argmax, as an index into ``classes``, and
    ``predict`` maps it to the class labels.
    """

    def __init__(self, variant, classes, scaler, submodels, *, seed, params):
        self.variant = variant
        self.classes = tuple(classes)
        self.scaler = scaler
        self.submodels = list(submodels)
        self.seed = seed
        self.params = dict(params)

    @staticmethod
    def targets(y_idx: np.ndarray, n_classes: int) -> list[np.ndarray]:
        """The training target of each submodel, from class indices."""
        raise NotImplementedError

    def proba_standardized(self, Z: np.ndarray) -> np.ndarray:
        """Per-class scores of rows already standardized by ``scaler``."""
        raise NotImplementedError

    def index_standardized(self, Z: np.ndarray) -> np.ndarray:
        """``predict_index`` of rows already standardized by ``scaler``."""
        # np.argmax returns the first maximum, giving the documented
        # first-in-class-list tie-break for free.
        return np.argmax(self.proba_standardized(Z), axis=1)

    def predict_proba(self, X) -> np.ndarray:
        return self.proba_standardized(self.scaler.transform(X))

    def predict_index(self, X) -> np.ndarray:
        """Index into ``classes`` of each row's predicted class."""
        return np.argmax(self.predict_proba(X), axis=1)

    def predict(self, X) -> list:
        return [self.classes[i] for i in self.predict_index(X).tolist()]
