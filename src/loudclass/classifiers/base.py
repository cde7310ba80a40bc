"""The fitted-model interface shared by the one-vs-rest and knn models."""

from __future__ import annotations

import numpy as np


class TrainedModel:
    """A fitted classifier: its resolved parameters and seed, the scaler
    fitted on the training rows and the fitted parts built from them.

    Subclasses score each class of rows already standardized by ``scaler``
    (``proba_standardized``); ``predict_proba`` is the scaler's
    ``transform`` followed by it, so a caller that scores many matrices
    derived from one (the permutation copies) standardizes that one once.
    ``index_standardized`` takes the argmax of those scores as an index
    into ``classes``, ``predict_index`` does so after the ``transform``,
    and ``predict`` maps it to the class labels.
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
        return self.index_standardized(self.scaler.transform(X))

    def predict(self, X) -> list:
        return [self.classes[i] for i in self.predict_index(X).tolist()]
