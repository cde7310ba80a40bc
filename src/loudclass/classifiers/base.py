"""The fitted-model interface shared by the one-vs-rest and knn models."""

from __future__ import annotations

import numpy as np


class TrainedModel:
    """A fitted classifier: its resolved parameters and seed, the scaler
    fitted on the training rows and the fitted parts built from them.

    Subclasses score each class; ``predict_index`` takes the argmax, as an
    index into ``classes``, and ``predict`` maps it to the class labels.
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

    def predict_proba(self, X) -> np.ndarray:
        raise NotImplementedError

    def predict_index(self, X) -> np.ndarray:
        """Index into ``classes`` of each row's predicted class."""
        # np.argmax returns the first maximum, giving the documented
        # first-in-class-list tie-break for free.
        return np.argmax(self.predict_proba(X), axis=1)

    def predict(self, X) -> list:
        return [self.classes[i] for i in self.predict_index(X).tolist()]
