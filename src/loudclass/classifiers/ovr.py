"""One-vs-rest multi-class reduction over the seven classifier variants.

Each class in turn becomes the positive label of a binary subproblem; the
final prediction is the argmax over per-class scores (first class wins
exact ties). KNN is the one variant that is natively multi-class and
bypasses the reduction.

A model file holds each decision once: the variant, the classes, the
resolved parameters, the scaler, the seed (nn and rf only) and the fitted
state of each submodel. Loading rebuilds every submodel with the
constructor call ``fit`` makes and then restores its fitted state.

A variant's hyperparameter defaults are written in one place, the keyword
defaults of its submodel's constructor; ``DEFAULT_PARAMS`` reads them from
there. The default seeds are ``DEFAULT_SEEDS``.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..bisgaard import BisgaardClass, class_from_name
from ..errors import (
    ConfigurationError,
    DataError,
    DegenerateLabelError,
    SchemaError,
    ShapeError,
)
from ..metrics import label_codes, sorted_labels
from .base import TrainedModel
from .boosting import GradientBoostingBinary
from .forest import RandomForestBinary
from .linear import LogisticRegressionBinary
from .neighbors import KnnModel, NearestNeighbors
from .neural import NeuralNetBinary
from .scaler import StandardScaler
from .svm import SvmBinary
from .tree import DecisionTreeBinary

VARIANTS = ("dt", "gb", "knn", "lr", "nn", "rf", "svm")

# Only the network and the forest draw random numbers; the other variants
# fit deterministically and take no seed.
DEFAULT_SEEDS = {"nn": 1, "rf": 0}

_SUBMODEL_TYPES = {
    "dt": DecisionTreeBinary,
    "gb": GradientBoostingBinary,
    "knn": NearestNeighbors,
    "lr": LogisticRegressionBinary,
    "nn": NeuralNetBinary,
    "rf": RandomForestBinary,
    "svm": SvmBinary,
}

# The variants that are not one-vs-rest (OvrModel): knn votes over every
# class at once.
_MODEL_TYPES = {"knn": KnnModel}

# Constructor arguments that come from the fit instead of DEFAULT_PARAMS.
_CONTEXT_ARGS = {"nn": ("n_inputs", "seed_key"), "rf": ("seed_key",)}

# Each variant's hyperparameters are its submodel constructor's keyword
# defaults, in signature order.
DEFAULT_PARAMS: dict[str, dict] = {
    variant: {
        name: p.default
        for name, p in inspect.signature(cls).parameters.items()
        if name not in _CONTEXT_ARGS.get(variant, ())
    }
    for variant, cls in _SUBMODEL_TYPES.items()
}

FORMAT_VERSION = 4


@dataclass(frozen=True)
class ClassifierSpec:
    """Variant name plus overrides; unspecified values take the defaults."""

    variant: str
    seed: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown classifier variant {self.variant!r}; "
                f"expected one of {', '.join(VARIANTS)}"
            )

    def resolved(self) -> tuple[int | None, dict]:
        """The seed and the full parameter set. Variants without a default
        seed draw no random numbers; their seed is None whatever ``seed``
        says."""
        defaults = DEFAULT_PARAMS[self.variant]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown {self.variant} parameters: {', '.join(sorted(unknown))}"
            )
        merged = {**defaults, **self.params}
        if self.variant not in DEFAULT_SEEDS:
            return None, merged
        return DEFAULT_SEEDS[self.variant] if self.seed is None else self.seed, merged


def _make_submodel(variant: str, params: dict, seed: int | None, ci: int, n_inputs: int):
    context = {"n_inputs": n_inputs, "seed_key": (seed, ci)}
    extra = {name: context[name] for name in _CONTEXT_ARGS.get(variant, ())}
    return _SUBMODEL_TYPES[variant](**params, **extra)


class OvrModel(TrainedModel):
    @staticmethod
    def targets(y_idx: np.ndarray, n_classes: int) -> list[np.ndarray]:
        return [(y_idx == ci).astype(np.float64) for ci in range(n_classes)]

    def predict_proba(self, X) -> np.ndarray:
        Z = self.scaler.transform(X)
        return np.column_stack([m.predict_score(Z) for m in self.submodels])


def fit(spec: ClassifierSpec, X, y, *, classes=None) -> TrainedModel:
    seed, params = spec.resolved()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("expected a 2-d feature matrix")
    y = list(y)
    if len(y) != X.shape[0]:
        raise ShapeError(f"{X.shape[0]} feature rows but {len(y)} labels")

    present = set(y)
    if len(present) < 2:
        raise DegenerateLabelError("training labels contain a single class")
    if classes is None:
        class_list = sorted_labels(present)
    else:
        class_list = list(classes)
        outside = present - set(class_list)
        if outside:
            raise DataError(
                "labels outside the class list: "
                + ", ".join(sorted(str(c) for c in outside))
            )
    n_classes = len(class_list)
    if len(y) < 2 * n_classes:
        raise DataError(
            f"need at least {2 * n_classes} records for {n_classes} classes, "
            f"got {len(y)}"
        )

    scaler = StandardScaler()
    Z = scaler.fit_transform(X)
    model_type = _MODEL_TYPES.get(spec.variant, OvrModel)
    targets = model_type.targets(label_codes(y, class_list), n_classes)
    submodels = [
        _make_submodel(spec.variant, params, seed, ci, X.shape[1]).fit(Z, target)
        for ci, target in enumerate(targets)
    ]
    return model_type(spec.variant, class_list, scaler, submodels, seed=seed, params=params)


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    return model.predict_proba(X)


def predict(model: TrainedModel, X) -> list:
    return model.predict(X)


def _label_kind(classes) -> str:
    if all(isinstance(c, BisgaardClass) for c in classes):
        return "bisgaard"
    if all(isinstance(c, str) for c in classes):
        return "str"
    if all(isinstance(c, (int, np.integer)) for c in classes):
        return "int"
    raise ConfigurationError("cannot persist mixed or unsupported label types")


def _encode_label(label):
    if isinstance(label, BisgaardClass):
        return label.name
    if isinstance(label, np.integer):
        return int(label)
    return label


def _decode_labels(kind: str, encoded) -> list:
    if kind == "bisgaard":
        return [class_from_name(name) for name in encoded]
    if kind == "str":
        return [str(name) for name in encoded]
    if kind == "int":
        return [int(name) for name in encoded]
    raise SchemaError(f"unknown label kind {kind!r}")


def _jsonable_params(params: dict) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()}


def model_to_jsonable(model: TrainedModel) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "variant": model.variant,
        "label_kind": _label_kind(model.classes),
        "classes": [_encode_label(c) for c in model.classes],
        "params": _jsonable_params(model.params),
        "scaler": model.scaler.to_jsonable(),
        "submodels": [m.fitted_state() for m in model.submodels],
    }
    if model.seed is not None:
        payload["seed"] = model.seed
    return payload


def model_from_jsonable(payload: dict) -> TrainedModel:
    if not isinstance(payload, dict):
        raise SchemaError("model payload must be a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported model format version {payload.get('format_version')!r}"
        )
    variant = payload.get("variant")
    if variant not in VARIANTS:
        raise SchemaError(f"unknown classifier variant {variant!r}")
    try:
        classes = _decode_labels(payload["label_kind"], payload["classes"])
        params = payload["params"]
        expected = DEFAULT_PARAMS[variant]
        if not isinstance(params, dict) or set(params) != set(expected):
            raise SchemaError(
                f"{variant} params must have exactly the keys {', '.join(sorted(expected))}"
            )
        seed = payload["seed"] if variant in DEFAULT_SEEDS else None
        scaler = StandardScaler.from_jsonable(payload["scaler"])
        submodels = [
            _make_submodel(variant, params, seed, ci, len(scaler.mean_)).load_fitted_state(state)
            for ci, state in enumerate(payload["submodels"])
        ]
    except KeyError as exc:
        raise SchemaError(f"model payload missing field {exc.args[0]!r}") from exc
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        # A value of the wrong type, caught by a constructor or by numpy.
        raise SchemaError(f"model payload has a bad {variant} value: {exc}") from exc
    model_type = _MODEL_TYPES.get(variant, OvrModel)
    return model_type(variant, classes, scaler, submodels, seed=seed, params=params)


def save_model(model: TrainedModel, path) -> None:
    text = json.dumps(model_to_jsonable(model), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_model(path) -> TrainedModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file is not valid JSON: {exc}") from exc
    return model_from_jsonable(payload)
