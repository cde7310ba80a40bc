"""One-vs-rest multi-class reduction over the seven classifier variants.

Each class in turn becomes the positive label of a binary subproblem; the
final prediction is the argmax over per-class scores (first class wins
exact ties). KNN is the one variant that is natively multi-class and
bypasses the reduction.
"""

from __future__ import annotations

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
from .boosting import GradientBoostingBinary
from .forest import RandomForestBinary
from .linear import LogisticRegressionBinary
from .neighbors import KnnModel
from .neural import NeuralNetBinary
from .scaler import StandardScaler
from .svm import SvmBinary
from .tree import DecisionTreeBinary

VARIANTS = ("dt", "gb", "knn", "lr", "nn", "rf", "svm")

# All variants default to seed 0 except the network, which uses 1.
DEFAULT_SEEDS = {"dt": 0, "gb": 0, "knn": 0, "lr": 0, "nn": 1, "rf": 0, "svm": 0}

DEFAULT_PARAMS: dict[str, dict] = {
    "dt": {"min_samples_split": 5},
    "gb": {
        "n_estimators": 100,
        "learning_rate": 1.0,
        "max_depth": 2,
        "min_samples_split": 2,
    },
    "knn": {"k": 2},
    "lr": {"gtol": 1e-6, "max_iter": 10000},
    "nn": {
        "hidden": (20, 10),
        "alpha": 1e-4,
        "max_iter": 3000,
        "gtol": 1e-5,
        "ftol": 1e-11,
    },
    "rf": {"n_trees": 10, "min_samples_split": 2, "max_features": None},
    "svm": {"C": 1000.0, "tol": 1e-3, "gamma": None},
}

_BINARY_TYPES = {
    "dt": DecisionTreeBinary,
    "gb": GradientBoostingBinary,
    "lr": LogisticRegressionBinary,
    "nn": NeuralNetBinary,
    "rf": RandomForestBinary,
    "svm": SvmBinary,
}

# Constructor arguments that come from the fit instead of DEFAULT_PARAMS;
# only the network and the forest draw random numbers.
_CONTEXT_ARGS = {"nn": ("n_inputs", "seed_key"), "rf": ("seed_key",)}

FORMAT_VERSION = 3


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

    def resolved(self) -> tuple[int, dict]:
        defaults = DEFAULT_PARAMS[self.variant]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown {self.variant} parameters: {', '.join(sorted(unknown))}"
            )
        merged = {**defaults, **self.params}
        seed = DEFAULT_SEEDS[self.variant] if self.seed is None else self.seed
        return seed, merged


def _make_submodel(variant: str, params: dict, seed: int, ci: int, n_inputs: int):
    context = {"n_inputs": n_inputs, "seed_key": (seed, ci)}
    extra = {name: context[name] for name in _CONTEXT_ARGS.get(variant, ())}
    return _BINARY_TYPES[variant](**params, **extra)


class TrainedModel:
    """Common prediction interface: per-class scores plus argmax labels."""

    variant: str
    classes: tuple

    def predict_proba(self, X) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X) -> list:
        proba = self.predict_proba(X)
        # np.argmax returns the first maximum, giving the documented
        # first-in-class-list tie-break for free.
        return [self.classes[i] for i in np.argmax(proba, axis=1)]


class OvrModel(TrainedModel):
    def __init__(self, variant, classes, scaler, submodels, *, seed, params):
        self.variant = variant
        self.classes = tuple(classes)
        self.scaler = scaler
        self.submodels = list(submodels)
        self.seed = seed
        self.params = dict(params)

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ShapeError("expected a 2-d feature matrix")
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
    if not np.isfinite(X).all():
        raise DataError("features must be finite")

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

    scaler = StandardScaler().fit(X)
    Z = scaler.transform(X)
    y_idx = label_codes(y, class_list)

    if spec.variant == "knn":
        return KnnModel(class_list, scaler, Z, y_idx, k=params["k"])

    submodels = []
    for ci in range(n_classes):
        sub = _make_submodel(spec.variant, params, seed, ci, X.shape[1])
        sub.fit(Z, (y_idx == ci).astype(np.float64))
        submodels.append(sub)
    return OvrModel(spec.variant, class_list, scaler, submodels, seed=seed, params=params)


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
    }
    if model.variant == "knn":
        payload["knn"] = model.to_jsonable()
    else:
        payload["seed"] = model.seed
        payload["params"] = _jsonable_params(model.params)
        payload["scaler"] = model.scaler.to_jsonable()
        payload["submodels"] = [m.to_jsonable() for m in model.submodels]
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
        if variant == "knn":
            return KnnModel.from_jsonable(payload["knn"], classes)
        submodels = [
            _BINARY_TYPES[variant].from_jsonable(p) for p in payload["submodels"]
        ]
        return OvrModel(
            variant,
            classes,
            StandardScaler.from_jsonable(payload["scaler"]),
            submodels,
            seed=payload["seed"],
            params=payload["params"],
        )
    except KeyError as exc:
        raise SchemaError(f"model payload missing field {exc.args[0]!r}") from exc


def save_model(model: TrainedModel, path) -> None:
    text = json.dumps(model_to_jsonable(model), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_model(path) -> TrainedModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file is not valid JSON: {exc}") from exc
    return model_from_jsonable(payload)
