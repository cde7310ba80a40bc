"""One-vs-rest multi-class reduction over the seven classifier variants.

Each class in turn becomes the positive label of a binary subproblem; the
final prediction is the argmax over per-class scores (first class wins
exact ties). KNN is the one variant that is natively multi-class and
bypasses the reduction.

A model file holds each decision once: the variant, the classes, the
resolved parameters, the scaler, the seed (nn and rf only) and the fitted
state of each submodel. Loading rebuilds every submodel with the
constructor call ``fit`` makes and then restores its fitted state.

A variant's hyperparameter defaults, types and domains are written in one
place, the keyword defaults and annotations of its submodel's constructor
(``k: Annotated[int, AtLeast(1)] = 2``); ``DEFAULT_PARAMS`` and
``check_params`` read them from there. The default seeds are
``DEFAULT_SEEDS``; any seed given must be an integer >= 0. ``check_params``
is the one hyperparameter and seed check: ``ClassifierSpec.resolved`` calls
it before any fit and ``model_from_jsonable`` before any submodel is
rebuilt.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..bisgaard import BisgaardClass, class_from_name
from ..domains import Seed, check, domain
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
# fit deterministically and ignore the seed.
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
# arguments, in signature order.
_PARAMETERS = {
    variant: [
        p for name, p in inspect.signature(cls, eval_str=True).parameters.items()
        if name not in _CONTEXT_ARGS.get(variant, ())
    ]
    for variant, cls in _SUBMODEL_TYPES.items()
}

DEFAULT_PARAMS: dict[str, dict] = {
    variant: {p.name: p.default for p in params}
    for variant, params in _PARAMETERS.items()
}


# Per variant and parameter, its annotation; each must declare a bounded
# domain, checked here at import.
_DOMAINS: dict[str, dict] = {
    variant: {p.name: p.annotation for p in params if domain(p.annotation, bounded=True)}
    for variant, params in _PARAMETERS.items()
}


def check_params(variant: str, seed, params: dict) -> None:
    """Reject, as a ``ConfigurationError``, a seed (unless None) or a
    parameter value outside its domain, or a parameter ``variant`` does not
    take. ``params`` may name any subset of the variant's parameters."""
    domains = _DOMAINS[variant]
    unknown = set(params) - set(domains)
    if unknown:
        raise ConfigurationError(
            f"unknown {variant} parameters: {', '.join(sorted(unknown))}"
        )
    if seed is not None:
        check(f"{variant} seed", seed, Seed)
    for name, value in params.items():
        check(f"{variant} parameter {name}", value, domains[name])


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
        """The seed and the full parameter set, once ``check_params`` has
        passed them. Variants without a default seed draw no random numbers;
        their seed is None whatever valid ``seed`` says."""
        check_params(self.variant, self.seed, self.params)
        merged = {**DEFAULT_PARAMS[self.variant], **self.params}
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

    def proba_standardized(self, Z: np.ndarray) -> np.ndarray:
        return np.column_stack([m.predict_score(Z) for m in self.submodels])

    # The inherited predict_proba, bound here by name too: perfbench/spans.py
    # wraps OvrModel.predict_proba.
    predict_proba = TrainedModel.predict_proba


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
        check_params(variant, seed, params)
        scaler = StandardScaler.from_jsonable(payload["scaler"])
        submodels = [
            _make_submodel(variant, params, seed, ci, len(scaler.mean_)).load_fitted_state(state)
            for ci, state in enumerate(payload["submodels"])
        ]
    except KeyError as exc:
        raise SchemaError(f"model payload missing field {exc.args[0]!r}") from exc
    except SchemaError:
        raise
    except ConfigurationError as exc:
        raise SchemaError(f"model file: {exc}") from exc
    except (TypeError, ValueError) as exc:
        # A scaler or fitted-state value of the wrong type.
        raise SchemaError(f"model payload has a bad {variant} value: {exc}") from exc
    model_type = _MODEL_TYPES.get(variant, OvrModel)
    return model_type(variant, classes, scaler, submodels, seed=seed, params=params)


def save_model(model: TrainedModel, path) -> None:
    text = json.dumps(model_to_jsonable(model), sort_keys=True, indent=2) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def load_model(path) -> TrainedModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file is not valid JSON: {exc}") from exc
    return model_from_jsonable(payload)
