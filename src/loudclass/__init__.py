"""Loudness-feature hearing-profile classification toolkit."""

import os

# BLAS runs on one thread per process unless the user set these: fold
# fits already run one per CPU in worker processes, where more BLAS
# threads only compete for the same CPUs. BLAS reads them when numpy
# loads, so this acts only when loudclass is imported before numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from ._version import __version__
from .bisgaard import (
    Audiogram,
    BisgaardClass,
    StandardAudiogram,
    classify,
    load_profiles,
    pta,
)
from .classifiers import (
    ClassifierSpec,
    OvrModel,
    fit,
    load_model,
    save_model,
)
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateFeatureError,
    DegenerateLabelError,
    DomainError,
    LoudclassError,
    NumericError,
    ParameterError,
    ParseError,
    RangeError,
    SchemaError,
    ShapeError,
    UndefinedMetricError,
)
from .explain import exact_shapley, explain_model, importance_report
from .harness import (
    ExperimentConfig,
    FoldPlan,
    kfold_split,
    roving_sweep,
    run_experiment,
)
from .loudness import (
    FEATURE_NAMES,
    LoudnessFunction,
    derive_features,
)
from .pca import PcaModel, fit_pca, standardize, transform
from .pipeline import (
    LabeledRecord,
    RovingConfig,
    SyntheticConfig,
    apply_roving,
    feature_matrix,
    generate_synthetic,
    labels_of,
    load_labeled_json,
    preprocess,
    write_labeled_json,
)

__all__ = [
    "__version__",
    "Audiogram",
    "BisgaardClass",
    "ClassifierSpec",
    "ConfigurationError",
    "DataError",
    "DegenerateFeatureError",
    "DegenerateLabelError",
    "DomainError",
    "ExperimentConfig",
    "FEATURE_NAMES",
    "FoldPlan",
    "LabeledRecord",
    "LoudclassError",
    "LoudnessFunction",
    "NumericError",
    "OvrModel",
    "ParameterError",
    "ParseError",
    "PcaModel",
    "RangeError",
    "RovingConfig",
    "SchemaError",
    "ShapeError",
    "StandardAudiogram",
    "SyntheticConfig",
    "UndefinedMetricError",
    "apply_roving",
    "classify",
    "derive_features",
    "exact_shapley",
    "explain_model",
    "feature_matrix",
    "fit",
    "fit_pca",
    "generate_synthetic",
    "importance_report",
    "kfold_split",
    "labels_of",
    "load_labeled_json",
    "load_model",
    "load_profiles",
    "preprocess",
    "pta",
    "roving_sweep",
    "run_experiment",
    "save_model",
    "standardize",
    "transform",
    "write_labeled_json",
]
