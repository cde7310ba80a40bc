"""Seven from-scratch classifier variants behind one one-vs-rest interface."""

from .boosting import GradientBoostingBinary
from .forest import RandomForestBinary
from .linear import LogisticRegressionBinary, penalized_logistic
from .neighbors import KnnModel, NearestNeighbors
from .neural import NeuralNetBinary
from .ovr import (
    DEFAULT_PARAMS,
    DEFAULT_SEEDS,
    VARIANTS,
    ClassifierSpec,
    OvrModel,
    TrainedModel,
    fit,
    load_model,
    model_from_jsonable,
    model_to_jsonable,
    predict,
    predict_proba,
    save_model,
)
from .scaler import StandardScaler
from .svm import SvmBinary
from .tree import DecisionTreeBinary, TreeNode, build_tree, tree_predict

__all__ = [
    "DEFAULT_PARAMS",
    "DEFAULT_SEEDS",
    "VARIANTS",
    "ClassifierSpec",
    "DecisionTreeBinary",
    "GradientBoostingBinary",
    "KnnModel",
    "LogisticRegressionBinary",
    "NearestNeighbors",
    "NeuralNetBinary",
    "OvrModel",
    "RandomForestBinary",
    "StandardScaler",
    "SvmBinary",
    "TrainedModel",
    "TreeNode",
    "build_tree",
    "fit",
    "load_model",
    "model_from_jsonable",
    "model_to_jsonable",
    "penalized_logistic",
    "predict",
    "predict_proba",
    "save_model",
    "tree_predict",
]
