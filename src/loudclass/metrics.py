"""Classification metrics: balanced accuracy, F1 family, ROC/PR curves,
confusion matrices, and the paired t-test used to compare classifiers.

Every count comes from one count matrix over class indices
(``count_matrix``): ``np.bincount`` tallies the (true, predicted) index
pairs. The ``*_of`` functions score such a matrix; callers that already
hold class indices, such as the cross-validation harness and permutation
importance, call them directly. The label API (``balanced_accuracy``,
``weighted_f1``, ``f1_per_class``, ``accuracy``, ``confusion``) maps its
labels to indices once, with one dict lookup each, and calls the same
functions. Degenerate 0/0 ratios resolve to 0 by convention; every such
event raises a ``MetricWarning`` and increments ``degenerate_events`` so
silent fallbacks cannot hide in aggregate numbers. Balanced accuracy
likewise warns when it has to exclude a listed class with no true
instances.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Annotated

import numpy as np

from .domains import OneOf, check
from .errors import (
    DataError,
    NumericError,
    ShapeError,
    UndefinedMetricError,
)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class MetricWarning(UserWarning):
    """A metric hit a documented degenerate case and applied its convention."""


#: Counts degenerate events by name, e.g. "precision_zero_division".
degenerate_events: Counter[str] = Counter()


def _degenerate(event: str, message: str) -> None:
    degenerate_events[event] += 1
    warnings.warn(message, MetricWarning, stacklevel=3)


def sorted_labels(labels) -> list:
    """Distinct labels in sorted order; unorderable mixes sort by ``str``."""
    distinct = set(labels)
    try:
        return sorted(distinct)
    except TypeError:
        return sorted(distinct, key=str)


def label_codes(labels, classes) -> np.ndarray:
    """Index of each label in ``classes``; labels outside it get ``len(classes)``."""
    index = {c: i for i, c in enumerate(classes)}
    n = len(labels)
    return np.fromiter(map(index.get, labels, repeat(len(classes), n)), np.intp, n)


def count_matrix(t, p, n_classes: int) -> np.ndarray:
    """(k+1) x (k+1) counts of the (true, predicted) class-index pairs of
    ``t`` and ``p``, rows true, columns predicted, for k = ``n_classes``.

    Index k stands for every label outside the class list, as
    ``label_codes`` gives it, so row and column k pool those labels.
    """
    size = n_classes + 1
    pairs = np.asarray(t, dtype=np.intp) * size + np.asarray(p, dtype=np.intp)
    return np.bincount(pairs, minlength=size * size).reshape(size, size)


def _label_counts(y_true, y_pred, classes) -> np.ndarray:
    """``count_matrix`` of two label sequences over ``classes``."""
    return count_matrix(
        label_codes(y_true, classes), label_codes(y_pred, classes), len(classes)
    )


def _check_lengths(y_true, y_pred) -> None:
    if len(y_true) != len(y_pred):
        raise ShapeError("y_true and y_pred must have equal length")


@dataclass(frozen=True)
class BinaryCounts:
    """Confusion counts of one binary problem."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def _per_class_counts(matrix: np.ndarray) -> list[BinaryCounts]:
    """One-vs-rest counts of every row/column of a count matrix."""
    n = int(matrix.sum())
    hits = matrix.diagonal().tolist()
    true = matrix.sum(axis=1).tolist()
    predicted = matrix.sum(axis=0).tolist()
    return [
        BinaryCounts(tp, n - t - p + tp, p - tp, t - tp)
        for tp, t, p in zip(hits, true, predicted)
    ]


def binary_counts(y_true, y_pred, positive) -> BinaryCounts:
    _check_lengths(y_true, y_pred)
    return _per_class_counts(_label_counts(y_true, y_pred, (positive,)))[0]


def precision(counts: BinaryCounts) -> float:
    denom = counts.tp + counts.fp
    if denom == 0:
        _degenerate("precision_zero_division", "no predicted positives; precision set to 0")
        return 0.0
    return counts.tp / denom


def recall(counts: BinaryCounts) -> float:
    denom = counts.tp + counts.fn
    if denom == 0:
        _degenerate("recall_zero_division", "no true positives exist; recall set to 0")
        return 0.0
    return counts.tp / denom


def specificity(counts: BinaryCounts) -> float:
    denom = counts.tn + counts.fp
    if denom == 0:
        _degenerate("specificity_zero_division", "no true negatives exist; specificity set to 0")
        return 0.0
    return counts.tn / denom


def f1_from_counts(counts: BinaryCounts) -> float:
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        _degenerate("f1_zero_division", "class never true and never predicted; F1 set to 0")
        return 0.0
    return 2 * counts.tp / denom


def f1_of(matrix: np.ndarray) -> list[float]:
    """F1 of each of the k classes of a ``count_matrix``, class by class;
    0 for a class that is never true and never predicted."""
    return [f1_from_counts(counts) for counts in _per_class_counts(matrix)[:-1]]


def balanced_accuracy_of(matrix: np.ndarray, classes=None) -> float:
    """Unweighted mean recall of the classes of a ``count_matrix`` that
    have true instances, in class order.

    ``classes`` names the matrix's k classes: each one without true
    instances is then excluded with a warning. Without names, the scored
    classes are the ones present in the true labels, so a class without
    true instances is not one of them and is left out silently.
    """
    hits = matrix.diagonal().tolist()
    true = matrix.sum(axis=1).tolist()
    if sum(true) == 0:
        raise UndefinedMetricError("balanced accuracy needs at least one instance")
    recalls = []
    for ci in range(len(true) - 1):
        if true[ci] == 0:
            if classes is not None:
                _degenerate(
                    "balanced_accuracy_empty_class",
                    f"class {classes[ci]} has no true instances and is excluded",
                )
            continue
        recalls.append(hits[ci] / true[ci])
    if not recalls:
        raise UndefinedMetricError("no class has true instances")
    return sum(recalls) / len(recalls)


def accuracy_of(matrix: np.ndarray) -> float:
    """Fraction of the pairs of a ``count_matrix`` that predict their true
    class; labels outside the class list are never correct."""
    n = int(matrix.sum())
    if n == 0:
        raise UndefinedMetricError("accuracy needs at least one instance")
    return int(matrix.diagonal()[:-1].sum()) / n


def weighted_f1_of(matrix: np.ndarray, t) -> float:
    """Support-weighted mean F1 of the classes of a ``count_matrix`` that
    have true instances, summed in the order in which they first appear
    in ``t``, the true class indices the matrix counts."""
    n = int(matrix.sum())
    if n == 0:
        raise UndefinedMetricError("weighted F1 needs at least one instance")
    t = np.asarray(t, dtype=np.intp)
    _, first = np.unique(t, return_index=True)
    support = matrix.sum(axis=1).tolist()
    per_class = _per_class_counts(matrix)
    return sum(
        (support[ci] / n) * f1_from_counts(per_class[ci])
        for ci in t[np.sort(first)].tolist()
    )


def f1_per_class(y_true, y_pred, cls) -> float:
    """F1 with ``cls`` as the positive class; 0 when the class never occurs."""
    return f1_from_counts(binary_counts(y_true, y_pred, cls))


def balanced_accuracy(y_true, y_pred, classes=None) -> float:
    """Unweighted mean of per-class recall.

    Listed classes without true instances carry no recall and are excluded
    with a warning; by default the classes are the labels of ``y_true``.
    For two classes this reduces to (sensitivity + specificity)/2.
    """
    _check_lengths(y_true, y_pred)
    classes = sorted_labels(y_true) if classes is None else list(classes)
    return balanced_accuracy_of(_label_counts(y_true, y_pred, classes), classes)


def accuracy(y_true, y_pred) -> float:
    """Plain fraction of correct predictions."""
    _check_lengths(y_true, y_pred)
    return accuracy_of(_label_counts(y_true, y_pred, sorted_labels(y_true)))


def weighted_f1(y_true, y_pred) -> float:
    """Support-weighted mean of per-class F1 over the classes present."""
    _check_lengths(y_true, y_pred)
    # Classes in first-appearance order of y_true, the order of the sum.
    classes = list(dict.fromkeys(y_true))
    t = label_codes(y_true, classes)
    return weighted_f1_of(count_matrix(t, label_codes(y_pred, classes), len(classes)), t)


@dataclass(frozen=True)
class CurvePoints:
    """Plot-ready points of one threshold sweep.

    ROC: x = 1-specificity, y = sensitivity, endpoints (0,0) and (1,1).
    PR: x = recall, y = precision.
    """

    kind: str
    x: np.ndarray
    y: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "y", "thresholds"):
            getattr(self, name).setflags(write=False)


def _binary_arrays(y_true, scores) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y_true, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1:
        raise ShapeError("labels and scores must be equal-length 1-d sequences")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("labels must be binary (0/1)")
    return y, s


def roc_curve(y_true, scores) -> tuple[CurvePoints, float]:
    """Threshold sweep over distinct scores plus a +inf sentinel.

    The area under the polyline (trapezoid rule) equals the tie-adjusted
    Mann-Whitney pair statistic.
    """
    y, s = _binary_arrays(y_true, scores)
    n_pos = float(y.sum())
    n_neg = float(len(y) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC needs at least one positive and one negative")
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    last_of_group = np.r_[np.diff(s_sorted) != 0, True]
    tp = np.cumsum(y_sorted)[last_of_group]
    fp = np.cumsum(1.0 - y_sorted)[last_of_group]
    x = np.r_[0.0, fp / n_neg]
    ycurve = np.r_[0.0, tp / n_pos]
    thresholds = np.r_[np.inf, s_sorted[last_of_group]]
    auc = float(_trapezoid(ycurve, x))
    return CurvePoints("roc", x, ycurve, thresholds), auc


def pr_curve(y_true, scores) -> tuple[CurvePoints, float]:
    """Precision-recall sweep; the score is the step-sum average precision
    sum((R_n - R_{n-1}) * P_n), not a trapezoid."""
    y, s = _binary_arrays(y_true, scores)
    n_pos = float(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    last_of_group = np.r_[np.diff(s_sorted) != 0, True]
    tp = np.cumsum(y_sorted)[last_of_group]
    predicted = np.flatnonzero(last_of_group) + 1.0
    precision_points = tp / predicted
    recall_points = tp / n_pos
    recall_steps = np.diff(np.r_[0.0, recall_points])
    ap = float(np.sum(recall_steps * precision_points))
    thresholds = s_sorted[last_of_group]
    return CurvePoints("pr", recall_points, precision_points, thresholds), ap


def micro_average_ovr(y_true, proba, classes, kind: str = "roc") -> tuple[CurvePoints, float]:
    """Pool all per-class binary problems into one curve.

    Column ``j`` of ``proba`` must score class ``classes[j]``.
    """
    check("kind", kind, Annotated[str, OneOf(("roc", "pr"))])
    proba = np.asarray(proba, dtype=np.float64)
    if proba.ndim != 2 or proba.shape[1] != len(classes):
        raise ShapeError(
            f"probability matrix must be (n, {len(classes)}), got {proba.shape}"
        )
    if proba.shape[0] != len(y_true):
        raise ShapeError("probability matrix and labels disagree on record count")
    codes = label_codes(y_true, classes)
    binarized = (np.arange(len(classes))[:, None] == codes).astype(np.float64).ravel()
    return (roc_curve if kind == "roc" else pr_curve)(binarized, proba.T.ravel())


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are true classes, columns predicted classes."""

    classes: tuple
    matrix: np.ndarray
    normalize: str  # "none" | "by_predicted"

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)


_NORMALIZE = Annotated[str, OneOf(("none", "by_predicted"))]


def confusion(y_true, y_pred, classes=None, normalize: str = "none") -> ConfusionMatrix:
    """Count matrix, optionally column-normalized by predicted class.

    Zero predicted columns stay zero under normalization. Every label must
    be one of ``classes``.
    """
    check("normalize", normalize, _NORMALIZE)
    _check_lengths(y_true, y_pred)
    if classes is None:
        classes = sorted_labels(list(y_true) + list(y_pred))
    classes = tuple(classes)
    matrix = _label_counts(y_true, y_pred, classes)
    if matrix[-1].any() or matrix[:, -1].any():
        known = set(classes)
        outside = next(
            label for pair in zip(y_true, y_pred) for label in pair if label not in known
        )
        raise DataError(f"label {outside!r} outside the class set")
    return confusion_of(matrix, classes, normalize)


def confusion_of(matrix: np.ndarray, classes, normalize: str = "none") -> ConfusionMatrix:
    """The confusion matrix of the k ``classes`` of a ``count_matrix``,
    optionally column-normalized by predicted class; the pooled row and
    column of labels outside the class list are left out."""
    check("normalize", normalize, _NORMALIZE)
    counts = matrix[:-1, :-1].astype(np.float64)
    if normalize == "by_predicted":
        sums = counts.sum(axis=0)
        nonzero = sums > 0
        counts[:, nonzero] = counts[:, nonzero] / sums[nonzero]
    return ConfusionMatrix(tuple(classes), counts, normalize)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    degenerate: bool


def paired_t_test(scores_a, scores_b) -> TTestResult:
    """Two-sided paired t-test on fold-wise score differences, df = n-1.

    Zero-variance differences are degenerate: all-zero differences give
    (t=0, p=1) by convention; a nonzero constant difference reports the
    limit (t=+-inf, p=0) with the degeneracy flag set.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError("score vectors must be equal-length 1-d sequences")
    n = len(a)
    if n < 2:
        raise DataError("paired t-test needs at least 2 pairs")
    diffs = a - b
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p=1.0, degenerate=False)
        return TTestResult(t=math.copysign(math.inf, mean), p=0.0, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, p=t_two_sided_p(t, n - 1), degenerate=False)


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom.

    That is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2). Its complement 1 - x is passed as t^2 / (df + t^2),
    so neither tail is computed by cancellation. An infinite t gives 0 and
    a NaN t gives NaN.
    """
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if math.isinf(t2):
        # |t| > 1.3e154: x is t^-2 scaled by df, and 1 - x rounds to 1.
        x, y = df / abs(t) / abs(t), 1.0
    else:
        x, y = df / (df + t2), t2 / (df + t2)
    return _betainc(0.5 * df, 0.5, x, y)


# The continued fraction stops once a step changes it by at most one
# rounding unit; TINY stands in for a zero denominator (Lentz's method).
_CF_EPS = 2.0**-52
_CF_TINY = 1e-300
_CF_MAX_TERMS = 10_000


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta I_x(a, b), given x and y = 1 - x.

    The continued fraction of Press et al., Numerical Recipes, section 6.4,
    is evaluated at x where it converges fast, x < (a + 1) / (a + b + 2),
    and otherwise at y through I_x(a, b) = 1 - I_y(b, a).
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    log_front = (
        a * math.log(x) + b * math.log(y)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betainc_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betainc_fraction(b, a, y) / b


def _betainc_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method."""

    def guarded(v: float) -> float:
        return v if abs(v) >= _CF_TINY else _CF_TINY

    c = 1.0
    d = 1.0 / guarded(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        # The even step d_2m, then the odd step d_2m+1.
        for coef in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / guarded(1.0 + coef * d)
            c = guarded(1.0 + coef / c)
            step = d * c
            h *= step
        if abs(step - 1.0) <= _CF_EPS:
            return h
    raise NumericError(
        f"the incomplete beta I_x({a}, {b}) at x = {x} did not converge"
    )
