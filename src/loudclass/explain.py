"""Post-hoc explainability: exact Shapley values and permutation importance.

Shapley values are interventional: the value of a coalition is the model
output with the coalition's features taken from the explained record and
the rest from a background row, averaged over the background sample. Both
algorithms below are exact (no sampling), so the additivity, symmetry and
null-player axioms hold to floating-point precision.

- dt and rf score a row by summing tree-leaf payloads, so their values come
  from interventional TreeSHAP (Lundberg et al. 2020, *From local
  explanations to global understanding with explainable AI for trees*,
  "independent" form): a closed form per (background row, leaf) pair.
- Every other variant enumerates the 2^d coalitions outright; with 12
  features that is 4096 composite rows per background row.

Permutation importance scores each shuffled copy of the data as one
``predict`` of it would, bit for bit. The data is standardized once. Most
variants stack a feature's standardized copies and score them in one
``index_standardized`` call. dt and rf route the data once per tree and
then re-route, per shuffled feature, only the rows whose shuffled value
leaves the interval their leaf allows, which excludes every row whose tree
path does not test that feature (see ``_leaf_sum_copies``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Annotated

import numpy as np

from .classifiers import TrainedModel
from .classifiers.tree import LeafVoteModel, leaf_boxes, tree_leaves, tree_predict
from .domains import AtLeast, AtMost, OneOf, check
from .errors import ConfigurationError, DataError, ShapeError
from .loudness import FEATURE_NAMES
# accuracy and balanced_accuracy are unused here, but perfbench/spans.py
# wraps this module's names.
from .metrics import (  # noqa: F401
    accuracy,
    accuracy_of,
    balanced_accuracy,
    balanced_accuracy_of,
    count_matrix,
    label_codes,
    sorted_labels,
)

# 2^16 coalition evaluations is the ceiling before enumeration cost
# stops being "feasible by construction".
_MAX_EXACT_FEATURES = 16

PERMUTATION_METRICS = ("balanced_accuracy", "accuracy")
PermMetric = Annotated[str, OneOf(PERMUTATION_METRICS)]

# The most shuffled copies of each feature permutation importance takes.
# One feature's copies are stacked as repeats x rows x features float64
# values, so at this bound the copies of 810 training rows of 12 features
# take 0.78 GB.
MAX_PERM_REPEATS = 10_000
PermRepeats = Annotated[int, AtLeast(1), AtMost(MAX_PERM_REPEATS)]


def default_feature_names(n_features: int) -> list[str]:
    if n_features == len(FEATURE_NAMES):
        return list(FEATURE_NAMES)
    return [f"x{i}" for i in range(n_features)]


@dataclass(frozen=True)
class ShapExplanation:
    """Per-record, per-feature signed contributions in model-output units."""

    feature_names: tuple[str, ...]
    values: np.ndarray
    base_values: np.ndarray
    feature_values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("values", "base_values", "feature_values"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n, d = self.values.shape
        if self.feature_values.shape != (n, d):
            raise ShapeError("feature_values must match the values matrix")
        if self.base_values.shape != (n,):
            raise ShapeError("base_values must have one entry per record")
        if len(self.feature_names) != d:
            raise ShapeError("feature_names must match the feature count")

    @property
    def n_records(self) -> int:
        return self.values.shape[0]


@lru_cache(maxsize=4)
def _coalition_tables(d: int):
    """Masks plus, per feature, the paired coalition indices and weights."""
    n_masks = 1 << d
    masks = ((np.arange(n_masks)[:, None] >> np.arange(d)) & 1).astype(bool)
    sizes = masks.sum(axis=1)
    fact = [math.factorial(s) for s in range(d + 1)]
    size_weight = np.array(
        [fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)]
    )
    per_feature = []
    for i in range(d):
        without = np.flatnonzero(~masks[:, i])
        per_feature.append((without, without + (1 << i), size_weight[sizes[without]]))
    return masks, per_feature


def _coalition_values(f, record: np.ndarray, background: np.ndarray) -> np.ndarray:
    """v(S) for every coalition: shape (2^d,) or (2^d, C) for vector f."""
    d = record.shape[0]
    if d > _MAX_EXACT_FEATURES:
        raise ConfigurationError(
            f"exact enumeration supports at most {_MAX_EXACT_FEATURES} features"
        )
    masks, _ = _coalition_tables(d)
    composites = np.where(masks[:, None, :], record, background[None, :, :])
    out = np.asarray(f(composites.reshape(-1, d)), dtype=np.float64)
    n_bg = background.shape[0]
    if out.ndim == 1:
        return out.reshape(len(masks), n_bg).mean(axis=1)
    return out.reshape(len(masks), n_bg, out.shape[1]).mean(axis=1)


def _phi_from_values(v: np.ndarray, d: int) -> np.ndarray:
    """Weighted marginal contributions; works on (2^d,) or (2^d, C) values."""
    _, per_feature = _coalition_tables(d)
    phi = [weights @ (v[with_i] - v[without]) for without, with_i, weights in per_feature]
    return np.array(phi)


@lru_cache(maxsize=4)
def _leaf_weights(d: int):
    """Shapley weights of a leaf that x reaches with the features of A taken
    from x and those of B from z: ``gain[|A|, |B|]`` for each feature in A,
    ``loss[|A|, |B|]`` for each in B (zero where the set is empty)."""
    fact = [math.factorial(s) for s in range(d + 1)]
    gain = np.zeros((d + 1, d + 1))
    loss = np.zeros((d + 1, d + 1))
    for a in range(d + 1):
        for b in range(d + 1 - a):
            if a:
                gain[a, b] = fact[a - 1] * fact[b] / fact[a + b]
            if b:
                loss[a, b] = fact[a] * fact[b - 1] / fact[a + b]
    return gain, loss


def _tree_shap(table, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Interventional Shapley values of ``sum_l payload_l [lo_l < row <= hi_l]``.

    For one background row z, the composite (x_S, z_~S) reaches a leaf when
    each feature's value lies in the leaf's interval: a feature that only
    x's value satisfies (set A) must come from x, one that only z's value
    satisfies (set B) must come from z, and one that neither satisfies
    makes the leaf unreachable. The leaf's indicator is then a game whose
    Shapley values have the closed form of ``_leaf_weights``; phi is their
    payload-weighted sum over leaves, averaged over background rows.
    """
    lo, hi, payload = table
    x_in = (lo < x) & (x <= hi)
    z = background[:, None, :]
    z_in = (lo < z) & (z <= hi)
    only_x = x_in & ~z_in
    only_z = z_in & ~x_in
    reached = np.where((x_in | z_in).all(axis=2), payload, 0.0)
    a, b = only_x.sum(axis=2), only_z.sum(axis=2)
    gain, loss = _leaf_weights(len(x))
    phi = np.tensordot(reached * gain[a, b], only_x, axes=2) - np.tensordot(
        reached * loss[a, b], only_z, axes=2
    )
    return phi / len(background)


def _check_shapley_inputs(records, background):
    """``(records, background)`` as float matrices with one record per row."""
    records = np.asarray(records, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if background.ndim != 2 or background.shape[1] != records.shape[1]:
        raise ShapeError("background must be 2-d with the record's feature count")
    if background.shape[0] == 0:
        raise ConfigurationError("background set must be non-empty")
    # A NaN reaches no leaf box, yet tree_predict sends it right.
    if not (np.isfinite(records).all() and np.isfinite(background).all()):
        raise DataError("records and background must be finite")
    return records, background


def _one_record(record) -> np.ndarray:
    record = np.asarray(record, dtype=np.float64)
    if record.ndim != 1:
        raise ShapeError("record must be a 1-d feature vector")
    return record[None, :]


def exact_shapley(f, record, background) -> tuple[np.ndarray, float]:
    """Exact Shapley values of a scalar output function for one record.

    Returns (phi, base) where base is the expected output over the
    background (the empty coalition) and base + phi.sum() equals the mean
    output on the full record.
    """
    records, background = _check_shapley_inputs(_one_record(record), background)
    v = _coalition_values(f, records[0], background)
    return _phi_from_values(v, records.shape[1]), float(v[0])


def _class_shapley(model: TrainedModel, X: np.ndarray, background: np.ndarray):
    """Shapley values ``(n, d, C)`` and bases ``(n, C)`` of every class score
    for each row of X.

    X and the background are standardized once, and every score is taken
    in that space: the scaler acts per feature, so composites of
    standardized rows are the standardized composites, bit for bit. dt and
    rf use TreeSHAP, in the space their trees split; the other variants
    enumerate coalitions.
    """
    n, d = X.shape
    Z = model.scaler.transform(X)
    z = model.scaler.transform(background)
    if isinstance(model.submodels[0], LeafVoteModel):
        tables = [m.leaf_table(d) for m in model.submodels]
        phi = np.array([
            np.stack([_tree_shap(table, x, z) for table in tables], axis=-1)
            for x in Z
        ])
        base = model.proba_standardized(z).mean(axis=0)
        return phi, np.tile(base, (n, 1))
    values = [_coalition_values(model.proba_standardized, x, z) for x in Z]
    phi = np.array([_phi_from_values(v, d) for v in values])
    return phi, np.array([v[0] for v in values])


def explain_model(
    model: TrainedModel, X, background, *, feature_names=None
) -> tuple[ShapExplanation, dict]:
    """Explain every row of X; returns the class-agnostic explanation and a
    per-class dict of explanations sharing the same feature values."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("expected a 2-d feature matrix")
    X, background = _check_shapley_inputs(X, background)
    names = tuple(feature_names) if feature_names else tuple(default_feature_names(X.shape[1]))
    phi, base = _class_shapley(model, X, background)
    agnostic = ShapExplanation(names, phi.mean(axis=2), base.mean(axis=1), X.copy())
    by_class = {
        cls: ShapExplanation(names, phi[:, :, ci], base[:, ci], X.copy())
        for ci, cls in enumerate(model.classes)
    }
    return agnostic, by_class


def beeswarm_ranking(explanation: ShapExplanation) -> list[int]:
    """Feature indices by mean |value| descending, names ascending on ties."""
    mean_abs = np.abs(explanation.values).mean(axis=0)
    return sorted(
        range(len(explanation.feature_names)),
        key=lambda i: (-mean_abs[i], explanation.feature_names[i]),
    )


def beeswarm_export(explanation: ShapExplanation, record_ids=None) -> list[dict]:
    """Long-format plot rows: one per (record, feature), importance-ranked."""
    n = explanation.n_records
    if record_ids is None:
        record_ids = list(range(n))
    record_ids = list(record_ids)
    if len(record_ids) != n:
        raise ShapeError("record_ids must match the record count")
    rows = []
    for rank, fi in enumerate(beeswarm_ranking(explanation), start=1):
        for r in range(n):
            rows.append(
                {
                    "record_id": record_ids[r],
                    "feature": explanation.feature_names[fi],
                    "shap_value": float(explanation.values[r, fi]),
                    "feature_value": float(explanation.feature_values[r, fi]),
                    "rank": rank,
                }
            )
    return rows


@dataclass(frozen=True)
class SplitImportance:
    """Permutation results for one split: baseline and per-feature decreases."""

    split: str
    metric: str
    baseline: float
    decreases: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.decreases, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "decreases", arr)


@dataclass(frozen=True)
class PermutationImportanceReport:
    feature_names: tuple[str, ...]
    metric: str
    splits: tuple[SplitImportance, ...]

    def split(self, name: str) -> SplitImportance:
        for s in self.splits:
            if s.split == name:
                return s
        raise KeyError(name)


def permutation_importance(
    model: TrainedModel,
    X,
    y,
    *,
    repeats: int = 10,
    metric: str = "balanced_accuracy",
    seed: int = 0,
    split: str = "test",
) -> SplitImportance:
    """Per-feature score drop when that column is shuffled, repeated.

    Shuffle streams are keyed by (seed, feature, repeat), so results do
    not depend on evaluation order. Every copy is predicted as one
    ``predict_index`` of it would be: dt and rf re-route only the rows
    whose shuffled value can change their leaf, the other variants score
    each feature's stacked standardized copies in one call. Scores come
    from the count matrix of ``y`` against the predictions, both as indices
    into the sorted labels of ``y``, so they equal the label API's
    ``balanced_accuracy(y, predicted)`` and ``accuracy(y, predicted)``.
    Negative decreases are legitimate: shuffling can accidentally help.
    """
    check("metric", metric, PermMetric)
    check("repeats", repeats, PermRepeats)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("expected a 2-d feature matrix")
    y = list(y)
    if len(y) != X.shape[0]:
        raise ShapeError(f"{X.shape[0]} feature rows but {len(y)} labels")

    classes = sorted_labels(y)
    t = label_codes(y, classes)
    # Model class index -> index into classes; a class y lacks gets
    # len(classes), as label_codes gives every label outside the list.
    recode = label_codes(model.classes, classes)
    score_of = balanced_accuracy_of if metric == "balanced_accuracy" else accuracy_of

    def score(predicted: np.ndarray) -> float:
        return score_of(count_matrix(t, recode[predicted], len(classes)))

    leaf_sum = isinstance(model.submodels[0], LeafVoteModel)
    copies = _leaf_sum_copies if leaf_sum else _stacked_copies
    predictions = copies(model, X, seed, repeats)
    baseline = score(next(predictions))
    decreases = np.empty((X.shape[1], repeats))
    for fi, predicted in enumerate(predictions):
        for rep in range(repeats):
            decreases[fi, rep] = baseline - score(predicted[rep])
    return SplitImportance(split, metric, baseline, decreases)


def _shuffles(seed: int, fi: int, repeats: int, n: int) -> np.ndarray:
    """``(repeats, n)``: the row order of column ``fi`` in each shuffled copy."""
    return np.array([
        np.random.default_rng(np.random.SeedSequence([seed, fi, rep])).permutation(n)
        for rep in range(repeats)
    ])


def _stacked_copies(model: TrainedModel, X: np.ndarray, seed: int, repeats: int):
    """The class index predicted for each row of X, then, per feature, for
    each row of each shuffled copy ``(repeats, n)``: one
    ``index_standardized`` of the feature's copies stacked.

    X is standardized once and the standardized rows are tiled, as
    ``_leaf_sum_copies`` does: the scaler acts on each value alone, so the
    shuffled column of the standardized X is the standardized shuffled
    column, and each stacked matrix holds the bits ``predict_index`` of the
    unstandardized copies would score.
    """
    Z = model.scaler.transform(X)
    n, d = Z.shape
    yield model.index_standardized(Z)
    for fi in range(d):
        shuffled = np.tile(Z, (repeats, 1))
        shuffled[:, fi] = Z[_shuffles(seed, fi, repeats, n), fi].ravel()
        yield model.index_standardized(shuffled).reshape(repeats, n)


def _leaf_sum_copies(model: TrainedModel, X: np.ndarray, seed: int, repeats: int):
    """``_stacked_copies`` for dt and rf, re-routing only the rows that can
    move.

    X is standardized once; the scaler acts per element, so the shuffled
    column of the standardized X is the standardized shuffled column. Each
    tree routes X once, keeping each row's leaf and vote. A row reaches
    leaf l exactly when it lies in l's box (``leaf_boxes``), so a shuffled
    copy of a row stays in the row's leaf while the new value of the
    shuffled feature stays in the leaf's interval of that feature; a path
    that does not test the feature leaves the interval unbounded. Only the
    copied rows whose new value falls outside are routed again, and every
    other row keeps its vote. Each copy's vote sums then go through the
    submodel's own ``score_from_votes``, so they give ``predict_index``'s
    bits: rf votes are integer counts, exact in any order, and dt has one
    tree, whose old vote is subtracted to exactly 0 before the new one is
    added.
    """
    Z = model.scaler.transform(X)
    n, d = Z.shape
    # Per submodel: its vote sums, and per tree (tree, each row's vote and
    # leaf, the leaves' boxes, and which features the tree tests).
    routed = []
    for sub in model.submodels:
        trees = []
        for tree in sub.trees:
            lo, hi, value = leaf_boxes(tree, d)
            leaves = tree_leaves(tree, Z)
            tests = np.isfinite(lo).any(axis=0) | np.isfinite(hi).any(axis=0)
            trees.append((tree, sub.tree_votes(value[leaves]), leaves, lo, hi, tests))
        routed.append((np.sum([votes for _, votes, *_ in trees], axis=0), trees))
    yield np.argmax(np.column_stack([
        sub.score_from_votes(total) for sub, (total, _) in zip(model.submodels, routed)
    ]), axis=1)
    scores = np.empty((len(routed), repeats, n))
    for fi in range(d):
        column = Z[_shuffles(seed, fi, repeats, n), fi]
        for ci, (sub, (total, trees)) in enumerate(zip(model.submodels, routed)):
            sums = np.empty((repeats, n), dtype=total.dtype)
            sums[:] = total
            flat = sums.reshape(-1)
            for tree, votes, leaves, lo, hi, tests in trees:
                if not tests[fi]:
                    continue
                stays = (lo[leaves, fi] < column) & (column <= hi[leaves, fi])
                moves = np.flatnonzero(~stays)  # positions in the (repeats, n) copies
                if len(moves) == 0:
                    continue
                rows = moves % n
                moved = Z[rows]
                moved[:, fi] = column.reshape(-1)[moves]
                new = sub.tree_votes(tree_predict(tree, moved))
                flat[moves] = (flat[moves] - votes[rows]) + new
            scores[ci] = sub.score_from_votes(sums)
        yield np.argmax(scores, axis=0)


def importance_report(
    model: TrainedModel,
    X_train,
    y_train,
    X_test,
    y_test,
    *,
    repeats: int = 10,
    metric: str = "balanced_accuracy",
    seed: int = 0,
    feature_names=None,
) -> PermutationImportanceReport:
    """Permutation importance on the training and test splits."""
    d = np.asarray(X_train).shape[1]
    names = tuple(feature_names) if feature_names else tuple(default_feature_names(d))
    train = permutation_importance(
        model, X_train, y_train, repeats=repeats, metric=metric, seed=seed,
        split="train",
    )
    test = permutation_importance(
        model, X_test, y_test, repeats=repeats, metric=metric, seed=seed,
        split="test",
    )
    return PermutationImportanceReport(names, metric, (train, test))
