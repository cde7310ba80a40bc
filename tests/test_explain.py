import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from loudclass.classifiers import VARIANTS, ClassifierSpec, fit, ovr
from loudclass.classifiers.tree import LeafVoteModel, TreeNode, leaf_boxes, tree_predict
from loudclass.errors import ConfigurationError, DataError, ShapeError
from loudclass.explain import (
    _tree_shap,
    beeswarm_rows,
    exact_shapley,
    explain_model,
    importance_report,
    permutation_importance,
)
from loudclass.loudness import FEATURE_NAMES
from loudclass.metrics import accuracy, balanced_accuracy


def nonlinear_f(X):
    return X[:, 0] * X[:, 1] + 2.0 * X[:, 2] - np.abs(X[:, 3])


# --- exact Shapley -----------------------------------------------------------

def test_matches_naive_enumeration(rng):
    record = rng.normal(size=5)
    background = rng.normal(size=(6, 5))

    def f(X):
        return nonlinear_f(np.hstack([X, np.zeros((len(X), 0))])) + X[:, 4] ** 2

    phi, base = exact_shapley(f, record, background)
    ref_phi, ref_base = oracles.naive_shapley(f, record, background)
    assert phi == pytest.approx(ref_phi, abs=1e-10)
    assert base == pytest.approx(ref_base, abs=1e-12)


def test_additivity(rng):
    record = rng.normal(size=6)
    background = rng.normal(size=(10, 6))

    def f(X):
        return np.sin(X[:, 0]) + X[:, 1] * X[:, 2] - X[:, 3] ** 2 + X[:, 4] - X[:, 5]

    phi, base = exact_shapley(f, record, background)
    assert phi.sum() + base == pytest.approx(float(f(record[None, :])[0]), abs=1e-9)


def test_null_player_is_exactly_zero(rng):
    record = rng.normal(size=5)
    background = rng.normal(size=(8, 5))

    def f(X):
        return X[:, 0] + X[:, 2] ** 2  # features 1, 3, 4 unused

    phi, _ = exact_shapley(f, record, background)
    assert phi[1] == 0.0 and phi[3] == 0.0 and phi[4] == 0.0


def test_linear_closed_form(rng):
    w = rng.normal(size=12)
    b = 1.5
    record = rng.normal(size=12)
    background = rng.normal(size=(30, 12))

    phi, base = exact_shapley(lambda X: X @ w + b, record, background)
    expected = w * (record - background.mean(axis=0))
    assert np.abs(phi - expected).max() < 1e-9
    assert base == pytest.approx(float(background.mean(axis=0) @ w + b), abs=1e-9)


def test_symmetric_features_get_equal_credit(rng):
    background = np.zeros((4, 3))
    record = np.array([2.0, 2.0, 5.0])
    phi, _ = exact_shapley(lambda X: X[:, 0] + X[:, 1], record, background)
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def test_input_validation(rng):
    record = rng.normal(size=4)
    with pytest.raises(ConfigurationError):
        exact_shapley(lambda X: X[:, 0], record, np.zeros((0, 4)))
    with pytest.raises(ShapeError):
        exact_shapley(lambda X: X[:, 0], record, rng.normal(size=(5, 3)))
    with pytest.raises(ShapeError):
        exact_shapley(lambda X: X[:, 0], record[None, :], rng.normal(size=(5, 4)))
    wide = rng.normal(size=17)
    with pytest.raises(ConfigurationError):
        exact_shapley(lambda X: X[:, 0], wide, rng.normal(size=(5, 17)))


# --- model explanations --------------------------------------------------------

def test_class_agnostic_additivity(rng):
    centers = [(0.0, 0.0, 0.0), (3.0, 0.0, 1.0), (0.0, 3.0, -1.0)]
    X = np.vstack([rng.normal(c, 0.6, size=(10, 3)) for c in centers])
    labels = [f"c{i}" for i in range(3) for _ in range(10)]
    model = fit(ClassifierSpec("lr"), X, labels)
    background = X[::3]
    record = X[4]

    phi, base = explain_model(model, record[None, :], background)
    proba = model.predict_proba(record[None, :])[0]
    for j in range(len(model.classes)):
        assert phi[0, :, j].sum() + base[0, j] == pytest.approx(proba[j], abs=1e-9)
    # The beeswarm plots the class-agnostic values: the mean over classes.
    rows = list(beeswarm_rows(phi, record[None, :], ["r"]))
    plotted = {feature: value for _, feature, value, _, _ in rows}
    stacked = phi[0].T
    mean_phi = [plotted[f"column {i}"] for i in range(3)]
    assert mean_phi == pytest.approx(stacked.mean(axis=0), abs=1e-12)
    assert sum(mean_phi) + base[0].mean() == pytest.approx(proba.mean(), abs=1e-9)


def test_explain_model_shapes(rng):
    X = rng.normal(size=(30, 4))
    labels = ["a" if v > 0 else "b" for v in X[:, 0]]
    model = fit(ClassifierSpec("dt"), X, labels)
    phi, base = explain_model(model, X[:5], X[5:20])
    assert isinstance(phi, np.ndarray) and isinstance(base, np.ndarray)
    assert phi.shape == (5, 4, len(model.classes)) == (5, 4, 2)
    assert base.shape == (5, 2)
    rows = list(beeswarm_rows(phi, X[:5], list(range(5))))
    assert len(rows) == 5 * 4
    assert {feature for _, feature, *_ in rows} == {f"column {i}" for i in range(4)}


# --- TreeSHAP ------------------------------------------------------------------

# Few distinct values, so records and background rows often sit exactly on a
# threshold and thresholds repeat along a path.
GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)


def leaf(value):
    return TreeNode(value=value, n_samples=1)


def split(feature, threshold, left, right):
    return TreeNode(value=0.0, n_samples=1, feature=feature, threshold=threshold,
                    left=left, right=right)


@st.composite
def random_trees(draw, n_features, depth=0):
    if depth >= 4 or draw(st.integers(0, 2)) == 0:
        return leaf(draw(st.floats(-2.0, 2.0)))
    return split(
        draw(st.integers(0, n_features - 1)),
        draw(st.sampled_from(GRID)),
        draw(random_trees(n_features, depth + 1)),
        draw(random_trees(n_features, depth + 1)),
    )


@st.composite
def tree_games(draw):
    """(tree, record, background) over 1-4 features."""
    d = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from(GRID), min_size=d, max_size=d)
    return (
        draw(random_trees(d)),
        np.array(draw(row)),
        np.array(draw(st.lists(row, min_size=1, max_size=4))),
    )


SINGLE_LEAF = (leaf(0.7), np.array([0.0, 1.0]), np.array([[1.0, -1.0], [0.5, 0.5]]))
# Feature 0 split twice on one path, with a duplicated threshold below it.
SPLIT_TWICE = (
    split(0, 0.5,
          split(1, 0.0, split(0, -0.5, leaf(1.0), leaf(2.0)), leaf(-1.0)),
          split(0, 0.5, leaf(5.0), split(1, 0.0, leaf(3.0), leaf(-2.0)))),
    np.array([0.0, 0.5]),
    np.array([[-1.0, -1.0], [1.0, 0.0], [0.5, 1.0]]),
)


@settings(max_examples=300, deadline=None)
@given(tree_games())
@example(SINGLE_LEAF)
@example(SPLIT_TWICE)
def test_tree_shap_matches_the_factorial_oracle(game):
    tree, record, background = game
    phi = _tree_shap(leaf_boxes(tree, len(record)), record, background)
    expected, _ = oracles.naive_shapley(
        lambda M: tree_predict(tree, M), record, background
    )
    assert np.abs(phi - expected).max() <= 1e-12


def test_leaf_boxes_route_like_tree_predict(rng):
    tree = SPLIT_TWICE[0]
    lo, hi, value = leaf_boxes(tree, 2)
    X = rng.choice(GRID, size=(50, 2))
    inside = ((lo < X[:, None, :]) & (X[:, None, :] <= hi)).all(axis=2)
    assert np.array_equal(inside.sum(axis=1), np.ones(len(X)))
    assert np.array_equal(inside @ value, tree_predict(tree, X))


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_matches_enumeration_per_class(rng, variant):
    # explain_model scores in standardized space (TreeSHAP for dt and rf,
    # proba_standardized composites for the rest); exact_shapley enumerates
    # predict_proba on the raw composites. Unequal feature scales make the
    # standardization do real work.
    centers = [(0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 1.0, 0.0), (0.0, 2.0, -1.0, 1.0)]
    scales = np.array([1.0, 30.0, 0.02, 500.0])
    X = np.vstack([rng.normal(c, 0.8, size=(20, 4)) for c in centers]) * scales
    labels = [f"c{i}" for i in range(3) for _ in range(20)]
    model = fit(ClassifierSpec(variant), X, labels)
    background = X[::4]
    records = X[1:60:15]
    phi, base = explain_model(model, records, background)
    assert phi.shape == (len(records), 4, 3) and base.shape == (len(records), 3)
    for r, record in enumerate(records):
        for ci in range(len(model.classes)):
            expected, expected_base = exact_shapley(
                lambda M: model.predict_proba(M)[:, ci], record, background
            )
            assert np.abs(phi[r, :, ci] - expected).max() <= 1e-12
            assert base[r, ci] == pytest.approx(expected_base, abs=1e-12)


def test_tree_shap_needs_no_feature_limit(rng):
    X = rng.normal(size=(40, 20))
    labels = ["a" if v > 0 else "b" for v in X[:, 3]]
    model = fit(ClassifierSpec("dt"), X, labels)
    phi, base = explain_model(model, X[:1], X[10:20])
    proba = model.predict_proba(X[:1])[0]
    assert phi[0].mean(axis=1).sum() + base[0].mean() == pytest.approx(
        proba.mean(), abs=1e-12
    )


@pytest.mark.parametrize("where", ["record", "background"])
def test_non_finite_inputs_are_data_errors(rng, where):
    X = rng.normal(size=(30, 3))
    model = fit(ClassifierSpec("dt"), X, ["a" if v > 0 else "b" for v in X[:, 0]])
    record, background = X[0].copy(), X[5:10].copy()
    (record if where == "record" else background[2])[1] = np.nan
    with pytest.raises(DataError):
        explain_model(model, record[None, :], background)
    with pytest.raises(DataError):
        exact_shapley(lambda M: model.predict_proba(M)[:, 0], record, background)


# --- beeswarm ranking -----------------------------------------------------------

def ranked_features(values):
    """Features in the beeswarm's rank order for one-class values
    ``(records, features)``."""
    values = np.asarray(values, dtype=float)
    rows = beeswarm_rows(values[:, :, None], np.zeros_like(values), list(range(len(values))))
    ranked = {}
    for _, feature, _, _, rank in rows:
        ranked.setdefault(rank, feature)
    return [ranked[rank] for rank in sorted(ranked)]


def test_ranking_by_mean_absolute_value():
    assert ranked_features([[1.0, -3.0, 0.5], [-1.0, 3.0, 0.5]]) == [
        "column 1", "column 0", "column 2"
    ]


def test_ranking_tie_breaks_by_name():
    # Twelve columns are named by FEATURE_NAMES, whose order is not the
    # names' alphabetical order.
    assert list(FEATURE_NAMES) != sorted(FEATURE_NAMES)
    assert ranked_features(np.ones((1, 12))) == sorted(FEATURE_NAMES)


def test_beeswarm_rows():
    phi = np.array([[1.0, -2.0], [0.5, 0.1]])[:, :, None]
    X = np.array([[10.0, 20.0], [30.0, 40.0]])
    rows = list(beeswarm_rows(phi, X, ["r0", "r1"]))
    assert rows == [
        ("r0", "column 1", -2.0, 20.0, 1),
        ("r1", "column 1", 0.1, 40.0, 1),
        ("r0", "column 0", 1.0, 10.0, 2),
        ("r1", "column 0", 0.5, 30.0, 2),
    ]
    # The plotted value of a record and feature is its mean over classes.
    two_class = np.concatenate([phi, 3.0 * phi], axis=2)
    assert [row[2] for row in beeswarm_rows(two_class, X, ["r0", "r1"])] == [
        -4.0, 0.2, 2.0, 1.0
    ]
    with pytest.raises(ShapeError):
        beeswarm_rows(phi, X, ["only-one"])
    with pytest.raises(ShapeError):
        beeswarm_rows(phi, X[:, :1], ["r0", "r1"])


# --- permutation importance ------------------------------------------------------

def informative_data(rng, n=150, d=5, informative=2):
    X = rng.normal(size=(n, d))
    labels = ["hi" if v > 0 else "lo" for v in X[:, informative]]
    return X, labels


def test_informative_feature_ranks_first(rng):
    X, labels = informative_data(rng)
    model = fit(ClassifierSpec("dt"), X, labels)
    firsts = 0
    for seed in range(20):
        _, decreases = permutation_importance(model, X, labels, seed=seed)
        firsts += int(np.argmax(np.median(decreases, axis=1)) == 2)
    assert firsts >= 19


def test_permutation_decreases_shape_and_baseline(rng):
    X, labels = informative_data(rng, n=60)
    model = fit(ClassifierSpec("dt"), X, labels)
    baseline, decreases = permutation_importance(model, X, labels, repeats=7, seed=3)
    assert decreases.shape == (5, 7)
    # The default metric is balanced accuracy.
    assert baseline == balanced_accuracy(labels, model.predict(X))
    assert baseline == pytest.approx(1.0)  # tree memorizes its train set


def test_permutation_deterministic_per_seed(rng):
    X, labels = informative_data(rng, n=60)
    model = fit(ClassifierSpec("dt"), X, labels)
    _, a = permutation_importance(model, X, labels, seed=5)
    _, b = permutation_importance(model, X, labels, seed=5)
    _, c = permutation_importance(model, X, labels, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_permutation_metric_validation(rng):
    X, labels = informative_data(rng, n=40)
    model = fit(ClassifierSpec("dt"), X, labels)
    with pytest.raises(ConfigurationError):
        permutation_importance(model, X, labels, metric="f1")
    with pytest.raises(ConfigurationError):
        permutation_importance(model, X, labels, repeats=0)
    # Scored on rows it was not fitted on, the tree errs, so the metrics differ.
    held_out = fit(ClassifierSpec("dt"), X[:10], labels[:10])
    baseline, _ = permutation_importance(held_out, X, labels, metric="accuracy")
    assert baseline == accuracy(labels, held_out.predict(X))
    assert baseline != balanced_accuracy(labels, held_out.predict(X))


def test_importance_report_has_both_splits(rng):
    X, labels = informative_data(rng, n=80)
    model = fit(ClassifierSpec("dt"), X[:60], labels[:60])
    report = importance_report(
        model, X[:60], labels[:60], X[60:], labels[60:], repeats=3,
        metric="balanced_accuracy", seed=0,
    )
    assert list(report.baselines) == list(report.decreases) == ["train", "test"]
    assert report.metric == "balanced_accuracy"
    assert report.decreases["train"].shape == (5, 3)
    assert report.decreases["test"].shape == (5, 3)
    with pytest.raises(KeyError):
        report.decreases["validation"]
    assert report.feature_names == tuple(f"column {i}" for i in range(5))
    for split, rows in (("train", slice(None, 60)), ("test", slice(60, None))):
        baseline, decreases = permutation_importance(
            model, X[rows], labels[rows], repeats=3, seed=0
        )
        assert report.baselines[split] == baseline
        assert np.array_equal(report.decreases[split], decreases)


def one_predict_per_copy(model, X, labels, repeats, seed):
    """Baseline and decreases with one ``predict`` per shuffled copy."""
    baseline = balanced_accuracy(labels, model.predict(X))
    expected = np.empty((X.shape[1], repeats))
    for fi in range(X.shape[1]):
        for rep in range(repeats):
            rng_copy = np.random.default_rng(np.random.SeedSequence([seed, fi, rep]))
            shuffled = X.copy()
            shuffled[:, fi] = X[rng_copy.permutation(len(X)), fi]
            expected[fi, rep] = baseline - balanced_accuracy(labels, model.predict(shuffled))
    return baseline, expected


@pytest.mark.parametrize("variant", ["dt", "rf", "lr"])
def test_batched_permutation_equals_one_predict_per_copy(rng, variant):
    X, labels = informative_data(rng, n=60)
    model = fit(ClassifierSpec(variant), X, labels)
    repeats, seed = 4, 9
    baseline, expected = one_predict_per_copy(model, X, labels, repeats, seed)
    got_baseline, got = permutation_importance(model, X, labels, repeats=repeats, seed=seed)
    assert got_baseline == baseline
    assert np.array_equal(got, expected)


def test_leaf_sum_paths_serve_dt_and_rf_only():
    # TreeSHAP and the re-routing copies serve models whose submodels are
    # LeafVoteModels; gb is not one, as its score is expit of a tree sum.
    leaf_vote = {v for v, cls in ovr._SUBMODEL_TYPES.items() if issubclass(cls, LeafVoteModel)}
    assert leaf_vote == {"dt", "rf"}


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(["dt", "rf"]),
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 30),
    n_classes=st.integers(2, 3),
    seed=st.integers(0, 2**16),
    repeats=st.integers(1, 4),
)
@example(variant="rf", data_seed=0, n=20, n_classes=3, seed=0, repeats=3)
@example(variant="dt", data_seed=1, n=12, n_classes=2, seed=5, repeats=1)
def test_rerouted_permutation_equals_one_predict_per_copy(
    variant, data_seed, n, n_classes, seed, repeats
):
    # dt and rf re-route only the rows whose paths test the shuffled
    # feature. Rounded values tie, repeated rows duplicate, and the last
    # column is constant; the first two thirds of the rows train the model
    # and both splits are scored.
    rng = np.random.default_rng(data_seed)
    X = np.round(rng.normal(size=(n, 4)), 0)
    X[n // 2 :] = X[: n - n // 2]
    X[:, -1] = 2.0
    labels = [f"c{i}" for i in rng.integers(0, n_classes, size=n)]
    cut = 2 * n // 3
    assume(len(set(labels[:cut])) > 1 and 2 * len(set(labels[:cut])) <= cut)
    model = fit(ClassifierSpec(variant), X[:cut], labels[:cut])
    for rows in (slice(None, cut), slice(cut, None)):
        baseline, expected = one_predict_per_copy(
            model, X[rows], labels[rows], repeats, seed
        )
        got_baseline, got = permutation_importance(
            model, X[rows], labels[rows], repeats=repeats, seed=seed
        )
        assert got_baseline == baseline
        assert np.array_equal(got, expected)
