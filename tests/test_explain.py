import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from loudclass.classifiers import ClassifierSpec, fit, ovr
from loudclass.classifiers.tree import LeafVoteModel, TreeNode, leaf_boxes, tree_predict
from loudclass.errors import ConfigurationError, DataError, ShapeError
from loudclass.explain import (
    ShapExplanation,
    _tree_shap,
    beeswarm_export,
    beeswarm_ranking,
    exact_shapley,
    explain_model,
    importance_report,
    permutation_importance,
)
from loudclass.metrics import balanced_accuracy


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

    agnostic, by_class = explain_model(model, record[None, :], background)
    proba = model.predict_proba(record[None, :])[0]
    for j, cls in enumerate(model.classes):
        phi_c, base_c = by_class[cls].values[0], by_class[cls].base_values[0]
        assert phi_c.sum() + base_c == pytest.approx(proba[j], abs=1e-9)
    stacked = np.vstack([by_class[c].values[0] for c in model.classes])
    mean_phi, mean_base = agnostic.values[0], agnostic.base_values[0]
    assert mean_phi == pytest.approx(stacked.mean(axis=0), abs=1e-12)
    assert mean_phi.sum() + mean_base == pytest.approx(proba.mean(), abs=1e-9)


def test_explain_model_shapes(rng):
    X = rng.normal(size=(30, 4))
    labels = ["a" if v > 0 else "b" for v in X[:, 0]]
    model = fit(ClassifierSpec("dt"), X, labels)
    agnostic, by_class = explain_model(model, X[:5], X[5:20])
    assert isinstance(agnostic, ShapExplanation)
    assert agnostic.values.shape == (5, 4)
    assert agnostic.n_records == 5
    assert set(by_class) == set(model.classes)
    assert by_class["a"].values.shape == (5, 4)
    assert agnostic.feature_names == tuple(f"column {i}" for i in range(4))


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


@pytest.mark.parametrize("variant", ["dt", "rf"])
def test_tree_models_match_enumeration_per_class(rng, variant):
    centers = [(0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 1.0, 0.0), (0.0, 2.0, -1.0, 1.0)]
    X = np.vstack([rng.normal(c, 0.8, size=(20, 4)) for c in centers])
    labels = [f"c{i}" for i in range(3) for _ in range(20)]
    model = fit(ClassifierSpec(variant), X, labels)
    background = X[::4]
    records = X[1:60:15]
    _, by_class = explain_model(model, records, background)
    for r, record in enumerate(records):
        for ci, cls in enumerate(model.classes):
            expected, expected_base = exact_shapley(
                lambda M: model.predict_proba(M)[:, ci], record, background
            )
            phi, base = by_class[cls].values[r], by_class[cls].base_values[r]
            assert np.abs(phi - expected).max() <= 1e-12
            assert base == pytest.approx(expected_base, abs=1e-12)


def test_tree_shap_needs_no_feature_limit(rng):
    X = rng.normal(size=(40, 20))
    labels = ["a" if v > 0 else "b" for v in X[:, 3]]
    model = fit(ClassifierSpec("dt"), X, labels)
    agnostic, _ = explain_model(model, X[:1], X[10:20])
    proba = model.predict_proba(X[:1])[0]
    assert agnostic.values[0].sum() + agnostic.base_values[0] == pytest.approx(
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

def explanation_from(values, names):
    values = np.asarray(values, dtype=float)
    return ShapExplanation(
        feature_names=tuple(names),
        values=values,
        base_values=np.zeros(len(values)),
        feature_values=np.zeros_like(values),
    )


def test_ranking_by_mean_absolute_value():
    exp = explanation_from([[1.0, -3.0, 0.5], [-1.0, 3.0, 0.5]], ["a", "b", "c"])
    assert beeswarm_ranking(exp) == [1, 0, 2]


def test_ranking_tie_breaks_by_name():
    exp = explanation_from([[1.0, 1.0]], ["zeta", "alpha"])
    assert beeswarm_ranking(exp) == [1, 0]


def test_beeswarm_export_rows():
    exp = explanation_from([[1.0, -2.0], [0.5, 0.1]], ["f1", "f2"])
    rows = beeswarm_export(exp, record_ids=["r0", "r1"])
    assert len(rows) == 4
    assert rows[0]["feature"] == "f2" and rows[0]["rank"] == 1
    assert rows[0]["record_id"] == "r0" and rows[1]["record_id"] == "r1"
    assert rows[2]["feature"] == "f1" and rows[2]["rank"] == 2
    with pytest.raises(ShapeError):
        beeswarm_export(exp, record_ids=["only-one"])


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
        report = permutation_importance(model, X, labels, seed=seed)
        firsts += int(np.argmax(np.median(report.decreases, axis=1)) == 2)
    assert firsts >= 19


def test_permutation_decreases_shape_and_baseline(rng):
    X, labels = informative_data(rng, n=60)
    model = fit(ClassifierSpec("dt"), X, labels)
    split = permutation_importance(model, X, labels, repeats=7, seed=3)
    assert split.decreases.shape == (5, 7)
    assert split.metric == "balanced_accuracy"
    assert split.baseline == pytest.approx(1.0)  # tree memorizes its train set
    assert split.split == "test"


def test_permutation_deterministic_per_seed(rng):
    X, labels = informative_data(rng, n=60)
    model = fit(ClassifierSpec("dt"), X, labels)
    a = permutation_importance(model, X, labels, seed=5).decreases
    b = permutation_importance(model, X, labels, seed=5).decreases
    c = permutation_importance(model, X, labels, seed=6).decreases
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_permutation_metric_validation(rng):
    X, labels = informative_data(rng, n=40)
    model = fit(ClassifierSpec("dt"), X, labels)
    with pytest.raises(ConfigurationError):
        permutation_importance(model, X, labels, metric="f1")
    with pytest.raises(ConfigurationError):
        permutation_importance(model, X, labels, repeats=0)
    plain = permutation_importance(model, X, labels, metric="accuracy")
    assert plain.metric == "accuracy"


def test_importance_report_has_both_splits(rng):
    X, labels = informative_data(rng, n=80)
    model = fit(ClassifierSpec("dt"), X[:60], labels[:60])
    report = importance_report(
        model, X[:60], labels[:60], X[60:], labels[60:], repeats=3,
        metric="balanced_accuracy", seed=0,
    )
    assert {s.split for s in report.splits} == {"train", "test"}
    assert report.split("train").decreases.shape == (5, 3)
    with pytest.raises(KeyError):
        report.split("validation")
    assert report.feature_names == tuple(f"column {i}" for i in range(5))


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
    split = permutation_importance(model, X, labels, repeats=repeats, seed=seed)
    assert split.baseline == baseline
    assert np.array_equal(split.decreases, expected)


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
        split = permutation_importance(
            model, X[rows], labels[rows], repeats=repeats, seed=seed
        )
        assert split.baseline == baseline
        assert np.array_equal(split.decreases, expected)
