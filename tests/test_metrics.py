import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from loudclass.errors import (
    ConfigurationError,
    DataError,
    ShapeError,
    UndefinedMetricError,
)
from loudclass.metrics import (
    MetricWarning,
    accuracy,
    accuracy_of,
    balanced_accuracy,
    balanced_accuracy_of,
    confusion,
    confusion_of,
    count_matrix,
    degenerate_events,
    f1_of,
    f1_per_class,
    label_codes,
    micro_average_ovr,
    paired_t_test,
    pr_curve,
    roc_curve,
    t_two_sided_p,
    weighted_f1,
    weighted_f1_of,
)

labels_strategy = st.lists(st.sampled_from("abcd"), min_size=1, max_size=40)


def paired_labels():
    return st.tuples(labels_strategy, labels_strategy).map(
        lambda pair: (pair[0], (pair[1] * 40)[: len(pair[0])])
    )


binary_scores = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.9, 1.0])),
    min_size=2,
    max_size=30,
).filter(lambda rows: len({t for t, _ in rows}) == 2)


# --- worked examples ---------------------------------------------------------

def test_balanced_accuracy_example():
    y_true = [1] * 100 + [0] * 100
    y_pred = [1] * 50 + [0] * 50 + [0] * 90 + [1] * 10
    assert balanced_accuracy(y_true, y_pred) == pytest.approx(0.7, abs=1e-12)


def test_weighted_f1_example():
    # Class a: perfect F1 on support 3; class b: missed entirely.
    y_true = ["a", "a", "a", "b"]
    y_pred = ["a", "a", "a", "c"]
    assert weighted_f1(y_true, y_pred) == pytest.approx(0.75, abs=1e-12)


def test_auc_example():
    _, auc = roc_curve([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
    assert auc == pytest.approx(0.75, abs=1e-12)


def test_ap_example():
    _, ap = pr_curve([1, 0, 1], [3.0, 2.0, 1.0])
    assert ap == pytest.approx(0.5 + 1.0 / 3.0, abs=1e-12)


def test_confusion_example():
    cm = confusion(["a", "a", "b"], ["a", "b", "b"])
    assert cm.classes == ("a", "b")
    assert cm.matrix.tolist() == [[1.0, 1.0], [0.0, 1.0]]


# --- one class against the rest of a count matrix ----------------------------

def _one_vs_rest(matrix, ci):
    """(tp, fp, tn, fn) of class ``ci`` of a count matrix."""
    tp = int(matrix[ci, ci])
    fp = int(matrix[:, ci].sum()) - tp
    fn = int(matrix[ci].sum()) - tp
    return tp, fp, int(matrix.sum()) - tp - fp - fn, fn


def test_one_vs_rest_counts_rates_and_f1():
    y_true = [1, 1, 0, 0, 1]
    y_pred = [1, 0, 0, 1, 1]
    matrix = count_matrix(y_true, y_pred, 2)
    tp, fp, tn, fn = _one_vs_rest(matrix, 1)
    assert (tp, fp, tn, fn) == (2, 1, 1, 1)
    assert tp / (tp + fp) == pytest.approx(2 / 3)  # precision
    assert tp / (tp + fn) == pytest.approx(2 / 3)  # recall
    assert tn / (tn + fp) == pytest.approx(1 / 2)  # specificity
    assert f1_of(matrix)[1] == pytest.approx(2 / 3)


def test_zero_denominator_conventions():
    # Class 1 is never true and never predicted: its F1 is 0/0.
    degenerate_events.clear()
    matrix = count_matrix([0, 0, 0], [0, 0, 0], 2)
    assert _one_vs_rest(matrix, 1) == (0, 0, 3, 0)
    with pytest.warns(MetricWarning):
        assert f1_of(matrix) == [1.0, 0.0]
    assert degenerate_events["f1_zero_division"] == 1


def test_balanced_accuracy_ignores_empty_class():
    with pytest.warns(MetricWarning):
        value = balanced_accuracy(["a", "a"], ["a", "a"], classes=["a", "b"])
    assert value == 1.0
    with pytest.raises(UndefinedMetricError), pytest.warns(MetricWarning):
        balanced_accuracy(["a"], ["a"], classes=["b"])
    with pytest.raises(UndefinedMetricError):
        balanced_accuracy([], [])


def test_labels_outside_the_class_set():
    # A listed class still counts its true instances predicted as an
    # unlisted label as misses.
    assert balanced_accuracy(["a", "a", "z"], ["a", "z", "a"], classes=["a"]) == 0.5
    matrix = count_matrix(label_codes(["a", "z", "y"], ("b",)),
                          label_codes(["y", "z", "a"], ("b",)), 1)
    assert _one_vs_rest(matrix, 0) == (0, 0, 3, 0)
    with pytest.raises(DataError, match="label 'z' outside"):
        confusion(["a", "b", "a"], ["a", "z", "y"], classes=["a", "b"])


def test_length_mismatch():
    for fn in (balanced_accuracy, weighted_f1, accuracy):
        with pytest.raises(ShapeError):
            fn(["a"], ["a", "b"])


# --- the class-index core against the label API --------------------------------

# True labels come from the class list, so its later classes are often absent
# from them; predictions also take "e", a label outside the list.
INDEX_CLASSES = ("a", "b", "c", "d")
index_pairs = st.lists(
    st.tuples(st.sampled_from("abbccd"), st.sampled_from("abcde")),
    min_size=1,
    max_size=40,
)


def _observed(fn):
    """fn()'s result with the MetricWarning messages and the
    degenerate events it raised."""
    before = Counter(degenerate_events)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn()
    messages = [str(w.message) for w in caught if w.category is MetricWarning]
    return value, messages, degenerate_events - before


@given(index_pairs)
def test_class_index_core_matches_the_label_api(pairs):
    # The harness and permutation importance score class indices over a
    # class list that can hold classes absent from y_true; the label API
    # takes its classes from y_true. Both must give the same bits, warnings
    # and event counts.
    y_true = [t for t, _ in pairs]
    y_pred = [p for _, p in pairs]
    t = label_codes(y_true, INDEX_CLASSES)
    matrix = count_matrix(t, label_codes(y_pred, INDEX_CLASSES), len(INDEX_CLASSES))

    def same(core, label_api):
        got, want = _observed(core), _observed(label_api)
        assert got == want
        return got[0]

    same(lambda: balanced_accuracy_of(matrix),
         lambda: balanced_accuracy(y_true, y_pred))
    same(lambda: balanced_accuracy_of(matrix, INDEX_CLASSES),
         lambda: balanced_accuracy(y_true, y_pred, classes=INDEX_CLASSES))
    same(lambda: accuracy_of(matrix), lambda: accuracy(y_true, y_pred))
    same(lambda: f1_of(matrix),
         lambda: [f1_per_class(y_true, y_pred, cls) for cls in INDEX_CLASSES])
    value = same(lambda: weighted_f1_of(matrix, t), lambda: weighted_f1(y_true, y_pred))
    # Summed class by class in the order the classes first appear in y_true.
    n = len(y_true)
    assert value == sum(
        (y_true.count(cls) / n) * f1_per_class(y_true, y_pred, cls)
        for cls in dict.fromkeys(y_true)
    )
    if "e" not in y_pred:
        for normalize in ("none", "by_predicted"):
            got = confusion_of(matrix, INDEX_CLASSES, normalize)
            want = confusion(y_true, y_pred, INDEX_CLASSES, normalize)
            assert got.classes == want.classes
            assert np.array_equal(got.matrix, want.matrix)


def test_class_index_core_reports_absent_classes_by_name():
    # "c" has no true instance; it is named only when the classes are given.
    matrix = count_matrix([0, 1, 1], [0, 2, 1], 3)
    value, messages, events = _observed(lambda: balanced_accuracy_of(matrix, "abc"))
    assert value == 0.75
    assert messages == ["class c has no true instances and is excluded"]
    assert events == Counter(balanced_accuracy_empty_class=1)
    assert _observed(lambda: balanced_accuracy_of(matrix)) == (0.75, [], Counter())
    with pytest.raises(UndefinedMetricError, match="at least one instance"):
        balanced_accuracy_of(count_matrix([], [], 3))


# --- property tests against oracles ------------------------------------------

@st.composite
def count_matrices(draw):
    """A count matrix of 1 to 5 classes plus the pooled outside index, with
    a random set of classes never true and another never predicted."""
    k = draw(st.integers(1, 5))
    size = k + 1
    cells = draw(st.lists(st.integers(0, 5), min_size=size * size, max_size=size * size))
    matrix = np.array(cells, dtype=np.intp).reshape(size, size)
    never_true = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    never_predicted = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    matrix[np.array(never_true)] = 0
    matrix[:, np.array(never_predicted)] = 0
    return matrix


@given(count_matrices(), st.randoms(use_true_random=False))
def test_f1_of_matches_oracle_and_counts_each_empty_class_once(matrix, rng):
    k = len(matrix) - 1
    true, predicted = matrix.sum(axis=1), matrix.sum(axis=0)
    scores, _, events = _observed(lambda: f1_of(matrix))
    for ci in range(k):
        tp, fp, _, fn = _one_vs_rest(matrix, ci)
        assert scores[ci] == pytest.approx(oracles.f1_of(tp, fp, fn), abs=1e-12)
    empty = sum(1 for ci in range(k) if true[ci] == 0 and predicted[ci] == 0)
    assert events == Counter(f1_zero_division=empty)
    if matrix.sum():
        # The true class indices the matrix counts, in a random order.
        t = np.repeat(np.arange(k + 1), true).tolist()
        rng.shuffle(t)
        _, _, events = _observed(lambda: weighted_f1_of(matrix, t))
        assert events == Counter()



@given(paired_labels())
def test_balanced_accuracy_matches_oracle(pair):
    y_true, y_pred = pair
    assert balanced_accuracy(y_true, y_pred) == pytest.approx(
        oracles.balanced_accuracy_of(y_true, y_pred), abs=1e-12
    )


@given(paired_labels())
def test_weighted_f1_matches_oracle(pair):
    y_true, y_pred = pair
    assert weighted_f1(y_true, y_pred) == pytest.approx(
        oracles.weighted_f1_of(y_true, y_pred), abs=1e-12
    )


@given(paired_labels())
def test_per_class_f1_matches_oracle(pair):
    y_true, y_pred = pair
    for cls in sorted(set(y_true)):
        tp, fp, fn = oracles.class_counts(y_true, y_pred, cls)
        assert f1_per_class(y_true, y_pred, cls) == pytest.approx(
            oracles.f1_of(tp, fp, fn), abs=1e-12
        )


@given(paired_labels())
def test_confusion_matches_oracle(pair):
    y_true, y_pred = pair
    classes = sorted(set(y_true) | set(y_pred))
    cm = confusion(y_true, y_pred, classes)
    assert np.array_equal(cm.matrix, oracles.confusion_of(y_true, y_pred, classes))


@given(binary_scores)
@settings(max_examples=200)
def test_auc_equals_mann_whitney(rows):
    y = [t for t, _ in rows]
    s = [v for _, v in rows]
    _, auc = roc_curve(y, s)
    assert auc == pytest.approx(oracles.mann_whitney_auc(y, s), abs=1e-12)


@given(binary_scores)
@settings(max_examples=200)
def test_ap_matches_step_sum_oracle(rows):
    y = [t for t, _ in rows]
    s = [v for _, v in rows]
    _, ap = pr_curve(y, s)
    assert ap == pytest.approx(oracles.average_precision_of(y, s), abs=1e-12)


# --- curve anatomy -----------------------------------------------------------

def test_roc_curve_shape():
    points, _ = roc_curve([0, 1, 1, 0, 1], [0.2, 0.8, 0.8, 0.4, 0.9])
    assert points.kind == "roc"
    assert (points.x[0], points.y[0]) == (0.0, 0.0)
    assert (points.x[-1], points.y[-1]) == (1.0, 1.0)
    assert points.thresholds[0] == np.inf
    # One point per distinct score plus the origin sentinel.
    assert len(points.x) == 5
    assert np.all(np.diff(points.x) >= 0)
    assert np.all(np.diff(points.y) >= 0)
    with pytest.raises(ValueError):
        points.x[0] = 5.0  # read-only


def test_pr_curve_shape():
    points, _ = pr_curve([0, 1, 1, 0, 1], [0.2, 0.8, 0.8, 0.4, 0.9])
    assert points.kind == "pr"
    assert points.x[-1] == 1.0  # recall reaches 1 at the lowest threshold
    assert len(points.thresholds) == 4  # distinct scores, no sentinel


def test_curves_require_both_classes():
    with pytest.raises(UndefinedMetricError):
        roc_curve([1, 1], [0.5, 0.6])
    with pytest.raises(UndefinedMetricError):
        roc_curve([0, 0], [0.5, 0.6])
    with pytest.raises(UndefinedMetricError):
        pr_curve([0, 0], [0.5, 0.6])
    with pytest.raises(DataError):
        roc_curve([0, 2], [0.5, 0.6])


def test_micro_average_pools_classes():
    classes = ("a", "b")
    y = ["a", "b", "a"]
    proba = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    points, auc = micro_average_ovr(y, proba, classes, kind="roc")
    flat_y = [1, 0, 1, 0, 1, 0]
    flat_s = [0.9, 0.2, 0.6, 0.1, 0.8, 0.4]
    assert auc == pytest.approx(oracles.mann_whitney_auc(flat_y, flat_s), abs=1e-12)
    _, ap = micro_average_ovr(y, proba, classes, kind="pr")
    assert ap == pytest.approx(oracles.average_precision_of(flat_y, flat_s), abs=1e-12)
    with pytest.raises(ShapeError):
        micro_average_ovr(y, proba[:, :1], classes)
    with pytest.raises(ConfigurationError):
        micro_average_ovr(y, proba, classes, kind="nope")


# --- confusion details -------------------------------------------------------

def test_confusion_by_predicted_normalization():
    cm = confusion(["a", "a", "b"], ["a", "a", "a"], classes=("a", "b"),
                   normalize="by_predicted")
    # Column a sums to 1; empty column b stays zero.
    assert cm.matrix[:, 0].sum() == pytest.approx(1.0)
    assert cm.matrix[:, 1].sum() == 0.0
    with pytest.raises(ConfigurationError):
        confusion(["a"], ["a"], normalize="rows")
    with pytest.raises(DataError):
        confusion(["a"], ["z"], classes=("a", "b"))


# --- paired t-test -----------------------------------------------------------

def test_t_test_against_scipy():
    from scipy import stats

    rng = np.random.default_rng(5)
    a = rng.normal(0.7, 0.05, size=10)
    b = rng.normal(0.65, 0.05, size=10)
    mine = paired_t_test(a, b)
    ref = stats.ttest_rel(a, b)
    assert mine.t == pytest.approx(ref.statistic, abs=1e-10)
    assert mine.p == pytest.approx(ref.pvalue, abs=1e-10)
    assert not mine.degenerate


T_GRID = np.geomspace(1e-6, 1e4, 241)


@pytest.mark.parametrize("df, closed_form", [
    (1, lambda t: 1.0 - 2.0 / np.pi * np.arctan(t)),
    (2, lambda t: 1.0 - t / np.sqrt(2.0 + t * t)),
])
def test_t_tail_matches_its_closed_forms(df, closed_form):
    got = np.array([t_two_sided_p(float(t), df) for t in T_GRID])
    assert np.abs(got - closed_form(T_GRID)).max() <= 1e-15
    negative = np.array([t_two_sided_p(-float(t), df) for t in T_GRID])
    assert np.array_equal(negative, got)


def test_t_tail_matches_scipy_stdtr():
    from scipy.special import stdtr

    for df in [*range(1, 31), 40, 50, 75, 99, 150, 250, 500, 750, 999]:
        got = np.array([t_two_sided_p(float(t), df) for t in T_GRID])
        want = 2.0 * stdtr(df, -T_GRID)
        # Relative where the tail is small and still a normal float, absolute
        # where p is above one half.
        small = (want <= 0.5) & (want >= np.finfo(np.float64).tiny)
        assert np.all(np.abs(got - want)[small] <= 1e-11 * want[small]), df
        assert np.all(np.abs(got - want)[want > 0.5] <= 1e-10), df


def test_t_tail_limits():
    from scipy.special import stdtr

    for df in (1, 2, 9, 999):
        assert t_two_sided_p(np.inf, df) == 0.0 == 2.0 * stdtr(df, -np.inf)
        assert t_two_sided_p(-np.inf, df) == 0.0
        assert math.isnan(t_two_sided_p(math.nan, df))
        assert math.isnan(2.0 * stdtr(df, math.nan))
        assert t_two_sided_p(0.0, df) == 1.0
    # t^2 overflows; the tail is (2/pi)/|t| for one degree of freedom.
    assert t_two_sided_p(1e160, 1) == pytest.approx(2.0 / math.pi / 1e160, rel=1e-14)


def test_t_test_degenerate_cases():
    same = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
    assert (same.t, same.p, same.degenerate) == (0.0, 1.0, False)
    # Constant difference must be constant in float arithmetic too.
    shifted = paired_t_test([0.75, 0.5, 1.0], [0.5, 0.25, 0.75])
    assert shifted.t == np.inf and shifted.p == 0.0 and shifted.degenerate
    negative = paired_t_test([0.5, 0.25, 0.75], [0.75, 0.5, 1.0])
    assert negative.t == -np.inf
    with pytest.raises(DataError):
        paired_t_test([0.5], [0.6])
