import multiprocessing
import os
import threading
import warnings
from collections import Counter

import numpy as np
import pytest

from loudclass import harness, metrics, pipeline
from loudclass.classifiers import ClassifierSpec, fit
from loudclass.errors import ConfigurationError, DataError
from loudclass.explain import importance_report
from loudclass.harness import (
    DEFAULT_ROVING_CONDITIONS,
    ExperimentConfig,
    classifier_names,
    default_classifier_specs,
    kfold_split,
    make_fold_plans,
    resolve_records,
    roving_sweep,
    run_experiment,
)
from loudclass.metrics import MetricWarning, sorted_labels
from loudclass.pipeline import (
    RovingConfig,
    SyntheticConfig,
    apply_roving,
    feature_matrix,
    labels_of,
    rove_matrix,
    write_labeled_json,
)

FAST = (ClassifierSpec("dt"), ClassifierSpec("knn"))


def fast_config(**overrides):
    base = dict(
        synthetic=SyntheticConfig(records_per_class=12, seed=7),
        classifiers=FAST,
        k=4,
        designated="dt",
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- fold plans ----------------------------------------------------------------

def test_kfold_sizes_within_one():
    labels = ["a"] * 500 + ["b"] * 347  # 847 records, the worked example
    plan = kfold_split(labels, k=10)
    sizes = np.bincount(plan.assignments, minlength=10)
    assert sizes.max() - sizes.min() <= 1
    assert sizes.sum() == 847


def test_kfold_stratified_per_class_within_one():
    labels = ["a"] * 23 + ["b"] * 11 + ["c"] * 47
    plan = kfold_split(labels, k=5, stratified=True)
    arr = np.asarray(labels)
    for cls in "abc":
        counts = np.bincount(plan.assignments[arr == cls], minlength=5)
        assert counts.max() - counts.min() <= 1
    # Overall fold sizes stay balanced too, thanks to the running offset.
    overall = np.bincount(plan.assignments, minlength=5)
    assert overall.max() - overall.min() <= 1


def test_kfold_partition_properties():
    labels = list("aabbccddeeff") * 3
    plan = kfold_split(labels, k=3, seed=2)
    seen = []
    for fold in range(3):
        train, test = plan.fold_indices(fold)
        assert set(train) | set(test) == set(range(len(labels)))
        assert set(train).isdisjoint(test)
        seen.extend(test.tolist())
    assert sorted(seen) == list(range(len(labels)))


def test_kfold_deterministic_by_seed():
    labels = ["a", "b"] * 20
    a = kfold_split(labels, k=4, seed=1).assignments
    b = kfold_split(labels, k=4, seed=1).assignments
    c = kfold_split(labels, k=4, seed=2).assignments
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_kfold_validation():
    with pytest.raises(ConfigurationError):
        kfold_split(["a", "b", "c"], k=4)
    with pytest.raises(ConfigurationError):
        kfold_split(["a", "b", "c"], k=1)


def test_kfold_unstratified_uses_all_folds():
    plan = kfold_split(["x"] * 20, k=4, stratified=False, seed=0)
    assert set(plan.assignments.tolist()) == {0, 1, 2, 3}
    assert not plan.stratified


# --- configuration ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        fast_config(classifiers=())
    with pytest.raises(ConfigurationError):
        fast_config(k=1)
    with pytest.raises(ConfigurationError):
        fast_config(repeats=0)
    with pytest.raises(ConfigurationError):
        fast_config(perm_metric="f1")
    with pytest.raises(ConfigurationError):
        fast_config(perm_repeats=0)
    with pytest.raises(ConfigurationError, match="seed must be an integer >= 0, got -1"):
        fast_config(seed=-1)
    with pytest.raises(ConfigurationError, match="rove_seed must be an integer >= 0, got -1"):
        ExperimentConfig(data_path="x", rove_seed=-1)


def test_classifier_names_deduplicate():
    specs = (ClassifierSpec("lr"), ClassifierSpec("lr", seed=1), ClassifierSpec("dt"))
    assert classifier_names(specs) == ["lr", "lr#2", "dt"]


def test_default_specs_cover_all_variants():
    specs = default_classifier_specs()
    assert [s.variant for s in specs] == ["dt", "gb", "knn", "lr", "nn", "rf", "svm"]


def test_resolve_records_precedence(tmp_path, small_records):
    generated = resolve_records(fast_config())
    assert len(generated) == 12 * 6
    path = tmp_path / "labeled.json"
    write_labeled_json(small_records, path)
    from_file = resolve_records(fast_config(synthetic=None, data_path=str(path)))
    assert from_file == small_records
    with pytest.raises(ConfigurationError):
        resolve_records(fast_config(synthetic=None))


# --- experiment run ----------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report():
    return run_experiment(fast_config())


def test_run_experiment_result_shapes(small_report):
    report = small_report
    assert [r.name for r in report.results] == ["dt", "knn"]
    for r in report.results:
        assert len(r.test_ba) == 4  # k folds x 1 repeat
        assert len(r.train_ba) == 4
        assert set(r.per_class_f1) == set(report.classes)
        for scores in r.per_class_f1.values():
            assert len(scores) == 4
        mean, sd = r.mean_sd(r.test_ba)
        assert 0.0 <= mean <= 1.0 and sd >= 0.0


def test_run_experiment_designated_detail(small_report):
    detail = small_report.designated
    assert detail.name == "dt"
    n_classes = len(small_report.classes)
    assert detail.confusion_counts.matrix.shape == (n_classes, n_classes)
    # Pooled out-of-fold predictions cover every record exactly once.
    assert detail.confusion_counts.matrix.sum() == 12 * 6
    per_pred = detail.confusion_by_predicted.matrix
    sums = per_pred.sum(axis=0)
    assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))
    assert set(detail.roc_curves) == set(small_report.classes) | {"micro"}
    assert set(detail.pr_ap) == set(small_report.classes) | {"micro"}
    assert 0.0 <= detail.micro_auc <= 1.0
    assert 0.0 <= detail.pr_ap["micro"] <= 1.0


def test_run_experiment_t_tests(small_report):
    assert set(small_report.t_tests) == {("dt", "knn")}
    entry = small_report.t_tests[("dt", "knn")]
    assert set(entry) == {"balanced_accuracy", "weighted_f1"}
    assert 0.0 <= entry["balanced_accuracy"].p <= 1.0


def test_run_experiment_deterministic():
    a = run_experiment(fast_config())
    b = run_experiment(fast_config())
    assert a.results == b.results
    assert a.t_tests == b.t_tests


def test_run_experiment_repeats():
    report = run_experiment(fast_config(repeats=2))
    assert len(report.fold_plans) == 2
    assert len(report.result("dt").test_ba) == 8
    # Distinct plan seeds shuffle records differently.
    assert not np.array_equal(
        report.fold_plans[0].assignments, report.fold_plans[1].assignments
    )


def test_run_experiment_unknown_designated():
    with pytest.raises(ConfigurationError):
        run_experiment(fast_config(designated="svm"))


def test_run_experiment_applies_roving(small_records):
    plain = run_experiment(fast_config())
    roved = run_experiment(fast_config(roving=RovingConfig(25.0, 40.0, seed=1)))
    assert plain.results != roved.results


def test_stage_notes_on_failure():
    cfg = fast_config(synthetic=SyntheticConfig(records_per_class=1), k=10)
    with pytest.raises(ConfigurationError) as info:
        run_experiment(cfg)
    notes = getattr(info.value, "__notes__", [])
    assert any("stage" in n for n in notes)


def test_fits_run_inline_while_other_threads_run(monkeypatch):
    fitted_in = []

    def recorded(*args, **kwargs):
        fitted_in.append(os.getpid())
        return fit(*args, **kwargs)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "fit", recorded)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        report = run_experiment(fast_config())
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    # Appended in this process, so only inline fits are counted here.
    assert len(fitted_in) == len(FAST) * 4
    assert report.results == run_experiment(fast_config()).results


# --- roving sweep --------------------------------------------------------------------

def test_default_conditions():
    assert DEFAULT_ROVING_CONDITIONS == (
        (0.0, 0.0), (5.0, 5.0), (5.0, 10.0), (10.0, 5.0), (10.0, 10.0)
    )


def test_roving_sweep_structure():
    sweep = roving_sweep(fast_config(), conditions=((0.0, 0.0), (10.0, 5.0)))
    assert sweep.conditions == ((0.0, 0.0), (10.0, 5.0))
    assert len(sweep.reports) == 2
    assert len(sweep.importance) == 2
    aucs = {cond: report.designated.roc_auc["micro"]
            for cond, report in zip(sweep.conditions, sweep.reports)}
    assert set(aucs) == set(sweep.conditions)
    assert all(0.0 <= v <= 1.0 for v in aucs.values())
    for imp in sweep.importance:
        assert {s.split for s in imp.splits} == {"train", "test"}


def test_roving_sweep_shares_base_data_and_plans():
    sweep = roving_sweep(fast_config(), conditions=((0.0, 0.0),))
    solo = run_experiment(fast_config())
    # The zero condition inside a sweep must reproduce a plain run.
    assert sweep.reports[0].results == solo.results


def test_roving_sweep_fits_and_roves_once_per_condition(monkeypatch):
    # Shared memory, so that fits in forked workers are counted too.
    calls = {name: multiprocessing.Value("i", 0) for name in ("fit", "rove_matrix")}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            with calls[name].get_lock():
                calls[name].value += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "fit", counted("fit", harness.fit))
    monkeypatch.setattr(
        harness, "rove_matrix", counted("rove_matrix", harness.rove_matrix)
    )
    cfg = fast_config()
    conditions = ((0.0, 0.0), (10.0, 5.0))
    roving_sweep(cfg, conditions=conditions)
    fits = len(conditions) * len(cfg.classifiers) * cfg.k * cfg.repeats
    assert calls["fit"].value == fits
    assert calls["rove_matrix"].value == len(conditions)


def test_roving_sweep_draws_each_participant_once(monkeypatch):
    draws = Counter()

    def counted(seed, participant_id):
        draws[participant_id] += 1
        return normal(seed, participant_id)

    normal = pipeline._participant_normal
    monkeypatch.setattr(pipeline, "_participant_normal", counted)
    cfg = fast_config()
    roving_sweep(cfg, conditions=((0.0, 0.0), (5.0, 5.0), (10.0, 5.0)))
    participants = {r.participant_id for r in resolve_records(cfg)}
    assert draws == Counter(dict.fromkeys(participants, 1))


def test_roving_sweep_importance_scores_the_plan0_fold0_model():
    cfg = fast_config(repeats=2)
    conditions = ((0.0, 0.0), (10.0, 5.0))
    sweep = roving_sweep(cfg, conditions=conditions)

    base = resolve_records(cfg)
    y = labels_of(base)
    train_idx, test_idx = make_fold_plans(cfg, y)[0].fold_indices(0)
    y_train = [y[i] for i in train_idx]
    y_test = [y[i] for i in test_idx]
    spec = cfg.classifiers[classifier_names(cfg.classifiers).index(cfg.designated)]
    for (mean, sd), got in zip(conditions, sweep.importance):
        X = feature_matrix(apply_roving(base, RovingConfig(mean, sd, cfg.rove_seed)))
        model = fit(spec, X[train_idx], y_train, classes=tuple(sorted_labels(y)))
        want = importance_report(
            model, X[train_idx], y_train, X[test_idx], y_test,
            repeats=cfg.perm_repeats, metric=cfg.perm_metric, seed=cfg.seed,
        )
        assert [s.split for s in got.splits] == [s.split for s in want.splits]
        for g, w in zip(got.splits, want.splits):
            assert g.baseline == w.baseline
            assert np.array_equal(g.decreases, w.decreases)


def test_roving_sweep_data_errors_carry_the_stage(monkeypatch):
    # Every condition is featurized before the first fit, so an error in the
    # last condition leaves the earlier ones uncross-validated.
    fits = multiprocessing.Value("i", 0)

    def counted(*args, **kwargs):
        with fits.get_lock():
            fits.value += 1
        return fit(*args, **kwargs)

    def broken(X, records, cfg, normals):
        if cfg.mean == 10.0:
            raise DataError("bad offsets")
        return rove_matrix(X, records, cfg, normals)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "fit", counted)
    monkeypatch.setattr(harness, "rove_matrix", broken)
    with pytest.raises(DataError) as info:
        roving_sweep(fast_config(), conditions=((0.0, 0.0), (5.0, 5.0), (10.0, 5.0)))
    assert info.value.__notes__ == ["stage: data"]
    assert fits.value == 0


def test_roving_sweep_forks_one_pool_for_all_conditions(monkeypatch):
    pools = []

    class CountedPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
    sweep = roving_sweep(fast_config(), conditions=((0.0, 0.0), (5.0, 5.0), (10.0, 5.0)))
    assert len(pools) == 1
    assert len(sweep.reports) == len(sweep.importance) == 3
    assert multiprocessing.active_children() == []


def test_roving_sweep_metric_events_do_not_depend_on_the_worker_count(monkeypatch):
    # Small unstratified folds leave classes out of some test folds, so F1
    # hits its 0/0 convention; permutation importance is scored in a worker.
    cfg = fast_config(synthetic=SyntheticConfig(records_per_class=4, seed=7),
                      k=3, stratified=False, perm_repeats=2)
    seen = []
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda n=workers: n)
        before = Counter(metrics.degenerate_events)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            roving_sweep(cfg, conditions=((0.0, 0.0), (10.0, 5.0)))
        messages = [str(w.message) for w in caught if w.category is MetricWarning]
        seen.append((metrics.degenerate_events - before, messages))
    assert seen[0] == seen[1]
    events, messages = seen[0]
    assert events["f1_zero_division"] == len(messages) > 0


def test_roving_sweep_classifier_errors_carry_the_stage():
    cfg = fast_config(classifiers=(ClassifierSpec("dt", params={"bogus": 1}),))
    with pytest.raises(ConfigurationError) as info:
        roving_sweep(cfg, conditions=((5.0, 5.0),))
    assert "stage: classifier dt" in getattr(info.value, "__notes__", [])


def test_roving_sweep_rejects_preroved_config():
    cfg = fast_config(roving=RovingConfig(5.0, 5.0))
    with pytest.raises(ConfigurationError):
        roving_sweep(cfg)
