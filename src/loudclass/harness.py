"""Cross-validation experiment runner and the roving sweep.

One experiment = one shared fold plan, all requested classifier variants
fitted per fold, train/test balanced accuracy and weighted F1 collected,
plus confusion/ROC/PR detail for a designated classifier pooled over its
out-of-fold predictions. Pairwise t-tests compare classifiers on the
paired per-fold test scores, which is only valid because the fold plan
is shared.

The (classifier, plan, fold) fits of an experiment are independent and
seeded on their own, so they run on every usable CPU in worker processes,
forked once per command: a sweep hands the fits of all its conditions to
one pool. The pool starts each condition's fits costliest variant first
(``_COSTLIEST_FIRST``: nn, gb, svm, rf, dt, lr, knn), so that no long fit
starts last and runs alone while the other workers have nothing left to
do; ``scripts/resource_usage.py evaluate --only <variant>`` measures the
costs again when a change moves one. Workers fit and predict, and in a
sweep the worker that fits a condition's designated model also scores its
permutation importance. Predictions travel as class indices into the sorted
class list; the parent encodes the labels once and scores every fold from
one count matrix of class indices (``metrics.count_matrix``). Every
cross-validation metric is computed in the parent, in task order, so
outputs, warnings and ``metrics.degenerate_events`` depend neither on the
number of workers nor on the order the fits start in; permutation
importance can hit no degenerate case (see ``_cross_validate``), so
scoring it in a worker hides no event.

``run_experiment`` and ``roving_sweep`` only build their configs and call
``_cross_validate``, which roves every condition before it plans folds, so
both commands report a data error before a fold-plan error.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from .classifiers import VARIANTS, ClassifierSpec, fit
from .errors import ConfigurationError, LoudclassError
from .domains import AtLeast, AtMost, Seed, check, check_fields
from .explain import (
    PermMetric,
    PermRepeats,
    PermutationImportanceReport,
    importance_report,
)
# balanced_accuracy, confusion, f1_per_class, weighted_f1 and apply_roving
# are unused here, but perfbench/spans.py wraps this module's names.
from .metrics import (  # noqa: F401
    ConfusionMatrix,
    balanced_accuracy,
    balanced_accuracy_of,
    confusion,
    confusion_of,
    count_matrix,
    f1_of,
    f1_per_class,
    label_codes,
    micro_average_ovr,
    paired_t_test,
    pr_curve,
    roc_curve,
    sorted_labels,
    weighted_f1,
    weighted_f1_of,
)
from .pipeline import (  # noqa: F401
    RovingConfig,
    SyntheticConfig,
    apply_roving,
    feature_matrix,
    generate_synthetic,
    labels_of,
    load_labeled_json,
    participant_normals,
    rove_matrix,
)

# The most repetitions of the cross-validation. Each is a full k-fold run
# whose fold plan is held, and whose fits are queued, from the start: at
# this bound the paper's seven-classifier evaluate (95 s each) takes 2.6 h.
MAX_REPEATS = 100

FoldCount = Annotated[int, AtLeast(2)]

DEFAULT_ROVING_CONDITIONS = (
    (0.0, 0.0),
    (5.0, 5.0),
    (5.0, 10.0),
    (10.0, 5.0),
    (10.0, 10.0),
)


def default_classifier_specs() -> tuple[ClassifierSpec, ...]:
    return tuple(ClassifierSpec(variant) for variant in VARIANTS)


@dataclass(frozen=True)
class FoldPlan:
    """Fold index per record; sizes balanced to within one record."""

    k: int
    stratified: bool
    seed: int
    assignments: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.assignments, dtype=np.intp)
        arr.setflags(write=False)
        object.__setattr__(self, "assignments", arr)

    def fold_indices(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        test = np.flatnonzero(self.assignments == fold)
        train = np.flatnonzero(self.assignments != fold)
        return train, test

    def __iter__(self):
        for fold in range(self.k):
            yield self.fold_indices(fold)


def kfold_split(labels, k: int = 10, stratified: bool = True, seed: int = 0) -> FoldPlan:
    """Deal records into k folds, cyclically per class when stratified.

    The dealing offset carries over from one class to the next, so the
    leftover records of each class land on different folds and overall
    fold sizes stay within 1 of each other, as do per-class counts.
    """
    labels = list(labels)
    n = len(labels)
    check("k", k, FoldCount)
    if n < k:
        raise ConfigurationError(f"need at least k={k} records, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    assignments = np.empty(n, dtype=np.intp)
    if not stratified:
        order = rng.permutation(n)
        assignments[order] = np.arange(n) % k
        return FoldPlan(k, stratified, seed, assignments)

    classes = sorted_labels(labels)
    codes = label_codes(labels, classes)
    offset = 0
    for ci in range(len(classes)):
        idx = np.flatnonzero(codes == ci)
        idx = idx[rng.permutation(len(idx))]
        assignments[idx] = (offset + np.arange(len(idx))) % k
        offset = (offset + len(idx)) % k
    return FoldPlan(k, stratified, seed, assignments)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, checked when built; the master seed fixes all
    derived streams. ``synthetic`` wins over ``data_path``."""

    synthetic: SyntheticConfig | None = None
    data_path: str | None = None
    roving: RovingConfig | None = None
    classifiers: tuple[ClassifierSpec, ...] = field(
        default_factory=default_classifier_specs
    )
    k: FoldCount = 10
    stratified: bool = True
    repeats: Annotated[int, AtLeast(1), AtMost(MAX_REPEATS)] = 1
    designated: str = "lr"
    seed: Seed = 0
    rove_seed: Seed = 0
    perm_repeats: PermRepeats = 10
    perm_metric: PermMetric = "balanced_accuracy"

    def __post_init__(self) -> None:
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        if not self.classifiers:
            raise ConfigurationError("at least one classifier is required")
        variants = [spec.variant for spec in self.classifiers]
        repeated = sorted({v for v in variants if variants.count(v) > 1})
        if repeated:
            raise ConfigurationError(
                "each classifier variant may appear once; repeated: " + ", ".join(repeated)
            )
        if self.designated not in variants:
            raise ConfigurationError(f"designated classifier {self.designated!r} "
                                     f"is not among: {', '.join(variants)}")
        if self.synthetic is None and self.data_path is None:
            raise ConfigurationError("no data source: provide a synthetic config or a data path")
        check_fields(self)


@dataclass(frozen=True)
class ClassifierResult:
    """Per-fold scores for one classifier, named by its variant, folds
    ordered plan-major."""

    name: str
    train_ba: tuple[float, ...]
    test_ba: tuple[float, ...]
    train_wf1: tuple[float, ...]
    test_wf1: tuple[float, ...]
    per_class_f1: dict

    @staticmethod
    def mean_sd(values: tuple[float, ...]) -> tuple[float, float]:
        arr = np.asarray(values)
        sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        return float(arr.mean()), sd


@dataclass(frozen=True)
class DesignatedDetail:
    """Pooled out-of-fold detail for the designated classifier (first
    repetition only when CV is repeated)."""

    name: str
    classes: tuple
    confusion_counts: ConfusionMatrix
    confusion_by_predicted: ConfusionMatrix
    roc_curves: dict
    roc_auc: dict
    pr_curves: dict
    pr_ap: dict

    @property
    def micro_auc(self) -> float:
        return self.roc_auc["micro"]


@dataclass(frozen=True)
class MetricsReport:
    config: ExperimentConfig
    classes: tuple
    fold_plans: tuple[FoldPlan, ...]
    results: tuple[ClassifierResult, ...]
    designated: DesignatedDetail
    t_tests: dict

    def result(self, name: str) -> ClassifierResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def _with_stage(stage: str, exc: LoudclassError) -> LoudclassError:
    note = f"stage: {stage}"
    if hasattr(exc, "add_note"):
        exc.add_note(note)
    else:  # pre-3.11: mirror the __notes__ convention by hand
        notes = getattr(exc, "__notes__", None)
        if notes is None:
            notes = []
            exc.__notes__ = notes
        notes.append(note)
    return exc


def resolve_records(cfg: ExperimentConfig) -> list:
    """Generate synthetic records or load them from the data file."""
    if cfg.synthetic is not None:
        return generate_synthetic(cfg.synthetic)
    return load_labeled_json(cfg.data_path)


def _plan_seed(seed: int, repeat: int) -> int:
    return int(np.random.SeedSequence([seed, repeat]).generate_state(1)[0])


def make_fold_plans(cfg: ExperimentConfig, labels) -> tuple[FoldPlan, ...]:
    return tuple(
        kfold_split(labels, cfg.k, cfg.stratified, seed=_plan_seed(cfg.seed, r))
        for r in range(cfg.repeats)
    )


def _designated_detail(name, classes, y, codes, proba, predicted) -> DesignatedDetail:
    """Confusion, ROC and PR detail of the pooled out-of-fold class indices
    ``predicted`` and probabilities ``proba``; ``codes`` are the class
    indices of the labels ``y``."""
    matrix = count_matrix(codes, predicted, len(classes))
    counts = confusion_of(matrix, classes, normalize="none")
    normalized = confusion_of(matrix, classes, normalize="by_predicted")
    roc_curves: dict = {}
    roc_auc: dict = {}
    pr_curves: dict = {}
    pr_ap: dict = {}
    for ci, cls in enumerate(classes):
        y_bin = codes == ci
        scores = proba[:, ci]
        roc_curves[cls], roc_auc[cls] = roc_curve(y_bin, scores)
        pr_curves[cls], pr_ap[cls] = pr_curve(y_bin, scores)
    roc_curves["micro"], roc_auc["micro"] = micro_average_ovr(
        y, proba, classes, kind="roc"
    )
    pr_curves["micro"], pr_ap["micro"] = micro_average_ovr(
        y, proba, classes, kind="pr"
    )
    return DesignatedDetail(
        name, tuple(classes), counts, normalized,
        roc_curves, roc_auc, pr_curves, pr_ap,
    )


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Cross-validate every configured classifier on one shared fold plan.

    When CV is repeated, scores concatenate plan-major.
    """
    [(report, _)] = _cross_validate(cfg, [cfg])
    return report


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, otherwise every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_fold(context, task):
    """Fit one classifier on one fold of one experiment and predict its
    train and test rows.

    Returns (train predictions, test predictions, test probabilities,
    permutation importance); predictions are class indices into
    ``classes``. The probabilities come only for the
    designated classifier on plan 0. The importance comes only for its
    plan-0 fold 0 and only when the context asks for it: the roving sweep
    scores that model here, right after its fit, so the model never leaves
    the process that fitted it.
    """
    cfg, matrices, y, classes, plans, designated, importance = context
    experiment, ci, plan_index, fold = task
    X = matrices[experiment]
    train_idx, test_idx = plans[plan_index].fold_indices(fold)
    y_train = [y[i] for i in train_idx]
    model = fit(cfg.classifiers[ci], X[train_idx], y_train, classes=classes)
    pred_train = model.predict_index(X[train_idx])
    pred_test = model.predict_index(X[test_idx])
    if ci != designated or plan_index != 0:
        return pred_train, pred_test, None, None
    proba = model.predict_proba(X[test_idx])
    if fold != 0 or not importance:
        return pred_train, pred_test, proba, None
    report = importance_report(
        model,
        X[train_idx],
        y_train,
        X[test_idx],
        [y[i] for i in test_idx],
        repeats=cfg.perm_repeats,
        metric=cfg.perm_metric,
        seed=cfg.seed,
    )
    return pred_train, pred_test, proba, report


# The experiments a worker process serves; set once, before its first task.
_worker_context = None


def _adopt_context(context) -> None:
    global _worker_context
    _worker_context = context


def _fit_fold_in_worker(task):
    return _fit_fold(_worker_context, task)


def _fold_fits(context, tasks, start_key=lambda task: 0):
    """Yield ``_fit_fold(context, task)`` for every task, in task order.

    The tasks run in ``min(usable CPUs, tasks)`` worker processes forked
    from this one, so the workers inherit ``context`` and the imported
    modules instead of unpickling or importing them again. Every command
    calls this once, with all its tasks, so it forks one pool: ``sweep``
    hands over the tasks of all its conditions together. The pool starts
    the tasks in the order of ``start_key(task)``, ties in task order: a
    caller that starts its longest tasks first keeps a long task from
    starting last and finishing alone (Graham's longest-processing-time
    rule), as ``_cross_validate`` does with ``_COSTLIEST_FIRST``, whose
    costs ``scripts/resource_usage.py evaluate --only <variant>`` measures
    again. Whatever order they start in, a task's exception is raised at
    its turn in task order, so the first failure in task order is the one
    raised, as when the tasks run one after another. They run inline, in
    task order and in this process, with one worker, where the platform
    cannot fork, and while other threads run: fork copies only the calling
    thread, so a lock another thread holds would stay locked in the
    workers. Closing the generator shuts the pool down; a task that is
    already running finishes first.
    """
    # Imported here, not with the module: only the commands that fit fork.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(_usable_cpus(), len(tasks))
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        for task in tasks:
            yield _fit_fold(context, task)
        return
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_context,
        initargs=(context,),
    )
    try:
        futures = [None] * len(tasks)
        for i in sorted(range(len(tasks)), key=lambda i: start_key(tasks[i])):
            futures[i] = pool.submit(_fit_fold_in_worker, tasks[i])
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)


# The variants from the costliest fit to the cheapest, the order in which
# the pool starts each config's fits. Measured as CPU seconds per fold fit
# on 900 seed-0 ears at k = 3: nn 0.5-1.4, gb 0.25, svm 0.2, rf 0.09, and
# dt, lr and knn under 0.02 each. A change that moves a variant's cost
# re-checks this order with ``scripts/resource_usage.py evaluate --only
# <variant>``; the order moves timing only, never an output.
_COSTLIEST_FIRST = ("nn", "gb", "svm", "rf", "dt", "lr", "knn")


def _cross_validate(cfg, configs, *, importance=False):
    """Cross-validate the classifiers of ``cfg`` once per config of
    ``configs``, all on one shared fold plan.

    The configs may differ from ``cfg`` only in their roving condition,
    which their reports record. The records are featurized once and roved
    per config under ``stage: data``, then the fold plans are made under
    ``stage: fold-plan``. All (config, classifier, plan, fold) tasks go to
    one ``_fold_fits`` call, config-major, and the outcomes are read back
    in that order, so every metric is computed here in the order of a
    serial run. Within each config the pool starts the fits in
    ``_COSTLIEST_FIRST`` order, so the configs still finish one after
    another. Returns one (report, permutation importance) pair per
    config; the importance is None unless ``importance`` asks for the
    designated classifier's plan-0, fold-0 model to be scored (see
    ``_fit_fold``).

    Permutation importance scores in the workers, but it can raise no
    ``MetricWarning`` and count no ``metrics.degenerate_events``:
    balanced accuracy and accuracy take their classes from the true labels
    they score, so every class they score has a true instance.
    """
    try:
        records = resolve_records(cfg)
        X = feature_matrix(records)
        y = labels_of(records)
        normals = functools.cache(lambda seed: participant_normals(records, seed))
        matrices = tuple(
            X if c.roving is None
            else rove_matrix(X, records, c.roving, normals(c.roving.seed))
            for c in configs
        )
    except LoudclassError as exc:
        raise _with_stage("data", exc)
    try:
        plans = make_fold_plans(cfg, y)
    except LoudclassError as exc:
        raise _with_stage("fold-plan", exc)

    classes = tuple(sorted_labels(y))
    names = [spec.variant for spec in cfg.classifiers]
    context = (
        cfg,
        matrices,
        y,
        classes,
        plans,
        names.index(cfg.designated),
        importance,
    )
    tasks = [
        (experiment, ci, plan_index, fold)
        for experiment in range(len(configs))
        for ci in range(len(names))
        for plan_index, plan in enumerate(plans)
        for fold in range(plan.k)
    ]
    cost_rank = [_COSTLIEST_FIRST.index(spec.variant) for spec in cfg.classifiers]
    codes = label_codes(y, classes)
    with closing(
        _fold_fits(context, tasks, lambda task: (task[0], cost_rank[task[1]]))
    ) as outcomes:
        return [
            _experiment_report(c, names, classes, y, codes, plans, outcomes)
            for c in configs
        ]


def _experiment_report(cfg, names, classes, y, codes, plans, outcomes):
    """Score one experiment's outcomes, read from ``outcomes`` in task
    order; returns its report and its permutation importance, if any.

    ``codes`` are the class indices of the labels ``y``. Each fold is
    scored from one count matrix of its true and predicted class indices.
    The classes a fold's balanced accuracy and weighted F1 score are those
    present in its true labels, as the label API scores them by default.
    """
    n = len(y)
    k = len(classes)
    results = []
    designated_detail = None
    importance = None
    for name in names:
        train_ba, test_ba, train_wf1, test_wf1 = [], [], [], []
        test_f1 = []
        pooled_proba = np.empty((n, k))
        pooled_pred = np.empty(n, dtype=np.intp)
        try:
            for plan in plans:
                for train_idx, test_idx in plan:
                    pred_train, pred_test, proba, report = next(outcomes)
                    t_train, t_test = codes[train_idx], codes[test_idx]
                    train = count_matrix(t_train, pred_train, k)
                    test = count_matrix(t_test, pred_test, k)
                    train_ba.append(balanced_accuracy_of(train))
                    test_ba.append(balanced_accuracy_of(test))
                    train_wf1.append(weighted_f1_of(train, t_train))
                    test_wf1.append(weighted_f1_of(test, t_test))
                    test_f1.append(f1_of(test))
                    if report is not None:
                        importance = report
                    if proba is not None:
                        pooled_proba[test_idx] = proba
                        pooled_pred[test_idx] = pred_test
        except LoudclassError as exc:
            raise _with_stage(f"classifier {name}", exc)
        per_class_f1 = {
            cls: tuple(fold[ci] for fold in test_f1) for ci, cls in enumerate(classes)
        }
        results.append(
            ClassifierResult(
                name,
                tuple(train_ba),
                tuple(test_ba),
                tuple(train_wf1),
                tuple(test_wf1),
                per_class_f1,
            )
        )
        if name == cfg.designated:
            try:
                designated_detail = _designated_detail(
                    name, classes, y, codes, pooled_proba, pooled_pred
                )
            except LoudclassError as exc:
                raise _with_stage("designated detail", exc)

    t_tests: dict = {}
    for i, a in enumerate(results):
        for b in results[i + 1 :]:
            t_tests[(a.name, b.name)] = {
                "balanced_accuracy": paired_t_test(a.test_ba, b.test_ba),
                "weighted_f1": paired_t_test(a.test_wf1, b.test_wf1),
            }

    return MetricsReport(
        cfg, classes, plans, tuple(results), designated_detail, t_tests
    ), importance


@dataclass(frozen=True)
class SweepReport:
    """One experiment per roving condition over identical base data."""

    conditions: tuple[tuple[float, float], ...]
    reports: tuple[MetricsReport, ...]
    importance: tuple[PermutationImportanceReport, ...]


def roving_sweep(
    cfg: ExperimentConfig,
    conditions: tuple[tuple[float, float], ...] = DEFAULT_ROVING_CONDITIONS,
) -> SweepReport:
    """Run one experiment per (mean, sd) offset condition.

    The conditions share the base records, their feature matrix and the
    fold plans, so they differ only in the participant offsets; (0, 0) is
    bit-identical to a plain run. A data error in any condition is raised
    before any fold plan or fit (see ``_cross_validate``), and all
    conditions' fits run as one task list on one pool of workers.
    Permutation importance scores the model each experiment fitted for the
    designated classifier on plan 0, fold 0.
    """
    if cfg.roving is not None:
        raise ConfigurationError(
            "sweep config must leave roving unset; conditions supply it"
        )
    configs = [
        replace(cfg, roving=RovingConfig(mean, sd, cfg.rove_seed))
        for mean, sd in conditions
    ]
    outcomes = _cross_validate(cfg, configs, importance=True)
    return SweepReport(
        tuple(conditions),
        tuple(report for report, _ in outcomes),
        tuple(importance for _, importance in outcomes),
    )
