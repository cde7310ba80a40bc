"""Shipping gate: one test per release criterion.

Each test prints a single verdict line (visible with ``pytest -s`` or in
captured output) and enforces its own wall-clock budget.  Criterion 7 is a
soft check on generator-produced data; it warns instead of failing.
"""

import functools
import time
import warnings

import numpy as np

from loudclass.bisgaard import Audiogram, classify, load_profiles
from loudclass.classifiers import ClassifierSpec, fit
from loudclass.classifiers.neural import NeuralNetBinary, _Objective
from loudclass.cli import main as cli_main
from loudclass.explain import exact_shapley, importance_report
from loudclass.harness import (
    DEFAULT_ROVING_CONDITIONS,
    ExperimentConfig,
    kfold_split,
    roving_sweep,
    run_experiment,
)
from loudclass.loudness import (
    FEATURE_NAMES,
    LoudnessFunction,
    derive_features,
)
from loudclass.metrics import (
    MetricWarning,
    balanced_accuracy,
    count_matrix,
    f1_of,
    f1_per_class,
    label_codes,
    pr_curve,
    roc_curve,
    weighted_f1,
)
from loudclass.pca import fit_pca, standardize, transform
from loudclass.pipeline import (
    EarRecord,
    RovingConfig,
    SyntheticConfig,
    apply_roving,
    generate_synthetic,
    preprocess,
    write_labeled_json,
)

import oracles


def criterion(label: str, budget_s: float):
    """Time the body, enforce the budget, print one verdict line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget_s, (
                    f"budget exceeded: {elapsed:.1f}s >= {budget_s:.0f}s"
                )
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS ({elapsed:.2f}s)")

        return wrapper

    return deco


ZERO_NOISE = SyntheticConfig(
    records_per_class=30, seed=3,
    jitter_sd=0.0, l2_5_offset_sd=0.0, l_cut_noise_sd=0.0,
)


@criterion("1 metric oracle suite", 10.0)
def test_criterion_1_metric_oracles():
    rng = np.random.default_rng(20260815)
    tol = 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetricWarning)
        for _ in range(200):
            n_classes = int(rng.integers(2, 5))
            classes = [f"c{i}" for i in range(n_classes)]
            n = int(rng.integers(4, 40))
            y_true = [classes[i] for i in rng.integers(0, n_classes, size=n)]
            y_pred = [classes[i] for i in rng.integers(0, n_classes, size=n)]
            assert abs(balanced_accuracy(y_true, y_pred)
                       - oracles.balanced_accuracy_of(y_true, y_pred)) <= tol
            assert abs(weighted_f1(y_true, y_pred)
                       - oracles.weighted_f1_of(y_true, y_pred)) <= tol
            matrix = count_matrix(label_codes(y_true, classes),
                                  label_codes(y_pred, classes), n_classes)
            f1 = f1_of(matrix)
            for ci, cls in enumerate(classes):
                tp, fp, fn = oracles.class_counts(y_true, y_pred, cls)
                hits = int(matrix[ci, ci])
                assert hits == tp
                assert int(matrix[:, ci].sum()) - hits == fp
                assert int(matrix[ci].sum()) - hits == fn
                assert abs(f1[ci] - oracles.f1_of(tp, fp, fn)) <= tol
                assert abs(f1_per_class(y_true, y_pred, cls)
                           - oracles.f1_of(tp, fp, fn)) <= tol
            # average precision on a binary slice of the same instance
            yb = rng.integers(0, 2, size=n)
            yb[0], yb[1] = 0, 1
            scores = np.round(rng.uniform(size=n), 2)
            _, ap = pr_curve(yb, scores)
            assert abs(ap - oracles.average_precision_of(yb, scores)) <= tol
        for _ in range(1000):
            n = int(rng.integers(4, 30))
            yb = rng.integers(0, 2, size=n)
            yb[0], yb[1] = 0, 1
            scores = np.round(rng.uniform(size=n), 1)  # tie-prone on purpose
            _, auc = roc_curve(yb, scores)
            assert abs(auc - oracles.mann_whitney_auc(yb, scores)) <= tol


@criterion("2 profile matcher stability", 5.0)
def test_criterion_2_profile_stability():
    profiles = load_profiles()
    for p in profiles:
        label, rmse = classify(Audiogram(p.grid, p.thresholds))
        assert label == p.bisgaard_class
        assert rmse == 0.0

    vectors = [np.asarray(p.thresholds, dtype=float) for p in profiles]
    pair_rmse = [
        float(np.sqrt(np.mean((a - b) ** 2)))
        for i, a in enumerate(vectors)
        for b in vectors[i + 1:]
    ]
    radius = min(pair_rmse) / 2.0

    rng = np.random.default_rng(42)
    for _ in range(1000):
        idx = int(rng.integers(len(profiles)))
        p = profiles[idx]
        offset = float(rng.uniform(-0.999, 0.999)) * radius
        shifted = tuple(t + offset for t in p.thresholds)
        label, _ = classify(Audiogram(p.grid, shifted))
        assert label == p.bisgaard_class


@criterion("3 roving invariants", 5.0)
def test_criterion_3_roving_invariants(tmp_path):
    records = generate_synthetic(SyntheticConfig(records_per_class=25, seed=11))
    by_pid: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        by_pid.setdefault(r.participant_id, []).append(i)
    paired = [ix for ix in by_pid.values() if len(ix) == 2]
    assert paired, "fixture must contain two-eared participants"
    tol = 1e-12

    for mean, sd in DEFAULT_ROVING_CONDITIONS:
        roved = apply_roving(records, RovingConfig(mean, sd, seed=0))
        for a, b in zip(records, roved):
            fa = dict(zip(FEATURE_NAMES, a.features))
            fb = dict(zip(FEATURE_NAMES, b.features))
            for freq in (1500, 4000):
                assert fb[f"MLOW_{freq}"] == fa[f"MLOW_{freq}"]
                assert fb[f"MHIGH_{freq}"] == fa[f"MHIGH_{freq}"]
            # cross-frequency level differences survive the shared offset
            for label in ("L2.5", "L25", "L50", "LCUT"):
                before = fa[f"{label}_1500"] - fa[f"{label}_4000"]
                after = fb[f"{label}_1500"] - fb[f"{label}_4000"]
                assert abs(after - before) <= tol
        l25 = FEATURE_NAMES.index("L25_1500")
        for i, j in paired:
            before = records[i].features[l25] - records[j].features[l25]
            after = roved[i].features[l25] - roved[j].features[l25]
            assert abs(after - before) <= tol

    plain = tmp_path / "plain.json"
    noop = tmp_path / "noop.json"
    write_labeled_json(records, plain)
    write_labeled_json(apply_roving(records, RovingConfig(0.0, 0.0, seed=0)), noop)
    assert plain.read_bytes() == noop.read_bytes()


@criterion("4 pca orthonormality and eigenvalues", 10.0)
def test_criterion_4_pca():
    rng = np.random.default_rng(7)
    d = 12
    eye = np.eye(d)
    for _ in range(100):
        n = int(rng.integers(15, 60))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
        Z, _, _ = standardize(X)
        model = fit_pca(Z, d)
        assert np.max(np.abs(model.loadings.T @ model.loadings - eye)) < 1e-9
        cov = Z.T @ Z / (n - 1)
        reference, _ = oracles.jacobi_eigh(cov)
        assert np.max(np.abs(model.explained_variance - reference)) < 1e-8
        recon = transform(model, Z) @ model.loadings.T
        assert np.max(np.abs(recon - Z)) < 1e-6


@criterion("5 classifier sanity and deterministic replay", 120.0)
def test_criterion_5_classifier_sanity(tmp_path):
    report = run_experiment(ExperimentConfig(synthetic=ZERO_NOISE, k=10))
    floors = {"lr": 0.95, "svm": 0.95, "dt": 0.95, "rf": 0.95,
              "gb": 0.95, "nn": 0.95, "knn": 0.90}
    for name, floor in floors.items():
        mean, _ = report.result(name).mean_sd(report.result(name).test_ba)
        assert mean >= floor, f"{name}: mean test BA {mean:.3f} < {floor}"

    rng = np.random.default_rng(5)
    X = rng.normal(size=(9, 5))
    y = (rng.uniform(size=9) > 0.5).astype(float)
    net = NeuralNetBinary(5, hidden=(4, 3), seed_key=(1,))
    theta = net.initial_parameters() + 0.05 * rng.normal(
        size=net.initial_parameters().shape)
    objective = _Objective(net.layout, net.alpha, X, y)
    objective.value(theta)
    grad = objective.gradient(theta)
    h = 1e-6
    numeric = np.zeros_like(theta)
    for i in range(len(theta)):
        probe = theta.copy()
        probe[i] += h
        up = objective.value(probe)
        probe[i] -= 2 * h
        down = objective.value(probe)
        numeric[i] = (up - down) / (2 * h)
    scale = max(1.0, float(np.linalg.norm(grad)))
    assert np.linalg.norm(numeric - grad) / scale < 1e-5

    first = tmp_path / "first"
    assert cli_main(["generate", "--out-dir", str(first), "--per-class", "12",
                     "--seed", "3", "--jitter-sd", "0",
                     "--l2-5-offset-sd", "0", "--l-cut-noise-sd", "0"]) == 0
    assert cli_main(["evaluate", "--out-dir", str(first), "--only", "dt,lr",
                     "--k", "5", "--classifier", "lr"]) == 0
    second = tmp_path / "second"
    assert cli_main(["replay", "--manifest", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
    for name in ("report.json", "per_class_f1.csv", "confusion.csv",
                 "roc_micro.csv", "manifest.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


@criterion("6 explainability axioms", 60.0)
def test_criterion_6_explainability():
    rng = np.random.default_rng(99)
    d = 12
    background = rng.normal(size=(25, d))
    records = rng.normal(size=(10, d))

    # additivity on a fitted probabilistic model
    labels = np.array(["a", "b", "c"])[rng.integers(0, 3, size=90)]
    X_fit = rng.normal(size=(90, d)) + (labels == "a")[:, None] * 1.5
    model = fit(ClassifierSpec("lr"), X_fit, labels)
    f = lambda M: model.predict_proba(M)[:, 0]
    for x in records:
        phi, base = exact_shapley(f, x, background)
        assert abs(phi.sum() + base - float(f(x[None, :])[0])) < 1e-6

    # null players: features the function never reads attribute exactly zero
    g = lambda M: M[:, 0] * M[:, 1] + np.sin(M[:, 2])
    phi, _ = exact_shapley(g, records[0], background)
    assert all(phi[i] == 0.0 for i in range(3, d))

    # linear closed form
    w = rng.normal(size=d)
    lin = lambda M: M @ w + 0.7
    expected = w * (records[1] - background.mean(axis=0))
    phi, base = exact_shapley(lin, records[1], background)
    assert np.max(np.abs(phi - expected)) < 1e-9
    assert abs(base - float(lin(background).mean())) < 1e-9

    # permutation importance puts the only informative feature first
    X = rng.normal(size=(160, 6))
    y = np.where(X[:, 2] > 0.0, "pos", "neg")
    hits = 0
    for seed in range(20):
        train, test = kfold_split(y, 2, stratified=True, seed=seed).fold_indices(0)
        m = fit(ClassifierSpec("dt"), X[train], y[train])
        rep = importance_report(m, X[train], y[train], X[test], y[test],
                                repeats=5, metric="balanced_accuracy",
                                seed=seed)
        hits += int(np.argmax(np.median(rep.decreases["test"], axis=1)) == 2)
    assert hits >= 19, f"informative feature ranked first in {hits}/20 runs"


def test_criterion_7_soft_paper_shape():
    """Soft qualitative checks; generator artifacts warn, never fail.

    The synthetic generator derives every level feature from the same
    threshold, so the levels are collinear proxies and the importance mass
    moves between them from seed to seed.  Only the family-level claim is
    stable: some l2_5 feature belongs in the top 3.
    """
    start = time.perf_counter()
    cfg = ExperimentConfig(
        synthetic=SyntheticConfig(records_per_class=60, seed=0),
        classifiers=(ClassifierSpec("lr"),),
        k=10,
        designated="lr",
        perm_repeats=10,
    )
    sweep = roving_sweep(cfg, conditions=((0.0, 0.0), (10.0, 5.0)))
    aucs = {cond: report.designated.roc_auc["micro"]
            for cond, report in zip(sweep.conditions, sweep.reports)}
    problems = []
    if aucs[(10.0, 5.0)] > aucs[(0.0, 0.0)] + 0.05:
        problems.append(
            f"roved micro-AUC {aucs[(10.0, 5.0)]:.3f} exceeds "
            f"no-roving {aucs[(0.0, 0.0)]:.3f} + 0.05"
        )
    medians = np.median(sweep.importance[0].decreases["test"], axis=1)
    ranking = np.argsort(medians)[::-1]
    top3 = {FEATURE_NAMES[i] for i in ranking[:3]}
    if not top3 & {"L2.5_1500", "L2.5_4000"}:
        problems.append(f"no l2_5 feature in importance top 3: {sorted(top3)}")
    for message in problems:
        warnings.warn("soft shape check: " + message)
    elapsed = time.perf_counter() - start
    verdict = "PASS" if not problems else "WARN (soft)"
    print(f"[acceptance] 7 qualitative paper-shape (soft): {verdict} ({elapsed:.2f}s)")


def _cascade_fixture():
    """Two-sided dataset engineered to the published stage counts.

    2398 audiogram ears (259 incomplete), 1295 loudness ears (23 incomplete),
    1231 merged, 316 below the PTA cutoff, rare classes pruned to six.
    """
    profiles = load_profiles()
    grid = profiles[0].grid
    by_name = {p.bisgaard_class.name: np.asarray(p.thresholds, float)
               for p in profiles}
    plan = [("N1", 30, 4.0), ("N2", 180, 2.0), ("N3", 275, 2.0),
            ("N4", 120, 2.0), ("N5", 15, 2.0), ("N6", 13, 2.0),
            ("N7", 10, 2.0), ("S1", 140, 2.0), ("S2", 77, 2.0),
            ("S3", 55, 2.0)]
    class_thresholds = [by_name[name] + off
                        for name, count, off in plan for _ in range(count)]
    assert len(class_thresholds) == 915

    # loudness-side enumeration: 648 participants, the last single-eared
    loud_ears = []
    for i in range(648):
        loud_ears.append((f"p{i:04d}", "left"))
        if i < 647:
            loud_ears.append((f"p{i:04d}", "right"))
    assert len(loud_ears) == 1295
    ear_index = {key: i for i, key in enumerate(loud_ears)}

    template = derive_features(LoudnessFunction(77.5, 0.53, 1.25),
                               LoudnessFunction(80.0, 0.60, 1.40))
    broken = template[:-1] + (float("nan"),)

    def threshold_row(pid: str, ear: str) -> np.ndarray:
        i = ear_index.get((pid, ear))
        if i is not None and i <= 40:
            row = np.full(len(grid), 30.0)
            row[0] = np.nan  # overlaps complete loudness, killed at merge
            return row
        if "p0700" <= pid <= "p0808":
            row = np.full(len(grid), 30.0)
            row[0] = np.nan
            return row
        if i is not None and 41 <= i <= 356:
            return np.full(len(grid), 5.0)  # normal hearing, PTA-filtered
        if i is not None and 357 <= i <= 1271:
            return class_thresholds[i - 357]
        return np.full(len(grid), 30.0)

    audio_records = [
        EarRecord(pid, ear, audiogram=Audiogram(grid, threshold_row(pid, ear)))
        for pid in (f"p{p:04d}" for p in range(1199))
        for ear in ("left", "right")
    ]
    loud_records = [
        EarRecord(pid, ear, features=broken if i >= 1272 else template)
        for i, (pid, ear) in enumerate(loud_ears)
    ]
    return audio_records, loud_records


@criterion("8 pipeline count bookkeeping", 1.0)
def test_criterion_8_cascade_counts():
    audio, loud = _cascade_fixture()
    final, summary = preprocess(audio, loud)
    assert summary.audiogram_ears == 2398
    assert summary.audiogram_complete == 2139
    assert summary.loudness_complete == 1272
    assert summary.merged == 1231
    assert summary.after_pta_filter == 915
    assert summary.after_class_filter == 847
    assert tuple(c.name for c in summary.class_set) == (
        "N2", "N3", "N4", "S1", "S2", "S3")
    assert len(final) == 847
