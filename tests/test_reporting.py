import csv
import importlib.util
import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

from loudclass.classifiers import ClassifierSpec, fit
from loudclass.errors import ConfigurationError, DataError
from loudclass.explain import explain_model, importance_report
from loudclass.harness import ExperimentConfig, roving_sweep, run_experiment
from loudclass.loudness import FEATURE_NAMES
from loudclass.pca import fit_pca, standardize, transform
from loudclass.pipeline import SyntheticConfig, feature_matrix, labels_of
from loudclass import reporting
from loudclass.reporting import (
    make_figures,
    write_beeswarm_csv,
    write_importance_csv,
    write_manifest,
    write_pca_outputs,
    write_report,
    write_sweep,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def report():
    cfg = ExperimentConfig(
        synthetic=SyntheticConfig(records_per_class=12, seed=7),
        classifiers=(ClassifierSpec("dt"), ClassifierSpec("knn")),
        k=3,
        designated="dt",
    )
    return run_experiment(cfg)


def test_write_report_files(report, tmp_path):
    write_report(report, tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "per_class_f1.csv").exists()
    assert (tmp_path / "confusion.csv").exists()
    for cls in report.classes:
        assert (tmp_path / f"roc_{cls.name}.csv").exists()
        assert (tmp_path / f"pr_{cls.name}.csv").exists()
    assert (tmp_path / "roc_micro.csv").exists()
    assert (tmp_path / "pr_micro.csv").exists()


def test_report_json_contents(report, tmp_path):
    write_report(report, tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["n_records"] == 12 * 6
    assert payload["classes"] == [c.name for c in report.classes]
    dt = payload["classifiers"]["dt"]
    assert len(dt["test_balanced_accuracy"]["per_fold"]) == 3
    mean = dt["test_balanced_accuracy"]["mean"]
    folds = dt["test_balanced_accuracy"]["per_fold"]
    assert mean == pytest.approx(sum(folds) / len(folds))
    assert dt["test_balanced_accuracy"]["sd"] >= 0.0
    assert payload["designated"]["name"] == "dt"
    assert "micro" in payload["designated"]["roc_auc"]
    rows = payload["t_tests"]
    assert {r["metric"] for r in rows} == {"balanced_accuracy", "weighted_f1"}


def test_report_json_deterministic(report, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_report(report, a)
    write_report(report, b)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "confusion.csv").read_bytes() == (b / "confusion.csv").read_bytes()


def test_per_class_f1_rows(report, tmp_path):
    write_report(report, tmp_path)
    rows = read_csv(tmp_path / "per_class_f1.csv")
    # classifier x class x fold
    assert len(rows) == 2 * len(report.classes) * 3
    assert set(rows[0]) == {"classifier", "class", "fold", "f1"}


def test_confusion_rows(report, tmp_path):
    write_report(report, tmp_path)
    rows = read_csv(tmp_path / "confusion.csv")
    c = len(report.classes)
    assert len(rows) == c * c
    total = sum(int(r["count"]) for r in rows)
    assert total == 12 * 6


def test_curve_csv_columns(report, tmp_path):
    write_report(report, tmp_path)
    roc = read_csv(tmp_path / "roc_micro.csv")
    assert set(roc[0]) == {"threshold", "one_minus_specificity", "sensitivity"}
    assert roc[0]["threshold"] == "inf"
    pr = read_csv(tmp_path / "pr_micro.csv")
    assert set(pr[0]) == {"threshold", "recall", "precision"}


def test_make_figures(report, tmp_path):
    write_report(report, tmp_path)
    consumed = make_figures(tmp_path)
    out = tmp_path / "figures"
    assert (out / "metrics_summary.csv").is_file()
    assert (out / "roc_curves.csv").is_file()
    # The inputs it read, in reading order: the report, then the curves.
    assert consumed[0] == tmp_path / "report.json"
    assert consumed[1:] == [*sorted(tmp_path.glob("roc_*.csv")),
                            *sorted(tmp_path.glob("pr_*.csv"))]
    summary = read_csv(out / "metrics_summary.csv")
    keyed = {
        (r["classifier"], r["split"], r["metric"]): float(r["mean"])
        for r in summary
    }
    dt = report.result("dt")
    mean, _ = dt.mean_sd(dt.test_ba)
    assert keyed[("dt", "test", "balanced_accuracy")] == pytest.approx(mean)
    curves = read_csv(out / "roc_curves.csv")
    assert {r["curve"] for r in curves} >= {"micro"}
    f1 = read_csv(out / "per_class_f1_summary.csv")
    assert len(f1) == 2 * len(report.classes)


def test_make_figures_requires_inputs(tmp_path):
    with pytest.raises(DataError):
        make_figures(tmp_path / "empty")


def test_write_manifest(tmp_path):
    data = tmp_path / "input.bin"
    data.write_bytes(b"12345")
    write_manifest(tmp_path, "evaluate", {"k": 10}, [data])
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["command"] == "evaluate"
    assert payload["options"] == {"k": 10}
    digest = next(iter(payload["inputs"].values()))
    assert digest == "5994471abb01112afcc18159f6cc74b4f511b99806da59b3caf5a9c173cacfc5"
    assert set(payload["versions"]) == {"loudclass", "python", "numpy", "scipy"}
    assert payload["versions"]["scipy"] == scipy.__version__
    assert "out_dir" not in payload


def test_manifest_without_scipy_has_no_scipy_version(tmp_path, monkeypatch):
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: None if name == "scipy" else find_spec(name))
    write_manifest(tmp_path, "evaluate", {"k": 10}, [])
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert set(payload["versions"]) == {"loudclass", "python", "numpy"}


def test_write_sweep(tmp_path):
    cfg = ExperimentConfig(
        synthetic=SyntheticConfig(records_per_class=10, seed=2),
        classifiers=(ClassifierSpec("dt"),),
        k=3,
        designated="dt",
        perm_repeats=2,
    )
    sweep = roving_sweep(cfg, conditions=((0.0, 0.0), (10.0, 5.0)))
    write_sweep(sweep, tmp_path)
    sweep_dir = tmp_path / "sweep"
    assert (sweep_dir / "report_m0_sd0.json").exists()
    assert (sweep_dir / "report_m10_sd5.json").exists()
    aucs = read_csv(sweep_dir / "auc_summary.csv")
    classes = json.loads((sweep_dir / "report_m0_sd0.json").read_text())["classes"]
    assert len(aucs) == 2 * (len(classes) + 1)
    overlay = read_csv(sweep_dir / "roc_micro_overlay.csv")
    assert {r["rove_mean"] for r in overlay} == {"0.0", "10.0"}
    importance = read_csv(sweep_dir / "perm_importance.csv")
    assert {r["split"] for r in importance} == {"train", "test"}


def test_write_sweep_rejects_conditions_sharing_a_report_name(tmp_path):
    # :g keeps six significant digits, so these two means name one file.
    sweep = SimpleNamespace(conditions=((0.1234567, 0.0), (0.1234568, 0.0)),
                            reports=[None, None])
    with pytest.raises(ConfigurationError, match="both write report_m0.123457_sd0.json"):
        write_sweep(sweep, tmp_path)
    assert not (tmp_path / "sweep").exists()


def test_micro_overlay_is_the_csv_writer_bytes(tmp_path):
    # Conditions as ints, Python floats and numpy floats; curve values that
    # csv writes as inf, -0.0, subnormals and 17-digit reprs.
    values = np.array([np.inf, 1.0, 0.5, 0.1 + 0.2, 1e-300, 5e-324, -0.0, 1e300])
    curves = [SimpleNamespace(thresholds=values, x=values[::-1] * scale, y=values * scale)
              for scale in (1.0, 0.5, 3.0)]
    conditions = ((0, 0), (np.float64(5.0), 2.5), (10.0, np.float64(0.1)))
    sweep = SimpleNamespace(conditions=conditions, reports=[
        SimpleNamespace(designated=SimpleNamespace(roc_curves={"micro": curve}))
        for curve in curves
    ])
    header = ("rove_mean", "rove_sd", "threshold", "one_minus_specificity", "sensitivity")
    rows = [(mean, sd, t, x, y)
            for (mean, sd), c in zip(conditions, curves)
            for t, x, y in zip(c.thresholds.tolist(), c.x.tolist(), c.y.tolist())]
    reporting.write_csv_rows(tmp_path / "expected.csv", header, rows)
    reporting._write_overlay(sweep, tmp_path / "overlay.csv")
    expected = (tmp_path / "expected.csv").read_bytes()
    assert (tmp_path / "overlay.csv").read_bytes() == expected
    assert expected.count(b"\n") == 1 + 3 * len(values)


def test_write_pca_outputs(small_records, tmp_path):
    Z, _, _ = standardize(feature_matrix(small_records))
    model = fit_pca(Z, 2)
    scores = transform(model, Z)
    ids = [f"{r.participant_id}:{r.ear}" for r in small_records]
    write_pca_outputs(model, scores, ids, tmp_path, FEATURE_NAMES)
    loadings = read_csv(tmp_path / "pca_loadings.csv")
    assert len(loadings) == 12
    assert set(loadings[0]) == {"feature", "pc1", "pc2"}
    rows = read_csv(tmp_path / "pca_scores.csv")
    assert len(rows) == len(small_records)
    explained = json.loads((tmp_path / "pca_explained.json").read_text())
    assert len(explained["explained_variance_fraction"]) == 2


def test_write_beeswarm_and_importance(small_records, tmp_path):
    X = feature_matrix(small_records)
    y = labels_of(small_records)
    model = fit(ClassifierSpec("dt"), X, y)
    agnostic, _ = explain_model(
        model, X[:3], X[3:20], feature_names=FEATURE_NAMES
    )
    ids = [f"{r.participant_id}:{r.ear}" for r in small_records[:3]]
    write_beeswarm_csv(agnostic, ids, tmp_path / "bee.csv")
    rows = read_csv(tmp_path / "bee.csv")
    assert len(rows) == 3 * 12
    assert set(rows[0]) == {"record_id", "feature", "shap_value",
                            "feature_value", "rank"}
    imp = importance_report(model, X[:60], y[:60], X[60:], y[60:],
                            repeats=2, metric="balanced_accuracy", seed=0,
                            feature_names=FEATURE_NAMES)
    write_importance_csv(imp, tmp_path / "imp.csv")
    rows = read_csv(tmp_path / "imp.csv")
    assert len(rows) == 2 * 12 * 2  # splits x features x repeats
    assert set(rows[0]) == {"feature", "split", "repeat", "decrease"}
