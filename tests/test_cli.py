"""End-to-end command tests driven through cli.main(argv)."""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import sys
from dataclasses import replace

import numpy as np
import pytest

from loudclass import cli, harness, metrics
from loudclass.classifiers import ClassifierSpec, load_model, predict
from loudclass.cli import COMMANDS, _resolve_options, build_parser, main
from loudclass.errors import DataError, NumericError
from loudclass.loudness import LEVEL_FEATURE_INDICES, LoudnessFeatureVector
from loudclass.pipeline import (
    RovingConfig,
    SyntheticConfig,
    feature_matrix,
    generate_synthetic_full,
    load_labeled_json,
    rove_matrix,
    write_csv,
    write_labeled_json,
)


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture()
def generated(tmp_path):
    out = tmp_path / "run"
    rc = run("generate", "--out-dir", str(out), "--per-class", "8",
             "--seed", "3")
    assert rc == 0
    return out


def test_generate_outputs(tmp_path):
    out = tmp_path / "g"
    rc = run("generate", "--out-dir", str(out), "--per-class", "5",
             "--seed", "1", "--csv")
    assert rc == 0
    records = load_labeled_json(out / "labeled.json")
    assert len(records) == 5 * 6
    assert (out / "participants.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["options"]["per_class"] == 5
    assert manifest["inputs"] == {}
    assert "out_dir" not in manifest["options"]


def test_generate_subset_of_classes(tmp_path):
    out = tmp_path / "g"
    rc = run("generate", "--out-dir", str(out), "--per-class", "4",
             "--classes", "N2,S1")
    assert rc == 0
    records = load_labeled_json(out / "labeled.json")
    assert {r.label.name for r in records} == {"N2", "S1"}


def test_evaluate_then_report(generated):
    rc = run("evaluate", "--out-dir", str(generated), "--only", "dt,knn",
             "--k", "3", "--classifier", "dt")
    assert rc == 0
    payload = json.loads((generated / "report.json").read_text())
    assert set(payload["classifiers"]) == {"dt", "knn"}
    assert (generated / "roc_micro.csv").exists()

    rc = run("report", "--out-dir", str(generated))
    assert rc == 0
    assert (generated / "figures" / "metrics_summary.csv").exists()
    manifest = json.loads((generated / "figures" / "manifest.json").read_text())
    assert manifest["command"] == "report"
    assert any(key.endswith("report.json") for key in manifest["inputs"])


def test_report_json_does_not_depend_on_data_location(generated, tmp_path):
    copy = tmp_path / "copy"
    copy.mkdir()
    shutil.copyfile(generated / "labeled.json", copy / "labeled.json")
    for out in (generated, copy):
        rc = run("evaluate", "--out-dir", str(out), "--only", "dt,knn",
                 "--k", "3", "--classifier", "dt")
        assert rc == 0
    report = (copy / "report.json").read_bytes()
    assert report == (generated / "report.json").read_bytes()
    config = json.loads(report)["config"]
    assert "data_path" not in config
    labeled = (copy / "labeled.json").read_bytes()
    assert config["data_sha256"] == hashlib.sha256(labeled).hexdigest()


def test_train_writes_loadable_model(generated, tmp_path):
    rc = run("train", "--out-dir", str(generated), "--classifier", "dt")
    assert rc == 0
    model = load_model(generated / "model.json")
    records = load_labeled_json(generated / "labeled.json")
    labels = predict(model, feature_matrix(records))
    assert len(labels) == len(records)


def test_train_param_overrides(generated):
    rc = run("train", "--out-dir", str(generated), "--classifier", "knn",
             "--param", "k=3", "--model-out", "knn.json")
    assert rc == 0
    manifest = json.loads((generated / "manifest.json").read_text())
    assert manifest["options"]["params"] == {"k": 3}
    assert (generated / "knn.json").exists()


def test_pca_outputs(generated):
    rc = run("pca", "--out-dir", str(generated), "--components", "3")
    assert rc == 0
    assert (generated / "pca_loadings.csv").exists()
    explained = json.loads((generated / "pca_explained.json").read_text())
    assert len(explained["explained_variance_fraction"]) == 3


def test_rove_with_alias_flags(generated):
    rc = run("rove", "--out-dir", str(generated), "--rove-mean", "10",
             "--rove-sd", "5", "--rove-seed", "2")
    assert rc == 0
    plain = load_labeled_json(generated / "labeled.json")
    roved = load_labeled_json(generated / "labeled_roved.json")
    moved = 0
    for a, b in zip(plain, roved):
        for fa, fb in ((a.features.f1500, b.features.f1500),
                       (a.features.f4000, b.features.f4000)):
            assert fb.m_low == fa.m_low
            assert fb.m_high == fa.m_high
            moved += fb.l25 != fa.l25
    assert moved > 0


def test_explain_requires_classifier(generated, capsys):
    rc = run("explain", "--out-dir", str(generated))
    assert rc == 2
    assert "classifier" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--background", "--max-records", "--perm-repeats"])
def test_explain_rejects_counts_below_one_before_any_work(generated, tmp_path, monkeypatch,
                                                          capsys, option):
    fits = []
    monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: fits.append(args))
    out = tmp_path / "explain"
    rc = run("explain", "--data", str(generated / "labeled.json"), "--out-dir", str(out),
             "--classifier", "dt", "--k", "3", option, "0")
    assert rc == 2
    assert f"{option[2:].replace('-', '_')} must be >= 1" in capsys.readouterr().err
    assert fits == []
    assert not any(out.rglob("*"))


@pytest.mark.parametrize("classifier", ["knn", "svm"])
def test_explain_query_whose_squared_norm_overflows_is_a_data_error(generated, classifier,
                                                                    capsys):
    # explain's split is fold 0 of kfold_split(labels, k, seed); its first
    # test record gets 4000 Hz levels of 1e200. The training rows stay
    # finite, so the scaler accepts them and the query row standardizes to
    # a finite row whose squared norm overflows.
    records = load_labeled_json(generated / "labeled.json")
    X = feature_matrix(records)
    _, test_idx = harness.kfold_split([r.label for r in records], k=3,
                                      seed=0).fold_indices(0)
    X[test_idx[0], [i for i in LEVEL_FEATURE_INDICES if i >= 6]] = 1e200
    data = generated / "huge.json"
    write_labeled_json(
        [replace(r, features=LoudnessFeatureVector.from_sequence(row))
         for r, row in zip(records, X)],
        data,
    )
    rc = run("explain", "--out-dir", str(generated / "out"), "--data", str(data),
             "--k", "3", "--classifier", classifier, "--background", "5",
             "--max-records", "2", "--perm-repeats", "1")
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "squared norm overflows" in err


def test_explain_then_replay_is_byte_identical(generated, tmp_path):
    rc = run("explain", "--out-dir", str(generated), "--classifier", "dt",
             "--k", "3", "--background", "20", "--max-records", "5",
             "--perm-repeats", "2")
    assert rc == 0
    replayed = tmp_path / "replayed"
    rc = run("replay", "--manifest", str(generated / "manifest.json"),
             "--out-dir", str(replayed))
    assert rc == 0
    for name in ("shap_beeswarm.csv", "perm_importance.csv", "manifest.json"):
        assert (replayed / name).read_bytes() == (generated / name).read_bytes()


def test_explain_forest_then_replay_is_byte_identical(generated, tmp_path):
    rc = run("explain", "--out-dir", str(generated), "--classifier", "rf",
             "--k", "3", "--background", "10", "--max-records", "3",
             "--perm-repeats", "2")
    assert rc == 0
    replayed = tmp_path / "replayed"
    rc = run("replay", "--manifest", str(generated / "manifest.json"),
             "--out-dir", str(replayed))
    assert rc == 0
    names = ("shap_beeswarm.csv", "perm_importance.csv",
             "perm_importance_meta.json", "manifest.json")
    for name in names:
        assert (replayed / name).read_bytes() == (generated / name).read_bytes()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "generate": {"per_class": 6, "jitter_sd": 1.0},
    }))
    out = tmp_path / "out"
    rc = run("generate", "--out-dir", str(out), "--config", str(cfg),
             "--per-class", "4")
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # CLI beats config section; config beats defaults.
    assert manifest["options"]["per_class"] == 4
    assert manifest["options"]["seed"] == 5
    assert manifest["options"]["jitter_sd"] == 1.0


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generate": {"bogus_knob": 1}}))
    rc = run("generate", "--out-dir", str(tmp_path / "o"), "--config", str(cfg))
    assert rc == 2
    assert "bogus_knob" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, message", [
    ("evaluate", {"k": None}, "k must be a number"),
    ("evaluate", {"k": "abc"}, "k must be a number"),
    ("sweep", {"conditions": [[None, 5]]}, "condition [None, 5]"),
], ids=["k-null", "k-word", "condition-null"])
def test_config_bad_value_is_exit_2(generated, command, config, message, capsys):
    cfg = generated / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = run(command, "--out-dir", str(generated), "--config", str(cfg),
             "--only", "dt", "--classifier", "dt")
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, config, message", [
    ("evaluate", {"stratified": "no"}, "stratified must be true or false"),
    ("evaluate", {"stratified": 0}, "stratified must be true or false"),
    ("evaluate", {"k": 2.7}, "k must be an integer"),
    ("evaluate", {"k": True}, "k must be a number"),
    ("evaluate", {"k": "3"}, "k must be a number"),
    ("evaluate", {"repeats": 1.5}, "repeats must be an integer"),
    ("evaluate", {"rove_mean": False}, "rove_mean must be a number"),
    ("sweep", {"stratified": "false"}, "stratified must be true or false"),
], ids=["bool-word", "bool-int", "int-fraction", "int-bool", "int-string",
        "repeats-fraction", "float-bool", "sweep-bool-word"])
def test_config_value_of_wrong_type_is_exit_2(generated, command, config, message,
                                              capsys):
    cfg = generated / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = run(command, "--out-dir", str(generated), "--config", str(cfg),
             "--only", "dt", "--classifier", "dt")
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, key", [
    ("pca", "data"),
    ("train", "model_out"),
    ("train", "classifier"),
    ("explain", "classifier"),
    ("preprocess", "audiogram_csv"),
    ("preprocess", "loudness_csv"),
    ("preprocess", "combined_csv"),
    ("report", "in_dir"),
])
def test_config_non_string_for_string_option_is_exit_2(generated, command, key, capsys):
    cfg = generated / "cfg.json"
    cfg.write_text(json.dumps({command: {key: 5}}))
    rc = run(command, "--out-dir", str(generated), "--config", str(cfg))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{key} must be a string, got 5" in err
    assert "Traceback" not in err


def test_config_integral_float_is_accepted(generated):
    cfg = generated / "cfg.json"
    cfg.write_text(json.dumps({"k": 3.0, "stratified": False}))
    rc = run("evaluate", "--out-dir", str(generated), "--config", str(cfg),
             "--only", "dt", "--classifier", "dt")
    assert rc == 0
    report = json.loads((generated / "report.json").read_text())
    assert len(report["classifiers"]["dt"]["test_balanced_accuracy"]["per_fold"]) == 3


def test_config_other_sections_ignored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"evaluate": {"k": 99}, "per_class": 4}))
    out = tmp_path / "out"
    rc = run("generate", "--out-dir", str(out), "--config", str(cfg))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["options"]["per_class"] == 4


@pytest.mark.parametrize("command", ["pca", "train"])
def test_config_flat_key_of_another_command_is_ignored(generated, command):
    # The README's example: seed is known to evaluate but not to pca or train.
    cfg = generated / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 7,
        "evaluate": {"k": 5, "only": ["lr", "rf"], "classifier": "lr"},
    }))
    rc = run(command, "--out-dir", str(generated), "--config", str(cfg))
    assert rc == 0
    manifest = json.loads((generated / "manifest.json").read_text())
    assert "seed" not in manifest["options"]


def test_config_flat_key_no_command_knows_is_exit_2(generated, capsys):
    cfg = generated / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "bogus_knob": 1}))
    rc = run("pca", "--out-dir", str(generated), "--config", str(cfg))
    assert rc == 2
    err = capsys.readouterr().err
    assert "bogus_knob" in err
    assert "seed" not in err


def test_preprocess_requires_input_choice(tmp_path, capsys):
    rc = run("preprocess", "--out-dir", str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "csv" in err.lower()


def test_preprocess_combined_csv(tmp_path):
    participants, labeled = generate_synthetic_full(
        SyntheticConfig(records_per_class=6, seed=4))
    src = tmp_path / "combined.csv"
    write_csv(participants, src)
    out = tmp_path / "out"
    rc = run("preprocess", "--out-dir", str(out), "--combined-csv", str(src),
             "--min-pta", "0", "--min-class-count", "1",
             "--min-class-fraction", "0")
    assert rc == 0
    processed = load_labeled_json(out / "labeled.json")
    assert len(processed) == len(labeled)
    summary = json.loads((out / "preprocess_summary.json").read_text())
    assert summary["after_class_filter"] == len(labeled)
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(src.resolve()) in manifest["inputs"]


def test_missing_data_file_is_exit_3(tmp_path):
    rc = run("evaluate", "--out-dir", str(tmp_path / "o"),
             "--data", str(tmp_path / "nope.json"), "--only", "dt",
             "--classifier", "dt")
    assert rc == 3


def test_report_on_empty_dir_is_exit_3(tmp_path):
    rc = run("report", "--out-dir", str(tmp_path / "o"),
             "--in-dir", str(tmp_path / "empty"))
    assert rc == 3


def test_bad_usage_is_exit_2(capsys):
    assert run("bogus") == 2
    assert run("evaluate", "--k", "not-a-number") == 2
    capsys.readouterr()


def test_unknown_only_variant_is_exit_2(generated, capsys):
    rc = run("evaluate", "--out-dir", str(generated), "--only", "dt,magic")
    assert rc == 2
    assert "magic" in capsys.readouterr().err


def test_designated_must_be_in_only(generated, capsys):
    rc = run("evaluate", "--out-dir", str(generated), "--only", "dt",
             "--classifier", "svm")
    assert rc == 2
    assert "svm" in capsys.readouterr().err


def test_removed_svm_max_passes_is_exit_2(generated, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a classifier was fitted before the parameters were checked")

    monkeypatch.setattr(harness, "fit", no_fit)
    rc = run("evaluate", "--out-dir", str(generated), "--classifier", "svm",
             "--param", "max_passes=5")
    assert rc == 2
    assert "unknown svm parameters" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_too_few_records_for_k_names_the_fold_plan_stage(tmp_path, command, capsys):
    assert run("generate", "--out-dir", str(tmp_path), "--per-class", "2") == 0
    rc = run(command, "--out-dir", str(tmp_path / "out"),
             "--data", str(tmp_path / "labeled.json"), "--k", "20")
    assert rc == 2
    err = capsys.readouterr().err
    assert "need at least k=20 records, got 12" in err
    assert err.rstrip().endswith("stage: fold-plan")


# Each command's way of roving the levels by 0 +- 1e308 dB.
OVERFLOWING_ROVE = {
    "evaluate": ("--rove-mean", "0", "--rove-sd", "1e308"),
    "sweep": ("--conditions", "0:1e308"),
}


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize("rove, k, code, stage", [
    (True, "100", 3, "data"),
    (False, "100", 2, "fold-plan"),
    (True, "3", 3, "data"),
])
def test_evaluate_and_sweep_report_errors_at_the_same_stage(
        generated, command, rove, k, code, stage, capsys):
    data = generated / "labeled.json"
    records = load_labeled_json(data)
    with pytest.raises(DataError):  # some participant's offset overflows
        rove_matrix(feature_matrix(records), records, RovingConfig(0.0, 1e308, 0))
    roving = OVERFLOWING_ROVE[command] if rove else ()
    rc = run(command, "--out-dir", str(generated / "out"), "--data", str(data),
             "--k", k, "--only", "lr", "--classifier", "lr", *roving)
    err = capsys.readouterr().err
    assert rc == code, err
    assert err.rstrip().endswith(f"stage: {stage}")


@pytest.mark.parametrize("argv, stage", [
    (("sweep", "--only", "knn", "--classifier", "knn", "--conditions", "1e308:0"),
     "classifier knn"),
    (("evaluate", "--only", "lr", "--classifier", "lr", "--rove-mean", "1e308",
      "--rove-sd", "0"), "classifier lr"),
])
def test_levels_whose_mean_overflows_are_a_data_error(generated, argv, stage, capsys):
    command, *options = argv
    rc = run(command, "--out-dir", str(generated / "out"),
             "--data", str(generated / "labeled.json"), "--k", "3", *options)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "its mean or sd overflows" in err
    assert err.rstrip().endswith(f"stage: {stage}")


def test_levels_whose_sd_overflows_are_a_data_error(generated, capsys):
    # Scaling one class's levels by 1e200 keeps the column sums finite but
    # overflows their squares. Stratified folds spread the class over every
    # fold, so every training fold holds some of these records.
    records = load_labeled_json(generated / "labeled.json")
    X = feature_matrix(records)
    huge = [i for i, r in enumerate(records) if r.label == records[0].label]
    X[np.ix_(huge, LEVEL_FEATURE_INDICES)] *= 1e200
    data = generated / "huge.json"
    write_labeled_json(
        [replace(r, features=LoudnessFeatureVector.from_sequence(row))
         for r, row in zip(records, X)],
        data,
    )
    rc = run("evaluate", "--out-dir", str(generated / "out"), "--data", str(data),
             "--k", "3", "--only", "knn", "--classifier", "knn")
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "its mean or sd overflows" in err
    assert err.rstrip().endswith("stage: classifier knn")


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "generate" in capsys.readouterr().out


def test_replay_missing_manifest_is_exit_2(tmp_path):
    rc = run("replay", "--manifest", str(tmp_path / "missing.json"),
             "--out-dir", str(tmp_path / "o"))
    assert rc == 2


# sha256 of every output but manifest.json of
#   generate --per-class 4 (seed 0), then
#   evaluate --classifier dt --only dt,rf --k 3 --no-stratify
# taken from the commit before metrics.py counted from one confusion
# matrix. Trees only, so the bytes do not depend on BLAS. With 4 ears per
# class and unstratified folds some classes miss a test fold, so the
# F1 0/0 convention fires; DEGENERATE_EVENTS pins how often. Re-pin only
# for a change that is meant to move these outputs, by running the same
# two commands and hashing the files, and say in CHANGES.md why they moved.
METRIC_OUTPUT_SHA256 = {
    "confusion.csv": "202e8a1cbac51b62233853a8eb92a0d32aef9d40c23adeca695c05e1543b9a12",
    "per_class_f1.csv": "e0ee27d3534cd0834017b2931e3fdd5f17b21b2558b6aa02011e8e55d7c2b714",
    "pr_N2.csv": "742c665ec6aeb0817eaf6a35bdc8174ff33e088c6c00cb06e323a908a1b45586",
    "pr_N3.csv": "b691b4189cedaefb999431f824b5ab1aa9219142ede68b9a9b836f5f9068669c",
    "pr_N4.csv": "f55cd3913b7b2c1bbf89f8f1635a12318d9f560921aefd8f4bda51e0852d0096",
    "pr_S1.csv": "923b5211c9693c8c6972a0eadc1cf9fe2af0137c3ee74b72a0a05dd7bf319ed5",
    "pr_S2.csv": "923b5211c9693c8c6972a0eadc1cf9fe2af0137c3ee74b72a0a05dd7bf319ed5",
    "pr_S3.csv": "eb0553f1a06ff34f41a0277388775718b99e8f88e240c3063040ae91b463405e",
    "pr_micro.csv": "ac2d393b8398f0687759701567289f72fe2ff9ab4717876f4b5bafc93955b4b8",
    "report.json": "424dd37460ee611fdc21101bc0254b95fe2a7e760255f7a706844e4db6847c92",
    "roc_N2.csv": "37909f2001efa8734a5c2b8e8dd7018d400f7acf7f93054d827f791d563a3d00",
    "roc_N3.csv": "4b3d4cd15be2d4c628dca1c028ec82e3a8356eda6198ec4a37d4a0676a087bac",
    "roc_N4.csv": "53dc51819878b6dc681939356447e1fd88f20bda6f4796b345edb3b82f25a1df",
    "roc_S1.csv": "aeb997900f31aa673939df49d1ec9003f2eb154bcf894416ab3e0ef7656eda1f",
    "roc_S2.csv": "aeb997900f31aa673939df49d1ec9003f2eb154bcf894416ab3e0ef7656eda1f",
    "roc_S3.csv": "299d84f78d67d15d34ca94f481c4cb471c58d9f83ef588c2adcfce93549dcc73",
    "roc_micro.csv": "d03837971ede3340b18be945dd4639d4c01de9c4e0ea1338ef4ea9c4e3579a7a",
}
DEGENERATE_EVENTS = {"f1_zero_division": 6}


def test_metric_outputs_are_pinned(tmp_path):
    assert run("generate", "--out-dir", str(tmp_path), "--per-class", "4") == 0
    out = tmp_path / "ev"
    metrics.degenerate_events.clear()
    with pytest.warns(metrics.MetricWarning):
        rc = run("evaluate", "--out-dir", str(out), "--data", str(tmp_path / "labeled.json"),
                 "--classifier", "dt", "--only", "dt,rf", "--k", "3", "--no-stratify")
    assert rc == 0
    assert dict(metrics.degenerate_events) == DEGENERATE_EVENTS
    found = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }
    assert found == METRIC_OUTPUT_SHA256


def test_metric_outputs_are_pinned_with_two_workers(tmp_path, monkeypatch):
    # Fits run in workers, metrics in the parent: the warning and the
    # degenerate-event count must still be seen here.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    test_metric_outputs_are_pinned(tmp_path)


# Every subcommand's resolved options with default flags, and the sha256 of
# every --help screen, both taken from the commit before the options moved
# into one table in cli.py. explain and preprocess need one flag to resolve
# at all. "<out>" stands for --out-dir, "<cwd>" for the working directory.
# Re-pin only for a change that is meant to change the interface.
EXTRA_FLAGS = {"explain": ["--classifier", "lr"], "preprocess": ["--combined-csv", "c.csv"]}
DEFAULT_OPTIONS = {
    "evaluate": {
        "classifier": "lr", "classifier_seed": None, "data": "<out>/labeled.json",
        "k": 10, "only": ["dt", "gb", "knn", "lr", "nn", "rf", "svm"], "params": {},
        "repeats": 1, "rove_mean": None, "rove_sd": None, "rove_seed": 0, "seed": 0,
        "stratified": True,
    },
    "explain": {
        "background": 100, "classifier": "lr", "classifier_seed": None,
        "data": "<out>/labeled.json", "k": 10, "max_records": 50,
        "metric": "balanced_accuracy", "params": {}, "perm_repeats": 10, "seed": 0,
    },
    "generate": {
        "classes": ["N2", "N3", "N4", "S1", "S2", "S3"], "csv": False, "jitter_sd": 4.0,
        "l2_5_offset_mean": 5.0, "l2_5_offset_sd": 3.0, "l_cut_noise_sd": 2.0,
        "per_class": 150, "seed": 0,
    },
    "pca": {"components": 2, "data": "<out>/labeled.json"},
    "preprocess": {
        "audiogram_csv": None, "combined_csv": "<cwd>/c.csv", "loudness_csv": None,
        "min_class_count": 35, "min_class_fraction": 0.05, "min_pta": 20.0,
    },
    "report": {"in_dir": "<out>"},
    "rove": {"data": "<out>/labeled.json", "mean": 0.0, "sd": 0.0, "seed": 0},
    "sweep": {
        "classifier": "lr", "classifier_seed": None,
        "conditions": [[0.0, 0.0], [5.0, 5.0], [5.0, 10.0], [10.0, 5.0], [10.0, 10.0]],
        "data": "<out>/labeled.json", "k": 10, "metric": "balanced_accuracy",
        "only": ["dt", "gb", "knn", "lr", "nn", "rf", "svm"], "params": {},
        "perm_repeats": 10, "repeats": 1, "rove_seed": 0, "seed": 0, "stratified": True,
    },
    "train": {
        "classifier": "lr", "classifier_seed": None, "data": "<out>/labeled.json",
        "model_out": "model.json", "params": {},
    },
}
HELP_SHA256 = {
    "": "3668e0bafb4b5f07d371240842ac815c6fec194513f6a8ddbfd4e94837883f95",
    "generate": "6e346ecbb662ce39bdb14dbda19a95c6513fd3d0a97e9b56152e6ebdbc366bc5",
    "preprocess": "88d835c663812883bc60eb2bf5a13757f91e2d9c46788be720cc2875491853a4",
    "rove": "190f93bfdafd86ba88a405e4bbee76e4a96a65faf2c65274fb766ff1f52c94a9",
    "pca": "2ab0fae734e5757a3732001129b8f52c6c570b7a8343a77697ec8cd1cf8e3319",
    "train": "e3db4f8a3dd369af77d7ff2e723c703a98f554b0341380f495faee55fdf1f3c8",
    "evaluate": "f1784982a5c85dc4baf74e315bf063f476e204513f179f6318988bcb5171965b",
    "explain": "6630fd778e9032b921ad77e5ee7992f2e40d9b200af851f67ca89445d413f5e3",
    "sweep": "a4e96f12e3a3562033ce57f5eb3f47b9501443803f4c51ec4a8e67a624f4cda0",
    "report": "67f4e7d835b917b296cab2eff4769f63ee7b49aa99a062b9bf59b8a509a464af",
    "replay": "a19e0255bc8f7255974a86e9accde858e1e0a11f0d43b485d3527ee5f742a426",
}


@pytest.mark.parametrize("command", sorted(DEFAULT_OPTIONS))
def test_default_options_are_pinned(tmp_path, monkeypatch, command):
    tmp_path = tmp_path.resolve()
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    args = build_parser().parse_args(
        [command, "--out-dir", str(out), *EXTRA_FLAGS.get(command, [])]
    )
    resolved = {
        key: value.replace(str(out), "<out>").replace(str(tmp_path), "<cwd>")
        if isinstance(value, str) else value
        for key, value in _resolve_options(command, args).items()
    }
    assert resolved == DEFAULT_OPTIONS[command]
    for key, value in resolved.items():
        assert type(value) is type(DEFAULT_OPTIONS[command][key]), key


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out --help differently on other Pythons")
@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_screens_are_pinned(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert set(HELP_SHA256) == {"", *COMMANDS}
    screen = io.StringIO()
    with contextlib.redirect_stdout(screen):
        assert main([command, "--help"] if command else ["--help"]) == 0
    text = screen.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command], text


# --- parallel fits ----------------------------------------------------------------

def _pid_recording(fit, path):
    """``fit`` that first appends the id of the process it runs in to ``path``."""
    def recorded(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fit(*args, **kwargs)

    return recorded


def _outputs(out):
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


@pytest.mark.parametrize("argv", [
    ("evaluate", "--only", "knn,lr,nn", "--classifier", "lr", "--k", "3",
     "--repeats", "2"),
    ("sweep", "--only", "dt,lr", "--classifier", "lr", "--k", "3",
     "--conditions", "0:0,5:10"),
], ids=["evaluate", "sweep"])
def test_outputs_do_not_depend_on_the_worker_count(generated, tmp_path, monkeypatch,
                                                   argv):
    outputs = {}
    fit = harness.fit
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda n=workers: n)
        pids = tmp_path / f"pids{workers}"
        monkeypatch.setattr(harness, "fit", _pid_recording(fit, pids))
        out = tmp_path / f"workers{workers}"
        rc = run(argv[0], "--data", str(generated / "labeled.json"),
                 "--out-dir", str(out), *argv[1:])
        assert rc == 0
        assert multiprocessing.active_children() == []
        outputs[workers] = _outputs(out)
        fitted_in = set(pids.read_text().split())
        assert (str(os.getpid()) in fitted_in) == (workers == 1)
    assert outputs[1] == outputs[2]


def test_worker_errors_match_the_inline_run(generated, tmp_path, monkeypatch, capsys):
    data = generated / "labeled.json"
    unroved = feature_matrix(load_labeled_json(data))
    fit = harness.fit
    cfg = harness.ExperimentConfig(
        data_path=str(data), k=3, designated="dt",
        classifiers=(ClassifierSpec("dt"), ClassifierSpec("svm"), ClassifierSpec("lr")),
    )
    for sweep in (None, ((0.0, 0.0), (5.0, 5.0))):
        command = ["evaluate"] if sweep is None else ["sweep", "--conditions", "0:0,5:5"]

        def broken(spec, X, y, sweep=sweep, **kwargs):
            # svm fails on every fit of evaluate, and in the sweep on its
            # second condition only, the one whose rows are roved.
            roved = not (X[:1] == unroved).all(axis=1).any()
            if spec.variant == "svm" and (sweep is None or roved):
                raise NumericError("svm failed")
            return fit(spec, X, y, **kwargs)

        # Fork hands the patched function to the workers.
        monkeypatch.setattr(harness, "fit", broken)
        failures = []
        for workers in (1, 2):
            monkeypatch.setattr(harness, "_usable_cpus", lambda n=workers: n)
            rc = run(*command, "--out-dir", str(tmp_path / f"{command[0]}{workers}"),
                     "--data", str(data), "--only", "dt,svm,lr",
                     "--classifier", "dt", "--k", "3")
            failures.append((rc, capsys.readouterr().err))
            assert multiprocessing.active_children() == []
            with pytest.raises(NumericError) as info:
                if sweep is None:
                    harness.run_experiment(cfg)
                else:
                    harness.roving_sweep(cfg, sweep)
            assert info.value.__notes__ == ["stage: classifier svm"]
            assert multiprocessing.active_children() == []
        assert failures[0] == failures[1]
        rc, err = failures[0]
        assert rc == 4
        assert "svm failed" in err and "stage: classifier svm" in err


def test_sweep_rejects_perm_repeats_below_one_before_any_fit(generated, tmp_path,
                                                             monkeypatch, capsys):
    fits = []
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(harness, "fit", lambda *args, **kwargs: fits.append(args))
    rc = run("sweep", "--data", str(generated / "labeled.json"),
             "--out-dir", str(tmp_path / "sweep"), "--only", "dt",
             "--classifier", "dt", "--k", "3", "--perm-repeats", "0")
    assert rc == 2
    assert "perm_repeats must be >= 1" in capsys.readouterr().err
    assert fits == []
