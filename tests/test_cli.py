"""End-to-end command tests driven through cli.main(argv)."""

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from typing import Annotated, get_args, get_origin

import numpy as np
import pytest

from loudclass import cli, harness, metrics
from loudclass.classifiers import ClassifierSpec, load_model, ovr
from loudclass.cli import COMMANDS, _resolve_options, build_parser, main
from loudclass.domains import AtLeast, AtMost, OneOf, domain
from loudclass.errors import DataError, NumericError
from loudclass.loudness import FEATURE_NAMES, LEVEL_FEATURE_INDICES
from loudclass.pipeline import (
    RovingConfig,
    SyntheticConfig,
    feature_matrix,
    generate_synthetic_full,
    load_csv,
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
    labels = model.predict(feature_matrix(records))
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
        fa, fb = dict(zip(FEATURE_NAMES, a.features)), dict(zip(FEATURE_NAMES, b.features))
        for freq in (1500, 4000):
            assert fb[f"MLOW_{freq}"] == fa[f"MLOW_{freq}"]
            assert fb[f"MHIGH_{freq}"] == fa[f"MHIGH_{freq}"]
            moved += fb[f"L25_{freq}"] != fa[f"L25_{freq}"]
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
    assert f"{option[2:].replace('-', '_')} must be an integer >= 1" in capsys.readouterr().err
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
        [replace(r, features=row)
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
    ("evaluate", {"k": None}, "k must be an integer >= 2, got None"),
    ("evaluate", {"k": "abc"}, "k must be an integer >= 2, got 'abc'"),
    ("sweep", {"conditions": [[None, 5]]}, "condition [None, 5]"),
    ("sweep", {"conditions": [[10**400, 5]]}, "mean of condition [1000"),
    ("sweep", {"conditions": [[True, 5]]},
     "mean of condition [True, 5] must be a finite number, got True"),
    ("sweep", {"conditions": [["10", "5"]]},
     "mean of condition ['10', '5'] must be a finite number"),
    ("sweep", {"conditions": [[0, float("inf")]]},
     "sd of condition [0, inf] must be a finite number >= 0, got inf"),
    ("sweep", {"conditions": "nan:5"},
     "mean of condition [nan, 5.0] must be a finite number, got nan"),
    ("sweep", {"conditions": "5:1e400"},
     "sd of condition [5.0, inf] must be a finite number >= 0, got inf"),
    ("sweep", {"conditions": "0:0,5:x"}, "condition ['5', 'x']: could not convert"),
    ("sweep", {"conditions": "0.1234567:0,0.1234568:0"},
     "conditions [0.1234567, 0.0] and [0.1234568, 0.0] would both write "
     "report_m0.123457_sd0.json"),
    ("sweep", {"conditions": [[10, 5], [0, 0], [10, 5]]},
     "conditions [10.0, 5.0] and [10.0, 5.0] would both write report_m10_sd5.json"),
], ids=["k-null", "k-word", "condition-null", "condition-beyond-float", "condition-bool",
        "condition-strings", "condition-inf", "condition-nan-text", "condition-overflow-text",
        "condition-word-text", "condition-names-coincide", "condition-repeated"])
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
    ("evaluate", {"k": True}, "k must be an integer >= 2, got True"),
    ("evaluate", {"k": "3"}, "k must be an integer >= 2, got '3'"),
    ("evaluate", {"repeats": 1.5}, "repeats must be an integer"),
    ("evaluate", {"rove_mean": False}, "rove_mean must be a finite number, got False"),
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
    ears, labeled = generate_synthetic_full(
        SyntheticConfig(records_per_class=6, seed=4))
    src = tmp_path / "combined.csv"
    write_csv(ears, src)
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


def test_generated_csv_at_default_noise_loads(tmp_path):
    assert run("generate", "--out-dir", str(tmp_path), "--per-class", "150", "--csv") == 0
    assert len(load_csv(tmp_path / "participants.csv")) == 6 * 150


def test_csv_threshold_beyond_the_audiometric_range_is_exit_3(tmp_path, capsys):
    ears, _ = generate_synthetic_full(SyntheticConfig(records_per_class=2, seed=4))
    src = tmp_path / "combined.csv"
    write_csv(ears, src)
    lines = src.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2 + 2] = "1e308"  # f500, which bisgaard.rmse squares
    src.write_text("\n".join([*lines[:2], ",".join(cells), *lines[3:]]) + "\n")
    out = tmp_path / "out"
    rc = run("preprocess", "--out-dir", str(out), "--combined-csv", str(src))
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "line 3: column 'f500' must be a finite number >= -10 and <= 120" in err
    assert not out.exists()


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


@pytest.mark.parametrize("source", ["option", "config"])
def test_unknown_generate_class_is_exit_2(tmp_path, capsys, source):
    if source == "option":
        extra = ("--classes", "N2,X9")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"generate": {"classes": ["N2", "X9"]}}))
        extra = ("--config", str(config))
    rc = run("generate", "--out-dir", str(tmp_path / "g"), *extra)
    assert rc == 2
    assert ("classes must be a non-empty list, each one of N1, N2, N3, N4, N5, N6, N7, S1, "
            "S2, S3, got ['N2', 'X9']") in capsys.readouterr().err
    assert not (tmp_path / "g" / "labeled.json").exists()


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


def run_without_fits(monkeypatch, *argv: str) -> int:
    def no_fit(*args, **kwargs):
        raise AssertionError("a classifier was fitted before the parameters were checked")

    monkeypatch.setattr(harness, "fit", no_fit)
    monkeypatch.setattr(ovr, "_make_submodel", no_fit)
    return run(*argv)


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("variant, param", [
    ("knn", "k=abc"), ("knn", "k=2.5"), ("knn", "k=null"),
    ("lr", "gtol=abc"), ("lr", "max_iter=2.5"),
    ("nn", "hidden=abc"), ("nn", "max_iter=abc"),
    ("svm", "C=abc"), ("svm", "gamma=abc"),
    ("rf", "n_trees=abc"), ("rf", "max_features=2.5"),
    ("gb", "learning_rate=abc"), ("gb", "max_depth=abc"),
    ("dt", "min_samples_split=abc"),
])
def test_wrong_typed_param_is_exit_2_before_any_fit(generated, capsys, monkeypatch,
                                                     command, variant, param):
    rc = run_without_fits(monkeypatch, command, "--out-dir", str(generated),
                          "--classifier", variant, "--param", param)
    assert rc == 2
    name = param.partition("=")[0]
    assert f"{variant} parameter {name} must be" in capsys.readouterr().err


# Per parameter, a value just outside its domain, and for a float NaN too.
@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("variant, param", [
    ("dt", "min_samples_split=1"), ("dt", "min_samples_split=-3"),
    ("gb", "n_estimators=0"), ("gb", "learning_rate=0"), ("gb", "learning_rate=NaN"),
    ("gb", "max_depth=0"), ("gb", "min_samples_split=1"),
    ("knn", "k=0"),
    ("lr", "gtol=0"), ("lr", "gtol=NaN"), ("lr", "max_iter=0"),
    ("nn", "hidden=[]"), ("nn", "hidden=[0]"), ("nn", "hidden=[8,0]"),
    ("nn", "alpha=-1e-9"), ("nn", "alpha=NaN"), ("nn", "max_iter=0"),
    ("nn", "gtol=0"), ("nn", "gtol=NaN"), ("nn", "ftol=0"), ("nn", "ftol=NaN"),
    ("rf", "n_trees=0"), ("rf", "min_samples_split=1"), ("rf", "max_features=0"),
    ("svm", "C=0"), ("svm", "C=NaN"), ("svm", "C=-Infinity"),
    ("svm", "tol=0"), ("svm", "tol=-1"), ("svm", "tol=NaN"),
    ("svm", "gamma=0"), ("svm", "gamma=-1"), ("svm", "gamma=NaN"), ("svm", "gamma=Infinity"),
])
def test_out_of_range_param_is_exit_2_before_any_fit(generated, capsys, monkeypatch,
                                                      command, variant, param):
    rc = run_without_fits(monkeypatch, command, "--out-dir", str(generated),
                          "--classifier", variant, "--param", param)
    assert rc == 2
    name = param.partition("=")[0]
    assert f"{variant} parameter {name} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("variant", ["rf", "nn", "lr"])
def test_negative_classifier_seed_is_exit_2_before_any_fit(generated, capsys, monkeypatch,
                                                           command, variant):
    rc = run_without_fits(monkeypatch, command, "--out-dir", str(generated),
                          "--classifier", variant, "--classifier-seed", "-1")
    assert rc == 2
    assert "classifier_seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_integral_float_classifier_seed_from_a_config_trains(generated, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier_seed": 2.0}))
    rc = run("train", "--out-dir", str(generated), "--classifier", "rf",
             "--config", str(config), "--model-out", "model.json")
    assert rc == 0
    seed = json.loads((generated / "model.json").read_text())["seed"]
    assert seed == 2 and type(seed) is int


@pytest.mark.parametrize("command", ["evaluate", "sweep", "explain"])
def test_negative_master_seed_is_exit_2_before_any_data_is_read(tmp_path, capsys, command):
    rc = run(command, "--out-dir", str(tmp_path), "--data", str(tmp_path / "absent.json"),
             "--classifier", "lr", "--seed", "-1")
    assert rc == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


# Accepted types, each bound on its boundary, and an rf max_features above
# the 12 features (every feature is then a candidate at each split).
@pytest.mark.parametrize("variant, param", [
    ("svm", "gamma=null"), ("rf", "max_features=null"),
    ("nn", "ftol=null"), ("nn", "hidden=[8]"),
    ("dt", "min_samples_split=2"), ("gb", "n_estimators=1"), ("gb", "max_depth=1"),
    ("gb", "min_samples_split=2"), ("knn", "k=1"), ("lr", "max_iter=1"),
    ("nn", "hidden=[1]"), ("nn", "alpha=0"), ("nn", "max_iter=1"),
    ("rf", "n_trees=1"), ("rf", "min_samples_split=2"), ("rf", "max_features=1"),
    ("rf", "max_features=13"),
])
def test_param_of_an_accepted_type_trains(generated, variant, param):
    rc = run("train", "--out-dir", str(generated), "--classifier", variant,
             "--param", param, "--model-out", "model.json")
    assert rc == 0
    key, _, raw = param.partition("=")
    assert load_model(generated / "model.json").params[key] == json.loads(raw)


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
    assert "L2.5_1500 cannot be standardized: its mean or sd overflows" in err
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
        [replace(r, features=row)
         for r, row in zip(records, X)],
        data,
    )
    rc = run("evaluate", "--out-dir", str(generated / "out"), "--data", str(data),
             "--k", "3", "--only", "knn", "--classifier", "knn")
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "L2.5_1500 cannot be standardized: its mean or sd overflows" in err
    assert err.rstrip().endswith("stage: classifier knn")


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "generate" in capsys.readouterr().out


def test_replay_missing_manifest_is_exit_2(tmp_path):
    rc = run("replay", "--manifest", str(tmp_path / "missing.json"),
             "--out-dir", str(tmp_path / "o"))
    assert rc == 2


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def recorded_runs(tmp_path_factory):
    """One small run of every command, each in the directory named after it."""
    root = tmp_path_factory.mktemp("runs")
    data = str(root / "generate" / "labeled.json")
    steps = {
        "generate": ("--per-class", "8", "--seed", "3", "--csv"),
        "preprocess": ("--combined-csv", str(root / "generate" / "participants.csv"),
                       "--min-pta", "0", "--min-class-count", "1",
                       "--min-class-fraction", "0"),
        "rove": ("--data", data, "--mean", "5", "--sd", "2", "--seed", "1"),
        "pca": ("--data", data, "--components", "3"),
        "train": ("--data", data, "--classifier", "dt"),
        "evaluate": ("--data", data, "--only", "dt", "--classifier", "dt", "--k", "3"),
        "explain": ("--data", data, "--classifier", "dt", "--k", "3",
                    "--background", "5", "--max-records", "2", "--perm-repeats", "1"),
        "sweep": ("--data", data, "--only", "dt", "--classifier", "dt", "--k", "3",
                  "--conditions", "0:0,5:5", "--perm-repeats", "1"),
        "report": ("--in-dir", str(root / "evaluate")),
    }
    assert set(steps) == set(COMMANDS) - {"replay"}
    for command, argv in steps.items():
        assert run(command, "--out-dir", str(root / command), *argv) == 0, command
    return root


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "replay"])
def test_every_command_replays_byte_identically(recorded_runs, tmp_path, command):
    original = recorded_runs / command
    [manifest] = original.rglob("manifest.json")
    replayed = tmp_path / command
    assert run("replay", "--manifest", str(manifest), "--out-dir", str(replayed)) == 0
    assert _files(replayed) == _files(original)


def _table_options(kind):
    """Every (command, option) of ``cli._TABLE`` whose value is a ``kind``."""
    return [pytest.param(command, option, id=f"{command}-{option.name}")
            for command, (_, options) in cli._TABLE.items()
            for option in options if option.kind is kind]


def _recorded_options(recorded_runs, command) -> dict:
    [manifest] = (recorded_runs / command).rglob("manifest.json")
    return json.loads(manifest.read_text())["options"]


@pytest.mark.parametrize("command, option", _table_options(int))
def test_integral_float_for_an_int_option_is_recorded_as_the_int(recorded_runs, tmp_path,
                                                                 command, option):
    options = _recorded_options(recorded_runs, command)
    value = 1 if options[option.name] is None else options[option.name]
    runs = {}
    for given in (value, float(value)):
        config = tmp_path / f"{given!r}.json"
        config.write_text(json.dumps({command: {**options, option.name: given}}))
        out = tmp_path / repr(given)
        assert run(command, "--out-dir", str(out), "--config", str(config)) == 0
        runs[type(given)] = _files(out)
    assert runs[float] == runs[int]
    [manifest] = (tmp_path / repr(float(value))).rglob("manifest.json")
    recorded = json.loads(manifest.read_text())["options"][option.name]
    assert recorded == value and type(recorded) is int


def _outside_cases():
    """Per option of ``cli._TABLE`` that declares a domain, values outside
    it with the text of the bound each breaks: NaN and ±inf for a float, a
    value just beyond each bound, and for a list option a list holding one
    such value. A number goes in by flag and by config file, anything else
    by config file (argparse checks a choice flag itself)."""
    for command, (_, options) in cli._TABLE.items():
        for option in options:
            if option.domain is None:
                continue
            listed = get_origin(option.domain) is tuple
            annotation = get_args(option.domain)[0] if listed else option.domain
            kind, *bounds = (get_args(annotation)
                             if get_origin(annotation) is Annotated else (annotation,))
            cases = ([(v, "a finite number") for v in (math.nan, math.inf, -math.inf)]
                     if kind is float else [])
            for bound in bounds:
                if isinstance(bound, OneOf):
                    cases.append(("none-of-these", str(bound)))
                elif isinstance(bound, AtMost):
                    cases.append((bound.high + 1, str(bound)))
                else:  # at a strict lower bound, below an inclusive one
                    cases.append((bound.low - (type(bound) is AtLeast), str(bound)))
            for value, text in cases:
                value = [value] if listed else value
                for source in ("config", "flag")[:2 if isinstance(value, (int, float)) else 1]:
                    yield pytest.param(command, option, value, text, source,
                                       id=f"{command}-{option.name}-{value!r}-{source}")


@pytest.mark.parametrize("command, option, value, bound, source", _outside_cases())
def test_option_outside_its_domain_is_exit_2_before_any_output(recorded_runs, tmp_path,
                                                               capsys, command, option,
                                                               value, bound, source):
    options = _recorded_options(recorded_runs, command)
    flags = [f"{option.flags[0]}={value}"] if source == "flag" else []
    if source == "config":
        options[option.name] = value  # json writes NaN and infinities as NaN, Infinity
    config = tmp_path / "config.json"
    config.write_text(json.dumps({command: options}))
    out = tmp_path / "out"
    rc = run(command, "--out-dir", str(out), "--config", str(config), *flags)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"{option.name} must be " in err and bound in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--min-pta", "nan", "min_pta must be a finite number, got nan"),
    ("--min-class-fraction", "2",
     "min_class_fraction must be a finite number >= 0 and <= 1, got 2.0"),
    ("--min-class-fraction", "-0.5",
     "min_class_fraction must be a finite number >= 0 and <= 1, got -0.5"),
    ("--min-class-count", "-1", "min_class_count must be an integer >= 0, got -1"),
])
def test_preprocess_threshold_outside_its_domain_writes_no_labeled_json(tmp_path, capsys,
                                                                       flag, value, message):
    assert run("generate", "--out-dir", str(tmp_path), "--per-class", "4", "--csv") == 0
    out = tmp_path / "out"
    rc = run("preprocess", "--out-dir", str(out),
             "--combined-csv", str(tmp_path / "participants.csv"), flag, value)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (out / "labeled.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--min-pta", "inf", "min_pta must be a finite number, got inf"),
    ("--min-class-fraction", "2",
     "min_class_fraction must be a finite number >= 0 and <= 1, got 2.0"),
    ("--min-class-count", "-1", "min_class_count must be an integer >= 0, got -1"),
])
@pytest.mark.parametrize("inputs", ["combined", "split"])
def test_preprocess_threshold_outside_its_domain_is_exit_2_before_any_file_is_read(
        tmp_path, capsys, flag, value, message, inputs):
    missing = str(tmp_path / "missing.csv")
    paths = (["--combined-csv", missing] if inputs == "combined"
             else ["--audiogram-csv", missing, "--loudness-csv", missing])
    out = tmp_path / "out"
    rc = run("preprocess", "--out-dir", str(out), *paths, flag, value)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_readme_option_table_matches_the_declared_domains():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(--[a-z0-9-]+)` \| ([a-z, ]+) \| (.+) \|$", readme, re.M)
    declared: dict[tuple[str, str], list[str]] = {}
    for command, (_, options) in cli._TABLE.items():
        for option in options:
            if get_origin(option.domain) is Annotated or option.domain in (int, float):
                key = (option.flags[0], domain(option.domain)[0])
                declared.setdefault(key, []).append(command)
    assert {(flag, takes): commands.split(", ") for flag, commands, takes in rows} == declared


@pytest.mark.parametrize("command, option, bound", [
    ("explain", "--perm-repeats", 10_000), ("sweep", "--perm-repeats", 10_000),
    ("evaluate", "--repeats", 100), ("sweep", "--repeats", 100),
])
@pytest.mark.parametrize("above", [1, 10**20])
def test_repeats_above_their_bound_are_exit_2_before_any_data_is_read(
        tmp_path, capsys, command, option, bound, above):
    # With an absent --data, a lost bound ends the run at once with exit 3.
    out = tmp_path / "out"
    value = str(bound + above)
    rc = run(command, "--out-dir", str(out), "--data", str(tmp_path / "absent.json"),
             "--classifier", "lr", "--k", "2", option, value)
    assert rc == 2
    name = option[2:].replace("-", "_")
    assert (f"{name} must be an integer >= 1 and <= {bound}, got {value}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("per_class", ["20001", "100000000000000000000"])
def test_per_class_above_its_bound_is_exit_2_before_any_record_is_made(
        tmp_path, capsys, monkeypatch, per_class):
    monkeypatch.setattr(cli, "generate_synthetic_full",
                        lambda cfg: pytest.fail("generate_synthetic_full ran"))
    out = tmp_path / "out"
    assert run("generate", "--out-dir", str(out), "--per-class", per_class) == 2
    assert (f"per_class must be an integer >= 1 and <= 20000, got {per_class}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("evaluate",), ("evaluate", "--rove-mean", "5"), ("evaluate", "--rove-sd", "2"),
    ("sweep",),
], ids=["evaluate", "evaluate-rove-mean", "evaluate-rove-sd", "sweep"])
def test_negative_rove_seed_is_exit_2_before_any_data_is_read(tmp_path, capsys, argv):
    rc = run(*argv, "--out-dir", str(tmp_path), "--data", str(tmp_path / "absent.json"),
             "--rove-seed", "-1")
    assert rc == 2
    assert "rove_seed must be an integer >= 0, got -1" in capsys.readouterr().err


@pytest.fixture()
def explained(generated):
    rc = run("explain", "--out-dir", str(generated), "--classifier", "dt", "--k", "3",
             "--background", "5", "--max-records", "2", "--perm-repeats", "1")
    assert rc == 0
    return generated


def _with(key, value):
    def edit(manifest):
        manifest[key] = value
        return json.dumps(manifest)
    return edit


def _with_option(key, value):
    def edit(manifest):
        manifest["options"][key] = value
        return json.dumps(manifest)
    return edit


@pytest.mark.parametrize("edit, message", [
    (_with_option("max_records", "three"), "max_records must be an integer >= 1, got 'three'"),
    (_with_option("background", 2.5), "background must be an integer"),
    (_with_option("bogus", 1), "unknown config keys for explain: bogus"),
    (_with("command", "bogus"), "manifest names unknown command 'bogus'"),
    (_with("options", None), "config section 'explain' must be an object"),
    (_with("inputs", None), "manifest inputs must be an object"),
    (lambda manifest: json.dumps([manifest]), "manifest must hold a JSON object"),
    (lambda manifest: "{not json", "manifest is not valid JSON"),
], ids=["string-count", "fractional-count", "unknown-key", "unknown-command",
        "no-options", "no-inputs", "top-level-list", "not-json"])
def test_malformed_manifest_is_exit_2(explained, tmp_path, edit, message, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(edit(json.loads((explained / "manifest.json").read_text())))
    replayed = tmp_path / "replayed"
    rc = run("replay", "--manifest", str(manifest), "--out-dir", str(replayed))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert message in err
    assert not replayed.exists()


def test_manifest_option_left_out_replays_with_its_default(explained, tmp_path):
    manifest = json.loads((explained / "manifest.json").read_text())
    assert manifest["options"].pop("metric") == "balanced_accuracy"
    edited = tmp_path / "manifest.json"
    edited.write_text(json.dumps(manifest))
    replayed = tmp_path / "replayed"
    assert run("replay", "--manifest", str(edited), "--out-dir", str(replayed)) == 0
    names = {"shap_beeswarm.csv", "perm_importance.csv", "perm_importance_meta.json",
             "manifest.json"}
    assert set(_files(replayed)) == names
    assert all(_files(replayed)[name] == (explained / name).read_bytes() for name in names)


@pytest.mark.parametrize("change, message", [
    ("edit", "changed since the manifest was written"),
    ("delete", "is missing"),
])
def test_replay_checks_the_recorded_input_checksums(explained, tmp_path, change, message,
                                                    capsys):
    data = explained / "labeled.json"
    if change == "edit":
        write_labeled_json(load_labeled_json(data)[1:], data)
    else:
        data.unlink()
    replayed = tmp_path / "replayed"
    rc = run("replay", "--manifest", str(explained / "manifest.json"),
             "--out-dir", str(replayed))
    err = capsys.readouterr().err
    assert rc == 3, err
    assert f"input {data.resolve()} {message}" in err
    assert not replayed.exists()


def _set_record(index, key, value):
    def edit(payload):
        payload["records"][index][key] = value
    return edit


def _set_feature(index, name, value):
    def edit(payload):
        payload["records"][index]["features"][name] = value
    return edit


@pytest.mark.parametrize("command", [
    ("pca",), ("evaluate", "--only", "dt", "--classifier", "dt", "--k", "3"),
    ("rove", "--mean", "5"), ("train", "--classifier", "dt"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload.update(records={"0": 1}), "a 'records' list"),
    (lambda payload: payload["records"].__setitem__(2, [1.0]), "record 2: "),
    (_set_record(2, "features", [1.0] * 12), "record 2: "),
    (_set_feature(2, "L50_4000", "loud"), "record 2: L50_4000 must be a number"),
    (_set_feature(2, "MLOW_1500", None), "record 2: MLOW_1500 must be a number"),
    (_set_feature(2, "L25_1500", "60"), "record 2: L25_1500 must be a number"),
    (_set_record(2, "pta", "high"), "record 2: pta must be a number"),
    (_set_record(2, "pta", None), "record 2: pta must be a number"),
    (_set_record(2, "ear", "middle"), "must be 'left' or 'right', got 'middle'"),
    (_set_record(2, "participant_id", None), "record 2: participant_id must be a string"),
    (_set_record(2, "participant_id", 7), "record 2: participant_id must be a string"),
    (_set_record(2, "ear", None), "record 2: ear must be a string"),
    (_set_record(2, "label", None), "record 2: label must be a string"),
    (_set_feature(2, "LCUT_4000", 10**400),
     "record 2: LCUT_4000 must be a number within the float range"),
    (_set_record(2, "pta", -10**400), "record 2: pta must be a number within the float range"),
], ids=["records-not-a-list", "record-not-an-object", "features-not-an-object",
        "feature-string", "feature-null", "feature-numeric-string", "pta-string",
        "pta-null", "ear-middle", "id-null", "id-number", "ear-null", "label-null",
        "feature-beyond-float", "pta-beyond-float"])
def test_malformed_labeled_json_is_a_data_error(generated, tmp_path, command, edit,
                                                message, capsys):
    payload = json.loads((generated / "labeled.json").read_text())
    edit(payload)
    data = tmp_path / "bad.json"
    data.write_text(json.dumps(payload))
    rc = run(command[0], "--data", str(data), "--out-dir", str(tmp_path / "out"),
             *command[1:])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert message in err


# Commands that fail before their first write: the arguments besides
# --out-dir, the config file's content (or None) and the exit code. {data}
# is a generated labeled.json, {huge} the same with a 400-digit feature.
FAILED_BEFORE_WRITING = {
    "param-out-of-domain": (("evaluate", "--data", "{data}", "--param", "max_iter=0",
                             "--classifier", "lr"), None, 2),
    "missing-csv": (("preprocess", "--combined-csv", "{missing}"), None, 3),
    **{f"{argv[0]}-feature-beyond-float": ((*argv, "--data", "{huge}"), None, 3)
       for argv in [("pca",), ("rove",), ("train",), ("evaluate",),
                    ("explain", "--classifier", "dt"), ("sweep",)]},
    "condition-beyond-float": (("sweep", "--data", "{data}"),
                               {"conditions": [[10**400, 5]]}, 2),
    "condition-bool": (("sweep", "--data", "{data}"), {"conditions": [[True, 5]]}, 2),
    "condition-nan": (("sweep", "--data", "{data}", "--conditions", "nan:5"), None, 2),
}


@pytest.mark.parametrize("argv, config, code", FAILED_BEFORE_WRITING.values(),
                         ids=FAILED_BEFORE_WRITING.keys())
def test_command_failing_before_its_first_write_leaves_no_out_dir(
        generated, tmp_path, capsys, argv, config, code):
    payload = json.loads((generated / "labeled.json").read_text())
    _set_feature(0, "L2.5_1500", 10**400)(payload)
    (tmp_path / "huge.json").write_text(json.dumps(payload))
    paths = {"data": generated / "labeled.json", "huge": tmp_path / "huge.json",
             "missing": tmp_path / "missing.csv"}
    argv = [arg.format(**paths) for arg in argv]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    out = tmp_path / "out"
    rc = run(*argv, "--out-dir", str(out))
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err
    assert not out.exists()
    # An existing --out-dir keeps its files, bytes and all.
    before = {p: p.read_bytes() for p in generated.rglob("*") if p.is_file()}
    assert run(*argv, "--out-dir", str(generated)) == code
    assert {p: p.read_bytes() for p in generated.rglob("*") if p.is_file()} == before


def test_pca_on_levels_that_overflow_is_a_data_error(generated, capsys):
    records = load_labeled_json(generated / "labeled.json")
    X = feature_matrix(records)
    X[:, LEVEL_FEATURE_INDICES] *= 1e305  # finite, but their column sums overflow
    data = generated / "huge.json"
    write_labeled_json(
        [replace(r, features=row)
         for r, row in zip(records, X)],
        data,
    )
    rc = run("pca", "--out-dir", str(generated / "out"), "--data", str(data))
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "L2.5_1500 cannot be standardized: its mean or sd overflows" in err


@pytest.mark.parametrize("name, text, message", [
    ("report.json", "{not json", "report.json is not an evaluate report"),
    ("report.json", "{}", "report.json is missing key 'classifiers'"),
    ("sweep/perm_importance.csv",
     "rove_mean,rove_sd,feature,split,repeat,decrease\n0.0,0.0,L25_1500,test,0\n",
     "perm_importance.csv row 1: not enough values to unpack"),
    ("roc_N2.csv", "", "roc_N2.csv is empty"),
], ids=["report-not-json", "report-without-classifiers", "importance-row-too-short",
        "empty-curve"])
def test_report_on_malformed_inputs_is_exit_3(tmp_path, name, text, message, capsys):
    source = tmp_path / "in" / name
    source.parent.mkdir(parents=True)
    source.write_text(text)
    rc = run("report", "--in-dir", str(tmp_path / "in"), "--out-dir", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert rc == 3, err
    assert message in err


# sha256 of every output but manifest.json of
#   generate --per-class 4 (seed 0), then
#   evaluate --classifier dt --only dt,rf --k 3 --no-stratify
# taken from the commit before metrics.py counted from one confusion
# matrix. report.json was re-taken when the t-test's p stopped calling
# scipy.special.stdtr: its p-values moved by at most 2.2e-16, and with
# stdtr swapped back in the code reproduces the old digest. Trees only, so
# the bytes do not depend on BLAS. With 4 ears per class and unstratified
# folds some classes miss a test fold, so the F1 0/0 convention fires;
# DEGENERATE_EVENTS pins how often. Re-pin only
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
    "report.json": "41bc3643ec1d389cd1f7475eba46881ae19dde344b668cfd8423f7fa0a4bcf75",
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
        for key, value in _resolve_options(command, args, {}).items()
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
    assert "perm_repeats must be an integer >= 1" in capsys.readouterr().err
    assert fits == []
