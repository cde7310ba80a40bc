"""End-to-end command tests driven through cli.main(argv)."""

import hashlib
import json
import shutil

import pytest

from loudclass import harness, metrics
from loudclass.classifiers import load_model, predict
from loudclass.cli import main
from loudclass.pipeline import (
    SyntheticConfig,
    feature_matrix,
    generate_synthetic_full,
    load_labeled_json,
    write_csv,
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


def test_config_other_sections_ignored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"evaluate": {"k": 99}, "per_class": 4}))
    out = tmp_path / "out"
    rc = run("generate", "--out-dir", str(out), "--config", str(cfg))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["options"]["per_class"] == 4


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
