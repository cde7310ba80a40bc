"""End-to-end command tests driven through cli.main(argv)."""

import hashlib
import json
import shutil

import pytest

from loudclass import harness
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
