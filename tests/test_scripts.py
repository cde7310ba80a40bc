"""Smoke tests: each script under scripts/ runs end to end on small data."""

import json
import os
import subprocess
import sys
from pathlib import Path

import loudclass
from loudclass.cli import main as cli
from loudclass.harness import DEFAULT_ROVING_CONDITIONS

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(loudclass.__file__).resolve().parents[1]


def run_script(name: str, out: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out-dir", str(out),
         "--per-class", "8", "--k", "3"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def assert_outputs(out: Path, paths: list[str]) -> None:
    missing = [path for path in paths if not (out / path).is_file()]
    assert not missing


def test_synthetic_analysis_script(tmp_path):
    out = tmp_path / "run"
    run_script("run_synthetic_analysis.py", out)
    assert_outputs(out, [
        "generate/labeled.json", "generate/participants.csv", "evaluate/report.json",
        "evaluate/roc_micro.csv", "pca/pca_loadings.csv", "explain/shap_beeswarm.csv",
        "explain/perm_importance.csv", "report/figures/metrics_summary.csv",
    ])
    # Each step keeps its own manifest, so every step can be replayed.
    for step, manifest in (
        ("generate", "generate/manifest.json"), ("evaluate", "evaluate/manifest.json"),
        ("pca", "pca/manifest.json"), ("explain", "explain/manifest.json"),
        ("report", "report/figures/manifest.json"),
    ):
        assert json.loads((out / manifest).read_text())["command"] == step
    rerun = tmp_path / "rerun"
    assert cli(["replay", "--manifest", str(out / "evaluate" / "manifest.json"),
                "--out-dir", str(rerun)]) == 0
    assert (rerun / "report.json").read_bytes() == (out / "evaluate" / "report.json").read_bytes()


def test_roving_sweep_script(tmp_path):
    out = tmp_path / "run"
    run_script("run_roving_sweep.py", out)
    assert_outputs(out, [
        "labeled.json", "sweep/auc_summary.csv", "sweep/roc_micro_overlay.csv",
        "sweep/perm_importance.csv", "sweep/report_m0_sd0.json", "sweep/manifest.json",
    ])
    # Without --conditions the script leaves the choice to the sweep command.
    manifest = json.loads((out / "sweep" / "manifest.json").read_text())
    assert manifest["options"]["conditions"] == [list(c) for c in DEFAULT_ROVING_CONDITIONS]


def test_resource_usage_script(tmp_path):
    assert cli(["generate", "--out-dir", str(tmp_path), "--per-class", "8"]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "resource_usage.py"), "evaluate",
         "--data", str(tmp_path / "labeled.json"), "--out-dir", str(tmp_path / "ev"),
         "--only", "dt,knn", "--classifier", "dt", "--k", "3"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    usage = json.loads(done.stdout.splitlines()[-1])
    assert usage["exit_code"] == 0
    assert (tmp_path / "ev" / "report.json").is_file()
    for key in ("wall_s", "self_cpu_s", "children_cpu_s", "self_peak_rss_mb",
                "children_peak_rss_mb"):
        assert usage[key] >= 0, key
