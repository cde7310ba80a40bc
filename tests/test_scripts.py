"""Smoke tests: each script under scripts/ runs end to end on small data;
bench_pairs.py, which runs the benchmark, has its summary tested on canned
runs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _script_module(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself(tmp_path, capsys):
    compare = _script_module("compare_outputs")
    work = tmp_path / "compare"
    assert compare.main(["--parent", str(ROOT), "--change", str(ROOT), "--work-dir", str(work),
                         "--per-class", "8"]) == 0
    assert "0 difference(s)" in capsys.readouterr().out
    codes = json.loads((work / "change" / "exit_codes.json").read_text())
    assert len(codes) == 25 and set(codes.values()) == {0}
    assert (work / "parent" / "explain-nn" / "shap_beeswarm.csv").is_file()
    assert (work / "change" / "bench-sweep" / "sweep" / "perm_importance.csv").is_file()
    assert (work / "change" / "report-sweep" / "figures" / "manifest.json").is_file()


def test_compare_outputs_lists_files_that_differ_are_missing_or_are_new(tmp_path):
    compare = _script_module("compare_outputs")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, files in ((parent, {"same": "1", "a/differs": "1", "missing": "1"}),
                        (change, {"same": "1", "a/differs": "2", "a/new": "1"})):
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    assert compare.differences(parent, change) == {
        "differ": ["a/differs"], "missing": ["missing"], "new": ["a/new"],
    }
    (parent / "exit_codes.json").write_text(json.dumps({"generate": 0, "pca": 3, "sweep": 2}))
    assert compare.failures(parent) == ["pca (exit 3)", "sweep (exit 2)"]


def _run(seed, side, wall, auc, outputs, rc=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "micro_auc": {"value": auc, "unit": "1"}}
    return {"workload": "w", "seed": seed, "side": side, "rc": rc,
            "result": {"correct": rc == 0, "metrics": metrics},
            "output_sha256": outputs, "source_sha256": f"src-{side}", "reps": 3}


def test_bench_pairs_summary_on_canned_runs():
    bench = _script_module("bench_pairs")
    assert bench.parse_seeds("1-3,7") == [1, 2, 3, 7]
    same, moved = {"a.csv": "1", "b.json": "2"}, {"a.csv": "1", "b.json": "3"}
    runs = [
        _run(1, "parent", 1.0, 0.9, same), _run(1, "change", 0.8, 0.9, moved),
        _run(2, "change", 0.9, 0.95, moved), _run(2, "parent", 1.2, 0.9, same),
        _run(3, "parent", 1.1, 0.9, same), _run(3, "change", 1.3, 0.8, moved),
        _run(4, "parent", 1.0, 0.9, same), _run(4, "change", 0.5, 0.9, moved),
        _run(5, "parent", 0.7, 0.9, same), _run(5, "change", 0.0, 0.0, None, rc=1),
    ]
    end_to_end = [{"name": "wall_s", "better": "lower"},
                  {"name": "micro_auc", "better": "higher"}]
    summary = bench.summarize("w", runs, end_to_end)
    assert summary["seeds"] == [1, 2, 3, 4] and summary["pairs"] == 4
    wall = summary["wall_s"]
    assert wall["parent_runs"] == [1.0, 1.2, 1.1, 1.0]
    assert wall["change_runs"] == [0.8, 0.9, 1.3, 0.5]
    assert wall["change_wins"] == 3
    assert wall["parent_median"] == 1.05
    assert wall["change_median"] == pytest.approx(0.85)
    assert wall["parent_quartiles"] == [1.0, 1.125]
    # A tie counts for neither side; higher is better for an AUC.
    assert summary["micro_auc"]["change_wins"] == 1
    assert summary["outputs_same_across_runs"] == {"parent": True, "change": True}
    assert summary["outputs_with_changed_sha256"] == ["b.json"]
    assert summary["failed_runs"] == [{"seed": 5, "side": "change"}]

    merged = bench.merge({"what": "old", "summary": [{"workload": "x"}],
                          "runs": [{"workload": "x"}]}, "w", runs, summary, None)
    assert merged["what"] == "old"
    assert [s["workload"] for s in merged["summary"]] == ["x", "w"]
    assert len(merged["runs"]) == 1 + len(runs)
    assert merged["source_sha256"] == {"parent": "src-parent", "change": "src-change"}


def test_seed_spread_of_a_tree_against_itself_is_zero_on_every_seed(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    work = tmp_path / "spread"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "seed_spread.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--work-dir", str(work), "--seeds", "1000-1001",
         "--per-class", "8", "--k", "3"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads((work / "seed_spread.json").read_text())
    assert summary["seeds"] == [1000, 1001]
    assert (summary["per_class"], summary["k"]) == (8, 3)
    assert list(summary["classifiers"]) == ["dt", "gb", "knn", "lr", "nn", "rf", "svm"]
    for row in summary["classifiers"].values():
        assert row["parent"] == row["change"] and len(row["parent"]) == 2
        assert row["difference"] == [0.0, 0.0]
        assert row["mean_difference"] == 0.0 and row["change_better"] == 0
    for side in ("parent", "change"):
        for seed in (1000, 1001):
            manifest = json.loads(
                (work / side / f"seed{seed}" / "manifest.json").read_text())
            assert manifest["options"]["seed"] == seed
    assert "change higher on 0 of 2 seeds" in done.stdout
