"""Which commands load scipy.special.

scipy.special takes about 0.3 s to import, so the package imports it only
where a logistic output (lr, nn, svm, gb) or a t-test first needs it, and
``harness._fold_fits`` imports it once before it forks its workers when one
of them will fit such a variant. Each test runs in a fresh interpreter: this
test process has loaded scipy.special already (``tests/oracles.py`` imports
it).
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loudclass
from loudclass.cli import main

SRC = Path(loudclass.__file__).resolve().parents[1]


def python(code: str, *args: str):
    """The JSON value that ``code`` prints as its last line, run in a fresh
    interpreter that imports loudclass from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_scipy_special_unloaded():
    code = "import json, sys, loudclass.cli; print(json.dumps('scipy.special' in sys.modules))"
    assert python(code) is False


def test_commands_that_fit_no_logistic_model_leave_scipy_special_unloaded(tmp_path):
    evaluated = tmp_path / "evaluated"
    data = tmp_path / "generated" / "labeled.json"
    assert main(["generate", "--out-dir", str(data.parent), "--per-class", "5",
                 "--csv"]) == 0
    assert main(["evaluate", "--data", str(data), "--out-dir", str(evaluated),
                 "--only", "dt,knn", "--classifier", "dt", "--k", "3"]) == 0
    commands = [
        ["generate", "--out-dir", str(tmp_path / "g"), "--per-class", "5"],
        ["rove", "--data", str(data), "--out-dir", str(tmp_path / "r"), "--mean", "5"],
        ["pca", "--data", str(data), "--out-dir", str(tmp_path / "p")],
        ["preprocess", "--combined-csv", str(data.parent / "participants.csv"),
         "--out-dir", str(tmp_path / "c")],
        ["report", "--in-dir", str(evaluated), "--out-dir", str(tmp_path / "f")],
        *(["explain", "--data", str(data), "--out-dir", str(tmp_path / name),
           "--classifier", name, "--k", "3", "--background", "5", "--max-records", "2"]
          for name in ("rf", "dt", "knn")),
    ]
    code = (
        "import json, sys\n"
        "from loudclass.cli import main\n"
        "print(json.dumps([[argv[0], main(argv), 'scipy.special' in sys.modules]\n"
        "                  for argv in json.loads(sys.argv[1])]))\n"
    )
    assert python(code, json.dumps(commands)) == [
        [argv[0], 0, False] for argv in commands
    ]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
def test_fold_fit_workers_start_with_scipy_special_loaded():
    code = (
        "import json, os, sys\n"
        "from loudclass import harness\n"
        "before = 'scipy.special' in sys.modules\n"
        "harness._usable_cpus = lambda: 2\n"
        "harness._fit_fold = lambda context, task: (\n"
        "    os.getpid() != int(context), 'scipy.special' in sys.modules)\n"
        "print(json.dumps([before, list(harness._fold_fits(\n"
        "    str(os.getpid()), [0, 1], import_expit=True))]))\n"
    )
    # Each task ran in a worker, not inline, and found the module there.
    assert python(code) == [False, [[True, True], [True, True]]]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
@pytest.mark.parametrize("variant, loaded", [("rf", False), ("lr", True)])
def test_evaluate_imports_scipy_special_before_forking_only_for_a_logistic_fit(
        tmp_path, variant, loaded):
    data = tmp_path / "labeled.json"
    assert main(["generate", "--out-dir", str(tmp_path), "--per-class", "5"]) == 0
    code = (
        "import json, sys\n"
        "from loudclass import harness\n"
        "from loudclass.cli import main\n"
        "harness._usable_cpus = lambda: 2\n"
        "rc = main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([rc, 'scipy.special' in sys.modules]))\n"
    )
    argv = ["evaluate", "--data", str(data), "--out-dir", str(tmp_path / "e"),
            "--only", variant, "--classifier", variant, "--k", "3"]
    # With one classifier there is no t-test, so only the pre-fork import
    # can load the module in this (the parent) process.
    assert python(code, json.dumps(argv)) == [0, loaded]
