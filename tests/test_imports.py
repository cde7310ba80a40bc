"""What a fresh loudclass process loads and sets before it computes.

No command loads scipy.special: the package's ``expit`` is numpy's and the
t-test's tail is ``metrics.t_two_sided_p``. scipy is a test dependency
only: the manifest reads its version from the installed metadata. Each
test runs in a fresh interpreter: this test process has loaded numpy and
scipy.special already (``tests/oracles.py`` and the scipy oracles).
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
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the fold fits fork their workers")

# Runs each command line of ``sys.argv[1]`` with two usable CPUs and prints,
# per command, its name, exit code and whether scipy.special is loaded in
# this (the parent) process; then whether any fold fit ran in a forked
# worker, and how many fold fits found scipy.special loaded after them.
WATCHED_COMMANDS = (
    "import json, multiprocessing, os, sys\n"
    "from loudclass import harness\n"
    "from loudclass.cli import main\n"
    "harness._usable_cpus = lambda: 2\n"
    "parent = os.getpid()\n"
    "forked, loaded = multiprocessing.Value('i', 0), multiprocessing.Value('i', 0)\n"
    "fit_fold = harness._fit_fold\n"
    "def watched(context, task):\n"
    "    outcome = fit_fold(context, task)\n"
    "    with forked.get_lock():\n"
    "        forked.value += os.getpid() != parent\n"
    "        loaded.value += 'scipy.special' in sys.modules\n"
    "    return outcome\n"
    "harness._fit_fold = watched\n"
    "print(json.dumps([[argv[0], main(argv), 'scipy.special' in sys.modules]\n"
    "                  for argv in json.loads(sys.argv[1])]\n"
    "                 + [forked.value > 0, loaded.value]))\n"
)


def python(code: str, *args: str, env: dict | None = None):
    """The JSON value that ``code`` prints as its last line, run in a fresh
    interpreter that imports loudclass from this checkout."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_scipy_special_unloaded():
    code = "import json, sys, loudclass.cli; print(json.dumps('scipy.special' in sys.modules))"
    assert python(code) is False


def test_importing_the_cli_and_evaluating_leave_scipy_unloaded(tmp_path):
    data = tmp_path / "labeled.json"
    assert main(["generate", "--out-dir", str(tmp_path), "--per-class", "5"]) == 0
    argv = ["evaluate", "--data", str(data), "--out-dir", str(tmp_path / "e"),
            "--only", "dt,knn", "--classifier", "dt", "--k", "3"]
    code = (
        "import json, sys\n"
        "import loudclass.cli\n"
        "imported = 'scipy' in sys.modules\n"
        "code = loudclass.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([imported, code, 'scipy' in sys.modules]))\n"
    )
    assert python(code, json.dumps(argv)) == [False, 0, False]
    versions = json.loads((tmp_path / "e" / "manifest.json").read_text())["versions"]
    assert "scipy" in versions  # installed here, as a test dependency


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


@needs_fork
def test_commands_that_fit_a_logistic_model_leave_scipy_special_unloaded(tmp_path):
    data = tmp_path / "labeled.json"
    assert main(["generate", "--out-dir", str(tmp_path), "--per-class", "8"]) == 0
    commands = [
        # All seven classifiers, so the t-tests run too.
        ["evaluate", "--data", str(data), "--out-dir", str(tmp_path / "e"), "--k", "2"],
        ["sweep", "--data", str(data), "--out-dir", str(tmp_path / "s"), "--k", "2",
         "--only", "lr,nn,svm,gb", "--classifier", "lr", "--conditions", "0:0,5:5"],
        ["train", "--data", str(data), "--out-dir", str(tmp_path / "t"),
         "--classifier", "nn"],
        ["explain", "--data", str(data), "--out-dir", str(tmp_path / "x"),
         "--classifier", "lr", "--k", "3", "--background", "5", "--max-records", "2"],
    ]
    assert python(WATCHED_COMMANDS, json.dumps(commands)) == [
        *([argv[0], 0, False] for argv in commands), True, 0
    ]


@needs_fork
def test_fold_fit_workers_start_without_scipy_special():
    code = (
        "import json, os, sys\n"
        "from loudclass import harness\n"
        "harness._usable_cpus = lambda: 2\n"
        "harness._fit_fold = lambda context, task: (\n"
        "    os.getpid() != int(context), 'scipy.special' in sys.modules)\n"
        "print(json.dumps(list(harness._fold_fits(str(os.getpid()), [0, 1]))))\n"
    )
    # Each task ran in a worker, not inline, and did not find the module there.
    assert python(code) == [[True, False], [True, False]]


@needs_fork
@pytest.mark.parametrize("variant", ["rf", "lr"])
def test_evaluate_leaves_scipy_special_unloaded(tmp_path, variant):
    data = tmp_path / "labeled.json"
    assert main(["generate", "--out-dir", str(tmp_path), "--per-class", "5"]) == 0
    argv = ["evaluate", "--data", str(data), "--out-dir", str(tmp_path / "e"),
            "--only", variant, "--classifier", variant, "--k", "3"]
    # Neither the parent nor any forked fold fit loads the module.
    assert python(WATCHED_COMMANDS, json.dumps([argv])) == [["evaluate", 0, False], True, 0]


def test_blas_runs_on_one_thread_unless_the_user_says_otherwise():
    code = (
        "import json, os, loudclass\n"
        f"print(json.dumps([os.environ.get(v) for v in {BLAS_VARS!r}]))\n"
    )
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    assert python(code, env=unset) == ["1", "1", "1"]
    assert python(code, env={**unset, "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": ""}) \
        == ["2", "1", ""]
