"""Run one command set on two source trees and list the outputs that differ.

    python scripts/compare_outputs.py --parent ../parent --change . \
        --work-dir /tmp/compare --per-class 150

Each tree runs the whole set in one child process, through
``loudclass.cli.main`` with ``PYTHONPATH=<tree>/src``: ``generate --csv``,
``preprocess --combined-csv --min-class-count 5``, ``rove``, ``pca``,
``train`` and a small ``explain`` (``--background 5 --max-records 2``) for
each of the seven variants, ``evaluate`` with all seven, ``sweep --only lr,knn`` and
``report`` on the evaluate and the sweep outputs, all at seed 0 and, where
cross-validated, with 3 folds. Then the three commands of ``perfbench/run.py``
as it runs them, each at its own defaults: ``evaluate --classifier lr --k 3``,
``explain --classifier rf --background 50 --max-records 4`` (10 folds) and
``sweep --classifier lr --only lr,knn`` (the five default conditions, 10
folds); at ``--per-class 150`` they read the benchmark's data. Both trees write into the
same absolute path, ``<work-dir>/run``, which is then renamed to
``<work-dir>/parent`` or ``<work-dir>/change``, so manifests that record
absolute paths can match. Each command's exit code is written to
``exit_codes.json`` there and compared like any other output.

Prints each file that differs, is missing from the change or is new in it,
and each command that exited non-zero on either tree, and exits 1 if there
is any: a clean result means every command ran and every output matched.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

# Listed here rather than read from either tree, so both run the same commands.
VARIANTS = ("lr", "knn", "dt", "rf", "gb", "svm", "nn")
SEED = "0"
K = "3"


def command_set(run: Path, per_class: int) -> list[tuple[str, list[str]]]:
    """(step, argv) pairs; each step writes into ``run/<step>``."""
    data = str(run / "generate" / "labeled.json")
    steps = [
        ("generate", ["generate", "--per-class", str(per_class), "--seed", SEED,
                      "--csv"]),
        # The default class count of 35 would keep none of the smoke test's
        # 8 ears a class.
        ("preprocess", ["preprocess", "--combined-csv",
                        str(run / "generate" / "participants.csv"),
                        "--min-class-count", "5"]),
        ("rove", ["rove", "--data", data, "--mean", "5", "--sd", "3"]),
        ("pca", ["pca", "--data", data]),
    ]
    for variant in VARIANTS:
        steps.append((f"train-{variant}", ["train", "--data", data, "--classifier", variant]))
        steps.append((f"explain-{variant}", [
            "explain", "--data", data, "--classifier", variant, "--k", K,
            "--seed", SEED, "--background", "5", "--max-records", "2",
        ]))
    steps += [
        ("evaluate", ["evaluate", "--data", data, "--k", K, "--seed", SEED]),
        ("sweep", ["sweep", "--data", data, "--only", "lr,knn", "--k", K,
                   "--seed", SEED]),
        ("report-evaluate", ["report", "--in-dir", str(run / "evaluate")]),
        ("report-sweep", ["report", "--in-dir", str(run / "sweep" / "sweep")]),
        ("bench-evaluate", ["evaluate", "--data", data, "--classifier", "lr", "--k", "3"]),
        ("bench-explain", ["explain", "--data", data, "--classifier", "rf",
                           "--background", "50", "--max-records", "4"]),
        ("bench-sweep", ["sweep", "--data", data, "--classifier", "lr", "--only", "lr,knn"]),
    ]
    return [(step, [argv[0], "--out-dir", str(run / step), *argv[1:]])
            for step, argv in steps]


def run_commands(run: Path, per_class: int) -> None:
    """Run the command set in this process; the child side of ``run_tree``."""
    import loudclass
    from loudclass.cli import main as cli

    print(Path(loudclass.__file__).resolve(), flush=True)
    codes = {step: cli(argv) for step, argv in command_set(run, per_class)}
    (run / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


def run_tree(tree: Path, run: Path, per_class: int) -> None:
    """The command set on ``tree``'s sources in one child process."""
    src = (tree / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    run.mkdir(parents=True)
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(run),
         "--per-class", str(per_class)],
        env=env, capture_output=True, text=True,
    )
    loaded = done.stdout.splitlines()[0] if done.stdout else ""
    if done.returncode != 0 or not Path(loaded).is_relative_to(src):
        sys.exit(f"the command set failed on {tree} (loaded {loaded!r}):\n{done.stderr}")


def differences(parent: Path, change: Path) -> dict[str, list[str]]:
    """Relative paths of the files that differ, are missing from ``change``
    or are new in it."""
    def files(root: Path) -> set[str]:
        return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}

    old, new = files(parent), files(change)
    return {
        "differ": sorted(p for p in old & new
                         if not filecmp.cmp(parent / p, change / p, shallow=False)),
        "missing": sorted(old - new),
        "new": sorted(new - old),
    }


def failures(root: Path) -> list[str]:
    """The steps that exited non-zero in the run written to ``root``."""
    codes = json.loads((root / "exit_codes.json").read_text())
    return [f"{step} (exit {code})" for step, code in codes.items() if code != 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="parent source tree")
    parser.add_argument("--change", type=Path, help="changed source tree")
    parser.add_argument("--work-dir", type=Path,
                        help="directory for the outputs; must not exist yet")
    parser.add_argument("--per-class", type=int, default=150)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        run_commands(args.child, args.per_class)
        return 0
    if args.parent is None or args.change is None or args.work_dir is None:
        parser.error("--parent, --change and --work-dir are required")
    work = args.work_dir.resolve()
    if work.exists():
        parser.error(f"--work-dir {work} already exists")
    run = work / "run"
    for side, tree in (("parent", args.parent), ("change", args.change)):
        run_tree(tree, run, args.per_class)
        run.rename(work / side)
    found = differences(work / "parent", work / "change")
    for side in ("parent", "change"):
        found[f"failed on the {side}"] = failures(work / side)
    for kind, paths in found.items():
        for path in paths:
            print(f"{kind}: {path}")
    total = sum(map(len, found.values()))
    print(f"{total} difference(s) between {work / 'parent'} and {work / 'change'}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
