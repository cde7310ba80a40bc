"""Evaluate two source trees on held-out data seeds and compare them seed by seed.

    python scripts/seed_spread.py --parent ../parent --change . \
        --work-dir /tmp/spread --seeds 1000-1009 --per-class 150 --k 10

Seed 0 is the development seed: every default, hyperparameter and
schedule of loudclass was chosen on data generated at seed 0. The data
seeds 1000-1009 are held out: nothing is chosen on them. They show whether
a change that moves the scores holds on data it was not tuned on, and how
far the scores spread from one draw of the data to the next.

Each tree runs in one child process, through ``loudclass.cli.main`` with
``PYTHONPATH=<tree>/src``. For each seed the child runs ``generate --seed
<seed> --per-class N`` and then ``evaluate --k K`` on that data, with all
seven classifiers and the command's own defaults otherwise. The outputs go
to ``<work-dir>/parent/seed<seed>`` and ``<work-dir>/change/seed<seed>``.

Writes ``<work-dir>/seed_spread.json`` and prints a table. Per classifier it
gives each tree's mean test balanced accuracy on each seed, the paired
difference (change minus parent), the mean difference, and the number of
seeds on which the change scores higher. ``--seeds`` takes ``1000-1009``,
``1000,1003`` or a mix.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import parse_seeds

HELD_OUT_SEEDS = "1000-1009"
SIDES = ("parent", "change")


def run_seeds(run: Path, seeds: list[int], per_class: int, k: int) -> None:
    """``generate`` and ``evaluate`` per seed in this process; the child side
    of ``run_tree``. Exits non-zero at the first command that fails."""
    import loudclass
    from loudclass.cli import main as cli

    print(Path(loudclass.__file__).resolve(), flush=True)
    for seed in seeds:
        out = run / f"seed{seed}"
        for argv in (
            ["generate", "--out-dir", str(out), "--per-class", str(per_class),
             "--seed", str(seed)],
            ["evaluate", "--out-dir", str(out / "evaluate"),
             "--data", str(out / "labeled.json"), "--k", str(k)],
        ):
            code = cli(argv)
            if code != 0:
                sys.exit(f"{' '.join(argv)} exited {code}")


def run_tree(tree: Path, run: Path, seeds: list[int], per_class: int, k: int) -> None:
    """The seeds' commands on ``tree``'s sources in one child process."""
    src = (tree / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(run),
         "--seeds", ",".join(map(str, seeds)), "--per-class", str(per_class),
         "--k", str(k)],
        env=env, capture_output=True, text=True,
    )
    loaded = done.stdout.splitlines()[0] if done.stdout else ""
    if done.returncode != 0 or not Path(loaded).is_relative_to(src):
        sys.exit(f"the seeds failed on {tree} (loaded {loaded!r}):\n{done.stderr}")


def mean_test_ba(run: Path, seed: int) -> dict[str, float]:
    """Mean test balanced accuracy per classifier of one seed's evaluate."""
    report = json.loads((run / f"seed{seed}" / "evaluate" / "report.json").read_text())
    return {name: block["test_balanced_accuracy"]["mean"]
            for name, block in report["classifiers"].items()}


def spread(work: Path, seeds: list[int]) -> dict[str, dict]:
    """Per classifier: each side's score per seed, the paired differences,
    their mean and the count of seeds on which the change scores higher."""
    scores = {side: [mean_test_ba(work / side, seed) for seed in seeds]
              for side in SIDES}
    result = {}
    for name in scores["parent"][0]:
        parent = [per_seed[name] for per_seed in scores["parent"]]
        change = [per_seed[name] for per_seed in scores["change"]]
        difference = [c - p for p, c in zip(parent, change)]
        result[name] = {
            "parent": parent,
            "change": change,
            "difference": difference,
            "mean_difference": statistics.fmean(difference),
            "change_better": sum(d > 0 for d in difference),
        }
    return result


def table(seeds: list[int], classifiers: dict[str, dict]) -> str:
    header = ("classifier", "seed", "parent", "change", "change-parent")
    lines = ["{:<10} {:>6} {:>8} {:>8} {:>14}".format(*header)]
    for name, row in classifiers.items():
        for seed, p, c, d in zip(seeds, row["parent"], row["change"], row["difference"]):
            lines.append(f"{name:<10} {seed:>6} {p:>8.4f} {c:>8.4f} {d:>+14.4f}")
        lines.append(f"{name:<10} {'mean':>6} {'':>8} {'':>8} {row['mean_difference']:>+14.4f}"
                     f"  change higher on {row['change_better']} of {len(seeds)} seeds")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="parent source tree")
    parser.add_argument("--change", type=Path, help="changed source tree")
    parser.add_argument("--work-dir", type=Path,
                        help="directory for the outputs; must not exist yet")
    parser.add_argument("--seeds", default=HELD_OUT_SEEDS,
                        help="data seeds, e.g. 1000-1009 or 1000,1003 "
                             f"(default {HELD_OUT_SEEDS}, the held-out seeds)")
    parser.add_argument("--per-class", type=int, default=150)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.child is not None:
        run_seeds(args.child, seeds, args.per_class, args.k)
        return 0
    if args.parent is None or args.change is None or args.work_dir is None:
        parser.error("--parent, --change and --work-dir are required")
    work = args.work_dir.resolve()
    if work.exists():
        parser.error(f"--work-dir {work} already exists")
    for side, tree in zip(SIDES, (args.parent, args.change)):
        run_tree(tree, work / side, seeds, args.per_class, args.k)
    classifiers = spread(work, seeds)
    summary = {
        "seeds": seeds,
        "per_class": args.per_class,
        "k": args.k,
        "trees": {side: str(tree.resolve())
                  for side, tree in zip(SIDES, (args.parent, args.change))},
        "metric": "mean test balanced accuracy",
        "classifiers": classifiers,
    }
    (work / "seed_spread.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(table(seeds, classifiers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
