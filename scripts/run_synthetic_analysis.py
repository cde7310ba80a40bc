#!/usr/bin/env python3
"""End-to-end analysis on synthetic data.

Generates a labeled dataset, cross-validates all seven classifiers, fits the
PCA projection, explains the designated classifier, and renders the figure
tables. Every step goes through the command-line interface and writes into
its own directory ``<out-dir>/<command>/``, so each step leaves a manifest
that ``loudclass replay`` can re-run.
"""

import argparse
import sys
from pathlib import Path

from loudclass.cli import main as cli


def run(out: Path, command: str, *args: str) -> None:
    argv = [command, "--out-dir", str(out / command), *args]
    print("+ loudclass " + " ".join(argv))
    rc = cli(argv)
    if rc != 0:
        sys.exit(rc)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="analysis")
    ap.add_argument("--per-class", type=int, default=150)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--designated", default="lr",
                    help="classifier receiving confusion/ROC/PR/SHAP detail")
    args = ap.parse_args()

    out = Path(args.out_dir)
    data = str(out / "generate" / "labeled.json")
    run(out, "generate", "--per-class", str(args.per_class), "--seed", str(args.seed),
        "--csv")
    run(out, "evaluate", "--data", data, "--k", str(args.k),
        "--classifier", args.designated)
    run(out, "pca", "--data", data, "--components", "2")
    run(out, "explain", "--data", data, "--classifier", args.designated,
        "--k", str(args.k))
    run(out, "report", "--in-dir", str(out / "evaluate"))
    print(f"analysis complete; outputs and manifest of each step under {out}/<step>/")


if __name__ == "__main__":
    main()
