#!/usr/bin/env python3
"""Calibration-offset robustness sweep on synthetic data.

Evaluates the classifier battery under each roving condition, sharing the
base records and fold plans across conditions, then writes the per-condition
AUC table, the micro-ROC overlay, and the permutation-importance comparison.
"""

import argparse
import sys

from loudclass.cli import main as cli


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="sweep_run")
    ap.add_argument("--per-class", type=int, default=150)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--designated", default="lr")
    ap.add_argument("--conditions", default=None,
                    help="mean:sd pairs, comma separated "
                         "(default: the sweep command's own conditions)")
    args = ap.parse_args()

    out = args.out_dir
    sweep = ["sweep", "--out-dir", out, "--k", str(args.k), "--classifier", args.designated]
    if args.conditions is not None:
        sweep += ["--conditions", args.conditions]
    for argv in (
        ["generate", "--out-dir", out, "--per-class", str(args.per_class),
         "--seed", str(args.seed)],
        sweep,
    ):
        print("+ loudclass " + " ".join(argv))
        rc = cli(argv)
        if rc != 0:
            sys.exit(rc)
    print(f"sweep complete; tables under {out}/sweep/")


if __name__ == "__main__":
    main()
