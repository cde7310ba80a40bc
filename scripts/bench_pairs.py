"""Run the benchmark on two source trees in alternating pairs and summarize.

    python scripts/bench_pairs.py --parent ../parent --change . \
        --workload explain-forest --seeds 21-30 --out BENCH_22.json

For each seed, runs ``python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0`` once in each tree, one run at a time: odd seeds run
the parent first, even seeds the change. Each tree runs its own
``perfbench/`` on its own ``src/``. The output file keeps every run (the
benchmark's last stdout line, the output sha256 and the source sha256 from
its results file) and, per workload, a summary: for each end-to-end metric
of ``BENCHMARK.json``, both sides' runs, medians and quartiles, and in how
many pairs the change was better; whether each side wrote the same bytes
in every run; the outputs whose sha256 differ between the sides; and the
runs that failed. Running another workload into the same file adds or
replaces that workload's entries and keeps the others.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,3,5"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float, side: str) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``, as a run record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    record = {"workload": workload, "seed": seed, "side": side, "rc": done.returncode,
              "result": result, "output_sha256": None, "source_sha256": None, "reps": 0}
    results = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-data0-trace0.json"
    if done.returncode == 0 and results.is_file():
        detail = json.loads(results.read_text())
        record["output_sha256"] = detail["output_sha256"]
        record["source_sha256"] = detail["provenance"]["source_sha256"]
        record["reps"] = sum(op["op"].startswith("rep") for op in detail["operations"])
    else:
        record["stderr_tail"] = done.stderr[-2000:]
    return record


def _median(values: list[float]):
    return statistics.median(values) if values else None


def _quartiles(values: list[float]):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _ok(run: dict) -> bool:
    return run["rc"] == 0 and bool(run["result"]) and run["result"]["correct"]


def summarize(workload: str, runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric comparison of the sides over the seeds both ran.

    ``end_to_end`` is BENCHMARK.json's list of ``{"name", "better"}``. A pair
    counts as a change win for a metric when the change's value is strictly
    better than the parent's; ties count for neither side. Quartiles are
    ``statistics.quantiles(..., method="inclusive")``; a failed run leaves
    its seed out of every pair.
    """
    mine = [r for r in runs if r["workload"] == workload]
    by_seed = {}
    for run in mine:
        if _ok(run):
            by_seed.setdefault(run["seed"], {})[run["side"]] = run
    seeds = sorted(s for s, pair in by_seed.items() if set(pair) == set(SIDES))
    summary = {"workload": workload, "trace": 0, "seeds": seeds, "pairs": len(seeds)}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [by_seed[s][side]["result"]["metrics"][name]["value"] for s in seeds]
                  for side in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        summary[name] = {
            "parent_median": _median(values["parent"]),
            "change_median": _median(values["change"]),
            "change_wins": wins,
            "parent_quartiles": _quartiles(values["parent"]),
            "change_quartiles": _quartiles(values["change"]),
            "parent_runs": values["parent"],
            "change_runs": values["change"],
        }
    hashes = {side: [by_seed[s][side]["output_sha256"] for s in seeds] for side in SIDES}
    summary["outputs_same_across_runs"] = {
        side: all(h == hashes[side][0] for h in hashes[side]) for side in SIDES
    }
    first = {side: hashes[side][0] if hashes[side] else {} for side in SIDES}
    summary["outputs_with_changed_sha256"] = sorted(
        name for name in set(first["parent"]) | set(first["change"])
        if first["parent"].get(name) != first["change"].get(name)
    )
    summary["failed_runs"] = [{"seed": r["seed"], "side": r["side"]}
                              for r in mine if not _ok(r)]
    return summary


def merge(existing: dict, workload: str, runs: list[dict], summary: dict, what) -> dict:
    """``existing`` with ``workload``'s runs and summary replaced."""
    kept_runs = [r for r in existing.get("runs", []) if r["workload"] != workload]
    kept_summary = [s for s in existing.get("summary", []) if s["workload"] != workload]
    sources = dict(existing.get("source_sha256", {}))
    for run in runs:
        if run["source_sha256"]:
            sources[run["side"]] = run["source_sha256"]
    return {
        "what": what if what is not None else existing.get("what", ""),
        "source_sha256": sources,
        "summary": kept_summary + [summary],
        "runs": kept_runs + runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help='for example "1-10"')
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--what", help="the file's description (kept if not given)")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for seed in parse_seeds(args.seeds):
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            run = run_once(trees[side], args.workload, seed, args.seconds, side)
            runs.append(run)
            wall = (run["result"] or {}).get("metrics", {}).get("wall_s", {}).get("value")
            print(f"{args.workload} seed {seed} {side}: rc {run['rc']} wall_s {wall}",
                  flush=True)
    end_to_end = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarize(args.workload, runs, end_to_end)
    existing = json.loads(args.out.read_text()) if args.out.is_file() else {}
    args.out.write_text(json.dumps(merge(existing, args.workload, runs, summary, args.what),
                                   indent=1) + "\n")
    print(json.dumps({k: v for k, v in summary.items() if k != "seeds"}, indent=1))
    return 0 if not summary["failed_runs"] else 1


if __name__ == "__main__":
    sys.exit(main())
