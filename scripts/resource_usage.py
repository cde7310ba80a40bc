#!/usr/bin/env python3
"""CPU time and peak memory of one loudclass command, counting its workers.

``evaluate`` and ``sweep`` fit their classifiers in forked worker
processes, so the CPU time and peak RSS of the calling process alone miss
most of the work. This script runs one command in this process and prints
one JSON object with the wall time, the CPU time and peak RSS of this
process, and those of its child processes (``RUSAGE_CHILDREN``: CPU summed
over every child waited for, RSS of the largest). For example

    python3 scripts/resource_usage.py evaluate --data run/labeled.json \\
        --out-dir run/ev --classifier lr --k 3
"""

import json
import resource
import sys
import time

from loudclass.cli import main as cli


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    argv = sys.argv[1:]
    wall0 = time.perf_counter()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    code = cli(argv)
    wall = time.perf_counter() - wall0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    # ru_maxrss is in KiB on Linux.
    print(json.dumps({
        "argv": argv,
        "exit_code": code,
        "wall_s": wall,
        "self_cpu_s": _cpu(self1) - _cpu(self0),
        "children_cpu_s": _cpu(children1) - _cpu(children0),
        "self_peak_rss_mb": self1.ru_maxrss / 1024,
        "children_peak_rss_mb": children1.ru_maxrss / 1024,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
