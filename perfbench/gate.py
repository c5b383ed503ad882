"""Determinism gate and clean-tree check for the benchmark.

Usage, from the root of a git checkout:

    python3 perfbench/gate.py [--seed N] [workload ...]

For each workload (all four by default) it makes two traced runs with the
same seed and requires identical `.calls`, size counters and counted
ratios.  It also requires `git status --porcelain` to read the same before
and after the runs (the benchmark writes only to the ignored
perfbench/out/).  It prints trace.overhead_ratio per workload and exits 1
on any mismatch.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("syntactic", "closure", "search", "cli")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()

    before = git_status()
    ok = True
    for workload in args.workloads:
        first, second = (traced_run(workload, args.seed) for _ in range(2))
        counted = [name for name, m in first.items()
                   if m["unit"] == "count" or (m["unit"] == "ratio" and not name.startswith("trace."))]
        differ = [name for name in counted if first[name]["value"] != second[name]["value"]]
        overhead = [run["trace.overhead_ratio"]["value"] for run in (first, second)]
        print(f"{workload}: {len(counted)} counters, {len(differ)} differ"
              f"{' ' + str(differ) if differ else ''}; trace.overhead_ratio "
              + " / ".join(f"{x:.3f}" for x in overhead))
        ok &= not differ
    after = git_status()
    if after != before:
        print("git status changed during the runs:\n" + after)
        ok = False
    else:
        print("git status unchanged")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
