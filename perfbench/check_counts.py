"""Check that two traced runs with one seed give identical per-layer counts.

    python3 perfbench/check_counts.py [--seed N] [--workload NAME ...]

Runs `run.py --trace 1` twice per workload, each in a fresh interpreter, and
compares every count (calls per span name, rref ops, basis_out, betti_total,
dim_total and the other counters). Exits 1 if any count differs or a run
fails. Timings are not compared: they never repeat exactly.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "tor", "queries")


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not json.loads(lines[-1])["correct"]:
        sys.exit(f"traced run of {workload} failed:\n{done.stderr}")
    return json.loads(lines[-2])["counts"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", nargs="*", default=WORKLOADS, choices=WORKLOADS)
    args = ap.parse_args()
    same = True
    for workload in args.workload:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        same &= not diff
        print(f"{workload}: {len(first)} counts, {'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
