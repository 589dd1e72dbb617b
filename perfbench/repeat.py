"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/repeat.py --workload tor --seeds 1-10 [--write]

For every end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next to
the bound in BENCHMARK.json. --write stores the table, with the machine
facts of the last run, under "measured" in perfbench/baseline.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    digests = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed} failed:\n{done.stderr}")
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} items failed")
        digests[seed] = detail["digest"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    table = {}
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(xs, n=4)
        median = statistics.median(xs)
        spread = (q3 - q1) / median
        table[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                 "bound": metric["bound"], "unit": metric["unit"]}
        print(f"{args.workload:8s} {metric['name']:12s} median {median:.5g} {metric['unit']:4s} "
              f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.4f} (bound {metric['bound']})")
    if args.write:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text())
        baseline.setdefault("measured", {})[args.workload] = {
            "seeds": args.seeds, "runs": len(args.seeds), "metrics": table, "digests": digests,
            "machine": detail["machine"],
        }
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
