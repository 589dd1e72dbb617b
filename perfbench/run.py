"""burchlab benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload {sweep,tor,queries} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.

--trace 0 measures end to end. It sets the workload up, then runs the
items in their seeded order, starting over at the end, until S seconds have
gone by, timing every item. It reports items_per_s, item_p50_s,
item_tail_s, peak_rss_mb and setup_s. Each distinct item counts once, with
the mean of its times, so a run that ends part way through a pass weighs
the workload's items as a whole pass does: items_per_s is the number of
distinct items over the sum of their times, item_p50_s their median and
item_tail_s the highest whole percentile that leaves at least ten of them
beyond it.

The speed of a shared host drifts by tens of percent over seconds to
minutes, for every program alike, so item times are scaled to a fixed host
speed. Before every item, and once after the last, the run times a fixed
reference loop that calls no burchlab code (dict arithmetic and small numpy
row reductions, see reference_loop). Each item's wall time is multiplied by
REF_NOMINAL_S over the median of the REF_WINDOW reference times before it
and the REF_WINDOW after it. items_per_s, item_p50_s and item_tail_s come
from these scaled times: they are seconds of a host on which the reference
loop takes REF_NOMINAL_S. Set-up (import, input generation and one fixed warm-up item) is timed in
this process and in four fresh interpreters run one after the other. Each
of them then times SETUP_REF_RUNS reference loops, its set-up time is
scaled by their median the same way, and setup_s is the median of the five. The detail line also
gives every figure unscaled, under "wall".

--trace 1 runs one pass in which every item runs twice, once plain and
once with a span around every public burchlab function named in
perfbench/spans.py. It reports the per-layer metrics, and the tracing
overhead as traced minus untraced time summed over the items. The pass is a
fixed block of work, so for one seed the counts repeat exactly;
perfbench/check_counts.py checks that.

Every item runs through the workload's oracle. An item that raises, exits
non-zero or breaks its oracle counts as failed and the loop goes on. An item
that runs again must give the same output. The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}. The
line before it holds the run's details: machine facts, output digest, tail
percentile, sample count and failed_frac. Both are also written under
perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NoReturn

STARTED = time.perf_counter()

import spans  # noqa: E402  (after STARTED: set-up time includes every import)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120
REF_PRIME = 32003
REF_DICT_ITERS = 10000
REF_REDUCTIONS = 20
REF_NOMINAL_S = 0.007  # about the reference loop's time on a 2-vCPU x86-64 VM
REF_WINDOW = 2
SETUP_REF_RUNS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(args, workdir: Path):
    """Import the library, build the inputs and run the warm-up item."""
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        wl.run(wl.warm_item)
    except Exception:
        # a broken item shows in the measured loop's failure count, not here
        traceback.print_exc(file=sys.stderr)
    return wl


def reference_loop() -> int:
    """Fixed work that measures the host's speed, in the two kinds burchlab
    does: tuple-keyed dict updates modulo a prime, as in polynomial
    arithmetic, and row reduction of a small float matrix modulo that prime
    with one numpy call per row operation, as in dense linear algebra."""
    import numpy as np

    table: dict[tuple[int, int, int], int] = {}
    acc = 0
    for i in range(REF_DICT_ITERS):
        key = (i & 7, i % 11, i & 3)
        value = (table.get(key, 0) + i * 31) % REF_PRIME
        table[key] = value
        acc ^= value
    matrix = np.random.default_rng(0).integers(0, REF_PRIME, (10, 14)).astype(np.float64)
    for _ in range(REF_REDUCTIONS):
        R = matrix.copy()
        r = 0
        for c in range(R.shape[1]):
            if r == R.shape[0]:
                break
            nz = np.nonzero(R[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                R[[r, i]] = R[[i, r]]
            R[r] = (R[r] * pow(int(R[r, c]), REF_PRIME - 2, REF_PRIME)) % REF_PRIME
            col = R[:, c].copy()
            col[r] = 0.0
            rows = np.nonzero(col)[0]
            if rows.size:
                R[rows] = (R[rows] - np.outer(col[rows], R[r])) % REF_PRIME
            r += 1
        acc ^= int(R.sum())
    return acc


def reference_s(runs: int = 1) -> float:
    """Median time of `runs` reference loops. No garbage collection runs
    inside them: the garbage it would free is the measured work's."""
    times = []
    for _ in range(runs):
        gc.disable()
        t = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t)
        gc.enable()
    return statistics.median(times)


def setup_times(args, own_setup: float, own_ref: float) -> tuple[list[float], list[float]]:
    """Set-up times of this process and of SETUP_PROBES fresh interpreters
    run one after the other, scaled to the reference speed and as measured.
    Each process times the reference loop right after its own set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    walls, refs = [own_setup], [own_ref]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        walls.append(probe["setup_s"])
        refs.append(probe["reference_s"])
    return [w * REF_NOMINAL_S / r for w, r in zip(walls, refs)], walls


class Outcome:
    """Per-item times, failures and outputs of one measured loop."""

    def __init__(self, wl):
        self.wl = wl
        self.times: list[float] = []
        self.keys: list[str] = []
        self.ref_times: list[float] = []
        self.failed = 0
        self.outputs: dict[str, str] = {}

    def time_reference(self) -> None:
        self.ref_times.append(reference_s())

    def scaled_times(self) -> list[float]:
        """Item times at the host speed where the reference loop takes
        REF_NOMINAL_S; reference i ran just before item i."""
        ref = self.ref_times
        return [t * REF_NOMINAL_S / statistics.median(ref[max(0, i - REF_WINDOW + 1):i + REF_WINDOW + 1])
                for i, t in enumerate(self.times)]

    def per_item(self, times: list[float]) -> list[float]:
        """Mean time of each distinct item, so that a run ending part way
        through a pass weighs every item of the workload once."""
        by_key: dict[str, list[float]] = {}
        for key, t in zip(self.keys, times):
            by_key.setdefault(key, []).append(t)
        return [statistics.fmean(ts) for ts in by_key.values()]

    def run_item(self, item) -> None:
        key = self.wl.key(item)
        t = time.perf_counter()
        try:
            ok, output = self.wl.run(item)
        except Exception:
            ok, output = False, None
            if self.failed < 3:
                traceback.print_exc(file=sys.stderr)
        self.times.append(time.perf_counter() - t)
        self.keys.append(key)
        if ok and self.outputs.setdefault(key, output) != output:
            ok = False
            print(f"perfbench: item {key} changed its output on a repeat", file=sys.stderr)
        if not ok:
            self.failed += 1
            print(f"perfbench: item {key} failed", file=sys.stderr)

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            h.update(f"{key}\t{self.outputs[key]}\n".encode())
        return h.hexdigest()


def run_for(wl, seconds: float) -> tuple[Outcome, float]:
    """Items in their seeded order, cycling, until `seconds` have elapsed,
    with the reference loop timed before every item and after the last."""
    out = Outcome(wl)
    t0 = time.perf_counter()
    for item in itertools.cycle(wl.items):
        out.time_reference()
        out.run_item(item)
        if time.perf_counter() - t0 >= seconds:
            out.time_reference()
            return out, time.perf_counter() - t0


def tail_percentile(pass_size: int) -> int:
    """Highest whole percentile with at least ten items of one pass beyond it."""
    return max(50, min(99, math.floor(100 * (1 - 10 / pass_size))))


def percentile(values: list[float], q: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def blas_facts() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None,
             "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
             "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                break
    return facts


def machine_facts(args, wl) -> dict:
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(),
        "seed": args.seed,
        "workload": args.workload,
        "params": wl.params,
    }


def end_to_end(args, wl, own_setup: float, own_ref: float):
    """Metrics, details, items attempted, items failed and output digest."""
    setup_scaled, setup_walls = setup_times(args, own_setup, own_ref)
    out, elapsed = run_for(wl, args.seconds)
    pct = tail_percentile(len(wl.items))
    scaled = out.per_item(out.scaled_times())
    wall = out.per_item(out.times)
    values = {
        "items_per_s": len(scaled) / sum(scaled),
        "item_p50_s": statistics.median(scaled),
        "item_tail_s": percentile(scaled, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_scaled),
        "failed_frac": out.failed / len(out.times),
    }
    detail = {"tail_percentile": pct, "samples": len(out.times), "measured_s": elapsed,
              "distinct_items": len(out.outputs), "setup_samples_s": setup_scaled,
              "wall": {"items_per_s": len(wall) / sum(wall), "item_p50_s": statistics.median(wall),
                       "item_tail_s": percentile(wall, pct), "setup_s": statistics.median(setup_walls),
                       "setup_samples_s": setup_walls},
              "reference": {"nominal_s": REF_NOMINAL_S, "median_s": statistics.median(out.ref_times),
                            "q1_q3_s": statistics.quantiles(out.ref_times, n=4)[::2],
                            "share_of_run": sum(out.ref_times) / elapsed}}
    return values, detail, len(out.times), out.failed, out.digest()


def per_layer(args, wl):
    """As end_to_end; both runs of every item count as attempted."""
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    plain, traced = Outcome(wl), Outcome(wl)

    def run_traced(n, item):
        rec.item_id = n
        with tracer:
            i = rec.open(spans.ROOT_ID)
            try:
                traced.run_item(item)
            finally:
                rec.close(i, spans.ROOT_ID)

    def run_plain(n, item):
        plain.run_item(item)

    for n, item in enumerate(wl.items):
        # each item runs untraced and traced back to back, alternating which
        # goes first, so a drift in machine speed cancels out of the overhead
        for run in (run_plain, run_traced) if n % 2 == 0 else (run_traced, run_plain):
            run(n, item)
    plain_s, traced_s = sum(plain.times), sum(traced.times)
    values = spans.aggregate(rec)
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    counts = {k: v for k, v in values.items() if k.endswith(".calls") or k in spans.COUNTERS}
    counts_digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-{args.seed}.npz"
    rec.save(spans_file)
    detail = {"untraced_s": plain_s, "traced_s": traced_s, "counts": counts,
              "counts_digest": counts_digest, "spans_file": str(spans_file.relative_to(ROOT)),
              "layer_self_frac": {k: v for k, v in values.items() if k.endswith(".self_frac")}}
    failed = plain.failed + traced.failed
    if plain.digest() != traced.digest():
        failed += 1
        print("perfbench: traced outputs differ from untraced outputs", file=sys.stderr)
    return values, detail, len(plain.times) + len(traced.times), failed, traced.digest()


E2E_UNITS = {"items_per_s": "1/s", "item_p50_s": "s", "item_tail_s": "s", "peak_rss_mb": "MB",
             "setup_s": "s", "failed_frac": "ratio"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "burchlab" / "__init__.py").is_file():
        fail(f"no burchlab sources under {SRC}; run from the root of a burchlab checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        wl = setup(args, Path(tmp))
        own_setup = time.perf_counter() - STARTED
        own_ref = reference_s(SETUP_REF_RUNS)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup, "reference_s": own_ref}))
            return 0
        if args.trace:
            values, detail, attempted, failed, digest = per_layer(args, wl)
            wanted = spec["per_layer"]
        else:
            values, detail, attempted, failed, digest = end_to_end(args, wl, own_setup, own_ref)
            wanted = spec["end_to_end"]
            for name, unit in E2E_UNITS.items():
                print(f"{args.workload:8s} {name:12s} {values[name]:.6g} {unit}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics named in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail.update(machine=machine_facts(args, wl), digest=digest,
                  failed_frac=failed / attempted, trace=args.trace)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result, "all_metrics": values}, indent=1, sort_keys=True))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
