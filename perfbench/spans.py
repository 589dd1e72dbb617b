"""Spans around burchlab's public functions, recorded from outside the package.

A Tracer replaces each function named in TRACED by a wrapper that opens a
span on entry and closes it on exit, and puts the originals back after.
A function imported by name into another burchlab module (`from .groebner
import normal_form`) is replaced there too, so every call site is seen.
Nothing under src/ changes; an untraced run never installs a wrapper.

Spans live in flat arrays (name, start, end, parent span, item id) until the
run ends. Self time is a span's duration minus the durations of its child
spans; total time counts only the outermost span of a name, so recursion is
not counted twice. Counters are integers fed by a few hooks that read a
call's arguments and result, and repeat exactly for a fixed seed.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# module -> public entry points that get a span: those the three workloads
# reach. "Class.method" wraps a method; a class's __init__ is reported under
# the class name.
TRACED = {
    "linalg": (
        "is_prime", "matmul", "rref", "rank", "kernel_basis", "column_space_basis",
        "in_column_space", "complete_columns",
    ),
    "poly": ("parse_polynomial",),
    "groebner": (
        "normal_form", "buchberger", "reduce_basis", "reduced_groebner", "Ideal.groebner",
        "ideal_intersection", "ideal_colon_element", "ideal_colon", "exact_divide",
    ),
    "monomial": ("monomial_burch_test", "staircase_burch_test", "hilbert_burch_matrix"),
    "artinian": (
        "QuotientAlgebra.__init__", "QuotientAlgebra.quotient_by_socle",
        "QuotientAlgebra.max_power_basis",
    ),
    "resolution": (
        "module_from_cyclic", "residue_field", "Resolution.ensure_length", "k_summand_test",
        "koszul_h1", "tor_profile",
    ),
    "burch": (
        "burch_ideal_test", "burch_criteria_crosscheck", "choi_invariant", "burch_invariant",
        "cube_zero_test", "mu_growth_test",
    ),
    "sweep": ("analyze_ideal",),
    "cli": ("main", "parse_session", "cmd_check", "cmd_invariants", "Report.emit"),
}

ROOT = "bench.item"  # the span around one whole item, opened by the benchmark loop
ROOT_ID = 0


def _rref_ops(counters, state, args, result):
    rows, cols = args[0].shape
    counters["linalg.rref.ops"] += len(result[1]) * rows * cols


def _kernel_cols(counters, state, args, result):
    key = "linalg.kernel_basis.max_cols"
    counters[key] = max(counters[key], args[0].shape[1])


def _basis_out(counters, state, args, result):
    counters["groebner.buchberger.basis_out"] += len(result)


def _zero_nf(counters, state, args, result):
    counters["groebner.normal_form.zero"] += result.is_zero


def _betti_before(args):
    return len(args[0].betti)


def _betti_new(counters, state, args, result):
    counters["resolution.Resolution.ensure_length.betti_total"] += sum(args[0].betti[state:])


def _algebra_dim(counters, state, args, result):
    counters["artinian.QuotientAlgebra.dim_total"] += args[0].dim


# span name -> (pre, post): pre(args) returns a state that post receives.
HOOKS = {
    "linalg.rref": (None, _rref_ops),
    "linalg.kernel_basis": (None, _kernel_cols),
    "groebner.buchberger": (None, _basis_out),
    "groebner.normal_form": (None, _zero_nf),
    "resolution.Resolution.ensure_length": (_betti_before, _betti_new),
    "artinian.QuotientAlgebra": (None, _algebra_dim),
}
COUNTERS = (
    "linalg.rref.ops",
    "linalg.kernel_basis.max_cols",
    "groebner.buchberger.basis_out",
    "groebner.normal_form.zero",
    "resolution.Resolution.ensure_length.betti_total",
    "artinian.QuotientAlgebra.dim_total",
)


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.item_id = -1
        self._stack = [-1]
        self._open_by_name: list[int] = []
        self.name_id(ROOT)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self._open_by_name.append(0)
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self.item_id)
        self.outer.append(self._open_by_name[nid] == 0)
        self._open_by_name[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, nid: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._open_by_name[nid] -= 1

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _wrap(fn, rec: Recorder, nid: int, hook):
    pre, post = hook if hook else (None, None)

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        state = pre(args) if pre else None
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i, nid)
        if post:
            post(rec.counters, state, args, result)
        return result

    return traced_call


class Tracer:
    """`with tracer:` wraps every TRACED function, recording into `rec`, and
    puts the originals back on exit; it may be entered again and again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._swaps: list[tuple[object, str, object, object]] = []
        package = [m for k, m in sys.modules.items() if k == "burchlab" or k.startswith("burchlab.")]
        for short, entries in TRACED.items():
            mod = importlib.import_module(f"burchlab.{short}")
            for entry in entries:
                *owner_path, attr = entry.split(".")
                owner = mod
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                name = f"{short}.{entry.removesuffix('.__init__')}"
                wrapper = _wrap(original, rec, rec.name_id(name), HOOKS.get(name))
                if owner is mod:
                    targets = [(m, k) for m in package for k, v in vars(m).items() if v is original]
                else:
                    targets = [(owner, attr)]
                self._swaps.extend((target, key, original, wrapper) for target, key in targets)

    def __enter__(self) -> Recorder:
        for target, key, _, wrapper in self._swaps:
            setattr(target, key, wrapper)
        return self.rec

    def __exit__(self, *exc) -> None:
        for target, key, original, _ in reversed(self._swaps):
            setattr(target, key, original)


def aggregate(rec: Recorder) -> dict[str, float]:
    """Per-name calls, self and total time (in seconds and as a share of the
    traced item time), per-layer self time, and the counters."""
    a = rec.arrays()
    k = len(rec.names)
    dur = a["end"] - a["start"]
    parent = a["parent"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child_time
    names = a["name"]
    calls = np.bincount(names, minlength=k)
    self_s = np.bincount(names, weights=self_time, minlength=k)
    total_s = np.bincount(names, weights=dur * a["outer"], minlength=k)
    has_child = np.zeros(len(dur), dtype=bool)
    has_child[parent[nested]] = True
    with_child = np.bincount(names, weights=has_child, minlength=k)

    # self times add up to the time of the root spans, i.e. of the traced items
    traced_time = float(self_time.sum())

    def share(t: float) -> float:
        return t / traced_time if traced_time else 0.0

    out: dict[str, float] = {}
    layers: dict[str, float] = {}
    for nid, name in enumerate(rec.names):
        out[f"{name}.calls"] = int(calls[nid])
        out[f"{name}.self_s"] = float(self_s[nid])
        out[f"{name}.total_s"] = float(total_s[nid])
        out[f"{name}.self_frac"] = share(self_s[nid])
        out[f"{name}.total_frac"] = share(total_s[nid])
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + float(self_s[nid])
    for layer, t in layers.items():
        out[f"layer.{layer}.self_s"] = t
        out[f"layer.{layer}.self_frac"] = share(t)
    out.update(rec.counters)
    nf_calls = out["groebner.normal_form.calls"]
    out["groebner.normal_form.zero_frac"] = rec.counters["groebner.normal_form.zero"] / nf_calls if nf_calls else 0.0
    gb = rec.names.index("groebner.Ideal.groebner")
    # a cache miss computes a basis, so it is the only kind of call with child spans
    out["groebner.Ideal.groebner.hit_frac"] = 1.0 - with_child[gb] / calls[gb] if calls[gb] else 0.0
    out["trace.spans"] = len(dur)
    return out
