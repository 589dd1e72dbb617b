"""Command-line front end.

Session files declare one ring, named ideals and named cyclic modules:

    ring 32003 x y
    ideal I = x^4, x^2*y^2, y^4
    module M = cyclic I          # comments start with '#'

Commands that need a quotient ring take --ring NAME (default: the first
ideal in the file); the built-in module name `k` is the residue field.
Reports are deterministic for a fixed seed and flags; wall-clock timing is
only included when --timing is passed.  Every --json report follows
REPORT_SCHEMA, the published report contract, by construction: `Report`
alone writes the top-level keys, and the tests check each command's report
against the schema with jsonschema.

Exit codes: 0 ok, 1 corpus failure, 2 input error, 3 precondition failure,
4 internal-consistency failure, 5 unexpected internal error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field

from .artinian import QuotientAlgebra, quotient_algebra
from .burch import (
    InternalConsistencyError,
    burch_criteria_crosscheck,
    burch_ideal_test,
    burch_ring_depth_zero,
    cut_down,
    fibre_burch_test,
    m_full_test,
)
from .corpus import ENTRIES, run_corpus
from .groebner import Ideal, PreconditionError
from .poly import ParseError, Polynomial, RingContext, parse_polynomial
from .resolution import AlgebraModule, k_summand_test, module_from_cyclic, residue_field, tor_profile
from .sweep import ALL_CHECKS, run_sweep

SCHEMA_VERSION = "1"

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "command", "verdicts"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "args": {"type": "object"},
        "verdicts": {"type": "object"},
        "witnesses": {"type": "object"},
        "invariants": {"type": "object"},
        "timing_s": {"type": ["number", "null"]},
    },
}

EXIT_OK = 0
EXIT_CORPUS = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_CONSISTENCY = 4
EXIT_INTERNAL = 5


class SessionError(ValueError):
    pass


@dataclass
class Session:
    ctx: RingContext
    ideals: dict[str, Ideal] = field(default_factory=dict)
    modules: dict[str, str] = field(default_factory=dict)  # name -> ideal name

    def ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            raise SessionError(f"no ideal named {name!r} in the session file")
        return self.ideals[name]

    def module(self, name: str, ring: QuotientAlgebra) -> AlgebraModule:
        if name == "k":
            return residue_field(ring)
        if name in self.modules:
            return module_from_cyclic(ring, self.ideal(self.modules[name]))
        if name in self.ideals:
            return module_from_cyclic(ring, self.ideals[name])
        raise SessionError(f"no module named {name!r} in the session file")


def parse_session(path: str, modulus: int | None = None) -> Session:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SessionError(f"cannot read session file: {exc}") from exc
    session: Session | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "ring":
                if session is not None:
                    raise SessionError("duplicate ring declaration")
                parts = rest.split()
                if len(parts) < 2:
                    raise SessionError("ring line needs a modulus and variables")
                p = int(parts[0]) if modulus is None else modulus
                session = Session(RingContext(p, tuple(parts[1:])))
            elif head == "ideal":
                if session is None:
                    raise SessionError("ideal before ring declaration")
                name, _, body = rest.partition("=")
                name = name.strip()
                if not name or name in session.ideals or name in session.modules or name == "k":
                    raise SessionError(f"bad or duplicate ideal name {name!r}")
                gens = []
                for chunk in body.split(","):
                    f = parse_polynomial(chunk.strip(), session.ctx)
                    if f.constant_term:
                        raise SessionError(
                            f"generator {chunk.strip()!r} has a nonzero constant term"
                        )
                    gens.append(f)
                session.ideals[name] = Ideal.make(session.ctx, gens)
            elif head == "module":
                if session is None:
                    raise SessionError("module before ring declaration")
                name, _, body = rest.partition("=")
                name = name.strip()
                kind, _, target = body.strip().partition(" ")
                if kind != "cyclic":
                    raise SessionError(f"unknown module constructor {kind!r}")
                target = target.strip()
                if not name or name in session.modules or name in session.ideals or name == "k":
                    raise SessionError(f"bad or duplicate module name {name!r}")
                session.modules[name] = target
            else:
                raise SessionError(f"unknown directive {head!r}")
        except PreconditionError:
            raise  # e.g. a modulus too large for exact arithmetic: exit 3, not 2
        except (ParseError, ValueError) as exc:
            raise SessionError(f"{path}:{lineno}: {exc}") from exc
    if session is None:
        raise SessionError("session file has no ring declaration")
    for name, target in session.modules.items():
        if target not in session.ideals:
            raise SessionError(f"module {name!r} references unknown ideal {target!r}")
    return session


def default_ring(session: Session, args) -> QuotientAlgebra:
    name = getattr(args, "ring", None)
    if name is None:
        if not session.ideals:
            raise SessionError("session file declares no ideals")
        name = next(iter(session.ideals))
    return quotient_algebra(session.ideal(name))


# ---------------------------------------------------------------------------
# report plumbing


class Report:
    """A command's report.  `__init__` sets every key of REPORT_SCHEMA with
    the schema's type, `verdict`, `witness` and `invariant` write only into
    the three nested objects, which the schema leaves free, and `emit` sets
    `timing_s` to a float or leaves it None: a report follows the schema by
    construction."""

    def __init__(self, command: str, args: dict):
        self.data = {
            "schema": SCHEMA_VERSION,
            "command": command,
            "args": args,
            "verdicts": {},
            "witnesses": {},
            "invariants": {},
            "timing_s": None,
        }
        self.lines: list[str] = []

    def verdict(self, name: str, value):
        self.data["verdicts"][name] = value

    def witness(self, name: str, value):
        self.data["witnesses"][name] = value

    def invariant(self, name: str, value):
        self.data["invariants"][name] = value

    def line(self, text: str):
        self.lines.append(text)

    def emit(self, as_json: bool, timing: float | None) -> None:
        if timing is not None:
            self.data["timing_s"] = round(timing, 3)
        if as_json:
            print(json.dumps(self.data, sort_keys=True, indent=2))
        else:
            for text in self.lines:
                print(text)


def _poly_str(f: Polynomial | None):
    return None if f is None else str(f)


def _json_invariants(inv: dict) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value for key, value in inv.items()}


# ---------------------------------------------------------------------------
# subcommands: each returns its report and exit code, and `main` emits the
# report


def cmd_check(args) -> tuple[Report, int]:
    session = parse_session(args.file, args.modulus)
    I = session.ideal(args.ideal)
    report = Report("check", {"file": args.file, "ideal": args.ideal, "route": args.route})
    rep = burch_ideal_test(I)
    report.verdict("burch", rep.burch)
    report.verdict("depth_zero", rep.depth_zero)
    report.witness("socle_element", _poly_str(rep.witness_socle))
    report.witness("variable", rep.witness_variable)
    report.witness("product", _poly_str(rep.witness_product))
    for key, value in _json_invariants(rep.invariants).items():
        report.invariant(key, value)
    report.line(f"ideal {args.ideal}: burch={rep.burch} depth_zero={rep.depth_zero}")
    if rep.witness_product is not None:
        report.line(
            f"  witness: {rep.witness_variable} * ({rep.witness_socle}) = {rep.witness_product} outside mI"
        )
    exit_code = EXIT_OK
    if args.route == "all":
        cross = burch_criteria_crosscheck(I)
        for name, verdict in cross.verdicts.items():
            report.verdict(f"route_{name}", verdict)
            report.line(f"  route {name}: {verdict}")
        report.verdict("routes_agree", cross.agree)
        if not cross.agree:
            report.line("  ROUTE DISAGREEMENT")
            exit_code = EXIT_CONSISTENCY
    return report, exit_code


def cmd_invariants(args) -> tuple[Report, int]:
    session = parse_session(args.file, args.modulus)
    I = session.ideal(args.ideal)
    rep = burch_ideal_test(I)
    report = Report("invariants", {"file": args.file, "ideal": args.ideal})
    report.verdict("burch", rep.burch)
    report.verdict("depth_zero", rep.depth_zero)
    for key, value in _json_invariants(rep.invariants).items():
        report.invariant(key, value)
        report.line(f"{key} = {value}")
    return report, EXIT_OK


def cmd_resolve(args) -> tuple[Report, int]:
    session = parse_session(args.file, args.modulus)
    R = default_ring(session, args)
    M = session.module(args.module, R)
    length = args.length
    res = M.resolution(length)
    report = Report(
        "resolve",
        {"file": args.file, "module": args.module, "length": length, "ring": args.ring},
    )
    report.verdict("betti", list(res.betti[: length + 1]))
    report.line(f"betti: {res.betti[: length + 1]}")
    summands = {}
    entry_ideals = {}
    for i in range(1, length + 1):
        gens = [str(g) for g in res.entry_ideal(i).gens]
        entry_ideals[str(i)] = gens
        report.line(f"I1(d{i}) = ({', '.join(gens) if gens else '0'})")
    for i in range(2, length + 1):
        verdict = k_summand_test(res.syzygy(i))
        summands[str(i)] = verdict.splits
        report.line(f"k | omega^{i}: {verdict.splits}")
    report.verdict("k_summand_by_index", summands)
    report.invariant("entry_ideals", entry_ideals)
    return report, EXIT_OK


def cmd_syzygy_summand(args) -> tuple[Report, int]:
    session = parse_session(args.file, args.modulus)
    R = default_ring(session, args)
    M = session.module(args.module, R)
    res = M.resolution(max(args.index, 1))
    verdict = k_summand_test(res.syzygy(args.index))
    report = Report(
        "syzygy-summand",
        {"file": args.file, "module": args.module, "index": args.index, "ring": args.ring},
    )
    report.verdict("splits", verdict.splits)
    report.invariant("socle_dim", verdict.socle_dim)
    if verdict.splits:
        report.witness("socle_vector", [str(f) for f in verdict.witness_entries])
        report.line(
            f"k | omega^{args.index}: True, witness ({', '.join(str(f) for f in verdict.witness_entries)})"
        )
    else:
        report.line(f"k | omega^{args.index}: False")
    return report, EXIT_OK


def cmd_tor(args) -> tuple[Report, int]:
    session = parse_session(args.file, args.modulus)
    R = default_ring(session, args)
    M = session.module(args.first, R)
    N = session.module(args.second, R)
    report = Report(
        "tor",
        {"file": args.file, "modules": [args.first, args.second], "max_index": args.max_index, "ring": args.ring},
    )
    profile = tor_profile(M, N, args.max_index)
    dims = {str(i): v for i, v in enumerate(profile)}
    report.verdict("tor_dims", dims)
    for i, v in dims.items():
        report.line(f"tor_{i} = {v}")
    return report, EXIT_OK


def cmd_mfull(args) -> tuple[Report, int]:
    session = parse_session(args.file, args.modulus)
    I = session.ideal(args.ideal)
    result = m_full_test(I, trials=args.trials, seed=args.seed)
    report = Report(
        "mfull",
        {"file": args.file, "ideal": args.ideal, "trials": args.trials, "seed": args.seed},
    )
    report.verdict("m_full", result.m_full)
    report.verdict("certified", result.m_full)
    report.witness("element", _poly_str(result.witness))
    if result.m_full:
        report.line(f"m-full: yes, witness {result.witness}")
    else:
        report.line(f"m-full: no witness found ({result.trials} random trials; probabilistic)")
    return report, EXIT_OK


def cmd_cut(args) -> tuple[Report, int]:
    session = parse_session(args.file, args.modulus)
    I = session.ideal(args.ideal)
    elems = [parse_polynomial(text, session.ctx) for text in args.by]
    result = cut_down(I, elems, allow_nonlinear=args.allow_nonlinear)
    report = Report(
        "cut",
        {"file": args.file, "ideal": args.ideal, "by": args.by, "allow_nonlinear": args.allow_nonlinear},
    )
    report.verdict("all_regular", result.all_regular)
    quotient = [str(g) for g in result.ideal.groebner()]
    report.invariant("quotient_ideal", quotient)
    report.invariant("variables", list(result.ideal.ctx.variables))
    report.line(
        f"quotient: ({', '.join(quotient)}) in k[{', '.join(result.ideal.ctx.variables)}]"
    )
    for step in result.steps:
        report.line(f"  cut by {step.element}: regular={step.regular}")
    if result.ideal.is_m_primary():
        verdict = burch_ring_depth_zero(quotient_algebra(result.ideal))
        report.verdict("quotient_burch", verdict.burch)
        report.invariant("c_invariant", verdict.c_invariant)
        # per-sequence verdict only: a different maximal regular sequence may
        # give a different answer (the cut direction matters)
        report.line(f"quotient Burch (this cut only): {verdict.burch}")
    else:
        report.verdict("quotient_burch", None)
        report.line("quotient not artinian; no depth-zero verdict")
    return report, EXIT_OK


def cmd_fibre(args) -> tuple[Report, int]:
    left = parse_session(args.left_file, args.modulus)
    right = parse_session(args.right_file, args.modulus)
    RS = quotient_algebra(left.ideal(args.left_ideal))
    RT = quotient_algebra(right.ideal(args.right_ideal))
    verdict = fibre_burch_test(RS, RT)
    report = Report(
        "fibre",
        {"left": [args.left_file, args.left_ideal], "right": [args.right_file, args.right_ideal]},
    )
    report.verdict("burch", verdict.burch)
    report.verdict("left_burch", verdict.left_burch)
    report.verdict("right_burch", verdict.right_burch)
    report.verdict("direct_on_presentation", verdict.direct)
    report.line(
        f"fibre product Burch: {verdict.burch} (left {verdict.left_burch}, right {verdict.right_burch}, direct {verdict.direct})"
    )
    return report, EXIT_OK


def cmd_sweep(args) -> tuple[Report, int]:
    checks = tuple(args.checks.split(",")) if args.checks else ALL_CHECKS
    for c in checks:
        if c not in ALL_CHECKS:
            raise SessionError(f"unknown check {c!r}; choose from {', '.join(ALL_CHECKS)}")
    result = run_sweep(args.max_socle_degree, p=args.modulus or 32003, checks=checks)
    report = Report(
        "sweep", {"max_socle_degree": args.max_socle_degree, "checks": list(checks)}
    )
    report.verdict("ideals_scanned", result.count)
    report.verdict("counterexamples", len(result.counterexamples))
    report.line(f"scanned {result.count} ideals, {len(result.counterexamples)} counterexamples")
    for rec in result.counterexamples:
        report.line(f"  DISAGREEMENT at staircase {rec.staircase}: {rec.verdicts}")
        report.witness(str(rec.staircase), rec.verdicts)
    return report, EXIT_OK if not result.counterexamples else EXIT_CONSISTENCY


def cmd_corpus(args) -> tuple[Report, int]:
    if args.only is not None and all(entry.name != args.only for entry in ENTRIES):
        raise SessionError(f"no corpus entry named {args.only!r}")
    p = args.modulus or 32003
    ok, results = run_corpus(p, only=args.only)
    report = Report("corpus", {"modulus": p, "only": args.only})
    for name, rows in results.items():
        entry_ok = all(r.ok for r in rows)
        report.verdict(name, entry_ok)
        report.line(f"{'PASS' if entry_ok else 'FAIL'} {name}")
        for r in rows:
            if not r.ok:
                report.line(f"    {r.label}: {r.detail}")
                report.witness(f"{name}::{r.label}", r.detail)
    report.line("all passed" if ok else "FAILURES")
    return report, EXIT_OK if ok else EXIT_CORPUS


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it.  Subcommand `name` runs `cmd_<name>` (hyphens as underscores),
    looked up when `main` runs."""
    parser = argparse.ArgumentParser(
        prog="burch", description="Burch ideal and Burch ring decision procedures"
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    parser.add_argument("--modulus", type=int, default=None, help="override the session modulus")
    parser.add_argument("--timing", action="store_true", help="include wall-clock timing")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="Burch ideal test")
    p.add_argument("file")
    p.add_argument("ideal")
    p.add_argument("--route", choices=["definition", "all"], default="definition")

    p = sub.add_parser("invariants", help="invariant table of an ideal")
    p.add_argument("file")
    p.add_argument("ideal")

    p = sub.add_parser("resolve", help="Betti table, entry ideals, summand verdicts")
    p.add_argument("file")
    p.add_argument("module")
    p.add_argument("--length", type=int, default=6)
    p.add_argument("--ring", default=None, help="ideal presenting the quotient ring")

    p = sub.add_parser("syzygy-summand", help="does k split off omega^i M")
    p.add_argument("file")
    p.add_argument("module")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--ring", default=None)

    p = sub.add_parser("tor", help="Tor dimension table for two modules")
    p.add_argument("file")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--max-index", type=int, default=6)
    p.add_argument("--ring", default=None)

    p = sub.add_parser("mfull", help="search for an m-full witness")
    p.add_argument("file")
    p.add_argument("ideal")
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("cut", help="cut down by ring elements with regularity certificates")
    p.add_argument("file")
    p.add_argument("ideal")
    p.add_argument("--by", action="append", required=True, help="element (repeatable)")
    p.add_argument("--allow-nonlinear", action="store_true")

    p = sub.add_parser("fibre", help="Burch test for a fibre product of two artinian rings")
    p.add_argument("left_file")
    p.add_argument("left_ideal")
    p.add_argument("right_file")
    p.add_argument("right_ideal")

    p = sub.add_parser("sweep", help="oracle sweep over two-variable monomial ideals")
    p.add_argument("--max-socle-degree", type=int, default=3)
    p.add_argument("--checks", default=None, help="comma-separated subset of checks")

    p = sub.add_parser("corpus", help="run the worked-example regression corpus")
    p.add_argument("--only", default=None, help="run a single entry")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    command = globals()["cmd_" + args.subcommand.replace("-", "_")]
    try:
        report, exit_code = command(args)
        report.emit(args.json, time.monotonic() - start if args.timing else None)
        return exit_code
    except (SessionError, ParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
