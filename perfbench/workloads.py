"""The three benchmark workloads and their correctness oracles.

Each workload builds its inputs from the seed in its constructor (that is
set-up), exposes them as `items`, and runs one item with `run(item)`, which
returns (ok, output). `ok` is the workload's oracle; `output` is a canonical
text of everything the item computed, hashed into the run's output digest.
`key(item)` names an item independently of the order the seed gives it.

Why these three: `sweep` is bound by Groebner and polynomial arithmetic,
`tor` by dense linear algebra and resolutions, and `queries` is the CLI
question a user asks, with few large reductions of many-term polynomials.
An optimisation of one layer should move one workload and leave another
unchanged.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import random
from pathlib import Path

# Items call the library through its modules (`sweep.analyze_ideal`), never
# through names bound here, so that a traced run sees those calls too.
from burchlab import cli, resolution, sweep
from burchlab.artinian import QuotientAlgebra
from burchlab.burch import burch_ring_depth_zero
from burchlab.groebner import Ideal
from burchlab.monomial import enumerate_m_primary, staircase_burch_test
from burchlab.poly import RingContext, mono_divides, monomials_of_degree

PRIME = 32003


class Sweep:
    """All nine decision routes on every m-primary monomial ideal of k[x,y]
    up to a fixed socle degree; the seed only permutes the order."""

    name = "sweep"
    SOCLE_DEGREE = 4

    def __init__(self, seed: int, workdir: Path):
        ctx = RingContext(PRIME, ("x", "y"))
        ideals = list(enumerate_m_primary(ctx, self.SOCLE_DEGREE))
        self.warm_item = ideals[-1]
        random.Random(seed).shuffle(ideals)
        self.items = ideals
        self.params = {"prime": PRIME, "socle_degree": self.SOCLE_DEGREE, "ideals": len(ideals)}

    def key(self, mi) -> str:
        return repr(mi.gens)

    def run(self, mi) -> tuple[bool, str]:
        record = sweep.analyze_ideal(mi)
        return record.agree, json.dumps(dataclasses.asdict(record), sort_keys=True)


def _burch_rings(ctx: RingContext) -> list[QuotientAlgebra]:
    """The first enumerated Burch ideal of edim 2 of each length 3..6, plus
    the length-2 hypersurface: the five rings of the Tor-rigidity test."""
    targets: dict[int, object] = {3: None, 4: None, 5: None, 6: None}
    hyper = None
    for mi in enumerate_m_primary(ctx, 5):
        if not staircase_burch_test(mi):
            continue
        length = len(mi.standard_monomials())
        edim = sum(1 for g in mi.gens if sum(g) == 1)
        if edim == 0 and length in targets and targets[length] is None:
            targets[length] = mi
        if edim == 1 and length == 2 and hyper is None:
            hyper = mi
    chosen = [hyper] + [targets[n] for n in sorted(targets)]
    return [QuotientAlgebra(mi.to_ideal()) for mi in chosen if mi is not None]


class Tor:
    """tor_profile(R/J_M, R/J_N, L) over the five Burch rings, where J adds
    1-3 nonconstant standard monomials to the ring's ideal (the candidates
    the Tor-rigidity test samples from). Every candidate is an M twice; its
    two partners N come from seeded permutations of the same candidates, so
    the seed changes the pairs but not the mix of module sizes."""

    name = "tor"
    MAX_INDEX = 6
    PARTNERS = 2

    def __init__(self, seed: int, workdir: Path):
        self.ctx = RingContext(PRIME, ("x", "y"))
        self.rings = _burch_rings(self.ctx)
        if len(self.rings) != 5 or not all(burch_ring_depth_zero(R).burch for R in self.rings):
            raise RuntimeError("the Tor workload needs five Burch rings of depth zero")
        items = []
        for ri, R in enumerate(self.rings):
            proper = [m for m in R.basis if sum(m) >= 1]
            cands = [c for k in (1, 2, 3) for c in itertools.combinations(proper, k)]
            rng = random.Random(f"tor:{seed}:{ri}")
            for _ in range(self.PARTNERS):
                partners = cands[:]
                rng.shuffle(partners)
                items.extend((ri, a, b) for a, b in zip(cands, partners))
        last = len(self.rings) - 1
        first = next(it for it in items if it[0] == last)
        self.warm_item = (last, first[1], first[1])
        random.Random(seed).shuffle(items)
        self.items = items
        self.params = {"prime": PRIME, "max_index": self.MAX_INDEX, "rings": len(self.rings),
                       "pairs": len(items)}

    def key(self, item) -> str:
        return repr(item)

    def _cyclic(self, R: QuotientAlgebra, extra):
        J = R.ideal.sum(Ideal.make(self.ctx, [self.ctx.monomial(e) for e in extra]))
        return resolution.module_from_cyclic(R, J)

    def run(self, item) -> tuple[bool, str]:
        ri, a, b = item
        R = self.rings[ri]
        M, N = self._cyclic(R, a), self._cyclic(R, b)
        dims = resolution.tor_profile(M, N, self.MAX_INDEX)
        # Tor_0 = R/(J_M + J_N), whose basis is the standard monomials outside a and b
        tor0 = sum(1 for m in R.basis if not any(mono_divides(e, m) for e in a + b))
        # over a Burch ring no two consecutive Tor_l vanish for l >= 3
        rigid = not any(dims[l] == 0 and dims[l + 1] == 0 for l in range(3, self.MAX_INDEX))
        ok = dims[0] == tor0 and rigid and len(dims) == self.MAX_INDEX + 1
        return ok, json.dumps(dims)


def _dense_form(ctx: RingContext, degree: int, rng: random.Random) -> str:
    terms = []
    for exps in monomials_of_degree(ctx, degree):
        mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(ctx.variables, exps) if e)
        terms.append(f"{rng.randrange(1, ctx.p)}*{mono}")
    return " + ".join(terms)


def _session_text(ctx: RingContext, shape, rng: random.Random) -> str:
    (a, b, c), degrees = shape
    forms = [_dense_form(ctx, d, rng) for d in degrees]
    gens = ", ".join([f"x^{a}", f"y^{b}", f"z^{c}"] + forms)
    return f"ring {ctx.p} x y z\nideal I = {gens}\n"


class Queries:
    """`burch --json check F I --route all` then `burch --json invariants F I`,
    in-process, on session files written at set-up. Each ideal of k[x,y,z] is
    (x^a, y^b, z^c) with a, b, c in {2, 3}, plus 1-2 dense forms of degree
    2-3. The shapes are one fixed design; the seed draws every coefficient and
    the order, and generic coefficients make the work the same for every seed."""

    name = "queries"
    COUNT = 40

    def __init__(self, seed: int, workdir: Path):
        ctx = RingContext(PRIME, ("x", "y", "z"))
        design = random.Random("queries:shapes")
        shapes = [
            (
                tuple(design.choice((2, 3)) for _ in range(3)),
                tuple(design.choice((2, 3)) for _ in range(design.choice((1, 2)))),
            )
            for _ in range(self.COUNT)
        ]
        rng = random.Random(f"queries:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for i, shape in enumerate(shapes):
            path = workdir / f"q{i:02d}.session"
            path.write_text(_session_text(ctx, shape, rng))
            items.append(str(path))
        warm = workdir / "warm.session"
        warm.write_text(_session_text(ctx, ((3, 3, 3), (2,)), random.Random("queries:warm")))
        self.warm_item = str(warm)
        random.Random(seed).shuffle(items)
        self.items = items
        self.params = {"prime": PRIME, "queries": len(items)}

    def key(self, path) -> str:
        return Path(path).name

    def run(self, path) -> tuple[bool, str]:
        reports = []
        codes = []
        for argv in (["--json", "check", path, "I", "--route", "all"], ["--json", "invariants", path, "I"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(argv))
            reports.append(json.loads(out.getvalue()) if codes[-1] == 0 else None)
        if codes != [0, 0]:
            return False, json.dumps(codes)
        check, inv = reports
        for r in reports:
            del r["args"]["file"]  # the session path differs between runs
        ok = (
            check["verdicts"]["routes_agree"] is True
            and check["verdicts"]["burch"] == inv["verdicts"]["burch"]
            and check["invariants"] == inv["invariants"]
        )
        return ok, json.dumps(reports, sort_keys=True)


WORKLOADS = {w.name: w for w in (Sweep, Tor, Queries)}
