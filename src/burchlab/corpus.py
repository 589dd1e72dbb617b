"""Regression corpus: the worked examples that pin the library's behavior.

Every entry is characteristic-independent monomial/binomial data, so the
whole corpus can be rerun at a different prime and must produce identical
verdicts.  Entries return a list of (label, ok, detail) check rows; an entry
passes when every row passes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .artinian import fibre_product, find_exact_pairs, quotient_algebra
from .burch import (
    burch_ideal_test,
    burch_ring_depth_zero,
    cut_down,
    fibre_burch_test,
    gorenstein_burch_classifier,
)
from .groebner import Ideal, ideal_colon, max_ideal
from .monomial import MonomialIdeal
from .poly import RingContext, parse_polynomial
from .resolution import k_summand_test, residue_field


@dataclass
class CheckRow:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class CorpusEntry:
    name: str
    description: str
    run: Callable[[int], list[CheckRow]]


def _ideal(p: int, variables: tuple[str, ...], *gens: str) -> Ideal:
    ctx = RingContext(p, variables)
    return Ideal.make(ctx, [parse_polynomial(g, ctx) for g in gens])


def _row(label, got, expected) -> CheckRow:
    return CheckRow(label, got == expected, f"got {got!r}, expected {expected!r}")


def _dvr_powers(p: int) -> list[CheckRow]:
    rows = []
    for n in (1, 2, 3):
        I = _ideal(p, ("x",), f"x^{n}" if n > 1 else "x")
        rows.append(_row(f"(x^{n}) Burch in k[x]", burch_ideal_test(I, False).burch, True))
    return rows


def _m_times_ideal(p: int) -> list[CheckRow]:
    ctx = RingContext(p, ("x", "y"))
    I = Ideal.make(ctx, [parse_polynomial(g, ctx) for g in ("x^2", "y^3")])
    J = max_ideal(ctx).product(I)
    return [_row("mI Burch for I=(x^2,y^3)", burch_ideal_test(J, False).burch, True)]


def _max_ideal_powers(p: int) -> list[CheckRow]:
    ctx = RingContext(p, ("x", "y"))
    rows = []
    m = max_ideal(ctx)
    power = m
    for t in (1, 2, 3):
        rows.append(_row(f"m^{t} Burch", burch_ideal_test(power, False).burch, True))
        power = power.product(m)
    return rows


def _two_var_twelve(p: int) -> list[CheckRow]:
    I = _ideal(p, ("x", "y"), "x^4", "x^2*y^2", "y^4")
    R = quotient_algebra(I)
    rows = [_row("length", R.length, 12)]
    socle = sorted(str(f) for f in R.socle_polynomials())
    rows.append(_row("socle basis", socle, ["x*y^3", "x^3*y"]))
    res = residue_field(R).resolution(3)
    rows.append(_row("betti 0..3", tuple(res.betti[:4]), (1, 2, 4, 8)))
    s2 = k_summand_test(res.syzygy(2))
    s3 = k_summand_test(res.syzygy(3))
    rows.append(_row("omega2 splits", s2.splits, False))
    rows.append(_row("omega3 splits", s3.splits, True))
    if s3.splits:
        entries = [str(f) for f in s3.witness_entries]
        rows.append(_row("omega3 witness", entries, ["x^3*y", "0", "0", "0"]))
    rows.append(_row("Burch verdict", burch_ideal_test(I, False).burch, False))
    rows.append(_row("ring verdict", burch_ring_depth_zero(R).burch, False))
    return rows


def _colon_three_vars(p: int) -> list[CheckRow]:
    ctx = RingContext(p, ("x", "y", "z"))
    I = Ideal.make(
        ctx, [parse_polynomial(g, ctx) for g in ("x^4", "y^4", "z^4", "x^2*y", "y^2*z", "z^2*x")]
    )
    J = ideal_colon(I, max_ideal(ctx))
    got = sorted(str(g) for g in MonomialIdeal.from_ideal(Ideal.make(ctx, J.groebner())).to_ideal().gens)
    expected = sorted(
        str(parse_polynomial(s, ctx))
        for s in ("x^4", "x^3*z", "x^2*y", "x*y^3", "x*y*z", "x*z^2", "y^4", "y^2*z", "y*z^3", "z^4")
    )
    rows = [_row("(I:m) minimal generators", got, expected)]
    rows.append(_row("(I:m)^2 != I(I:m)", J.product(J) != I.product(J), True))
    rows.append(_row("I not Burch", burch_ideal_test(I, False).burch, False))
    return rows


def _colon_two_vars(p: int) -> list[CheckRow]:
    ctx = RingContext(p, ("x", "y"))
    I = Ideal.make(ctx, [parse_polynomial(g, ctx) for g in ("x^4", "y^4", "x^3*y", "x*y^3")])
    J = ideal_colon(I, max_ideal(ctx))
    expected = Ideal.make(ctx, [parse_polynomial(g, ctx) for g in ("x^3", "x^2*y^2", "y^3")])
    rows = [_row("(I:m) = (x^3, x^2y^2, y^3)", J == expected, True)]
    # x^6 = x^3 · x^3 has degree 6 while I(I:m) lives in degree >= 7, so the
    # colon square is strictly larger here
    rows.append(_row("(I:m)^2 != I(I:m)", J.product(J) != I.product(J), True))
    rows.append(_row("I Burch", burch_ideal_test(I, False).burch, True))
    # the colon ideal itself is a Burch ideal whose colon square collapses:
    # Burchness does not force the strict inequality
    K = expected
    JK = ideal_colon(K, max_ideal(ctx))
    rows.append(_row("(x^3,x^2y^2,y^3) Burch", burch_ideal_test(K, False).burch, True))
    rows.append(_row("(K:m)^2 = K(K:m)", JK.product(JK) == K.product(JK), True))
    return rows


def _determinantal_cuts(p: int) -> list[CheckRow]:
    ctx = RingContext(p, ("x", "y", "z"))
    minors = ("x^2*z^2 - y^2", "x^4 - y*z^2", "x^2*y - z^4")
    I = Ideal.make(ctx, [parse_polynomial(g, ctx) for g in minors])
    rows = []
    cut_x = cut_down(I, [parse_polynomial("x", ctx)])
    rows.append(_row("x is regular", cut_x.all_regular, True))
    expected_x = Ideal.make(
        cut_x.ideal.ctx, [parse_polynomial(g, cut_x.ideal.ctx) for g in ("y^2", "y*z^2", "z^4")]
    )
    rows.append(_row("R/(x) = k[y,z]/(y^2,yz^2,z^4)", cut_x.ideal == expected_x, True))
    rows.append(
        _row("R/(x) Burch", burch_ring_depth_zero(quotient_algebra(cut_x.ideal)).burch, True)
    )
    cut_y = cut_down(I, [parse_polynomial("y", ctx)])
    rows.append(_row("y is regular", cut_y.all_regular, True))
    expected_y = Ideal.make(
        cut_y.ideal.ctx, [parse_polynomial(g, cut_y.ideal.ctx) for g in ("x^4", "x^2*z^2", "z^4")]
    )
    rows.append(_row("R/(y) = k[x,z]/(x^4,x^2z^2,z^4)", cut_y.ideal == expected_y, True))
    rows.append(
        _row("R/(y) not Burch", burch_ring_depth_zero(quotient_algebra(cut_y.ideal)).burch, False)
    )
    return rows


def _fibre_axes(p: int) -> list[CheckRow]:
    rows = []
    for a, b in ((2, 2), (2, 3), (3, 4)):
        I = _ideal(p, ("x", "y"), f"x^{a}", "x*y", f"y^{b}")
        rows.append(
            _row(f"k[x,y]/(x^{a},xy,y^{b}) Burch", burch_ring_depth_zero(quotient_algebra(I)).burch, True)
        )
        RS = quotient_algebra(_ideal(p, ("x",), f"x^{a}"))
        RT = quotient_algebra(_ideal(p, ("y",), f"y^{b}"))
        pres = fibre_product(RS, RT)
        rows.append(_row(f"fibre presentation a={a} b={b}", pres.ideal == I, True))
        rows.append(_row(f"fibre criterion a={a} b={b}", fibre_burch_test(RS, RT).burch, True))
    return rows


def _flat_ascent(p: int) -> list[CheckRow]:
    R = quotient_algebra(_ideal(p, ("x", "y", "t"), "x^2", "x*y", "y^2", "t^2"))
    pairs = find_exact_pairs(R)
    has_tt = any(str(pr.a) == "t" and str(pr.b) == "t" for pr in pairs)
    rows = [_row("(t,t) is an exact pair", has_tt, True)]
    rows.append(_row("ring not Burch", burch_ring_depth_zero(R).burch, False))
    return rows


def _gorenstein_hypersurfaces(p: int) -> list[CheckRow]:
    rows = []
    for r in range(1, 6):
        I = _ideal(p, ("x", "y"), f"x^{r}" if r > 1 else "x", "y")
        rep = gorenstein_burch_classifier(I)
        ok = rep.gorenstein and rep.burch and rep.edim <= 1 and rep.hypersurface_exponent == r
        rows.append(CheckRow(f"(x^{r}, y) Gorenstein Burch with r={r}", ok, repr(rep)))
    return rows


def _embedded_deformations(p: int) -> list[CheckRow]:
    rows = []
    cases = [
        (("x", "y"), ("y^2 - x^3",), "x^2"),
        (("x", "y"), ("y^2 - x^3",), "x^3"),
        (("x", "y", "z"), ("x*z - y^2", "x^3 - y*z", "x^2*y - z^2"), "y^2"),
    ]
    for variables, gens, elem in cases:
        ctx = RingContext(p, variables)
        I = Ideal.make(ctx, [parse_polynomial(g, ctx) for g in gens])
        cut = cut_down(I, [parse_polynomial(elem, ctx)], allow_nonlinear=True)
        verdict = burch_ring_depth_zero(quotient_algebra(cut.ideal)).burch
        rows.append(
            _row(f"cut of ({', '.join(gens)}) by {elem} in m^2 not Burch", verdict, False)
        )
    return rows


def _minimal_multiplicity(p: int) -> list[CheckRow]:
    rows = []
    for variables in (("x", "y"), ("x", "y", "z")):
        ctx = RingContext(p, variables)
        m = max_ideal(ctx)
        I = m.product(m)
        rows.append(
            _row(
                f"m^2 = 0 quotient in {len(variables)} vars Burch",
                burch_ring_depth_zero(quotient_algebra(I)).burch,
                True,
            )
        )
    return rows


def _hypersurface_pair(p: int) -> list[CheckRow]:
    R = quotient_algebra(_ideal(p, ("x",), "x^4"))
    pairs = find_exact_pairs(R)
    has = any({str(pr.a), str(pr.b)} == {"x", "x^3"} for pr in pairs)
    rows = [_row("(x, x^3) exact pair over k[x]/(x^4)", has, True)]
    rows.append(_row("k[x]/(x^4) Burch (hypersurface)", burch_ring_depth_zero(R).burch, True))
    return rows


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry("dvr_powers", "powers of the uniformizer in a DVR are Burch", _dvr_powers),
    CorpusEntry("m_times_ideal", "m·I is always Burch", _m_times_ideal),
    CorpusEntry("max_ideal_powers", "powers of the maximal ideal are Burch", _max_ideal_powers),
    CorpusEntry("r8", "length-12 ring where k splits off the third syzygy only", _two_var_twelve),
    CorpusEntry("t63_three_vars", "three-variable socle-colon example", _colon_three_vars),
    CorpusEntry("t63_two_vars", "two-variable Burch ideal with equal colon squares", _colon_two_vars),
    CorpusEntry("e44", "cut-down direction changes the Burch verdict", _determinantal_cuts),
    CorpusEntry("fibre_axes", "coordinate-axes rings are Burch fibre products", _fibre_axes),
    CorpusEntry("flat_ascent", "exact pair (t,t); flat extension is not Burch", _flat_ascent),
    CorpusEntry("gorenstein", "Gorenstein Burch quotients are hypersurfaces", _gorenstein_hypersurfaces),
    CorpusEntry("embedded_deformation", "cuts inside m^2 never give Burch quotients", _embedded_deformations),
    CorpusEntry("minimal_multiplicity", "m^2 = 0 rings are Burch", _minimal_multiplicity),
    CorpusEntry("hypersurface_pair", "exact pair and Burchness of k[x]/(x^4)", _hypersurface_pair),
)


def run_corpus(p: int = 32003, only: str | None = None):
    """Run the corpus; returns (all_ok, {entry: rows})."""
    results = {}
    ok = True
    for entry in ENTRIES:
        if only is not None and entry.name != only:
            continue
        rows = entry.run(p)
        results[entry.name] = rows
        ok = ok and all(r.ok for r in rows)
    if only is not None and not results:
        raise ValueError(f"no corpus entry named {only!r}")
    return ok, results
