"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The tolerances are exact equalities (the arithmetic is exact) plus the stated
wall-clock budgets.  Criterion 2 keeps one sub-assertion in a separate test
(test_criterion_2_colon_square_identity_as_stated) that is expected to be red:
the asserted identity contradicts the printed colon generators on degree
grounds; see notes outside the package for the analysis.
"""
import hashlib
import random
import time
from math import comb

import pytest

from burchlab import cli
from burchlab.artinian import QuotientAlgebra, fibre_product, find_exact_pairs
from burchlab.burch import (
    burch_ideal_test,
    burch_invariant,
    burch_ring_depth_zero,
    cut_down,
    fibre_burch_test,
    gorenstein_burch_classifier,
)
from burchlab.groebner import Ideal, ideal_colon, max_ideal
from burchlab.monomial import MonomialIdeal, enumerate_m_primary, staircase_burch_test
from burchlab.poly import RingContext, parse_polynomial
from burchlab.resolution import (
    k_summand_test,
    koszul_h1,
    module_from_cyclic,
    residue_field,
    tor_profile,
)
from burchlab.sweep import run_sweep

P = 32003
CTX = RingContext(P, ("x", "y"))
CTX3 = RingContext(P, ("x", "y", "z"))


def ideal(ctx, *gens):
    return Ideal.make(ctx, [parse_polynomial(g, ctx) for g in gens])


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def sweep5():
    start = time.monotonic()
    result = run_sweep(5)
    result.elapsed = time.monotonic() - start
    return result


def test_criterion_1_twelve_dim_regression():
    start = time.monotonic()
    I = ideal(CTX, "x^4", "x^2*y^2", "y^4")
    R = QuotientAlgebra(I)
    res = residue_field(R).resolution(3)
    checks = []
    checks.append(res.betti[:4] == [1, 2, 4, 8])
    checks.append(sorted(str(f) for f in R.socle_polynomials()) == ["x*y^3", "x^3*y"])
    checks.append(k_summand_test(res.syzygy(2)).splits is False)
    v3 = k_summand_test(res.syzygy(3))
    checks.append(v3.splits is True)
    # witness t(x^3*y, 0, 0, 0) up to unit
    entries = [f.monic() if not f.is_zero else f for f in v3.witness_entries]
    checks.append([str(f) for f in entries] == ["x^3*y", "0", "0", "0"])
    checks.append(burch_ideal_test(I, with_invariants=False).burch is False)
    elapsed = time.monotonic() - start
    checks.append(elapsed < 5.0)
    report("1", all(checks), f"betti/socle/syzygy/witness/verdict, {elapsed:.2f}s")


def test_criterion_2_colon_regressions():
    start = time.monotonic()
    I3 = ideal(CTX3, "x^4", "y^4", "z^4", "x^2*y", "y^2*z", "z^2*x")
    J3 = ideal_colon(I3, max_ideal(CTX3))
    expected = ideal(
        CTX3, "x^4", "x^3*z", "x^2*y", "x*y^3", "x*y*z", "x*z^2", "y^4", "y^2*z", "y*z^3", "z^4"
    )
    checks = []
    checks.append(J3 == expected)
    # minimal-generator normalization agrees as well
    norm = MonomialIdeal.from_ideal(Ideal.make(CTX3, J3.groebner()))
    checks.append(norm == MonomialIdeal.from_ideal(expected))
    checks.append(J3.product(J3) != I3.product(J3))
    I2 = ideal(CTX, "x^4", "y^4", "x^3*y", "x*y^3")
    J2 = ideal_colon(I2, max_ideal(CTX))
    checks.append(J2 == ideal(CTX, "x^3", "x^2*y^2", "y^3"))
    checks.append(burch_ideal_test(I2, with_invariants=False).burch is True)
    elapsed = time.monotonic() - start
    checks.append(elapsed < 10.0)
    report("2", all(checks), f"colon lists and verdicts, {elapsed:.2f}s")


def test_criterion_2_colon_square_identity_as_stated():
    # Required identity: (I:m)^2 = I(I:m) for I = (x^4, y^4, x^3y, xy^3).
    # It cannot hold: x^3 lies in the colon, so x^6 lies in the square with
    # degree 6, while I(I:m) sits in degrees >= 7.  The assertion is kept
    # as required and is red by design; the corpus entry t63_two_vars pins
    # the computed truth (strict inequality, plus the companion ideal
    # (x^3, x^2y^2, y^3) which is Burch *with* equality).
    I2 = ideal(CTX, "x^4", "y^4", "x^3*y", "x*y^3")
    J2 = ideal_colon(I2, max_ideal(CTX))
    equal = J2.product(J2) == I2.product(J2)
    print(f"ACCEPTANCE 2(square identity as stated): {'PASS' if equal else 'FAIL'} "
          "(identity is false on degree grounds; red by design)")
    assert equal, "(I:m)^2 = I(I:m) fails for I=(x^4,y^4,x^3y,xy^3); x^6 witnesses the gap"


def test_criterion_3_equivalence_sweep(sweep5):
    checks = [
        sweep5.count == 428,
        len(sweep5.counterexamples) == 0,
        sweep5.elapsed < 300.0,
    ]
    report("3", all(checks), f"{sweep5.count} ideals, {len(sweep5.counterexamples)} disagreements, {sweep5.elapsed:.1f}s")


SWEEP6_SHA256 = "b1c91f2b4747802e1b9eec9b9921b8546adba97ae2f81f62eb4d253377ee2c94"


def test_criterion_3_equivalence_sweep_to_socle_degree_six(monkeypatch, capsys):
    """The d <= 6 sweep through `burch --json sweep`, inside the budget of
    criterion 3: 1429 ideals, every route agreeing, 1393 of them Burch,
    and the SHA-256 of the report pinned."""
    results = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kw: results.append(run_sweep(*args, **kw)) or results[-1])
    start = time.monotonic()
    code = cli.main(["--json", "sweep", "--max-socle-degree", "6"])
    elapsed = time.monotonic() - start
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    (result,) = results
    burch = sum(r.burch for r in result.records)
    checks = [
        code == cli.EXIT_OK,
        result.count == 1429,
        len(result.counterexamples) == 0,
        burch == 1393,
        digest == SWEEP6_SHA256,
        elapsed < 300.0,
    ]
    detail = f"{result.count} ideals, {len(result.counterexamples)} disagreements, {burch} Burch, {elapsed:.1f}s"
    report("3 (d = 6)", all(checks), f"{detail}, report {digest[:16]}")


def test_criterion_4_choi_consistency(sweep5):
    bad_choi = [r.staircase for r in sweep5.records if r.choi != r.c_invariant]
    bad_koszul = [
        r.staircase for r in sweep5.records if r.h1_koszul != r.beta2 - comb(r.edim, 2)
    ]
    ok = not bad_choi and not bad_koszul
    report("4", ok, f"choi defects {bad_choi[:3]}, koszul defects {bad_koszul[:3]}")


def test_criterion_5_cut_down_regression():
    start = time.monotonic()
    I = ideal(CTX3, "x^2*z^2 - y^2", "x^4 - y*z^2", "x^2*y - z^4")
    checks = []
    cut_x = cut_down(I, [parse_polynomial("x", CTX3)])
    checks.append(cut_x.all_regular)
    ctx_yz = cut_x.ideal.ctx
    checks.append(cut_x.ideal == Ideal.make(ctx_yz, [parse_polynomial(s, ctx_yz) for s in ("y^2", "y*z^2", "z^4")]))
    checks.append(burch_ring_depth_zero(QuotientAlgebra(cut_x.ideal)).burch is True)
    cut_y = cut_down(I, [parse_polynomial("y", CTX3)])
    checks.append(cut_y.all_regular)
    checks.append(burch_ring_depth_zero(QuotientAlgebra(cut_y.ideal)).burch is False)
    elapsed = time.monotonic() - start
    checks.append(elapsed < 10.0)
    report("5", all(checks), f"both cut directions certified, {elapsed:.2f}s")


def test_criterion_6_fibre_product_suite():
    start = time.monotonic()
    rng = random.Random(0)
    left_pool = [
        mi for mi in enumerate_m_primary(CTX, 3)
        if mi.gens != ((0, 1), (1, 0)) and len(mi.standard_monomials()) <= 12
    ]
    cuv = RingContext(P, ("u", "v"))
    right_pool = [
        mi for mi in enumerate_m_primary(cuv, 3)
        if mi.gens != ((0, 1), (1, 0)) and len(mi.standard_monomials()) <= 12
    ]
    failures = []
    for trial in range(20):
        RS = QuotientAlgebra(rng.choice(left_pool).to_ideal())
        RT = QuotientAlgebra(rng.choice(right_pool).to_ideal())
        pres = fibre_product(RS, RT)
        R = QuotientAlgebra(pres.ideal)
        idents = [
            R.edim == RS.edim + RT.edim,
            R.socle_dim == RS.socle_dim + RT.socle_dim,
            koszul_h1(R) == koszul_h1(RS) + koszul_h1(RT) + RS.edim * RT.edim,
            burch_invariant(R)
            == burch_invariant(RS)
            + burch_invariant(RT)
            + RS.edim * RT.edim
            - RS.quotient_by_socle().edim * RT.quotient_by_socle().edim,
        ]
        verdict = fibre_burch_test(RS, RT, direct=False)
        idents.append(verdict.burch == burch_ring_depth_zero(R).burch)
        if not all(idents):
            failures.append((RS.ideal.gens, RT.ideal.gens, idents))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    report("6", ok, f"20 random pairs, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_7_cube_zero_suite(sweep5):
    bad = [
        r.staircase
        for r in sweep5.records
        if r.cube_zero and r.cube_verdict != r.burch
    ]
    spot1 = QuotientAlgebra(ideal(CTX, "x^2", "x*y", "y^2"))
    spot2 = QuotientAlgebra(ideal(CTX, "x^2", "y^2"))
    res1 = residue_field(spot1).resolution(2)
    res2 = residue_field(spot2).resolution(2)
    checks = [not bad, res1.betti[2] == 4, res2.betti[2] == 3]
    report("7", all(checks), f"cube-zero agreement defects {bad[:3]}; beta2 spots {res1.betti[2]},{res2.betti[2]}")


def _burch_ring_sample():
    """First enumerated Burch ideal of each target length with edim 2,
    plus the smallest hypersurface-style one."""
    targets = {3: None, 4: None, 5: None, 6: None}
    hyper = None
    for mi in enumerate_m_primary(CTX, 5):
        if not staircase_burch_test(mi):
            continue
        length = len(mi.standard_monomials())
        edim = sum(1 for g in mi.gens if sum(g) == 1)
        if edim == 0 and length in targets and targets[length] is None:
            targets[length] = mi
        if edim == 1 and length == 2 and hyper is None:
            hyper = mi
    rings = [hyper] + [targets[n] for n in sorted(targets)]
    return [QuotientAlgebra(mi.to_ideal()) for mi in rings if mi is not None][:5]


def test_criterion_8_tor_vanishing():
    start = time.monotonic()
    rings = _burch_ring_sample()
    assert len(rings) == 5
    violations = []
    for R in rings:
        assert burch_ring_depth_zero(R).burch
        rng = random.Random(R.length)
        proper = [m for m in R.basis if sum(m) >= 1]
        modules = {}

        def sample_module():
            extra = tuple(sorted(rng.sample(proper, rng.randrange(1, min(3, len(proper)) + 1))))
            if extra not in modules:
                J = R.ideal.sum(Ideal.make(CTX, [CTX.monomial(e) for e in extra]))
                modules[extra] = module_from_cyclic(R, J)
            return modules[extra]

        for _ in range(10):
            M, N = sample_module(), sample_module()
            assert not M.is_free() and not N.is_free()
            dims = tor_profile(M, N, 9)
            for l in range(3, 9):
                if dims[l] == 0 and dims[l + 1] == 0:
                    violations.append((R.ideal.gens, M.label, N.label, l))
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 300.0
    report("8", ok, f"5 rings x 10 pairs, {len(violations)} double-vanishings, {elapsed:.1f}s")


# Betti numbers to length 6 and a SHA-256 prefix of ∂_1..∂_6 (each as its
# shape, then its little-endian int64 entries) of k and R/(x) over the rings
# of test_criterion_8, recorded before the resolution code was vectorized
RESOLUTION_FIXTURE = {
    ("y", "x^2"): {
        "k": ((1, 1, 1, 1, 1, 1, 1), "09697aaaf0761c40"),
        "x": ((1, 1, 1, 1, 1, 1, 1), "09697aaaf0761c40"),
    },
    ("y^2", "x*y", "x^2"): {
        "k": ((1, 2, 4, 8, 16, 32, 64), "eab094b8f079436f"),
        "x": ((1, 1, 2, 4, 8, 16, 32), "e5ddd598ffb386f0"),
    },
    ("y^2", "x*y", "x^3"): {
        "k": ((1, 2, 4, 8, 16, 32, 64), "2b475f1aa1be244f"),
        "x": ((1, 1, 2, 4, 8, 16, 32), "4db5fb4266996622"),
    },
    ("y^2", "x*y", "x^4"): {
        "k": ((1, 2, 4, 8, 16, 32, 64), "e37bb1f5e0591e0e"),
        "x": ((1, 1, 2, 4, 8, 16, 32), "ed8a8139ff9f6fed"),
    },
    ("y^2", "x*y", "x^5"): {
        "k": ((1, 2, 4, 8, 16, 32, 64), "6a251ab85f0d75e0"),
        "x": ((1, 1, 2, 4, 8, 16, 32), "0d64dba716473bf7"),
    },
}


def test_tor_rings_resolutions_match_fixture():
    found = {}
    for R in _burch_ring_sample():
        modules = {"k": residue_field(R), "x": module_from_cyclic(R, R.ideal.sum(ideal(CTX, "x")))}
        for name, M in modules.items():
            res = M.resolution(6)
            h = hashlib.sha256()
            for i in range(1, 7):
                h.update(repr(res.matrix(i).shape).encode())
                h.update(res.matrix(i).astype("<i8").tobytes())
            gens = tuple(str(g) for g in R.ideal.gens)
            found.setdefault(gens, {})[name] = (tuple(res.betti[:7]), h.hexdigest()[:16])
    assert found == RESOLUTION_FIXTURE


def test_criterion_9_exact_pair_regression():
    ctx = RingContext(P, ("x", "y", "t"))
    R = QuotientAlgebra(ideal(ctx, "x^2", "x*y", "y^2", "t^2"))
    pairs = find_exact_pairs(R)
    has_tt = any(str(p.a) == "t" and str(p.b) == "t" for p in pairs)
    not_burch = not burch_ring_depth_zero(R).burch
    report("9", has_tt and not_burch, f"(t,t) found={has_tt}, not Burch={not_burch}")


def test_criterion_10_gorenstein_classification(sweep5):
    bad = [
        r.staircase
        for r in sweep5.records
        if r.gorenstein and r.burch and r.edim > 1
    ]
    instances = []
    for r in range(1, 6):
        I = ideal(CTX, f"x^{r}" if r > 1 else "x", "y")
        rep = gorenstein_burch_classifier(I)
        instances.append(rep.burch and rep.gorenstein and rep.edim <= 1)
    ok = not bad and all(instances)
    report("10", ok, f"sweep defects {bad[:3]}; (x^r,y) verdicts {instances}")
