import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import burchlab.burch as burch_module
from burchlab import linalg
from burchlab.artinian import QuotientAlgebra, fibre_product, quotient_algebra
from burchlab.burch import (
    burch_criteria_crosscheck,
    burch_ideal_test,
    burch_invariant,
    burch_ring_depth_zero,
    choi_invariant,
    cube_zero_test,
    cut_down,
    depth_zero_ideal,
    fibre_burch_test,
    gorenstein_burch_classifier,
    mu_growth_test,
    m_full_test,
    cyclic_summand_condition,
    weakly_m_full_test,
)
from burchlab.corpus import run_corpus
from burchlab.groebner import Ideal, PreconditionError, max_ideal, max_ideal_product
from burchlab.monomial import enumerate_m_primary
from burchlab.poly import Polynomial, RingContext, monomials_of_degree, parse_polynomial
from test_cli import NONHOMOGENEOUS_REPORT_SHA256

P = 32003
CTX = RingContext(P, ("x", "y"))
CX = RingContext(P, ("x",))
CTX3 = RingContext(P, ("x", "y", "z"))


def ideal(ctx, *gens):
    return Ideal.make(ctx, [parse_polynomial(g, ctx) for g in gens])


def poly(s, ctx=CTX):
    return parse_polynomial(s, ctx)


R8 = ideal(CTX, "x^4", "x^2*y^2", "y^4")
M2 = ideal(CTX, "x^2", "x*y", "y^2")
DENSE3 = ("x^3", "y^2", "z^3", "2*x^2 + 9*x*y + 4*y*z + 8*z^2")


# -- definition test -------------------------------------------------------------


def test_burch_dvr_power():
    rep = burch_ideal_test(ideal(CX, "x^3"))
    assert rep.burch and rep.depth_zero


def test_burch_r8_negative():
    assert not burch_ideal_test(R8, with_invariants=False).burch


def test_burch_three_variable_negative():
    I = ideal(CTX3, "x^4", "y^4", "z^4", "x^2*y", "y^2*z", "z^2*x")
    assert not burch_ideal_test(I, with_invariants=False).burch


def test_burch_witness_is_valid():
    rep = burch_ideal_test(M2)
    assert rep.burch
    m = max_ideal(CTX)
    mI = m.product(M2)
    assert not mI.contains(rep.witness_product)
    assert m.product(ideal_colon_cached(M2)).contains(rep.witness_product)


def ideal_colon_cached(I):
    from burchlab.groebner import ideal_colon

    return ideal_colon(I, max_ideal(I.ctx))


def test_burch_zero_ideal_rejected():
    with pytest.raises(PreconditionError):
        burch_ideal_test(Ideal.make(CTX, ()))


def test_burch_requires_generators_in_m():
    with pytest.raises(PreconditionError):
        burch_ideal_test(ideal(CTX, "x + 1"))


def test_report_invariant_table():
    rep = burch_ideal_test(R8)
    assert rep.invariants["length"] == 12
    assert rep.invariants["mu_I"] == 3
    assert rep.invariants["mu_mI"] == 6
    assert rep.invariants["hilbert"] == (1, 2, 3, 4, 2)


def test_depth_zero_detection():
    assert depth_zero_ideal(R8)
    assert not depth_zero_ideal(ideal(CTX, "x^3"))


# -- crosscheck ------------------------------------------------------------------


def test_crosscheck_all_true_for_m_squared():
    cc = burch_criteria_crosscheck(M2)
    assert cc.agree and all(v for v in cc.verdicts.values())


def test_crosscheck_all_false_for_r8():
    cc = burch_criteria_crosscheck(R8)
    assert cc.agree and not any(v for v in cc.verdicts.values())


def test_crosscheck_skips_length_routes_when_not_m_primary():
    cc = burch_criteria_crosscheck(ideal(CTX, "x^3"))
    assert cc.verdicts["socle_action"] is None
    assert cc.verdicts["type_count"] is None
    assert cc.verdicts["definition"] is False
    assert cc.agree


@pytest.mark.parametrize(
    "ctx, gens", [(CTX, ("x^4", "x^2*y^2", "y^4")), (CTX3, ("x^2", "y^2", "z^2", "x*y + 3*y*z"))]
)
def test_crosscheck_makes_one_elimination_colon(monkeypatch, ctx, gens):
    """On an m-primary ideal in n variables only (I : m) is eliminated, by
    a chain of n steps, one elimination each.  (mI : m) is read off the
    socle of S/mI."""
    from burchlab import groebner

    calls = []
    real = groebner.ideal_intersection
    monkeypatch.setattr(groebner, "ideal_intersection", lambda I, J: calls.append(1) or real(I, J))
    burch_criteria_crosscheck(ideal(ctx, *gens))
    assert len(calls) == ctx.nvars


@pytest.mark.parametrize(
    "ctx, gens", [(CTX, ("x^2", "x*y", "y^2")), (CTX3, ("x^2", "y^2", "z^2", "x*y + 3*y*z")), (CTX, ("x^3",))]
)
def test_colon_residues_are_reduced_once_per_ideal(monkeypatch, ctx, gens):
    """The witness, the socle-action route and Choi's invariant read one
    table of NF(x_v·g, G_mI): each product is reduced once, and the witness
    is its first nonzero entry in (generator, variable) order."""
    import burchlab.burch as burch

    I = ideal(ctx, *gens)
    J = burch.ideal_colon(I, max_ideal(ctx))
    mI = burch.max_ideal_product(I)
    calls = []
    real = burch.normal_form
    monkeypatch.setattr(burch, "normal_form", lambda f, reducers: calls.append(f) or real(f, reducers))
    rep = burch_ideal_test(I)
    burch_criteria_crosscheck(I)
    choi_invariant(I)
    products = [ctx.variable(v) * g for g in J.gens for v in range(ctx.nvars)]
    assert calls == products
    outside = [f for f in products if not mI.contains(f)]
    assert rep.burch == bool(outside)
    assert rep.witness_product == (outside[0] if outside else None)


def _residue_table(I, J):
    """The nonzero NF(x_v·g, G_mI) for g in J's reduced basis and v in
    variable order, from J as given."""
    ctx = I.ctx
    reducers = burch_module.max_ideal_product(I).reducers()
    table = []
    for g in J.groebner():
        for v in range(ctx.nvars):
            r = burch_module.normal_form(ctx.variable(v) * g, reducers)
            if not r.is_zero:
                table.append((g, v, r))
    return table


def _assert_socle_colon_matches_elimination(I):
    """(I : m) read off the socle of S/I has the reduced basis of the
    elimination colon, and the residue table `_colon_residues` builds from
    it is the one the elimination colon gives."""
    I = Ideal.make(I.ctx, I.gens)  # nothing cached
    J_socle = quotient_algebra(I).socle_colon
    J_elim = burch_module.ideal_colon(I, max_ideal(I.ctx))
    assert J_socle.groebner() == J_elim.groebner()
    assert burch_module._colon_residues(I) == _residue_table(I, J_elim) == _residue_table(I, J_socle)


def test_socle_colon_matches_elimination_on_the_sweep():
    for mi in enumerate_m_primary(CTX, 4):
        _assert_socle_colon_matches_elimination(mi.to_ideal())


def test_socle_colon_matches_elimination_on_the_corpus(monkeypatch):
    """Every m-primary ideal whose colon by m the corpus asks for."""
    seen = []
    real = burch_module._colon_by_m
    monkeypatch.setattr(burch_module, "_colon_by_m", lambda I: seen.append(I) or real(I))
    assert run_corpus()[0]
    monkeypatch.undo()
    primary = {(I.ctx.p, I.ctx.variables, I.groebner()): I for I in seen if I.is_m_primary()}
    assert len(primary) >= 10
    for I in primary.values():
        _assert_socle_colon_matches_elimination(I)


@st.composite
def query_ideals(draw):
    """(x^a, y^b, z^c) plus one or two dense forms of degree 2 or 3 in
    k[x,y,z], the shape of the `queries` benchmark's ideals."""
    a, b, c = (draw(st.integers(2, 3)) for _ in range(3))
    gens = [CTX3.monomial((a, 0, 0)), CTX3.monomial((0, b, 0)), CTX3.monomial((0, 0, c))]
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(2, 3))
        monomials = monomials_of_degree(CTX3, degree)
        coeffs = draw(st.lists(st.integers(1, P - 1), min_size=len(monomials), max_size=len(monomials)))
        gens.append(Polynomial.from_dict(CTX3, dict(zip(monomials, coeffs))))
    return Ideal.make(CTX3, gens)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(query_ideals())
def test_socle_colon_matches_elimination_on_query_ideals(I):
    _assert_socle_colon_matches_elimination(I)


@pytest.mark.parametrize(
    "ctx, gens", [(CTX, ("x^4", "x^2*y^2", "y^4")), (CTX3, ("x^2", "y^2", "z^2", "x*y + 3*y*z"))]
)
def test_decision_layer_takes_no_elimination_on_m_primary_input(monkeypatch, ctx, gens):
    """The ideal test, Choi's invariant, depth zero and weak m-fullness read
    (I : m) and (mI : m) off socles, and build no basis of m(I : m)."""
    from burchlab import groebner

    def refuse(*args):
        raise AssertionError("elimination started")

    monkeypatch.setattr(groebner, "ideal_intersection", refuse)
    I = ideal(ctx, *gens)
    J = quotient_algebra(I).socle_colon
    burch_ideal_test(I)
    choi_invariant(I)
    depth_zero_ideal(I)
    weakly_m_full_test(I)
    assert "m_product" not in J._cache


# An ideal of infinite colength need not be local: (x^2 - x) also vanishes at
# x = 1.  (I:m)/I and m(I:m)/mI are supported at m alone, since (I:m)_P = I_P
# at every prime P != m, so the verdicts computed in S are those of the
# localization at m, presented here by the ideal on the right.
NONLOCAL_PAIRS = [
    (("x^2 - x",), ("x",), False, False, 0),
    (("x^2*(y - 1)", "x*y^2*(y - 1)", "x^3"), ("x^2", "x*y^2"), True, True, 1),
]


@pytest.mark.parametrize("nonlocal_gens, local_gens, burch, depth0, choi", NONLOCAL_PAIRS)
def test_nonlocal_ideal_gets_the_verdicts_of_its_localization(nonlocal_gens, local_gens, burch, depth0, choi):
    for gens in (nonlocal_gens, local_gens):
        I = ideal(CTX, *gens)
        rep = burch_ideal_test(I)
        assert (rep.burch, rep.depth_zero, rep.invariants["choi_invariant"]) == (burch, depth0, choi)
        assert depth_zero_ideal(I) == depth0
        cross = burch_criteria_crosscheck(I)
        assert cross.agree and cross.burch == burch


# -- fullness --------------------------------------------------------------------


def test_weakly_m_full():
    assert weakly_m_full_test(ideal(CTX, "x^2", "x*y", "y^2"))
    assert weakly_m_full_test(ideal(CTX, "x^3"))  # depth > 0, so not Burch anyway
    assert not weakly_m_full_test(R8)


def test_m_full_certified_witness():
    res = m_full_test(M2, trials=2)
    assert res.m_full and str(res.witness) in ("x", "y")
    assert m_full_test(ideal(CTX, "x^3", "y"), trials=2).m_full


def test_m_full_no_witness_found():
    res = m_full_test(R8, trials=5, seed=1)
    assert not res.m_full and res.witness is None


def test_m_full_implies_weakly_m_full_on_samples():
    for gens in [("x^2", "x*y", "y^2"), ("x^3", "y"), ("x^4", "x^2*y^2", "y^4")]:
        I = ideal(CTX, *gens)
        if m_full_test(I, trials=4).m_full:
            assert weakly_m_full_test(I)


# -- invariants ------------------------------------------------------------------


def test_choi_values():
    assert choi_invariant(M2) == 3
    assert choi_invariant(R8) == 0
    assert choi_invariant(ideal(CX, "x^3")) == 1


def test_c_invariant_values():
    assert burch_invariant(QuotientAlgebra(M2)) == 3
    assert burch_invariant(QuotientAlgebra(R8)) == 0


def test_c_invariant_field_degenerate():
    # one-variable presentation of the residue field
    assert burch_invariant(QuotientAlgebra(max_ideal(CX))) == 1


def test_choi_c_agree_on_binomial_ideal():
    I = ideal(CTX, "x^2 - y^2", "x*y")
    assert choi_invariant(I) == burch_invariant(QuotientAlgebra(I))


def c_from_socle_quotient(R):
    """c_R by its definition, dim Soc R + dim H_1(K^R) - edim R
    - dim H_1(K^{R'}) + edim R' with the algebra R' = R/Soc R: the oracle
    that `burch_invariant`, the rank of Soc(R)^e -> H_1(K^R), is checked
    against."""
    if R.is_field:
        return R.ctx.nvars
    Rp = R.quotient_by_socle()
    h1p = 0 if Rp.is_field else Rp.koszul_h1
    return R.socle_dim + R.koszul_h1 - R.edim - h1p + Rp.edim


@pytest.mark.parametrize("p, degree", [(P, 5), (2, 4), (3, 4)])
def test_c_invariant_matches_socle_quotient_oracle_on_the_sweep(p, degree):
    for mi in enumerate_m_primary(RingContext(p, ("x", "y")), degree):
        R = QuotientAlgebra(mi.to_ideal())
        assert burch_invariant(R) == c_from_socle_quotient(R), mi.gens


def corpus_ideals(monkeypatch):
    """Every m-primary ideal the corpus builds an algebra of, once each and
    afresh, with nothing cached."""
    import burchlab.artinian as artinian

    seen = []
    real = artinian.QuotientAlgebra.__init__
    monkeypatch.setattr(artinian.QuotientAlgebra, "__init__", lambda self, I: seen.append(I) or real(self, I))
    assert run_corpus()[0]
    monkeypatch.undo()
    primary = {(I.ctx.p, I.ctx.variables, I.groebner()): I for I in seen}
    assert len(primary) >= 10
    return [Ideal.make(I.ctx, I.gens) for I in primary.values()]


def test_c_invariant_matches_socle_quotient_oracle_on_the_corpus(monkeypatch):
    for I in corpus_ideals(monkeypatch):
        R = QuotientAlgebra(I)
        assert burch_invariant(R) == c_from_socle_quotient(R), I


@st.composite
def local_ideals(draw):
    """Non-homogeneous m-primary ideals of k[x], k[x,y] or k[x,y,z] over
    F_p for p in {2, 3, 101, 32003}: a power x_i^a of each variable, a in
    1..4, so some hold a variable and some present a field, and up to two
    polynomials of up to four terms of degree 1 to 3, whose linear parts
    need not be variables."""
    p = draw(st.sampled_from((2, 3, 101, P)))
    n = draw(st.integers(1, 3))
    ctx = RingContext(p, ("x", "y", "z")[:n])
    gens = [ctx.monomial(tuple(draw(st.integers(1, 4)) if k == i else 0 for k in range(n))) for i in range(n)]
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: 1 <= sum(e) <= 3)
    polys = st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=4)
    gens += [Polynomial.from_dict(ctx, d) for d in draw(st.lists(polys, max_size=2))]
    return Ideal.make(ctx, gens)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(local_ideals())
def test_c_invariant_matches_socle_quotient_oracle_on_local_ideals(I):
    R = QuotientAlgebra(I)
    assert burch_invariant(R) == c_from_socle_quotient(R)


def mu_from_lengths(I):
    """(μ(I), μ(mI)) as ℓ(S/mI) - ℓ(S/I) and ℓ(S/m²I) - ℓ(S/mI), from a
    basis of m²I: the oracle that `_mu_pair`, which reads μ(mI) off the
    Koszul complex of S/mI, is checked against."""
    mI = max_ideal_product(I)
    return mI.length() - I.length(), max_ideal_product(mI).length() - mI.length()


def generators_from_chain(R):
    """(edim, Koszul generators) from the m-adic chain walked to m²: dim
    m - dim m², and the variables whose images extend m² to m, greedily in
    order.  The oracle of `QuotientAlgebra.generator_variables`."""
    dims = R._chain.walk(2) + [0, 0]
    images = linalg.hstack([R.variable_element(v).column() for v in range(R.ctx.nvars)], R.dim)
    return dims[1] - dims[2], linalg.complete_columns(R._chain.power(2), images, R.p)


def assert_mu_and_generators_match_oracles(I):
    """μ(I), μ(mI) and the Koszul generators of S/I and of S/mI, whose
    generators are all the variables, against the oracles."""
    R = QuotientAlgebra(I)
    assert burch_module._mu_pair(I, R.length) == mu_from_lengths(I), I
    A = quotient_algebra(max_ideal_product(I))
    assert A.generator_variables == list(range(I.ctx.nvars))
    for B in (R, A):
        assert (B.edim, B.generator_variables) == generators_from_chain(B), B


def test_mu_and_generators_match_oracles_on_the_sweep():
    """Every m-primary monomial ideal of k[x,y] to socle degree 6."""
    for mi in enumerate_m_primary(CTX, 6):
        assert_mu_and_generators_match_oracles(mi.to_ideal())


def test_mu_and_generators_match_oracles_on_the_corpus(monkeypatch):
    for I in corpus_ideals(monkeypatch):
        assert_mu_and_generators_match_oracles(I)


@pytest.mark.parametrize("gens", [g for g, _, _ in NONHOMOGENEOUS_REPORT_SHA256])
def test_mu_and_generators_match_oracles_on_nonhomogeneous_ideals(gens):
    assert_mu_and_generators_match_oracles(ideal(CTX3, *gens.split(", ")))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(local_ideals())
@example(ideal(CTX, "x^3", "y"))
@example(ideal(CTX, "x^2", "y + x^2"))
@example(ideal(CTX, "x", "y"))
@example(ideal(CX, "x^5"))
@example(ideal(CTX3, "x + y", "y^2", "z - x^2", "x^3"))
def test_mu_and_generators_match_oracles_on_local_ideals(I):
    assert_mu_and_generators_match_oracles(I)


@pytest.mark.parametrize(
    "ctx, gens",
    [(CTX, ("x^2", "x*y", "y^2")), (CTX, ("x^4", "x^2*y^2", "y^4")), (CX, ("x^2",)), (CTX3, DENSE3)],
    ids=["m2", "r8", "x2", "dense3"],
)
def test_burch_invariant_builds_no_algebra(monkeypatch, ctx, gens):
    """c_R and the ring verdict are read off R alone: no algebra R/Soc R,
    or any other, is built."""
    import burchlab.artinian as artinian

    R = QuotientAlgebra(ideal(ctx, *gens))
    built = []
    real = artinian.QuotientAlgebra.__init__
    monkeypatch.setattr(artinian.QuotientAlgebra, "__init__", lambda self, I: built.append(I) or real(self, I))
    c = burch_invariant(R)
    burch_ring_depth_zero(R)
    assert built == []
    monkeypatch.undo()
    assert c == c_from_socle_quotient(R)


# -- ring verdicts ----------------------------------------------------------------


def test_ring_verdicts():
    assert burch_ring_depth_zero(QuotientAlgebra(M2)).burch
    assert not burch_ring_depth_zero(QuotientAlgebra(R8)).burch
    cyz = RingContext(P, ("y", "z"))
    I = ideal(cyz, "y^2", "y*z^2", "z^4")
    assert burch_ring_depth_zero(QuotientAlgebra(I)).burch


def test_ring_verdict_field_trivial():
    v = burch_ring_depth_zero(QuotientAlgebra(max_ideal(CTX)))
    assert v.burch and v.trivial_field


def test_ring_verdict_reports_syzygy_crosscheck():
    v = burch_ring_depth_zero(QuotientAlgebra(M2))
    assert v.omega2_splits is True


# -- classifiers ------------------------------------------------------------------


def test_gorenstein_classifier_hypersurfaces():
    for r in (1, 3, 5):
        I = ideal(CTX, f"x^{r}" if r > 1 else "x", "y")
        rep = gorenstein_burch_classifier(I)
        assert rep.gorenstein and rep.burch
        assert rep.edim <= 1 and rep.hypersurface_exponent == r


def test_gorenstein_classifier_complete_intersection():
    rep = gorenstein_burch_classifier(ideal(CTX, "x^2", "y^2"))
    assert rep.gorenstein and not rep.burch and rep.edim == 2


def test_gorenstein_classifier_type_two():
    rep = gorenstein_burch_classifier(M2)
    assert not rep.gorenstein and rep.burch


def test_gorenstein_classifier_requires_m_primary():
    with pytest.raises(PreconditionError):
        gorenstein_burch_classifier(ideal(CTX, "x^2"))


def test_cube_zero_values():
    v = cube_zero_test(QuotientAlgebra(M2))
    assert v.burch and v.beta2 == 4 and v.edim == 2 and v.type == 2
    v = cube_zero_test(QuotientAlgebra(ideal(CTX, "x^2", "y^2")))
    assert not v.burch and v.beta2 == 3 and v.type == 1
    v = cube_zero_test(QuotientAlgebra(ideal(CX, "x^3")))
    assert v.burch and v.beta2 == 1


def test_cube_zero_requires_cube_zero():
    with pytest.raises(PreconditionError):
        cube_zero_test(QuotientAlgebra(R8))


# -- the second-syzygy summand condition --------------------------------------------


def test_cyclic_summand_condition_maximal_ideal_cube():
    m = max_ideal(CTX)
    I = m.product(m).product(m)
    A = [[poly("x"), poly("y")]]
    assert cyclic_summand_condition(I, m, A).holds


def test_cyclic_summand_condition_r8_fails():
    m = max_ideal(CTX)
    A = [[poly("x"), poly("y")]]
    assert not cyclic_summand_condition(R8, m, A).holds


def test_cyclic_summand_condition_degenerate_equal_ideals():
    m = max_ideal(CTX)
    m2 = m.product(m)
    A = [[poly("x"), poly("y")]]
    # (I : I) is the unit ideal, which no proper ideal contains
    assert cyclic_summand_condition(m2, m2, A).holds


def test_cyclic_summand_condition_flags():
    m = max_ideal(CTX)
    res = cyclic_summand_condition(m.product(m), m, [[poly("x"), poly("y")]])
    assert res.i1a_in_j is True
    assert res.quotient_gorenstein is True  # S/m is the field, type 1

    # containment precondition
    with pytest.raises(PreconditionError):
        cyclic_summand_condition(ideal(CTX, "x"), ideal(CTX, "y"), [[poly("x")]])


# -- generator-count criterion -------------------------------------------------------


def test_mu_growth_values():
    v = mu_growth_test(R8)
    assert (v.mu_I, v.mu_mI, v.burch) == (3, 6, False)
    v = mu_growth_test(ideal(CTX, "x^4", "y^4", "x^3*y", "x*y^3"))
    assert (v.mu_I, v.mu_mI, v.burch) == (4, 6, True)
    v = mu_growth_test(max_ideal(CTX))
    assert (v.mu_I, v.mu_mI, v.burch) == (2, 3, True)


def test_mu_growth_preconditions():
    with pytest.raises(PreconditionError):
        mu_growth_test(ideal(CTX3, "x", "y", "z"))
    with pytest.raises(PreconditionError):
        mu_growth_test(ideal(CTX, "x^2"))


# -- cut-downs -------------------------------------------------------------------------


E44 = ideal(CTX3, "x^2*z^2 - y^2", "x^4 - y*z^2", "x^2*y - z^4")


def test_cut_down_by_x():
    res = cut_down(E44, [poly("x", CTX3)])
    assert res.all_regular
    assert res.ideal.ctx.variables == ("y", "z")
    expect = Ideal.make(res.ideal.ctx, [parse_polynomial(s, res.ideal.ctx) for s in ("y^2", "y*z^2", "z^4")])
    assert res.ideal == expect


def test_cut_down_by_y():
    res = cut_down(E44, [poly("y", CTX3)])
    assert res.ideal.ctx.variables == ("x", "z")
    expect = Ideal.make(res.ideal.ctx, [parse_polynomial(s, res.ideal.ctx) for s in ("x^4", "x^2*z^2", "z^4")])
    assert res.ideal == expect


def test_cut_down_models_cusp():
    I = ideal(CTX, "y^2 - x^3")
    res = cut_down(I, [poly("x")])
    assert res.ideal.ctx.variables == ("y",)
    assert res.ideal == Ideal.make(res.ideal.ctx, [parse_polynomial("y^2", res.ideal.ctx)])


def test_cut_down_general_linear_form():
    # x - y is regular on k[x,y]/(xy) and eliminates to k[y]/(y^2)
    I = ideal(CTX, "x*y")
    res = cut_down(I, [poly("x - y")])
    assert res.all_regular
    assert res.ideal == Ideal.make(res.ideal.ctx, [parse_polynomial("y^2", res.ideal.ctx)])


def test_cut_down_rejects_zero_divisor():
    I = ideal(CTX, "x*y")
    with pytest.raises(PreconditionError) as err:
        cut_down(I, [poly("x")])
    assert "not regular" in str(err.value)


def test_cut_down_rejects_nonlinear_without_flag():
    with pytest.raises(PreconditionError):
        cut_down(ideal(CTX, "y^2 - x^3"), [poly("x^2")])


def test_cut_down_nonlinear_with_flag():
    res = cut_down(ideal(CTX, "y^2 - x^3"), [poly("x^2")], allow_nonlinear=True)
    assert res.all_regular
    assert res.ideal == ideal(CTX, "y^2 - x^3", "x^2")
    # Gorenstein complete intersection (x^2, y^2), not Burch
    assert not burch_ring_depth_zero(QuotientAlgebra(res.ideal)).burch


def test_cut_down_sequence():
    I = ideal(CTX3, "x*y", "x*z")  # depth via z... cut twice
    res = cut_down(ideal(CTX3, "x^2 - y*z"), [poly("y", CTX3), poly("z", CTX3)])
    assert res.all_regular
    assert res.ideal.ctx.variables == ("x",)
    assert res.ideal == Ideal.make(res.ideal.ctx, [parse_polynomial("x^2", res.ideal.ctx)])


# -- fibre products ----------------------------------------------------------------


def test_fibre_burch_hypersurface_factors():
    RS = QuotientAlgebra(ideal(RingContext(P, ("x",)), "x^2"))
    RT = QuotientAlgebra(ideal(RingContext(P, ("y",)), "y^3"))
    v = fibre_burch_test(RS, RT)
    assert v.burch and v.direct is True


def test_fibre_burch_non_burch_factors():
    # both factors non-Burch (socles inside m^2), small enough to sweep directly
    cu = RingContext(P, ("u", "v"))
    left = QuotientAlgebra(ideal(CTX, "x^2", "y^2"))
    right = QuotientAlgebra(Ideal.make(cu, [parse_polynomial(s, cu) for s in ("u^2", "v^2")]))
    v = fibre_burch_test(left, right)
    assert not v.burch and v.direct is False


def fibre_pools():
    """The factor pools of acceptance criterion 6: the m-primary monomial
    ideals of k[x,y] and of k[u,v] with socle degree at most 3 and length
    at most 12, the maximal ideal left out."""
    return [
        [mi for mi in enumerate_m_primary(ctx, 3) if mi.gens != ((0, 1), (1, 0)) and len(mi.standard_monomials()) <= 12]
        for ctx in (CTX, RingContext(P, ("u", "v")))
    ]


def test_socle_outside_square_is_the_edim_drop_on_the_fibre_pools():
    """The socle-outside-m^2 branch of `fibre_burch_test`, read in R, is the
    edim drop edim R > edim R/Soc R that it replaces."""
    left, right = fibre_pools()
    outside = []
    for mi in left + right:
        R = QuotientAlgebra(mi.to_ideal())
        assert burch_module.socle_outside_square(R) == (R.edim > R.quotient_by_socle().edim), mi.gens
        outside.append(burch_module.socle_outside_square(R))
    assert any(outside) and not all(outside)


def test_fibre_burch_test_builds_no_socle_quotient(monkeypatch):
    """`fibre_burch_test` builds no algebra R/Soc R of a factor: none at all
    with direct=False, and only the fibre product's with direct=True."""
    import burchlab.artinian as artinian

    left, right = fibre_pools()
    pairs = [(QuotientAlgebra(a.to_ideal()), QuotientAlgebra(b.to_ideal())) for a, b in zip(left[::7], right[3::7])]
    built = []
    real = artinian.QuotientAlgebra.__init__
    monkeypatch.setattr(artinian.QuotientAlgebra, "__init__", lambda self, I: built.append(I) or real(self, I))
    for RS, RT in pairs:
        fibre_burch_test(RS, RT, direct=False)
        assert built == []
        fibre_burch_test(RS, RT)
        assert built == [fibre_product(RS, RT).ideal]
        built.clear()


def test_fibre_burch_rejects_field_factor():
    RS = QuotientAlgebra(ideal(RingContext(P, ("x",)), "x^2"))
    with pytest.raises(PreconditionError):
        fibre_burch_test(RS, QuotientAlgebra(max_ideal(RingContext(P, ("y",)))))


def test_fibre_burch_checks_factors_before_any_verdict(monkeypatch):
    """Factors sharing variables or over different primes are refused with
    direct=False too, before either factor's verdict is computed."""
    import burchlab.burch as burch

    def no_verdict(R):
        raise AssertionError("a factor's verdict was computed")

    left = QuotientAlgebra(ideal(CTX, "x^2", "y^2"))
    shared = QuotientAlgebra(ideal(CTX, "x^2", "x*y", "y^3"))
    other_prime = QuotientAlgebra(ideal(RingContext(101, ("u", "v")), "u^2", "v^2"))
    monkeypatch.setattr(burch, "burch_ring_depth_zero", no_verdict)
    for right in (shared, other_prime):
        with pytest.raises(PreconditionError):
            fibre_burch_test(left, right, direct=False)
