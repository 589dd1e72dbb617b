import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_burch import corpus_ideals, query_ideals
from test_cli import NONHOMOGENEOUS_REPORT_SHA256

from burchlab import groebner, linalg
from burchlab.artinian import (
    KEPT_POWER,
    QuotientAlgebra,
    annihilator,
    fibre_product,
    find_exact_pairs,
)
from burchlab.burch import burch_invariant
from burchlab.corpus import run_corpus
from burchlab.groebner import Ideal, PreconditionError, ideal_colon, max_ideal, max_ideal_product, reduced_groebner
from burchlab.monomial import enumerate_m_primary
from burchlab.poly import Polynomial, RingContext, parse_polynomial

P = 32003
CTX = RingContext(P, ("x", "y"))
CTX3 = RingContext(P, ("x", "y", "z"))
# m-primary ideals of k[x,y,z] with dense forms, as `burch check` meets them
DENSE3 = (
    ("x^2", "y^3", "z^2", "3*x^2 + 5*x*y + 7*y^2 + 11*x*z + 13*y*z + 17*z^2"),
    ("x^3", "y^2", "z^3", "2*x^2 + 9*x*y + 4*y*z + 8*z^2", "6*x^2*z + 10*x*y*z + 12*y^2*z + 14*z^3"),
    ("x^3", "y^3", "z^2", "x^2*y + 2*y^2*z + 3*z^2*x + 5*x*y*z"),
)


def ideal(ctx, *gens):
    return Ideal.make(ctx, [parse_polynomial(g, ctx) for g in gens])


def quotient(ctx, *gens):
    return QuotientAlgebra(ideal(ctx, *gens))


def test_build_small():
    R = quotient(CTX, "x^2", "x*y", "y^2")
    assert R.dim == 3
    assert set(R.basis) == {(0, 0), (1, 0), (0, 1)}


def test_build_length_twelve():
    assert quotient(CTX, "x^4", "x^2*y^2", "y^4").dim == 12


def test_field_case():
    R = QuotientAlgebra(max_ideal(CTX))
    assert R.dim == 1 and R.is_field


def test_requires_m_primary():
    with pytest.raises(PreconditionError):
        QuotientAlgebra(ideal(CTX, "x^2"))


def test_multiplication_matrices_commute_for_binomial_ideal():
    R = quotient(CTX, "x^2 - y^3", "x*y^2")
    x, y = R.mult
    assert np.array_equal(linalg.matmul(x, y, P).toarray(), linalg.matmul(y, x, P).toarray())


def test_socle_examples():
    R = quotient(CTX, "x^4", "x^2*y^2", "y^4")
    polys = {str(f) for f in R.socle_polynomials()}
    assert polys == {"x^3*y", "x*y^3"}
    cx = RingContext(P, ("x",))
    R3 = quotient(cx, "x^3")
    assert [str(f) for f in R3.socle_polynomials()] == ["x^2"]
    assert {str(f) for f in quotient(CTX, "x^2", "x*y", "y^2").socle_polynomials()} == {"x", "y"}


def test_socle_killed_by_variables():
    R = quotient(CTX, "x^3", "x*y^2", "y^4")
    soc = linalg.Triples.from_dense(R.socle)
    for M in R.mult:
        assert not linalg.matmul(M, soc, P).vals.size


def _type_and_gorenstein(R):
    return R.type(), R.is_gorenstein()


def test_type_and_gorenstein():
    assert _type_and_gorenstein(quotient(CTX, "x^2", "y^2")) == (1, True)
    assert _type_and_gorenstein(quotient(CTX, "x^2", "x*y", "y^2")) == (2, False)
    cx = RingContext(P, ("x",))
    assert _type_and_gorenstein(quotient(cx, "x^5")) == (1, True)


def test_hilbert_function_examples():
    assert quotient(CTX, "x^2", "x*y", "y^2").hilbert == (1, 2)
    assert quotient(CTX, "x^4", "x^2*y^2", "y^4").hilbert == (1, 2, 3, 4, 2)
    cx = RingContext(P, ("x",))
    assert quotient(cx, "x^3").hilbert == (1, 1, 1)


def test_hilbert_function_m_adic_for_nonhomogeneous():
    # y = x^2 in the quotient, so the m-adic filtration differs from the
    # naive degree filtration: basis {1, x, x^2=y, x^3}, m^2 = (x^2, x^3)
    R = quotient(CTX, "y - x^2", "x^4")
    assert R.dim == 4
    assert R.hilbert == (1, 1, 1, 1)
    assert R.edim == 1


def test_invariants_computed_on_first_use():
    """Building the algebra leaves the m-adic chain, Hilbert function, edim
    and socle for their first reader, so a caller that needs only the
    multiplication matrices never pays for them; edim is read off the
    linear parts of I and leaves the chain unbuilt."""
    R = quotient(CTX, "x^4", "x^2*y^2", "y^4")
    lazy = {"_chain", "hilbert", "edim", "socle"}
    assert not lazy & vars(R).keys()
    assert R.edim == 2
    assert "edim" in vars(R)
    assert "_chain" not in vars(R) and "hilbert" not in vars(R) and "socle" not in vars(R)
    assert R.socle_dim == 2 and "socle" in vars(R)


def test_madic_walk_keeps_only_the_first_powers(monkeypatch):
    """The m-adic chain of (x^40, y + x^2), which is not graded (x·x = -y),
    is walked once, one `m_span` a power, whatever asks first: `hilbert`
    keeps only the dimensions, and of the 40 bases only m^0 .. m^KEPT_POWER
    and the deepest power stay kept."""
    spans = []
    real = QuotientAlgebra.m_span

    def counted(self, W, act):
        spans.append(W.shape[1])
        return real(self, W, act)

    monkeypatch.setattr(QuotientAlgebra, "m_span", counted)
    for power_first in (True, False):
        spans.clear()
        R = quotient(CTX, "x^40", "y + x^2")
        assert not R.graded
        if power_first:
            assert R.max_power_basis(3).shape == (40, 37) and len(spans) == 3
        assert R.hilbert == (1,) * 40 and len(spans) == 40
        assert [R.max_power_basis(j).shape[1] for j in (0, 1, 2, 3)] == [40, 39, 38, 37]
        assert len(spans) == 40
        assert len(R._chain.kept) == KEPT_POWER + 1 and R._chain.deepest.shape == (40, 0)
    assert R.max_power_basis(10).shape == (40, 30) and len(spans) == 40 + 10 - KEPT_POWER
    assert linalg.subspace_le(R.max_power_basis(10), R.max_power_basis(3), P)
    assert len(R._chain.kept) == KEPT_POWER + 1
    short = quotient(CTX, "x^2", "y")
    assert [short.max_power_basis(j).shape for j in (1, 2, 3, 5)] == [(2, 1), (2, 0), (2, 0), (2, 0)]
    short = quotient(CTX, "x^3", "y + x^2")
    assert not short.graded
    assert [short.max_power_basis(j).shape for j in (1, 2, 3, 5)] == [(3, 2), (3, 1), (3, 0), (3, 0)]


def test_edim_walks_no_chain(monkeypatch):
    """edim and the Koszul generators are read off the linear parts of I:
    on (x^40, y + x^2), which is not graded, neither `edim` nor
    `burch_invariant` takes an `m_span`, and the Hilbert function still
    walks all 40 powers.  A field keeps edim 0."""
    spans = []
    real = QuotientAlgebra.m_span
    monkeypatch.setattr(QuotientAlgebra, "m_span", lambda self, W, act: spans.append(1) or real(self, W, act))
    R = quotient(CTX, "x^40", "y + x^2")
    assert R.edim == 1 and len(spans) == 0
    R = quotient(CTX, "x^40", "y + x^2")
    assert burch_invariant(R) > 0 and len(spans) == 0
    assert R.hilbert == (1,) * 40 and len(spans) == 40
    field = quotient(CTX, "x", "y")
    assert field.edim == 0 and field.hilbert == (1,)


def test_edim_and_length_consistency():
    R = quotient(CTX, "x^3", "x*y", "y^2")
    assert sum(R.hilbert) == R.length
    assert R.edim == R.hilbert[1]


def test_element_arithmetic_matches_polynomials():
    R = quotient(CTX, "x^3", "y^2")
    f = parse_polynomial("x + y", CTX)
    g = parse_polynomial("x^2 + x*y", CTX)
    lhs = R.element(f) * R.element(g)
    rhs = R.element(f * g)
    assert np.array_equal(lhs.vec, rhs.vec)


def test_annihilator_examples():
    R = quotient(CTX, "x^2", "x*y", "y^2", "x - x")  # plain m^2 quotient
    zero = R.element(CTX.zero())
    assert annihilator(R, zero).dim == R.dim
    cx = RingContext(P, ("x",))
    R4 = quotient(cx, "x^4")
    x2 = R4.element(parse_polynomial("x^2", cx))
    ann = annihilator(R4, x2)
    assert ann.is_principal
    assert str(ann.generators[0]) == "x^2"
    # (0 : x^2) = (x^2, x^3), held as Triples
    assert isinstance(ann.subspace, linalg.Triples) and ann.dim == 2
    assert linalg.subspace_eq(ann.subspace, linalg.Triples.from_dense(R4.operator(x2)), P)


def test_annihilator_of_t_is_principal():
    ctx = RingContext(P, ("x", "y", "t"))
    R = QuotientAlgebra(ideal(ctx, "x^2", "x*y", "y^2", "t^2"))
    ann = annihilator(R, R.element(parse_polynomial("t", ctx)))
    assert ann.is_principal
    assert str(ann.generators[0]) == "t"


def test_exact_pairs_flat_ascent_ring():
    ctx = RingContext(P, ("x", "y", "t"))
    R = QuotientAlgebra(ideal(ctx, "x^2", "x*y", "y^2", "t^2"))
    pairs = find_exact_pairs(R)
    assert any(str(p.a) == "t" and str(p.b) == "t" for p in pairs)
    # every returned pair passes both annihilator equalities exactly
    for p in pairs:
        a, b = (linalg.Triples.from_dense(R.operator(R.element(f))) for f in (p.a, p.b))
        assert linalg.subspace_eq(linalg.kernel_basis(a, P), b, P)
        assert linalg.subspace_eq(linalg.kernel_basis(b, P), a, P)


def test_exact_pairs_hypersurface():
    cx = RingContext(P, ("x",))
    pairs = find_exact_pairs(quotient(cx, "x^4"))
    assert any({str(p.a), str(p.b)} == {"x", "x^3"} for p in pairs)


def test_exact_pairs_absent():
    assert find_exact_pairs(quotient(CTX, "x^2", "x*y", "y^2")) == []


def test_exact_pairs_build_each_operator_once(monkeypatch):
    """Over the corpus, find_exact_pairs builds the multiplication matrix of
    each (algebra, element) pair once, and finds the same pairs."""
    from burchlab.corpus import run_corpus

    builds = Counter()
    real = QuotientAlgebra._operator

    def counting(R, a):
        builds[id(R), a.vec.tobytes()] += 1
        return real(R, a)

    monkeypatch.setattr(QuotientAlgebra, "_operator", counting)
    ok, _ = run_corpus(P)
    assert ok and builds and set(builds.values()) == {1}
    builds.clear()
    cx = RingContext(P, ("x",))
    R = quotient(cx, "x^4")
    assert [(str(p.a), str(p.b)) for p in find_exact_pairs(R)] == [("x", "x^3")]
    assert set(builds.values()) == {1}


def test_fibre_product_presentation():
    RS = quotient(RingContext(P, ("x",)), "x^2")
    RT = quotient(RingContext(P, ("y",)), "y^2")
    pres = fibre_product(RS, RT)
    assert not pres.trivial
    assert pres.ideal == ideal(RingContext(P, ("x", "y")), "x^2", "y^2", "x*y")


def test_fibre_product_second_example():
    RS = quotient(RingContext(P, ("x",)), "x^3")
    RT = quotient(RingContext(P, ("y",)), "y^4")
    pres = fibre_product(RS, RT)
    assert pres.ideal == ideal(RingContext(P, ("x", "y")), "x^3", "y^4", "x*y")


def test_fibre_product_with_field_is_trivial():
    RS = quotient(RingContext(P, ("x",)), "x^3")
    RT = QuotientAlgebra(max_ideal(RingContext(P, ("y",))))
    pres = fibre_product(RS, RT)
    assert pres.trivial and pres.ideal == RS.ideal


def test_fibre_product_variable_clash():
    RS = quotient(RingContext(P, ("x",)), "x^2")
    with pytest.raises(ValueError):
        fibre_product(RS, quotient(RingContext(P, ("x",)), "x^3"))


def test_fibre_product_edim_additive_random():
    rng = random.Random(11)
    from burchlab.monomial import enumerate_m_primary

    left_pool = [
        mi for mi in enumerate_m_primary(RingContext(P, ("x", "y")), 2)
        if mi.gens != ((0, 1), (1, 0))
    ]
    right_pool = [
        mi for mi in enumerate_m_primary(RingContext(P, ("u", "v")), 2)
        if mi.gens != ((0, 1), (1, 0))
    ]
    for _ in range(6):
        RS = QuotientAlgebra(rng.choice(left_pool).to_ideal())
        RT = QuotientAlgebra(rng.choice(right_pool).to_ideal())
        R = QuotientAlgebra(fibre_product(RS, RT).ideal)
        assert R.edim == RS.edim + RT.edim
        assert R.socle_dim == RS.socle_dim + RT.socle_dim


def test_quotient_by_socle():
    R = quotient(CTX, "x^4", "x^2*y^2", "y^4")
    Rp = R.quotient_by_socle()
    assert Rp.dim == R.dim - R.socle_dim


def _assert_socle_colon_is_elimination_colon(I: Ideal) -> None:
    K = max_ideal_product(I)
    assert QuotientAlgebra(K).socle_colon == ideal_colon(K, max_ideal(I.ctx))


def test_socle_colon_matches_elimination_on_sweep_ideals():
    """(mI : m) read off the socle of S/mI equals the elimination colon on
    every m-primary monomial ideal of k[x,y] to socle degree 4."""
    ideals = list(enumerate_m_primary(CTX, 4))
    assert len(ideals) == 131
    for mi in ideals:
        _assert_socle_colon_is_elimination_colon(mi.to_ideal())


@pytest.mark.parametrize("ctx, gens", [(CTX3, g) for g in DENSE3] + [(CTX, ("x^3", "y - x^2"))])
def test_socle_colon_matches_elimination_on_dense_input(ctx, gens):
    """The same on dense k[x,y,z] ideals and a non-homogeneous one, for I
    itself as well as for mI."""
    I = ideal(ctx, *gens)
    assert QuotientAlgebra(I).socle_colon == ideal_colon(I, max_ideal(ctx))
    _assert_socle_colon_is_elimination_colon(I)


def _assert_socle_colon_carries_its_basis(R: QuotientAlgebra) -> None:
    """R.socle_colon carries the reduced basis of its generators, and
    building it runs no Buchberger; its generators are G_I and the lifts of
    the socle as `socle_polynomials` gives them."""
    with mock.patch.object(groebner, "buchberger", side_effect=AssertionError("buchberger ran")):
        colon = R.socle_colon
        basis = colon.groebner()
    assert colon.gens == R.ideal.groebner() + tuple(R.socle_polynomials())
    assert basis == reduced_groebner(colon.gens, R.ctx)


def test_socle_colon_carries_its_basis_on_the_sweep5_ideals():
    """Every m-primary monomial ideal of k[x,y] to socle degree 5, the
    ideals of the d = 5 sweep: S/I and S/mI."""
    ideals = list(enumerate_m_primary(CTX, 5))
    assert len(ideals) == 428
    for mi in ideals:
        I = mi.to_ideal()
        _assert_socle_colon_carries_its_basis(QuotientAlgebra(I))
        _assert_socle_colon_carries_its_basis(QuotientAlgebra(max_ideal_product(I)))


def test_socle_colon_carries_its_basis_on_the_corpus(monkeypatch):
    """Every algebra that the corpus builds."""
    built = []
    real = QuotientAlgebra.__init__

    def recording(R, ideal):
        real(R, ideal)
        built.append(R)

    monkeypatch.setattr(QuotientAlgebra, "__init__", recording)
    assert run_corpus()[0]
    monkeypatch.undo()
    assert len(built) > 20
    for R in built:
        _assert_socle_colon_carries_its_basis(R)


@pytest.mark.parametrize("gens", [g for g, _, _ in NONHOMOGENEOUS_REPORT_SHA256])
def test_socle_colon_carries_its_basis_on_nonhomogeneous_ideals(gens):
    """The pinned non-homogeneous m-primary ideals of k[x,y,z], S/I and
    S/mI, and the colon equals the elimination colon."""
    I = ideal(CTX3, *gens.split(", "))
    for K in (I, max_ideal_product(I)):
        R = QuotientAlgebra(K)
        _assert_socle_colon_carries_its_basis(R)
        assert R.socle_colon.groebner() == ideal_colon(K, max_ideal(CTX3)).groebner()


@pytest.mark.parametrize(
    "ctx, gens", [(CTX, ("x^4", "x^2*y^2", "y^4")), (CTX, ("x^3", "y - x^2")), (CTX3, DENSE3[0])]
)
def test_quotient_by_socle_matches_source_generators_plus_lifts(ctx, gens):
    """R/Soc R, now S/socle_colon, has the basis and multiplication
    matrices of the old presentation: I's generators plus the socle lifts."""
    R = quotient(ctx, *gens)
    old = QuotientAlgebra(Ideal.make(ctx, R.ideal.gens + tuple(R.socle_polynomials())))
    new = R.quotient_by_socle()
    assert new.basis == old.basis
    assert len(new.mult) == len(old.mult)
    assert all(np.array_equal(a.toarray(), b.toarray()) for a, b in zip(new.mult, old.mult))


# -- graded algebras against the m-adic chain, the oracle route -------------------


def assert_hilbert_and_powers_match_chain(R: QuotientAlgebra) -> None:
    """`hilbert` and the span of `max_power_basis(j)`, j <= 4, against the
    m-adic chain walked one `m_span` at a time (`R._chain`), and `graded`
    against the reduced basis: S/I is graded exactly when I is homogeneous,
    that is when its reduced basis is."""
    assert R.graded == all(g.is_homogeneous() for g in R.ideal.groebner()), R
    dims = R._chain.walk()
    assert R.hilbert == tuple(a - b for a, b in zip(dims, dims[1:])), R
    for j in range(5):
        assert linalg.subspace_eq(R.max_power_basis(j), R._chain.power(j), R.p), (R, j)


def test_hilbert_and_powers_match_chain_on_the_sweep():
    """Every m-primary monomial ideal of k[x,y] to socle degree 6; all are
    graded."""
    ideals = list(enumerate_m_primary(CTX, 6))
    assert len(ideals) == 1429
    for mi in ideals:
        R = QuotientAlgebra(mi.to_ideal())
        assert R.graded
        assert_hilbert_and_powers_match_chain(R)


def test_hilbert_and_powers_match_chain_on_the_corpus(monkeypatch):
    """Every algebra the corpus builds, graded or not."""
    algebras = [QuotientAlgebra(I) for I in corpus_ideals(monkeypatch)]
    for R in algebras:
        assert_hilbert_and_powers_match_chain(R)
    assert {R.graded for R in algebras} == {True, False}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(query_ideals())
def test_hilbert_and_powers_match_chain_on_query_ideals(I):
    R = QuotientAlgebra(I)
    assert R.graded
    assert_hilbert_and_powers_match_chain(R)


@st.composite
def regraded_ideals(draw):
    """A query-shaped ideal presented by non-homogeneous generators: each
    generator g_i in turn becomes g_i + h_i·g_(i+1), with h_i of two to
    four terms of degree at most 2, which changes the generators but not
    the ideal, so S/I stays graded."""
    gens = list(draw(query_ideals()).gens)
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 2), st.integers(1, P - 1), min_size=2, max_size=4
    )
    for i in range(len(gens)):
        h = Polynomial.from_dict(CTX3, draw(terms))
        gens[i] = gens[i] + h * gens[(i + 1) % len(gens)]
    return Ideal.make(CTX3, gens)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(regraded_ideals())
@example(ideal(CTX, "x^2 + y", "y"))
@example(ideal(CTX, "x^2", "y + x^2"))
@example(ideal(CTX, "x^3 + y^2", "y^2", "x*y"))
def test_hilbert_and_powers_match_chain_on_graded_algebras_with_nonhomogeneous_generators(I):
    assert not all(g.is_homogeneous() for g in I.gens)
    R = QuotientAlgebra(I)
    assert R.graded
    assert_hilbert_and_powers_match_chain(R)


def test_graded_on_nonhomogeneous_ideals():
    """Six of the twelve pinned non-homogeneous ideals have a reduced basis
    that is not homogeneous and keep the chain walk, and so does
    (x^3, y + x^2, z^2), where x·x = -y; the other six, and (x^2, y + x^2)
    = (x^2, y), are graded."""
    pins = [ideal(CTX3, *gens.split(", ")) for gens, _, _ in NONHOMOGENEOUS_REPORT_SHA256]
    graded = []
    for I in pins + [ideal(CTX3, "x^3", "y + x^2", "z^2"), ideal(CTX, "x^2", "y + x^2")]:
        R = QuotientAlgebra(I)
        assert_hilbert_and_powers_match_chain(R)
        graded.append(R.graded)
    pinned = [True, False, True, False, True, False, False, False, True, False, True, True]
    assert graded == pinned + [False, True]


def test_graded_algebra_walks_no_chain(monkeypatch):
    """`hilbert` and `max_power_basis` of a graded algebra take no `m_span`
    and leave the chain unbuilt, for (x^40, y) and the dense forms."""
    spans = []
    real = QuotientAlgebra.m_span
    monkeypatch.setattr(QuotientAlgebra, "m_span", lambda self, W, act: spans.append(1) or real(self, W, act))
    R = quotient(CTX, "x^40", "y")
    assert R.graded and R.hilbert == (1,) * 40
    assert [R.max_power_basis(j).shape[1] for j in (0, 1, 2, 3, 10, 40)] == [40, 39, 38, 37, 30, 0]
    for gens in DENSE3:
        R = quotient(CTX3, *gens)
        assert R.graded and sum(R.hilbert) == R.dim
        assert [R.max_power_basis(j).shape[1] for j in range(4)] == [sum(R.hilbert[j:]) for j in range(4)]
    assert spans == [] and "_chain" not in vars(R)


def test_check_commuting_takes_no_act_on_the_identity(monkeypatch):
    """Building an algebra or a checked module compares x_i·M_j with
    x_j·M_i: one act per ordered pair of variables, each on an action
    matrix itself, none on the identity."""
    from burchlab.resolution import AlgebraModule

    calls = []
    for cls in (QuotientAlgebra, AlgebraModule):
        monkeypatch.setattr(cls, "act", lambda self, v, Y, real=cls.act: calls.append((v, Y)) or real(self, v, Y))
    pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    R = quotient(CTX3, *DENSE3[0])
    assert [(v, next(w for w, M in enumerate(R.mult) if Y is M)) for v, Y in calls] == pairs
    calls.clear()
    M = AlgebraModule(R, R.mult)
    assert [(v, next(w for w, A in enumerate(M.actions) if Y is A)) for v, Y in calls] == pairs


def test_perturbed_multiplication_matrix_does_not_commute():
    """One entry of x·(basis monomial y) changed from 1 to 2 breaks
    x·(y·1) = y·(x·1), and `check_commuting` says so."""
    from burchlab.artinian import check_commuting

    R = quotient(CTX, "x^3", "y^3")
    X = R.mult[0]
    k = np.flatnonzero(X.cols == R.index[R.ctx.codec.encode((0, 1))])[0]
    vals = X.vals.copy()
    vals[k] = 2
    perturbed = [linalg.Triples(X.rows, X.cols, vals, X.shape), R.mult[1]]
    scatters = [linalg.scatter_table(M) for M in perturbed]
    check_commuting(R.act, R.mult, "multiplication matrices")
    with pytest.raises(AssertionError, match="do not commute"):
        check_commuting(lambda v, Y: linalg.apply_scatter(scatters[v], Y, P), perturbed, "multiplication matrices")


def _variable_matrix_by_normal_forms(R: QuotientAlgebra, i: int) -> linalg.Triples:
    """x_i's matrix with the normal form of every product taken: the
    construction `_variable_matrix` skips the zero normal forms of."""
    unit = R.ctx.codec.units[i]
    entries = []
    for b, m in enumerate(R.keys):
        r = groebner.normal_form(Polynomial(R.ctx, ((m + unit, 1),)), R.ideal.reducers())
        entries.extend((R.index[k], b, c) for k, c in r.terms)
    return linalg.Triples.from_entries(entries, (R.dim, R.dim))


@pytest.mark.parametrize(
    "ctx, gens",
    [(CTX3, g) for g in DENSE3]
    + [(CTX, ("x^4", "x^2*y^2", "y^4")), (CTX, ("x^3", "y - x^2")), (CTX, ("x^2*y", "y^3 - x^3", "x^4"))],
)
def test_variable_matrices_match_normal_forms(ctx, gens):
    """The multiplication matrices, entry for entry and in order, are those
    of the normal forms of all products x_v·b."""
    R = quotient(ctx, *gens)
    for v in range(ctx.nvars):
        want = _variable_matrix_by_normal_forms(R, v)
        got = R.mult[v]
        assert all(np.array_equal(a, b) for a, b in zip((got.rows, got.cols, got.vals), (want.rows, want.cols, want.vals)))


def test_monomial_algebra_takes_no_normal_form(monkeypatch):
    """Every product x_v·b outside the staircase of a monomial ideal is
    divisible by a monomial reducer, so building S/I takes no `normal_form`:
    (x^4091, y), and S/mI for the sweep ideals, whose matrices are
    still those of the normal forms."""
    import burchlab.artinian as artinian

    ideals = [ideal(CTX, "x^4091", "y")] + [max_ideal_product(mi.to_ideal()) for mi in enumerate_m_primary(CTX, 3)]
    for I in ideals:
        assert I.is_m_primary()  # warms the staircase, which takes its own normal forms
    calls = []
    monkeypatch.setattr(artinian, "normal_form", lambda f, r: calls.append(f) or groebner.normal_form(f, r))
    algebras = [QuotientAlgebra(I) for I in ideals]
    assert calls == []
    monkeypatch.undo()
    assert algebras[0].dim == 4091
    for R in algebras[1:]:
        assert all(np.array_equal(R.mult[v].toarray(), _variable_matrix_by_normal_forms(R, v).toarray()) for v in (0, 1))
