import heapq
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burchlab import groebner
from burchlab.groebner import (
    MAX_PACKED_EXPONENT,
    Ideal,
    PreconditionError,
    Reducers,
    buchberger,
    entry_ideal,
    ideal_colon,
    ideal_intersection,
    max_ideal,
    max_ideal_product,
    monomial_codec,
    normal_form,
    reduce_basis,
    reduced_groebner,
    syzygy_matrix,
)
from burchlab.poly import (
    GREVLEX,
    LEX,
    MAX_EXPONENT,
    Block,
    Polynomial,
    RingContext,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_polynomial,
)

P = 32003
CTX = RingContext(P, ("x", "y"))
CTX3 = RingContext(P, ("x", "y", "z"))


def ideal(ctx, *gens):
    return Ideal.make(ctx, [parse_polynomial(g, ctx) for g in gens])


def poly(s, ctx=CTX):
    return parse_polynomial(s, ctx)


# -- Groebner bases -----------------------------------------------------------


def test_groebner_of_variables():
    I = ideal(CTX, "x", "y")
    assert [str(g) for g in I.groebner()] == ["y", "x"]


def test_groebner_reduces_against_basis():
    I = ideal(CTX, "x^2 - y", "y")
    assert set(str(g) for g in I.groebner()) == {"y", "x^2"}


def test_groebner_monomial_ideal_self_reduced():
    I = ideal(CTX, "x^4", "x^2*y^2", "y^4")
    assert set(str(g) for g in I.groebner()) == {"x^4", "x^2*y^2", "y^4"}


def test_groebner_permutation_invariant():
    gens = ["x^3 - y^2", "x*y - x", "y^3 - x^2*y"]
    bases = set()
    for perm in itertools.permutations(gens):
        bases.add(ideal(CTX, *perm).groebner())
    assert len(bases) == 1


def test_membership_via_normal_form():
    I = ideal(CTX, "x^2 - y^3", "x*y")
    f = poly("x^3")  # x·x^2 = x·y^3 ≡ (xy)·y^2 ≡ 0
    assert I.contains(f)
    assert not I.contains(poly("x"))


def test_unit_ideal_detection():
    I = ideal(CTX, "x", "y")
    J = ideal_colon(I, I)
    assert J.contains_unit


# -- ideal calculus -----------------------------------------------------------


def test_ideal_equality_generating_sets():
    assert ideal(CTX, "x", "y") == ideal(CTX, "y", "x + y")
    assert ideal(CTX, "x^2") != ideal(CTX, "x")


def test_equal_ideals_hash_equal():
    I, J = ideal(CTX, "x", "y"), ideal(CTX, "x + y", "y")
    assert I == J and hash(I) == hash(J)
    assert len({I, J}) == 1
    assert len({I, ideal(CTX, "x", "y^2")}) == 2


def test_equality_burch_definition_for_m_squared():
    # m(m^2 : m) = m·m = m^2 versus m·m^2 = m^3
    m = max_ideal(CTX)
    m2 = m.product(m)
    lhs = m.product(ideal_colon(m2, m))
    assert lhs != m.product(m2)


def test_product_principal():
    cx = RingContext(P, ("x",))
    m = max_ideal(cx)
    assert m.product(ideal(cx, "x^3")) == ideal(cx, "x^4")


def test_product_with_zero():
    I = ideal(CTX, "x")
    Z = Ideal.make(CTX, ())
    assert I.product(Z).is_zero


def test_intersection_examples():
    I = ideal(CTX, "x^2", "y")
    assert ideal_intersection(I, I) == I
    assert ideal_intersection(ideal(CTX, "x"), ideal(CTX, "y")) == ideal(CTX, "x*y")
    got = ideal_intersection(ideal(CTX, "x^2", "y"), ideal(CTX, "x"))
    assert got == ideal(CTX, "x^2", "x*y")


def brute_colon_monomial(gens, by, bound=9):
    """Divisibility-only oracle for (I : J) on two-variable monomial data."""
    def in_ideal(mset, m):
        return any(m[0] >= g[0] and m[1] >= g[1] for g in mset)

    out = []
    for a in range(bound):
        for b in range(bound):
            if all(in_ideal(gens, (a + u, b + v)) for u, v in by):
                out.append((a, b))
    return {
        m for m in out
        if not any(n != m and n[0] <= m[0] and n[1] <= m[1] for n in out)
    }


def test_colon_socle_example():
    I = ideal(CTX, "x^4", "x^2*y^2", "y^4")
    J = ideal_colon(I, max_ideal(CTX))
    expect = ideal(CTX, "x^3*y", "x*y^3", "x^4", "x^2*y^2", "y^4")
    assert J == expect
    # oracle: brute-force staircase colon
    assert brute_colon_monomial({(4, 0), (2, 2), (0, 4)}, [(1, 0), (0, 1)]) == {
        (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)
    }


def test_colon_two_var_paper_values():
    I = ideal(CTX, "x^4", "y^4", "x^3*y", "x*y^3")
    J = ideal_colon(I, max_ideal(CTX))
    assert J == ideal(CTX, "x^3", "x^2*y^2", "y^3")


def test_colon_principal_direction():
    I = ideal(CTX, "x^3")
    assert ideal_colon(I, max_ideal(CTX)) == I  # y·f ∈ (x^3) forces f ∈ (x^3)


def test_colon_memoized_per_ideal(monkeypatch):
    """A second colon of the same ideal by the same generators is the first
    result; an equal ideal built anew computes its own."""
    calls = []
    real = groebner.ideal_colon_element
    monkeypatch.setattr(groebner, "ideal_colon_element", lambda I, g: calls.append(g) or real(I, g))
    gens = ("x^4", "x^2*y^2", "y^4")
    I = ideal(CTX, *gens)
    J = ideal_colon(I, max_ideal(CTX))
    assert ideal_colon(I, max_ideal(CTX)) is J
    assert len(calls) == 2  # one principal colon per generator of m
    assert ideal_colon(ideal(CTX, *gens), max_ideal(CTX)) == J
    assert len(calls) == 4


def test_max_ideal_product_memoized_per_ideal():
    """m·I is built once per ideal; an equal ideal built anew gets its own,
    so no product is held by a shared object."""
    I = ideal(CTX, "x^3", "x*y", "y^2")
    mI = max_ideal_product(I)
    assert max_ideal_product(I) is mI
    assert mI == max_ideal(CTX).product(I)
    assert max_ideal_product(ideal(CTX, "x^3", "x*y", "y^2")) is not mI
    assert "m_product" not in max_ideal(CTX)._cache


def test_colon_by_zero_raises():
    with pytest.raises(PreconditionError):
        ideal_colon(ideal(CTX, "x"), Ideal.make(CTX, ()))


def test_colon_laws_random_monomials():
    import random

    rng = random.Random(7)
    m = max_ideal(CTX)
    for _ in range(12):
        gens = {(rng.randrange(1, 5), rng.randrange(0, 5)) for _ in range(3)}
        gens.add((0, rng.randrange(1, 5)))
        I = Ideal.make(CTX, [CTX.monomial(g) for g in gens])
        J = ideal_colon(I, m)
        assert I <= J
        # ((I:J):K) = (I:JK)
        K = ideal(CTX, "x^2", "y")
        assert ideal_colon(ideal_colon(I, K), m) == ideal_colon(I, K.product(m))


def test_is_m_primary():
    assert ideal(CTX, "x^4", "x^2*y^2", "y^4").is_m_primary()
    assert not ideal(CTX, "x^3").is_m_primary()
    I = ideal(CTX3, "x^2*z^2 - y^2", "x^4 - y*z^2", "x^2*y - z^4")
    assert not I.is_m_primary()  # quotient has dimension 1


def test_is_m_primary_needs_a_local_quotient(monkeypatch):
    """Finite colength is not enough: S/J = k[x]/(x^2 - x) and S/K =
    k[x,y]/(x,y)^2 × k have finite length but are not local.  A quotient
    with y = x^2 is local, and the unit ideal is not m-primary.  Both
    verdicts and the standard monomials are computed once per ideal."""
    J = ideal(CTX, "x^2 - x", "y")
    K = ideal(CTX, "x^3 - x^2", "y^2", "x*y")
    for I in (J, K):
        assert I.finite_colength() and not I.is_m_primary()
        with pytest.raises(PreconditionError):
            I.standard_monomials()
    local = ideal(CTX, "y - x^2", "x^4")
    assert local.is_m_primary() and len(local.standard_monomials()) == 4
    unit = Ideal.make(CTX, [CTX.one()])
    assert not unit.finite_colength() and not unit.is_m_primary()
    assert not ideal(CTX, "x^3").finite_colength()

    def refuse(*args):
        raise AssertionError("recomputed")

    monkeypatch.setattr(groebner, "normal_form", refuse)
    for I in (J, K, local):
        assert I.is_m_primary() == (I is local)
    assert local.standard_monomials() is local.standard_monomials()


def test_standard_monomials():
    m = max_ideal(CTX)
    assert m.standard_monomials() == ((0, 0),)
    assert len(ideal(CTX, "x^4", "x^2*y^2", "y^4").standard_monomials()) == 12
    got = ideal(CTX, "x^2", "x*y", "y^2").standard_monomials()
    assert set(got) == {(0, 0), (1, 0), (0, 1)}


def test_standard_monomials_requires_m_primary():
    with pytest.raises(PreconditionError):
        ideal(CTX, "x^3").standard_monomials()


def test_nakayama_count_property():
    # |std(mI)| - |std(I)| = mu(I) for m-primary monomial ideals
    import random

    rng = random.Random(3)
    m = max_ideal(CTX)
    for _ in range(8):
        a, b = rng.randrange(1, 4), rng.randrange(1, 4)
        mid = (rng.randrange(1, a + 1), rng.randrange(1, b + 1))
        gens = {(a, 0), (0, b), mid}
        mini = [g for g in gens if not any(h != g and h[0] <= g[0] and h[1] <= g[1] for h in gens)]
        I = Ideal.make(CTX, [CTX.monomial(g) for g in mini])
        mI = m.product(I)
        assert mI.length() - I.length() == len(mini)


# -- syzygies ------------------------------------------------------------------


def test_syzygy_koszul():
    M = syzygy_matrix(ideal(CTX, "x", "y"))
    assert M.shape == (2, 1)
    col = M.columns[0]
    assert {str(col[0]), str(col[1])} <= {"y", "-x", "x", "-y"}
    M.check()


def test_syzygy_bidiagonal_three_generators():
    M = syzygy_matrix(ideal(CTX, "x^4", "x^2*y^2", "y^4"))
    assert M.shape == (3, 2)
    assert entry_ideal(M) == ideal(CTX, "x^2", "y^2")


def test_syzygy_four_generators_entry_ideal_maximal():
    M = syzygy_matrix(ideal(CTX, "x^4", "x^3*y", "x*y^3", "y^4"))
    assert M.shape == (4, 3)
    assert entry_ideal(M) == max_ideal(CTX)


def test_syzygy_requires_homogeneous():
    with pytest.raises(PreconditionError):
        syzygy_matrix(ideal(CTX, "x^2 - y"))


def test_syzygy_names_redundant_generator():
    with pytest.raises(PreconditionError) as err:
        syzygy_matrix(ideal(CTX, "x", "x*y"))
    assert "x*y" in str(err.value)


def test_syzygy_binomial_input():
    # a non-monomial homogeneous ideal: columns must still annihilate
    I = ideal(CTX, "x^2 - y^2", "x*y")
    M = syzygy_matrix(I)
    M.check()
    assert M.shape[0] == 2


def test_entry_ideal_zero_matrix():
    z = CTX.zero()
    with pytest.raises(ValueError):
        entry_ideal([])
    assert entry_ideal([[z, z]]).is_zero


@settings(max_examples=25, deadline=None)
@given(
    st.sets(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_colon_brute_force_agreement(mid, a, b):
    # Groebner colon against the divisibility-only oracle
    gens = {(a, 0), (0, b)} | mid
    mini = [g for g in gens if not any(h != g and h[0] <= g[0] and h[1] <= g[1] for h in gens)]
    I = Ideal.make(CTX, [CTX.monomial(g) for g in mini])
    got = ideal_colon(I, max_ideal(CTX))
    expect_gens = brute_colon_monomial(set(mini), [(1, 0), (0, 1)], bound=11)
    assert got == Ideal.make(CTX, [CTX.monomial(g) for g in expect_gens])


def test_elimination_context_built_once_per_base_context(monkeypatch):
    """Every intersection and colon over one ring reuses one extended
    context, so the prime is checked once, not once per elimination."""
    from burchlab import linalg
    from burchlab.groebner import _extend_context

    calls = []
    real = linalg.is_prime
    monkeypatch.setattr(linalg, "is_prime", lambda n: calls.append(n) or real(n))
    ctx = RingContext(P, ("u", "w"))  # variable names no other test uses
    I = ideal(ctx, "u^3", "u*w", "w^4")
    m = max_ideal(ctx)
    colon = ideal_colon(I, m)
    ideal_colon(colon, m)
    ideal_intersection(I, ideal(ctx, "u"))
    assert calls == [P, P]  # the base context and its one extension
    assert _extend_context(ctx) is _extend_context(RingContext(P, ("u", "w")))


# -- the engine against the chain-criterion reference --------------------------


def _normal_form_reference(f, basis):
    """Division by `basis` in order, picking the largest term with max() and
    inverting each lead coefficient per reduction step."""
    ctx = f.ctx
    p = ctx.p
    work = dict(f.terms)
    remainder = {}
    lead = [(g.lead_exps, g) for g in basis if not g.is_zero]
    while work:
        exps = max(work, key=ctx.order.key)
        coeff = work.pop(exps)
        for le, g in lead:
            if mono_divides(le, exps):
                q_exps = mono_div(exps, le)
                q_coeff = (coeff * pow(g.lead_coeff, p - 2, p)) % p
                for ge, gc in g.terms[1:]:
                    e = mono_mul(ge, q_exps)
                    v = (work.get(e, 0) - q_coeff * gc) % p
                    if v:
                        work[e] = v
                    else:
                        work.pop(e, None)
                break
        else:
            remainder[exps] = coeff
    return Polynomial.from_dict(ctx, remainder)


def _spoly_reference(f, g):
    """The S-polynomial as a sorted Polynomial, through `mul_term` and
    subtraction: the form the engine used before it built a term dict."""
    ctx = f.ctx
    lcm = mono_lcm(f.lead_exps, g.lead_exps)
    a = f.mul_term(mono_div(lcm, f.lead_exps), pow(f.lead_coeff, -1, ctx.p))
    b = g.mul_term(mono_div(lcm, g.lead_exps), pow(g.lead_coeff, -1, ctx.p))
    return a - b


def _buchberger_reference(gens, ctx):
    """Every pair queued; a pair is skipped only when its leads are coprime
    or some third lead divides its lcm with both side pairs processed."""
    basis = [g.monic() for g in gens if not g.is_zero]
    if not basis:
        return []
    key = ctx.order.key
    pairs = []
    processed = set()

    def push(i, j):
        heapq.heappush(pairs, (key(mono_lcm(basis[i].lead_exps, basis[j].lead_exps)), i, j))

    for i, j in itertools.combinations(range(len(basis)), 2):
        push(i, j)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        processed.add((i, j))
        fi, fj = basis[i], basis[j]
        lcm = mono_lcm(fi.lead_exps, fj.lead_exps)
        if lcm == mono_mul(fi.lead_exps, fj.lead_exps):
            continue
        if any(
            k not in (i, j)
            and mono_divides(basis[k].lead_exps, lcm)
            and (min(i, k), max(i, k)) in processed
            and (min(j, k), max(j, k)) in processed
            for k in range(len(basis))
        ):
            continue
        r = _normal_form_reference(_spoly_reference(fi, fj), basis)
        if not r.is_zero:
            basis.append(r.monic())
            for k in range(len(basis) - 1):
                push(k, len(basis) - 1)
    return basis


def _reduced_reference(gens, ctx):
    basis = _buchberger_reference(gens, ctx)
    keep = [
        g for i, g in enumerate(basis)
        if not any(
            j != i and mono_divides(h.lead_exps, g.lead_exps) and (h.lead_exps != g.lead_exps or j < i)
            for j, h in enumerate(basis)
        )
    ]
    reduced = [
        _normal_form_reference(g, keep[:i] + keep[i + 1 :]).monic() for i, g in enumerate(keep)
    ]
    reduced.sort(key=lambda g: ctx.order.key(g.lead_exps))
    if any(g.total_degree() == 0 for g in reduced):
        return (ctx.one(),)
    return tuple(reduced)


ORDERS = (GREVLEX, LEX, Block(1))
VARS = ("x", "y", "z", "w")
SMALL_P = 7  # a small field makes cancellations and equal leads frequent


@st.composite
def generator_lists(draw):
    """Non-homogeneous generators of degree 1-3 in 2-4 variables, sometimes
    with a zero generator, a repeated one or a unit."""
    n = draw(st.integers(2, 4))
    ctx = RingContext(SMALL_P, VARS[:n], draw(st.sampled_from(ORDERS)))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: 1 <= sum(e) <= 3)
    polys = st.dictionaries(exps, st.integers(1, SMALL_P - 1), min_size=1, max_size=4).map(
        lambda d: Polynomial.from_dict(ctx, d)
    )
    gens = draw(st.lists(polys, min_size=2, max_size=4))
    extra = draw(st.sampled_from(("none", "zero", "repeat", "unit")))
    if extra == "zero":
        gens.append(ctx.zero())
    elif extra == "repeat":
        gens.append(gens[0].scale(draw(st.integers(1, SMALL_P - 1))))
    elif extra == "unit":
        gens.append(ctx.one().scale(draw(st.integers(1, SMALL_P - 1))))
    return ctx, gens, draw(polys)


@settings(max_examples=150, deadline=None)
@given(generator_lists())
def test_engine_matches_chain_criterion_reference(case):
    ctx, gens, f = case
    gb = reduced_groebner(gens, ctx)
    assert gb == _reduced_reference(gens, ctx)
    # division by the raw list (leads not monic) and by the reduced basis
    assert normal_form(f, Reducers(gens)) == _normal_form_reference(f, gens)
    assert normal_form(f, Reducers(gb)) == _normal_form_reference(f, list(gb))


@settings(max_examples=100, deadline=None)
@given(generator_lists())
def test_spoly_term_dict_matches_reference(case):
    """The packed term dict of the S-polynomial of two monic polynomials
    unpacks to the terms of the sorted reference S-polynomial, and holds no
    zero coefficient."""
    ctx, gens, f = case
    codec = monomial_codec(ctx)
    monic = [g.monic() for g in gens + [f] if not g.is_zero]
    for a, b in itertools.combinations(monic, 2):
        work = groebner._spoly(codec.pack(a), codec.pack(b))
        assert all(work.values())
        unpacked = {codec.decode(k): c for k, c in work.items()}
        assert Polynomial.from_dict(ctx, unpacked) == _spoly_reference(a, b)


# -- packed monomials against exponent tuples ----------------------------------

NAMES = ("t", "a", "b", "c", "d", "e", "f", "g")


@st.composite
def packed_pairs(draw):
    """Two exponent tuples, small or up to the largest packed exponent, in
    1-8 variables under grevlex, lex or Block(s) for every split s."""
    n = draw(st.integers(1, 8))
    order = draw(st.sampled_from((GREVLEX, LEX) + tuple(Block(s) for s in range(n + 2))))
    exps = st.tuples(*[st.integers(0, 3) | st.integers(0, MAX_PACKED_EXPONENT)] * n)
    return RingContext(SMALL_P, NAMES[:n], order), draw(exps), draw(exps)


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
def test_packed_monomials_match_exponent_tuples(case):
    """Integer order is the monomial order; decode inverts encode; the
    guard-bit divisibility test, the quotient, the lcm and the product agree
    with the tuple helpers, and a product past the field sets a guard bit."""
    ctx, a, b = case
    codec = monomial_codec(ctx)
    one, guard = codec.one, codec.guard
    ka, kb = codec.encode(a), codec.encode(b)
    assert codec.decode(ka) == a and codec.decode(kb) == b
    key = ctx.order.key
    assert (ka < kb, ka == kb) == (key(a) < key(b), a == b)
    assert (not (ka - kb + one) & guard) == mono_divides(b, a)
    if mono_divides(b, a):
        assert ka - kb + one == codec.encode(mono_div(a, b))
    assert codec.lcm(ka, kb) == codec.encode(mono_lcm(a, b))
    product = ka + kb - one
    if max(mono_mul(a, b)) <= MAX_PACKED_EXPONENT:
        assert product == codec.encode(mono_mul(a, b))
    else:
        assert product & guard


@st.composite
def wide_generator_lists(draw):
    """Sparse generators of degree 1-2 in 5-8 variables under grevlex, lex,
    Block(1) and Block(s) with s > 1.  The generators and f share a monomial factor
    with exponents up to MAX_EXPONENT: it shifts every S-polynomial and
    division step by one monomial and changes no step."""
    n = draw(st.integers(5, 8))
    order = draw(st.sampled_from((GREVLEX, LEX, Block(1), Block(draw(st.integers(2, n - 1))))))
    ctx = RingContext(SMALL_P, NAMES[:n], order)
    factor = ctx.monomial(draw(st.tuples(*[st.just(0) | st.integers(0, MAX_EXPONENT)] * n)))

    def monomial(variables):
        return tuple(variables.count(i) for i in range(n))

    exps = st.lists(st.integers(0, n - 1), min_size=1, max_size=2).map(monomial)
    polys = st.dictionaries(exps, st.integers(1, SMALL_P - 1), min_size=1, max_size=3).map(
        lambda d: Polynomial.from_dict(ctx, d) * factor
    )
    return ctx, draw(st.lists(polys, min_size=2, max_size=3)), draw(polys)


@settings(max_examples=100, deadline=None)
@given(wide_generator_lists())
def test_engine_matches_reference_in_many_variables(case):
    ctx, gens, f = case
    gb = reduced_groebner(gens, ctx)
    assert gb == _reduced_reference(gens, ctx)
    assert normal_form(f, Reducers(gens)) == _normal_form_reference(f, gens)
    assert normal_form(f, Reducers(gb)) == _normal_form_reference(f, list(gb))


def test_engine_matches_reference_in_an_eight_variable_elimination():
    """Block(1) over t and seven variables, the elimination context of a
    seven-variable ring, with exponents at MAX_EXPONENT: t·I + (1 - t)·J as
    `ideal_intersection` builds it."""
    ctx = RingContext(P, NAMES, Block(1))
    E = MAX_EXPONENT
    I = [f"a^{E}*b", "b^2 - c*d", f"e*f - g^{E}"]
    J = [f"a^{E}", "c*d - e", f"f^2 + b*g^{E}"]
    gens = [poly(f"t*({g})", ctx) for g in I] + [poly(f"{g} - t*({g})", ctx) for g in J]
    gb = reduced_groebner(gens, ctx)
    assert gb == _reduced_reference(gens, ctx)
    assert max(max(e) for g in gb for e, _ in g.terms) == 2 * E
    f = poly(f"a^{E}*b^3*c + t*g^{E}*e*f + c*d*e", ctx)
    assert normal_form(f, Reducers(gb)) == _normal_form_reference(f, list(gb))


def test_kernel_refuses_exponent_overflow():
    """A monomial past the packed field, given or made by a product in a
    reduction or an S-polynomial, is refused, never wrapped."""
    ctx = RingContext(P, ("y", "x"), LEX)
    F = MAX_PACKED_EXPONENT
    g = poly("y - x^2", ctx)
    f = ctx.monomial((1, F))  # y·x^F reduces to x^(F+2)
    with pytest.raises(PreconditionError):
        Ideal.make(ctx, [g]).contains(f)
    with pytest.raises(PreconditionError):
        reduced_groebner([g, f], ctx)
    with pytest.raises(PreconditionError):
        normal_form(ctx.monomial((0, F + 1)), Reducers([g]))
    assert normal_form(ctx.monomial((0, F)), Reducers([g])) == ctx.monomial((0, F))


def _spoly_count(monkeypatch, module, name, build):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda f, g: calls.append(1) or real(f, g))
    build()
    monkeypatch.setattr(module, name, real)
    return len(calls)


SPOLY_PINS = [
    # (variables, order, generators, S-polynomials the engine reduces); the
    # chain-criterion reference reduces 25, 10 and 18
    (
        ("t", "x", "y", "z"),
        Block(1),
        (
            "t*x^2", "t*y^2", "t*z^3", "t*(3*x^2 + 5*x*y + 7*y^2 + 11*x*z + 13*y*z + 17*z^2)",
            "t*(2*x^3 + 3*y^3 + 5*z^3 + 7*x*y*z + x^2*y)", "z - t*z",
        ),
        25,
    ),
    (("x", "y", "z"), GREVLEX, ("x^3", "y^3", "z^3", "x^2*y + 2*y^2*z + 3*z^2*x + 5*x*y*z", "x^2 + y^2 + z^2 + x*y"), 10),
    (("x", "y", "z"), LEX, ("x^3 - y^2", "x*y - x + z", "y^3 - x^2*y", "z^2 - y"), 14),
]


@pytest.mark.parametrize("variables, order, gens, pinned", SPOLY_PINS)
def test_spoly_count_pinned_below_reference(monkeypatch, variables, order, gens, pinned):
    """The pair criteria reduce no more S-polynomials than the chain
    criterion did, and the count on these inputs is pinned."""
    ctx = RingContext(P, variables, order)
    fs = [parse_polynomial(g, ctx) for g in gens]
    engine = _spoly_count(monkeypatch, groebner, "_spoly", lambda: reduce_basis(buchberger(fs, ctx), ctx))
    reference = _spoly_count(
        monkeypatch, sys.modules[__name__], "_spoly_reference", lambda: _buchberger_reference(fs, ctx)
    )
    assert engine == pinned
    assert engine <= reference


def test_reduced_bases_match_sympy():
    sympy = pytest.importorskip("sympy")
    cases = [
        ("x^2 + y*z - 1", "x*y - z^2", "y^3 - x"),
        ("x^3 - y^2*z", "x*y*z - 1", "z^2 - x*y"),
        ("x^2", "y^3", "z^2", "3*x^2 + 5*x*y + 7*y^2 + 11*x*z + 13*y*z + 17*z^2"),
        ("x*y - z", "y*z - x", "z*x - y"),
    ]
    symbols = sympy.symbols("x y z")
    for gens in cases:
        ours = Ideal.make(CTX3, [poly(g, CTX3) for g in gens]).groebner()
        exprs = [sympy.sympify(g.replace("^", "**")) for g in gens]
        theirs = sympy.groebner(exprs, *symbols, modulus=P, order="grevlex")
        got = set()
        for g in theirs.polys:
            terms = {exps: int(c) % P for exps, c in g.terms()}
            got.add(Polynomial.from_dict(CTX3, terms).monic())
        assert got == set(ours), gens
