import heapq
import itertools
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burchlab import groebner
from burchlab.groebner import (
    Ideal,
    PreconditionError,
    Reducers,
    buchberger,
    entry_ideal,
    ideal_colon,
    ideal_intersection,
    max_ideal,
    max_ideal_product,
    normal_form,
    reduce_basis,
    reduced_groebner,
    syzygy_matrix,
)
from burchlab.poly import (
    GREVLEX,
    MAX_EXPONENT,
    MAX_PACKED_EXPONENT,
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
    real = groebner._colon_step
    monkeypatch.setattr(groebner, "_colon_step", lambda I, g, K: calls.append(g) or real(I, g, K))
    gens = ("x^4", "x^2*y^2", "y^4")
    I = ideal(CTX, *gens)
    J = ideal_colon(I, max_ideal(CTX))
    assert ideal_colon(I, max_ideal(CTX)) is J
    assert len(calls) == 2  # one chained step per generator of m
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


def test_staircase_refused_past_max_length():
    """The limit is on the length of S/I, not on the box below the pure
    powers: a box of 10^6 with 298 standard monomials is listed.  The
    message names the ideal, its generator list cut at 120 characters."""
    limit = groebner.MAX_LENGTH
    assert ideal(CTX, f"x^{limit}", "y").length() == limit
    with pytest.raises(PreconditionError):
        ideal(CTX, f"x^{limit + 1}", "y").is_m_primary()
    with pytest.raises(PreconditionError, match=r"J = \(x\^10000000, y\)$"):
        ideal(CTX, "x^10000000", "y").finite_colength()
    dense = Polynomial.from_dict(CTX, {(k, 0): 1 for k in range(5000, 4960, -1)})
    with pytest.raises(PreconditionError, match=r"J = \(x\^5000 \+ x\^4999 \+ [^,]{90,}, \.\.\. \(2 generators\)\)$"):
        Ideal.make(CTX, [dense, CTX.variable(1)]).finite_colength()
    assert ideal(CTX3, "x^100", "y^100", "z^100", "x*y", "y*z", "x*z").length() == 298


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
    work = dict(f.exponent_terms())
    remainder = {}
    lead = [(g.lead_exps, g) for g in basis if not g.is_zero]
    while work:
        exps = max(work, key=ctx.order.key)
        coeff = work.pop(exps)
        for le, g in lead:
            if mono_divides(le, exps):
                q_exps = mono_div(exps, le)
                q_coeff = (coeff * pow(g.lead_coeff, p - 2, p)) % p
                for ge, gc in g.exponent_terms()[1:]:
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
    """The S-polynomial as a sorted Polynomial: each side's exponent
    tuples times lcm / lead, over its lead coefficient, then subtracted."""
    ctx = f.ctx
    lcm = mono_lcm(f.lead_exps, g.lead_exps)

    def side(h):
        q, inv = mono_div(lcm, h.lead_exps), pow(h.lead_coeff, -1, ctx.p)
        return Polynomial.from_dict(ctx, {mono_mul(e, q): c * inv for e, c in h.exponent_terms()})

    return side(f) - side(g)


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


ORDERS = (GREVLEX, Block(1))
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
    """The term dict of the S-polynomial of two monic polynomials decodes
    to the terms of the sorted reference S-polynomial, and holds no zero
    coefficient."""
    ctx, gens, f = case
    monic = [g.monic() for g in gens + [f] if not g.is_zero]
    for a, b in itertools.combinations(monic, 2):
        work = groebner._spoly(a, b)
        assert all(work.values())
        decoded = {ctx.codec.decode(k): c for k, c in work.items()}
        assert Polynomial.from_dict(ctx, decoded) == _spoly_reference(a, b)


# -- packed monomials against exponent tuples ----------------------------------

NAMES = ("t", "a", "b", "c", "d", "e", "f", "g")
NAMES9 = NAMES + ("h",)


@st.composite
def packed_pairs(draw):
    """Two exponent tuples, small or up to the largest packed exponent, in
    1-8 variables under grevlex or Block(1), or in the Block(1) ring of t
    and 8 more, the elimination ring of an 8-variable ring."""
    n = draw(st.integers(1, 9))
    orders = (GREVLEX, Block(1)) if n <= 8 else (Block(1),)
    exps = st.tuples(*[st.integers(0, 3) | st.integers(0, MAX_PACKED_EXPONENT)] * n)
    return RingContext(SMALL_P, NAMES9[:n], draw(st.sampled_from(orders))), draw(exps), draw(exps)


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
def test_packed_monomials_match_exponent_tuples(case):
    """Integer order is the monomial order; decode inverts encode; the
    guard-bit divisibility test, the quotient, the lcm and the product agree
    with the tuple helpers, and a product past the field sets a guard bit."""
    ctx, a, b = case
    codec = ctx.codec
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
    """Sparse generators of degree 1-2 in 5-8 variables under grevlex or
    Block(1).  The generators and f share a monomial factor with exponents
    up to MAX_EXPONENT: it shifts every S-polynomial and division step by
    one monomial and changes no step."""
    n = draw(st.integers(5, 8))
    order = draw(st.sampled_from(ORDERS))
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
    assert max(max(e) for g in gb for e, _ in g.exponent_terms()) == 2 * E
    f = poly(f"a^{E}*b^3*c + t*g^{E}*e*f + c*d*e", ctx)
    assert normal_form(f, Reducers(gb)) == _normal_form_reference(f, list(gb))


def test_kernel_refuses_exponent_overflow():
    """A monomial past the packed field, given or made by a product in a
    reduction or an S-polynomial, is refused, never wrapped."""
    ctx = RingContext(P, ("t", "x"), Block(1))
    F = MAX_PACKED_EXPONENT
    g = poly("t - x^2", ctx)  # its lead is t: the power of t comes first
    f = ctx.monomial((1, F))  # t·x^F reduces to x^(F+2)
    with pytest.raises(PreconditionError):
        Ideal.make(ctx, [g]).contains(f)
    with pytest.raises(PreconditionError):
        reduced_groebner([g, f], ctx)
    with pytest.raises(PreconditionError):
        normal_form(ctx.monomial((0, F + 1)), Reducers([g]))
    assert normal_form(ctx.monomial((0, F)), Reducers([g])) == ctx.monomial((0, F))


# -- monomial generators and products against the reference -------------------


@st.composite
def monomial_lists(draw):
    """Monomial generators, not monic, in 1-8 variables under grevlex or
    Block(1): repeats, multiples of a drawn generator (divisor chains), and
    sometimes a zero or a constant."""
    n = draw(st.integers(1, 8))
    order = draw(st.sampled_from(ORDERS))
    ctx = RingContext(SMALL_P, NAMES[:n], order)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.integers(1, SMALL_P - 1)
    gens = [ctx.monomial(e, draw(coeffs)) for e in draw(st.lists(exps, max_size=6))]
    for _ in range(draw(st.integers(0, 3)) if gens else 0):
        g = draw(st.sampled_from(gens))
        gens.append(draw(st.sampled_from((g.scale(draw(coeffs)), g * ctx.monomial(draw(exps))))))
    extra = draw(st.sampled_from(("none", "zero", "constant")))
    if extra == "zero":
        gens.append(ctx.zero())
    elif extra == "constant":
        gens.append(ctx.one().scale(draw(coeffs)))
    return ctx, draw(st.permutations(gens))


@settings(max_examples=200, deadline=None)
@given(monomial_lists())
def test_monomial_generators_match_reference_without_buchberger(case):
    """Monomial generators never reach `buchberger`, and their reduced
    basis (the minimal generators, monic, ascending) is the reference's."""
    ctx, gens = case
    with mock.patch.object(groebner, "buchberger", side_effect=AssertionError("buchberger ran on monomials")):
        gb = reduced_groebner(gens, ctx)
    assert gb == _reduced_reference(gens, ctx)


@st.composite
def product_pairs(draw):
    """Two generator lists over a small pool of monomials and binomials of
    degree 1-2 in 2-3 variables, so that equal products are frequent; one
    case in four is m times m·K, the product that gives μ(m·K)."""
    n = draw(st.integers(2, 3))
    ctx = RingContext(SMALL_P, VARS[:n], draw(st.sampled_from(ORDERS)))
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: 1 <= sum(e) <= 2)
    terms = st.dictionaries(exps, st.integers(1, SMALL_P - 1), min_size=1, max_size=2)
    pool = draw(st.lists(terms.map(lambda d: Polynomial.from_dict(ctx, d)), min_size=1, max_size=3))
    gens = st.lists(st.sampled_from(pool + [ctx.zero()]), min_size=1, max_size=3)
    I, J = Ideal.make(ctx, draw(gens)), Ideal.make(ctx, draw(gens))
    if draw(st.integers(0, 3)) == 0:
        I, J = max_ideal(ctx), max_ideal(ctx).product(J)
    return ctx, I, J


@settings(max_examples=100, deadline=None)
@given(product_pairs())
def test_product_drops_repeats_and_keeps_the_basis(case):
    """I·J lists each product once, in order of first occurrence, and its
    reduced basis is the reference basis of the full product list."""
    ctx, I, J = case
    full = [f * g for f in I.gens for g in J.gens]
    product = I.product(J)
    firsts = [full.index(g) for g in product.gens]
    assert firsts == sorted(set(firsts))
    assert set(product.gens) == {g for g in full if not g.is_zero}
    assert product.groebner() == _reduced_reference(full, ctx)


@st.composite
def factor_ideals(draw):
    """An ideal in 1-8 variables under grevlex or Block(1), from up to
    three sparse generators of degree at most 2, some with a constant term,
    so that most are not m-primary; or the zero ideal, the unit ideal, or an
    ideal whose generators are its reduced basis."""
    n = draw(st.integers(1, 8))
    ctx = RingContext(SMALL_P, NAMES[:n], draw(st.sampled_from(ORDERS)))
    exps = st.lists(st.integers(0, n - 1), max_size=2).map(lambda vs: tuple(vs.count(i) for i in range(n)))
    polys = st.dictionaries(exps, st.integers(1, SMALL_P - 1), min_size=1, max_size=3).map(
        lambda d: Polynomial.from_dict(ctx, d)
    )
    gens = draw(st.lists(polys, max_size=3 if n <= 4 else 2))
    kind = draw(st.sampled_from(("generators", "zero", "unit", "basis")))
    if kind == "zero":
        gens = draw(st.sampled_from(([], [ctx.zero()])))
    elif kind == "unit":
        gens.append(ctx.one().scale(draw(st.integers(1, SMALL_P - 1))))
    elif kind == "basis":
        gens = Ideal.make(ctx, gens).groebner()
    return ctx, Ideal.make(ctx, gens)


@settings(max_examples=200, deadline=None)
@given(factor_ideals())
def test_max_ideal_product_keeps_its_generators_and_the_reference_basis(case):
    """m·I lists x_v·f for f in I.gens, variable-major, each once, whatever
    its basis was computed from; that basis is the reference basis of the
    full product list."""
    ctx, I = case
    full = [ctx.variable(v) * f for v in range(ctx.nvars) for f in I.gens]
    mI = max_ideal_product(I)
    assert mI.gens == tuple(dict.fromkeys(full))
    assert mI.groebner() == _reduced_reference(full, ctx)


def _spoly_count(monkeypatch, module, name, build):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda f, g: calls.append(1) or real(f, g))
    build()
    monkeypatch.setattr(module, name, real)
    return len(calls)


SPOLY_PINS = [
    # (variables, order, generators, S-polynomials the engine reduces); the
    # chain-criterion reference reduces 25 and 10, the engine no pair of two
    # monomials
    (
        ("t", "x", "y", "z"),
        Block(1),
        (
            "t*x^2", "t*y^2", "t*z^3", "t*(3*x^2 + 5*x*y + 7*y^2 + 11*x*z + 13*y*z + 17*z^2)",
            "t*(2*x^3 + 3*y^3 + 5*z^3 + 7*x*y*z + x^2*y)", "z - t*z",
        ),
        21,
    ),
    (("x", "y", "z"), GREVLEX, ("x^3", "y^3", "z^3", "x^2*y + 2*y^2*z + 3*z^2*x + 5*x*y*z", "x^2 + y^2 + z^2 + x*y"), 8),
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


def test_no_pair_zero_by_construction_reaches_spoly(monkeypatch):
    """Buchberger reduces no pair of two monomials, and an elimination no
    pair inside t·G_I or inside (t - 1)·G_J, the bases it is seeded with;
    it reduces pairs across them."""
    seeded, pairs = [], []
    real_buchberger, real_spoly = groebner.buchberger, groebner._spoly

    def recording(gens, ctx, bases=()):
        seeded.extend(set(basis) for basis in bases)
        return real_buchberger(gens, ctx, bases)

    monkeypatch.setattr(groebner, "buchberger", recording)
    monkeypatch.setattr(groebner, "_spoly", lambda f, g: pairs.append((f, g)) or real_spoly(f, g))
    I = ideal(CTX3, "x^3", "y^3", "z^3", "x^2*y + 2*y^2*z + 3*z^2*x + 5*x*y*z")
    ideal_colon(I, max_ideal(CTX3))
    ideal_intersection(I, ideal(CTX3, "x*y - z^2", "y^2 + x*z"))
    for variables, order, gens, _ in SPOLY_PINS:
        ctx = RingContext(P, variables, order)
        reduced_groebner([parse_polynomial(g, ctx) for g in gens], ctx)
    assert seeded and pairs
    for f, g in pairs:
        assert len(f.terms) > 1 or len(g.terms) > 1
        assert not any(f in basis and g in basis for basis in seeded)
    crossing = [(f, g) for f, g in pairs if any(f in basis or g in basis for basis in seeded)]
    assert crossing


# -- elimination from seeded bases against the reference -----------------------

LETTERS = ("a", "b", "c", "d", "e", "f", "g", "h")


def _lift_reference(f, ctx2, tpow):
    return Polynomial.from_dict(ctx2, {(tpow,) + e: c for e, c in f.exponent_terms()})


def _intersection_reference(I_gens, J_gens, ctx):
    """The t-free part of the reference basis of t·I + (1 - t)·J under
    Block(1), from the generators as given: the grevlex reduced basis of
    I ∩ J, written in ctx."""
    ctx2 = RingContext(ctx.p, ("t",) + ctx.variables, Block(1))
    gens = [_lift_reference(f, ctx2, 1) for f in I_gens]
    gens += [_lift_reference(g, ctx2, 0) - _lift_reference(g, ctx2, 1) for g in J_gens]
    return tuple(
        Polynomial.from_dict(ctx, {e[1:]: c for e, c in g.exponent_terms()})
        for g in _reduced_reference(gens, ctx2)
        if g.lead_exps[0] == 0
    )


def _quotient_reference(h, g):
    """h / g by long division, for a multiple h of g."""
    ctx = h.ctx
    q = ctx.zero()
    while not h.is_zero:
        term = ctx.monomial(mono_div(h.lead_exps, g.lead_exps), h.lead_coeff * pow(g.lead_coeff, -1, ctx.p))
        q, h = q + term, h - term * g
    return q


def _colon_reference(I_gens, J_gens, ctx):
    """Generators of (I : J), the intersection of the principal colons
    (I ∩ (g)) / g."""
    result = None
    for g in J_gens:
        colon = [_quotient_reference(h, g) for h in _intersection_reference(I_gens, [g], ctx)]
        result = colon if result is None else list(_intersection_reference(result, colon, ctx))
    return result


@st.composite
def elimination_inputs(draw):
    """Sparse generators of degree 1-3 of I and J in a grevlex ring of 1-8
    variables, some of them monomials."""
    n = draw(st.integers(1, 8))
    ctx = RingContext(SMALL_P, LETTERS[:n])
    exps = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(lambda vs: tuple(vs.count(i) for i in range(n)))
    polys = st.dictionaries(exps, st.integers(1, SMALL_P - 1), min_size=1, max_size=3).map(
        lambda d: Polynomial.from_dict(ctx, d)
    )
    return ctx, draw(st.lists(polys, min_size=1, max_size=3)), draw(st.lists(polys, min_size=1, max_size=2))


CTX8 = RingContext(SMALL_P, LETTERS)
EIGHT_VARIABLE_COLON = (
    CTX8,
    [poly(g, CTX8) for g in ("a*b - c^2", "d*e + f", "g^2 - a*h", "b*h")],
    [poly(g, CTX8) for g in ("a", "h + c")],
)


@settings(max_examples=60, deadline=None)
@given(elimination_inputs())
@example(EIGHT_VARIABLE_COLON)
def test_elimination_matches_reference_of_lifted_generators(case):
    """`ideal_intersection` and `ideal_colon` agree with the reference
    basis of the lifted generators as given; they eliminate from the
    reduced bases of their inputs, and each result carries the reduced
    basis of its generators."""
    ctx, I_gens, J_gens = case
    I, J = Ideal.make(ctx, I_gens), Ideal.make(ctx, J_gens)
    meet = ideal_intersection(I, J)
    assert meet.gens == _intersection_reference(I.gens, J.gens, ctx)
    assert meet._cache["groebner"] == _reduced_reference(list(meet.gens), ctx)
    colon = ideal_colon(I, J)
    assert colon._cache["groebner"] == _reduced_reference(_colon_reference(I.gens, J.gens, ctx), ctx)
    assert colon._cache["groebner"] == reduced_groebner(colon.gens, ctx)
    for g in J.gens:
        principal = groebner.ideal_colon_element(I, g)
        assert principal._cache["groebner"] == reduced_groebner(principal.gens, ctx)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(elimination_inputs())
@example(EIGHT_VARIABLE_COLON)
def test_intersection_reduces_only_the_t_free_elements(case):
    """Under Block(1) a t-free lead is divisible only by t-free leads, so
    `reduce_basis` of the t-free elements of the elimination basis equals
    the t-free part of `reduce_basis` of all of it, and
    `ideal_intersection`, which reduces only the former, returns it."""
    ctx, I_gens, J_gens = case
    ctx2 = groebner._extend_context(ctx)
    t_key, free = ctx2.codec.one + ctx2.codec.units[0], ctx2.codec.one - ctx.codec.one
    I, J = Ideal.make(ctx, I_gens), Ideal.make(ctx, J_gens)
    I.groebner(), J.groebner()
    bases = []
    real = groebner.buchberger
    with mock.patch.object(groebner, "buchberger", lambda gens, c, seeds=(): bases.append(real(gens, c, seeds)) or bases[-1]):
        meet = ideal_intersection(I, J)
    (basis,) = bases
    all_then_filter = tuple(g for g in reduce_basis(basis, ctx2) if g.terms[0][0] < t_key)
    assert reduce_basis([g for g in basis if g.terms[0][0] < t_key], ctx2) == all_then_filter
    assert meet.groebner() == tuple(Polynomial(ctx, tuple((k - free, c) for k, c in g.terms)) for g in all_then_filter)


def test_intersection_and_colon_refuse_an_elimination_ring():
    """An intersection lifts grevlex keys into its elimination ring, so in a
    Block(1) ring it, and a colon, which intersects, are refused."""
    ctx = RingContext(SMALL_P, ("t", "x", "y"), Block(1))
    I, J = ideal(ctx, "x^2 - t*y", "y^3"), ideal(ctx, "x", "t")
    with pytest.raises(PreconditionError, match="grevlex"):
        ideal_intersection(I, J)
    with pytest.raises(PreconditionError, match="grevlex"):
        ideal_colon(I, J)
    with pytest.raises(PreconditionError, match="grevlex"):
        groebner.ideal_colon_element(I, poly("x", ctx))


# -- the chained colon and the sorted pair update against references -----------


@st.composite
def colon_inputs(draw):
    """I from one to three sparse generators of degree 1-3 in a grevlex ring
    of 1-4 variables, most of them not m-primary, sometimes with a pure
    power of every variable added; J generated by variables, by monomials,
    by linear forms, or by multiples of I's generators, so that the colon is
    the unit ideal."""
    n = draw(st.integers(1, 4))
    ctx = RingContext(SMALL_P, LETTERS[:n])
    exps = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(lambda vs: tuple(vs.count(i) for i in range(n)))
    coeffs = st.integers(1, SMALL_P - 1)
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=3).map(lambda d: Polynomial.from_dict(ctx, d))
    I_gens = draw(st.lists(polys, min_size=1, max_size=3))
    if draw(st.booleans()):
        I_gens += [ctx.variable(v) ** draw(st.integers(1, 3)) for v in range(n)]
    kind = draw(st.sampled_from(("variables", "monomials", "linear", "inside")))
    if kind == "variables":
        J_gens = [ctx.variable(v) for v in draw(st.permutations(range(n)))[: draw(st.integers(1, n))]]
    elif kind == "monomials":
        J_gens = [ctx.monomial(e) for e in draw(st.lists(exps, min_size=1, max_size=3))]
    elif kind == "linear":
        forms = st.lists(st.integers(0, SMALL_P - 1), min_size=n, max_size=n).filter(any)
        J_gens = [
            Polynomial.from_dict(ctx, {tuple(int(i == v) for i in range(n)): c for v, c in enumerate(form) if c})
            for form in draw(st.lists(forms, min_size=1, max_size=3))
        ]
    else:
        J_gens = [draw(st.sampled_from(I_gens)) * ctx.monomial(draw(exps)) for _ in range(draw(st.integers(1, 2)))]
    return ctx, I_gens, J_gens


@settings(max_examples=120, deadline=None)
@given(colon_inputs())
@example((CTX3, [poly("x^2*y - z^3", CTX3), poly("y^2", CTX3)], list(max_ideal(CTX3).gens)))
@example((CTX, [poly("x^2", CTX), poly("x*y", CTX)], [poly("x", CTX)]))
def test_chained_colon_matches_intersection_of_principal_colons(case):
    """The chain K_j = (I ∩ g_j·K_{j-1}) / g_j gives the reference colon,
    the intersection of the principal colons, and carries the basis
    computed from scratch.  By monic monomials, as for (I : m), its
    generators are the reference's generators: its reduced basis."""
    ctx, I_gens, J_gens = case
    I, J = Ideal.make(ctx, I_gens), Ideal.make(ctx, J_gens)
    reference = _colon_reference(I.gens, J.gens, ctx)
    colon = ideal_colon(I, J)
    assert colon._cache["groebner"] == _reduced_reference(reference, ctx)
    assert colon._cache["groebner"] == reduced_groebner(colon.gens, ctx)
    if all(len(g.terms) == 1 and g.lead_coeff == 1 for g in J.gens):
        assert colon.gens == tuple(reference)
    if J.gens and all(I.contains(g) for g in J.gens):
        assert colon.contains_unit


def test_colon_by_m_takes_one_elimination_per_variable(monkeypatch):
    """(I : m) in k[x,y,z] is three eliminations, the second and third
    seeded with x·G_{K_1} and y·G_{K_2}."""
    calls = []
    real = groebner.ideal_intersection
    monkeypatch.setattr(groebner, "ideal_intersection", lambda I, J: calls.append(J) or real(I, J))
    I = ideal(CTX3, "x^3", "y^3", "z^3", "x^2*y + 2*y^2*z + 3*z^2*x + 5*x*y*z")
    J = ideal_colon(I, max_ideal(CTX3))
    assert len(calls) == 3
    assert [g.lead_exps for g in calls[0].groebner()] == [(1, 0, 0)]
    for seeded in calls[1:]:
        assert seeded.groebner() == reduced_groebner(seeded.gens, CTX3)
    assert J.gens == J.groebner() == _reduced_reference(_colon_reference(I.gens, max_ideal(CTX3).gens, CTX3), CTX3)


def _new_pairs_reference(codec, lh, active, leads, zero):
    """The pair update as a scan of the new pairs in `active` order: a pair
    with coprime leads keeps its lcm to prune others and is not queued;
    any other is kept when no kept lcm and no later lcm divides its own."""
    one, guard = codec.one, codec.guard
    dl = lh - one
    made = [codec.lcm(leads[i], lh) for i in active]
    kept, queued = [], []
    for n, (lcm, i) in enumerate(zip(made, active)):
        if lcm == leads[i] + dl:
            kept.append(lcm)
            continue
        up = lcm + one
        later = itertools.islice(made, n + 1, None)
        if all((up - m) & guard for m in kept) and all((up - m) & guard for m in later):
            kept.append(lcm)
            if not zero(i):
                queued.append((lcm, i))
    return queued


@st.composite
def pair_updates(draw):
    """Packed leads over exponents 0-2 in 1-4 variables, under grevlex or
    Block(1), so that equal lcms and coprime pairs are frequent; an
    increasing run of them active; monomial flags and block tags for the
    old elements and the new one."""
    n = draw(st.integers(1, 4))
    codec = RingContext(SMALL_P, LETTERS[:n], draw(st.sampled_from(ORDERS))).codec
    exps = st.tuples(*[st.integers(0, 2)] * n).map(codec.encode)
    leads = draw(st.lists(exps, min_size=1, max_size=12))
    active = sorted(draw(st.sets(st.integers(0, len(leads) - 1))))
    tags = st.none() | st.integers(0, 1)
    monomial = draw(st.lists(st.booleans(), min_size=len(leads), max_size=len(leads)))
    block = draw(st.lists(tags, min_size=len(leads), max_size=len(leads)))
    mono, b = draw(st.booleans()), draw(tags)

    def zero(i):
        return (mono and monomial[i]) or (b is not None and block[i] == b)

    return codec, draw(exps), active, leads, zero


@settings(max_examples=400, deadline=None)
@given(pair_updates())
def test_sorted_pair_update_queues_the_pairs_of_the_scan(case):
    """Walking the distinct lcms in ascending order queues exactly the
    pairs that the scan in `active` order queues."""
    codec, lh, active, leads, zero = case
    got = groebner._new_pairs(codec, lh, active, leads, zero)
    assert sorted(got) == sorted(_new_pairs_reference(codec, lh, active, leads, zero))


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
