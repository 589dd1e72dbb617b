import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burchlab.linalg import PreconditionError
from burchlab.poly import (
    GREVLEX,
    MAX_EXPONENT,
    MAX_PACKED_EXPONENT,
    MAX_TERMS,
    Block,
    MonomialOrder,
    ParseError,
    Polynomial,
    RingContext,
    mono_divides,
    mono_mul,
    monomials_of_degree,
    parse_polynomial,
)

P = 32003
CTX = RingContext(P, ("x", "y"))
CTX3 = RingContext(P, ("x", "y", "z"))


def poly(s, ctx=CTX):
    return parse_polynomial(s, ctx)


# -- parsing ------------------------------------------------------------------


def test_parse_two_terms():
    f = poly("x^4 + x^2*y^2")
    assert [e for e, _ in f.exponent_terms()] == [(4, 0), (2, 2)]


def test_parse_zero():
    assert poly("0").is_zero


def test_parse_binomial_negative_coefficient():
    f = poly("x^2*z^2 - y^2", CTX3)
    assert dict(f.exponent_terms()) == {(2, 0, 2): 1, (0, 2, 0): P - 1}


def test_parse_reduces_coefficients_mod_p():
    f = poly(f"{P + 3}*x")
    assert dict(f.exponent_terms()) == {(1, 0): 3}


def test_parse_parentheses_and_power():
    assert poly("(x + y)^2") == poly("x^2 + 2*x*y + y^2")


def test_parse_no_implicit_multiplication():
    with pytest.raises(ParseError):
        poly("2x")


def test_parse_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        poly("x + w^2")
    assert err.value.position == 4


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        poly("x + ")


def test_unary_minus():
    assert poly("-x + x").is_zero
    assert poly("-(x - y)") == poly("y - x")


# -- printing -----------------------------------------------------------------


def test_print_round_trip_examples():
    for s in ("x^4 + x^2*y^2", "0", "x^2 - y", "3*x*y - 2", "x^3*y + 31*y^2"):
        f = poly(s)
        assert parse_polynomial(str(f), CTX) == f


def test_print_round_trip_regression_corpus():
    # every polynomial the regression corpus is built from
    corpus = [
        "x^4", "x^2*y^2", "y^4", "x^3*y", "x*y^3", "x^2", "x*y", "y^2",
        "x^3", "y^3", "x^2*y", "y^2*z", "z^2*x", "z^4",
        "x^2*z^2 - y^2", "x^4 - y*z^2", "x^2*y - z^4",
        "y^2 - x^3", "x*z - y^2", "x^3 - y*z", "x^2*y - z^2",
        "t^2", "x - y",
    ]
    for s in corpus:
        ctx = CTX3 if any(v in s for v in ("z",)) else RingContext(P, ("x", "y", "t"))
        f = parse_polynomial(s, ctx)
        assert parse_polynomial(str(f), ctx) == f


def test_print_canonical_descending():
    f = poly("y^2 + x^2 + x*y")
    assert str(f) == "x^2 + x*y + y^2"


def test_print_minus_one_coefficient():
    assert str(poly("x - y")) == "x - y"


@pytest.mark.parametrize("p", [2, 3])
def test_print_round_trip_small_primes(p):
    """At p = 2 the coefficient p - 1 is 1 and prints without a sign; at
    p = 3 it still prints as a subtraction."""
    ctx = RingContext(p, ("x", "y"))
    for s in ("x^3 + y", "x^2 - y", "x*y - 1", "-x", "x^4 + x^2*y^2 + y^4", "0", "1"):
        f = parse_polynomial(s, ctx)
        assert parse_polynomial(str(f), ctx) == f
    assert str(parse_polynomial("x^3 + y", ctx)) == "x^3 + y"
    assert str(parse_polynomial("x^3 - y", ctx)) == ("x^3 + y" if p == 2 else "x^3 - y")


# -- arithmetic ---------------------------------------------------------------


def test_multiply_by_one_and_variables():
    f = poly("x^2 + y")
    assert f * CTX.one() == f
    assert poly("x") * poly("y") == poly("x*y")


def test_difference_of_squares():
    assert poly("x + y") * poly("x - y") == poly("x^2 - y^2")


def test_power_matches_repeated_product():
    f = poly("x + y")
    product = CTX.one()
    for _ in range(13):
        product = product * f
    assert f**13 == product
    assert f**0 == CTX.one() and f**1 == f
    with pytest.raises(ValueError):
        f ** -1


def test_parse_huge_power_is_one_monomial():
    # square-and-multiply: about 20 squarings, not a million products
    assert poly("x^1000000") == CTX.monomial((1000000, 0))
    assert poly("x^1000000").exponent_terms() == [((1000000, 0), 1)]


def test_parse_refuses_exponent_above_limit():
    assert poly(f"x^{MAX_EXPONENT}") == CTX.monomial((MAX_EXPONENT, 0))
    assert poly(f"x^000{MAX_EXPONENT}") == CTX.monomial((MAX_EXPONENT, 0))
    for exponent in (MAX_EXPONENT + 1, 10**20, "9" * 5000):
        with pytest.raises(ParseError) as exc:
            poly(f"x*y + x^{exponent}")
        assert exc.value.position == 8  # the exponent


def test_parse_refuses_result_exponent_above_limit():
    """A power is refused when its largest exponent times the power, and a
    product when its largest pairwise exponent sum, passes MAX_EXPONENT;
    both are checked before expanding, at the exponent or the '*'."""
    half = MAX_EXPONENT // 2
    assert poly(f"x^{half}*x^{MAX_EXPONENT - half}") == CTX.monomial((MAX_EXPONENT, 0))
    assert poly(f"(x^{half}*y)^2") == CTX.monomial((2 * half, 2))
    assert poly(f"(x-x)^{MAX_EXPONENT}").is_zero
    cases = (
        (f"(x^{MAX_EXPONENT})^{MAX_EXPONENT}", 13),
        (f"(x*y^2)^{half + 1}", 8),
        (f"x^{MAX_EXPONENT}*x", 10),
        (f"y + x^{half}*(x^{half} + y)*x^2", 29),
    )
    for text, at in cases:
        with pytest.raises(ParseError) as exc:
            poly(text)
        assert exc.value.position == at and f"exponent above the limit {MAX_EXPONENT}" in str(exc.value)


def test_parse_refuses_expansion_above_limit():
    """A power or product is refused, before it is expanded, when its term
    count bound exceeds MAX_TERMS; the largest binomial power still parses."""
    big = MAX_TERMS - 1  # (x+y)^big has MAX_TERMS terms
    assert len(poly(f"(x+y)^{big}").terms) == MAX_TERMS
    assert len(poly("(x+y+z)^47", CTX3).terms) == 1176  # comb(49, 2)
    assert poly(f"x^{MAX_EXPONENT} * y^{MAX_EXPONENT}") == CTX.monomial((MAX_EXPONENT, MAX_EXPONENT))
    assert poly("(x+y)^0") == CTX.one() and poly("(x-x)^5").is_zero
    for text, at in ((f"(x+y)^{big + 1}", 6), ("(x+y+z)^48", 8), ("(x+y)^200000", 6), ("(x+y)^40 * (x+y)^40", 9)):
        with pytest.raises(ParseError) as exc:
            poly(text, CTX3)
        assert exc.value.position == at and f"limit of {MAX_TERMS} terms" in str(exc.value)


def test_homogeneous_degrees():
    assert poly("x^2 + x*y").homogeneous_degree() == 2
    assert poly("x^2 + x").homogeneous_degree() is None
    # mixed degrees 4 and 2 in the standard grading
    assert not poly("x^2*z^2 - y^2", CTX3).is_homogeneous()


small_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(0, P - 1),
    ),
    max_size=5,
).map(lambda items: Polynomial.from_dict(CTX, dict(items)))


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(small_polys)
@example(Polynomial.from_dict(CTX, {(0, 0): P - 1}))  # the constant -1 printed as "-32002"
def test_parse_print_round_trip_random(f):
    assert parse_polynomial(str(f), CTX) == f


# -- monomial orders ----------------------------------------------------------

# the two orders a ring may have; the ids are those the cases had when a lex
# case stood between them
RING_ORDERS = [pytest.param(GREVLEX, id="order0"), pytest.param(Block(1), id="order2")]


@pytest.mark.parametrize("order", RING_ORDERS)
def test_order_axioms_exhaustive(order):
    # totality, multiplicativity and minimality of 1 on all monomials of
    # degree <= 6 in 3 variables
    monos = [m for d in range(7) for m in monomials_of_degree(CTX3, d)]
    keys = {m: order.key(m) for m in monos}
    assert len(set(keys.values())) == len(monos)
    one = (0, 0, 0)
    for m in monos:
        if m != one:
            assert keys[m] > keys[one]
    small = [m for d in range(4) for m in monomials_of_degree(CTX3, d)]
    for a, b in itertools.combinations(small, 2):
        lo, hi = (a, b) if keys[a] < keys[b] else (b, a)
        for c in small:
            assert order.key(mono_mul(c, lo)) < order.key(mono_mul(c, hi))


def test_grevlex_classic_comparisons():
    k = GREVLEX.key
    x2, xy, y2 = (2, 0), (1, 1), (0, 2)
    assert k(x2) > k(xy) > k(y2)
    assert k((3, 1)) > k((1, 3))


def test_block_order_eliminates_first_block():
    order = Block(1)
    t = (1, 0, 0)
    xy_big = (0, 5, 5)
    assert order.key(t) > order.key(xy_big)


def test_divisibility():
    assert mono_divides((1, 0), (2, 1))
    assert not mono_divides((2, 1), (1, 3))


def test_context_validation():
    with pytest.raises(ValueError):
        RingContext(P, ())
    with pytest.raises(ValueError):
        RingContext(P, ("x", "x"))
    with pytest.raises(ValueError):
        RingContext(10, ("x",))
    with pytest.raises(ValueError):
        RingContext(P, tuple("abcdefghi"))
    # the elimination ring of an 8-variable ring has t besides them, and no more
    assert RingContext(P, tuple("tabcdefgh"), Block(1)).nvars == 9
    with pytest.raises(ValueError):
        RingContext(P, tuple("tabcdefghi"), Block(1))
    with pytest.raises(ValueError):
        RingContext(P, tuple("tabcdefgh"), Block(2))


class _Lex(MonomialOrder):
    def key(self, exps):
        return exps


@pytest.mark.parametrize("order", [Block(0), Block(2), Block(3), _Lex()])
def test_context_refuses_orders_other_than_grevlex_and_block_1(order):
    """A ring is grevlex, or Block(1) for an elimination ring; any other
    order is refused, whatever the number of variables."""
    for variables in (("x", "y", "z"), ("t", "x", "y")):
        with pytest.raises(ValueError, match="neither grevlex nor"):
            RingContext(P, variables, order)
    assert RingContext(P, ("t", "x", "y"), Block(1)).order == Block(1)
    assert RingContext(P, ("x", "y", "z")).order == GREVLEX


def test_context_checks_primality_once(monkeypatch):
    from burchlab import linalg

    calls = []
    real = linalg.is_prime
    monkeypatch.setattr(linalg, "is_prime", lambda n: calls.append(n) or real(n))
    ctx = RingContext(P, ("x", "y"))
    assert poly("2*x^2 + 3*y", ctx).monic().lead_coeff == 1  # an inverse needs no primality test
    assert calls == [P]
    assert ctx == CTX and hash(ctx) == hash(CTX) and "field" not in repr(ctx)


# -- packed polynomials against exponent tuples ---------------------------------

SMALL_P = 7  # a small field makes cancellations frequent
NAMES = ("t", "a", "b", "c", "d", "e", "f", "g")


@st.composite
def tuple_polynomials(draw):
    """A ring in 1-8 variables under grevlex or Block(1), two polynomials as
    dicts of exponent tuples, a scalar and a power."""
    n = draw(st.integers(1, 8))
    order = draw(st.sampled_from([GREVLEX, Block(1)]))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    dicts = st.dictionaries(exps, st.integers(0, 2 * SMALL_P), max_size=5)
    ctx = RingContext(SMALL_P, NAMES[:n], order)
    return ctx, draw(dicts), draw(dicts), draw(st.integers(-SMALL_P, 2 * SMALL_P)), draw(st.integers(0, 3))


def _reference_terms(ctx, coeffs):
    """The nonzero terms of a dict of exponent tuples, descending in the
    order's reference key."""
    terms = [(e, c % ctx.p) for e, c in coeffs.items() if c % ctx.p]
    return sorted(terms, key=lambda t: ctx.order.key(t[0]), reverse=True)


def _reference_sum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return out


def _reference_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = mono_mul(e1, e2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


@settings(max_examples=200, deadline=None)
@given(tuple_polynomials())
def test_packed_arithmetic_matches_exponent_tuples(case):
    """+, -, *, **, scale, monic and from_dict on packed keys give the
    terms, in the order, of the same operations on exponent tuples."""
    ctx, a, b, c, n = case
    f, g = Polynomial.from_dict(ctx, a), Polynomial.from_dict(ctx, b)

    def same(h, coeffs):
        assert h.exponent_terms() == _reference_terms(ctx, coeffs)

    same(f, a)
    same(f + g, _reference_sum(a, b))
    same(f - g, _reference_sum(a, b, -1))
    same(f * g, _reference_product(a, b))
    power = {ctx.zero_exps(): 1}
    for _ in range(n):
        power = _reference_product(power, a)
    same(f**n, power)
    same(f.scale(c), {e: v * c for e, v in a.items()})
    if f.is_zero:
        assert f.monic().is_zero and f.constant_term == 0
    else:
        lead, lead_coeff = _reference_terms(ctx, a)[0]
        assert f.lead_exps == lead
        same(f.monic(), {e: v * pow(lead_coeff, -1, SMALL_P) for e, v in a.items()})
        assert f.constant_term == a.get(ctx.zero_exps(), 0) % SMALL_P
    assert ctx.one() == ctx.monomial(ctx.zero_exps())
    assert [ctx.variable(i) for i in range(ctx.nvars)] == [ctx.monomial(ctx.var_exps(i)) for i in range(ctx.nvars)]


@pytest.mark.parametrize("order", RING_ORDERS)
def test_product_past_the_packed_field_is_refused(order):
    """A monomial past MAX_PACKED_EXPONENT, given or made by a product of a
    monomial or of two polynomials, is refused when it is made."""
    ctx = RingContext(P, ("x", "y"), order)
    F = MAX_PACKED_EXPONENT
    x, y, one = ctx.variable(0), ctx.variable(1), ctx.one()
    top = ctx.monomial((F, 1))
    assert top * one == top and (top + y) * (y + one) == top * y + top + y * y + y
    with pytest.raises(PreconditionError):
        ctx.monomial((F + 1, 0))
    with pytest.raises(PreconditionError):
        top * x
    with pytest.raises(PreconditionError):
        (top + y) * (x + y)


# -- the parser against a term-by-term expansion -------------------------------


def _term_bound(tree) -> int:
    """An upper bound on the terms of an expression tree, from the bounds the
    parser refuses past MAX_TERMS; the largest over its nodes."""
    def walk(node):
        kind = node[0]
        if kind in ("num", "var"):
            return 1, 1
        if kind == "neg":
            return walk(node[1])
        if kind == "pow":
            t, top = walk(node[1])
            n = node[2]
            t = 1 if t == 1 or n == 0 else math.comb(n + t - 1, t - 1)
            return t, max(top, t)
        (a, top_a), (b, top_b) = walk(node[1]), walk(node[2])
        t = a * b if kind == "*" else a + b
        return t, max(top_a, top_b, t)

    return walk(tree)[1]


@st.composite
def expressions(draw):
    """A ring in 1-8 variables under grevlex or Block(1), and an expression
    tree over its variables and integers in [0, 3p]: sums, differences,
    products, powers 0-3 and unary minus, small enough that the parser
    refuses nothing."""
    n = draw(st.integers(1, 8))
    order = draw(st.sampled_from([GREVLEX, Block(1)]))
    ctx = RingContext(SMALL_P, NAMES[:n], order)
    leaves = st.tuples(st.just("num"), st.integers(0, 3 * SMALL_P)) | st.tuples(st.just("var"), st.integers(0, n - 1))

    def extend(children):
        return (
            st.tuples(st.just("neg"), children)
            | st.tuples(st.just("pow"), children, st.integers(0, 3))
            | st.tuples(st.sampled_from(("+", "-", "*")), children, children)
        )

    tree = draw(st.recursive(leaves, extend, max_leaves=10).filter(lambda t: _term_bound(t) <= MAX_TERMS))
    return ctx, tree


def _render(ctx, node) -> str:
    """The text of a tree: a power base or a negated operand is bracketed
    unless it is a leaf, and so is a sum that is a factor or the right side
    of a sum."""
    kind = node[0]
    if kind == "num":
        return str(node[1])
    if kind == "var":
        return ctx.variables[node[1]]

    def bracketed(child, when):
        text = _render(ctx, child)
        return f"({text})" if child[0] in when else text

    if kind == "neg":
        return "-" + bracketed(node[1], ("neg", "pow", "+", "-", "*"))
    if kind == "pow":
        return bracketed(node[1], ("neg", "pow", "+", "-", "*")) + f"^{node[2]}"
    if kind == "*":
        return bracketed(node[1], ("+", "-")) + "*" + bracketed(node[2], ("+", "-"))
    return _render(ctx, node[1]) + f" {kind} " + bracketed(node[2], ("+", "-"))


def _expand(ctx, node) -> dict:
    """The coefficients, by exponent tuple, of a tree expanded term by term."""
    kind = node[0]
    if kind == "num":
        return {ctx.zero_exps(): node[1]}
    if kind == "var":
        return {ctx.var_exps(node[1]): 1}
    if kind == "neg":
        return {e: -c for e, c in _expand(ctx, node[1]).items()}
    if kind == "pow":
        power = {ctx.zero_exps(): 1}
        for _ in range(node[2]):
            power = _reference_product(power, _expand(ctx, node[1]))
        return power
    a, b = _expand(ctx, node[1]), _expand(ctx, node[2])
    if kind == "*":
        return _reference_product(a, b)
    return _reference_sum(a, b, 1 if kind == "+" else -1)


@settings(max_examples=100, deadline=None)
@given(expressions())
@example((RingContext(SMALL_P, ("t", "a")), ("-", ("neg", ("var", 0)), ("*", ("neg", ("var", 1)), ("pow", ("var", 0), 2)))))
def test_parser_matches_term_by_term_expansion(case):
    """A parsed expression has the terms, in order, of its tree expanded by
    exponent tuples; the example reads "-t - -a*t^2"."""
    ctx, tree = case
    assert parse_polynomial(_render(ctx, tree), ctx).exponent_terms() == _reference_terms(ctx, _expand(ctx, tree))
