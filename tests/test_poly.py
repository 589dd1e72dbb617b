import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burchlab.poly import (
    GREVLEX,
    LEX,
    MAX_EXPONENT,
    MAX_TERMS,
    Block,
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
    assert [e for e, _ in f.terms] == [(4, 0), (2, 2)]


def test_parse_zero():
    assert poly("0").is_zero


def test_parse_binomial_negative_coefficient():
    f = poly("x^2*z^2 - y^2", CTX3)
    assert dict(f.terms) == {(2, 0, 2): 1, (0, 2, 0): P - 1}


def test_parse_reduces_coefficients_mod_p():
    f = poly(f"{P + 3}*x")
    assert dict(f.terms) == {(1, 0): 3}


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
    assert poly("x^1000000").terms == (((1000000, 0), 1),)


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


@pytest.mark.parametrize("order", [GREVLEX, LEX, Block(1)])
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


def test_context_checks_primality_once(monkeypatch):
    from burchlab import linalg

    calls = []
    real = linalg.is_prime
    monkeypatch.setattr(linalg, "is_prime", lambda n: calls.append(n) or real(n))
    ctx = RingContext(P, ("x", "y"))
    assert poly("2*x^2 + 3*y", ctx).monic().lead_coeff == 1  # an inverse needs no primality test
    assert calls == [P]
    assert ctx == CTX and hash(ctx) == hash(CTX) and "field" not in repr(ctx)
