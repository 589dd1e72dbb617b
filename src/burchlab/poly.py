"""Multivariate polynomials over F_p with pluggable monomial orders.

Monomials are plain exponent tuples.  A Polynomial stores its terms as a
tuple of (exponents, coefficient) pairs, strictly descending in the ring's
monomial order, with coefficients in [1, p).  The empty term tuple is the
zero polynomial.  Values are immutable and hashable.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

from . import linalg
from .linalg import EXACT_LIMIT, PreconditionError

MAX_VARIABLES = 8

Exponents = tuple  # tuple[int, ...], one entry per ring variable


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total multiplicative order with 1 minimal, given by a sort key."""

    def key(self, exps: Exponents):
        raise NotImplementedError


@dataclass(frozen=True)
class Grevlex(MonomialOrder):
    """Degree order breaking ties by smallest trailing exponent (degrevlex)."""

    def key(self, exps):
        return (sum(exps), tuple(map(operator.neg, reversed(exps))))


@dataclass(frozen=True)
class Lex(MonomialOrder):
    def key(self, exps):
        return exps


@dataclass(frozen=True)
class Block(MonomialOrder):
    """Elimination order: the first `split` variables dominate, grevlex
    within each block."""

    split: int

    def key(self, exps):
        head, tail = exps[: self.split], exps[self.split :]
        return (
            sum(head),
            tuple(map(operator.neg, reversed(head))),
            sum(tail),
            tuple(map(operator.neg, reversed(tail))),
        )


GREVLEX = Grevlex()
LEX = Lex()


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples); map over a builtin runs about twice as
# fast as the equivalent generator expression, and these are the hottest calls


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(operator.add, a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(operator.le, a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """a / b, assuming b | a."""
    out = tuple(map(operator.sub, a, b))
    if min(out) < 0:
        raise ValueError(f"{b} does not divide {a}")
    return out


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


# ---------------------------------------------------------------------------
# ring context


@dataclass(frozen=True)
class RingContext:
    """A polynomial ring F_p[x_1..x_n] with a default monomial order.

    The ring is read as the regular local ring obtained by localizing at
    (x_1..x_n); all user-facing ideals keep their generators inside that
    maximal ideal, which makes the polynomial computations agree with the
    local ones for every operation offered here.
    """

    p: int
    variables: tuple[str, ...]
    order: MonomialOrder = GREVLEX

    def __post_init__(self):
        # the documented range of moduli: p^2 < 2^53, so every product of two
        # residues in the int64 linear algebra is exact; checked before
        # primality, whose trial division grows with sqrt(p)
        if self.p * self.p >= EXACT_LIMIT:
            raise PreconditionError(f"modulus {self.p} outside the supported range (needs p^2 < 2^53)")
        if not linalg.is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if not (1 <= len(self.variables) <= MAX_VARIABLES):
            raise ValueError(f"need 1..{MAX_VARIABLES} variables")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        for name in self.variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise ValueError(f"bad variable name {name!r}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero_exps(self) -> Exponents:
        return (0,) * self.nvars

    def var_exps(self, i: int) -> Exponents:
        e = [0] * self.nvars
        e[i] = 1
        return tuple(e)

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return Polynomial(self, ((self.zero_exps(), 1),))

    def variable(self, i: int) -> "Polynomial":
        return Polynomial(self, ((self.var_exps(i), 1),))

    def monomial(self, exps: Exponents, coeff: int = 1) -> "Polynomial":
        return Polynomial.from_dict(self, {tuple(exps): coeff})


def check_same_context(a: "Polynomial", b: "Polynomial") -> None:
    if a.ctx != b.ctx:
        raise ValueError("polynomials from different ring contexts")


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    ctx: RingContext
    terms: tuple  # ((exps, coeff), ...) descending in ctx.order, coeff in [1,p)
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.ctx.p, self.ctx.variables, self.terms)))

    @staticmethod
    def from_dict(ctx: RingContext, coeffs: dict) -> "Polynomial":
        p = ctx.p
        items = []
        for exps, c in coeffs.items():
            c %= p
            if c:
                items.append((tuple(exps), c))
        items.sort(key=lambda t: ctx.order.key(t[0]), reverse=True)
        return Polynomial(ctx, tuple(items))

    def __hash__(self):
        return self._hash

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead_exps(self) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def lead_coeff(self) -> int:
        return self.terms[0][1]

    @property
    def constant_term(self) -> int:
        zero = self.ctx.zero_exps()
        for exps, c in self.terms:
            if exps == zero:
                return c
        return 0

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if mixed (0 is degree 0)."""
        if not self.terms:
            return 0
        degs = {sum(e) for e, _ in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_homogeneous(self) -> bool:
        return self.homogeneous_degree() is not None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        check_same_context(self, other)
        out = dict(self.terms)
        p = self.ctx.p
        for exps, c in other.terms:
            v = (out.get(exps, 0) + c) % p
            if v:
                out[exps] = v
            else:
                out.pop(exps, None)
        return Polynomial.from_dict(self.ctx, out)

    def __neg__(self) -> "Polynomial":
        p = self.ctx.p
        return Polynomial(self.ctx, tuple((e, p - c) for e, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        check_same_context(self, other)
        p = self.ctx.p
        out: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = mono_mul(e1, e2)
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Polynomial.from_dict(self.ctx, out)

    def scale(self, c: int) -> "Polynomial":
        c %= self.ctx.p
        if c == 0:
            return self.ctx.zero()
        p = self.ctx.p
        return Polynomial(self.ctx, tuple((e, (k * c) % p) for e, k in self.terms))

    def mul_term(self, exps: Exponents, coeff: int) -> "Polynomial":
        coeff %= self.ctx.p
        if coeff == 0:
            return self.ctx.zero()
        p = self.ctx.p
        terms = tuple((mono_mul(e, exps), (c * coeff) % p) for e, c in self.terms)
        return Polynomial(self.ctx, terms)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(pow(self.lead_coeff, -1, self.ctx.p))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        # square-and-multiply: one squaring per bit of n
        result, base = self.ctx.one(), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.ctx.variables
        p = self.ctx.p
        parts = []
        for idx, (exps, c) in enumerate(self.terms):
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            # coefficient p-1 prints as a subtraction so binomials read
            # naturally; at p = 2 that coefficient is 1 and prints plain
            neg = c == p - 1 and p > 2 and bool(factors)
            coeff = 1 if neg else c
            if coeff != 1 or not factors:
                factors.insert(0, str(coeff))
            term = "*".join(factors)
            if idx == 0:
                parts.append(f"-{term}" if neg else term)
            else:
                parts.append(f"- {term}" if neg else f"+ {term}")
        return " ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# parsing


# The largest exponent the parser accepts, written or made by a power or a
# product.  Exponents later bound ranges over the staircase and fill int64
# arrays, which overflow on an unbounded int, and the Groebner kernel packs
# them into fields of groebner.MAX_PACKED_EXPONENT = 2^27 - 1.
MAX_EXPONENT = 10**7

# The most terms a power or product may expand to.  Expanding costs about the
# square of the result's size: (x+y)^1199, the largest binomial power
# accepted, parses in 0.5-1 s (3 to 8 variables, one 2-CPU x86 host).
MAX_TERMS = 1200


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*^()])")


class _Parser:
    def __init__(self, text: str, ctx: RingContext):
        self.text = text
        self.ctx = ctx
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return len(self.text)

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.tokens[self.i - 1][1])

    def parse(self) -> Polynomial:
        f = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())
        return f

    def expr(self) -> Polynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        f = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.next()
            g = self.term()
            f = f + g if op == "+" else f - g
        return f

    def term(self) -> Polynomial:
        f = self.factor()
        while self.peek() == "*":
            at = self.pos()
            self.next()
            g = self.factor()
            if len(f.terms) * len(g.terms) > MAX_TERMS:
                raise ParseError(f"product expands above the limit of {MAX_TERMS} terms", at)
            # the largest exponent of the product is the largest pairwise sum
            if f.terms and g.terms:
                top = max(map(operator.add, _largest_exponents(f), _largest_exponents(g)))
                if top > MAX_EXPONENT:
                    raise ParseError(f"product makes an exponent above the limit {MAX_EXPONENT}", at)
            f = f * g
        return f

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek() == "^":
            self.next()
            at = self.pos()
            tok = self.next()
            if not tok.isdigit():
                raise ParseError(f"exponent must be an integer, got {tok!r}", at)
            # the length test first: int() refuses strings of thousands of digits
            if len(tok.lstrip("0")) > len(str(MAX_EXPONENT)) or int(tok) > MAX_EXPONENT:
                raise ParseError(f"exponent above the limit {MAX_EXPONENT}", at)
            n, t = int(tok), len(base.terms)
            # a t-term base to the n has at most comb(n + t - 1, t - 1) terms,
            # which for t > 1 and n > 0 is at least n + 1 and t: those cheap
            # tests go first, so comb only ever sees small arguments
            if t > 1 and n > 0 and (max(n + 1, t) > MAX_TERMS or math.comb(n + t - 1, t - 1) > MAX_TERMS):
                raise ParseError(f"power expands above the limit of {MAX_TERMS} terms", at)
            if t and n * max(_largest_exponents(base)) > MAX_EXPONENT:
                raise ParseError(f"power makes an exponent above the limit {MAX_EXPONENT}", at)
            return base**n
        return base

    def base(self) -> Polynomial:
        at = self.pos()
        tok = self.next()
        if tok == "(":
            f = self.expr()
            self.expect(")")
            return f
        if tok == "-":
            return -self.base()
        if tok.isdigit():
            return self.ctx.one().scale(int(tok))
        if tok in self.ctx.variables:
            return self.ctx.variable(self.ctx.variables.index(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            raise ParseError(f"unknown variable {tok!r}", at)
        raise ParseError(f"unexpected token {tok!r}", at)


def _largest_exponents(f: Polynomial) -> list[int]:
    """The largest exponent of each variable among the terms of nonzero f."""
    return [max(column) for column in zip(*(e for e, _ in f.terms))]


def parse_polynomial(text: str, ctx: RingContext) -> Polynomial:
    return _Parser(text, ctx).parse()


def monomials_of_degree(ctx: RingContext, d: int) -> list[Exponents]:
    """All exponent tuples of total degree d, descending in ctx.order."""
    out: list[Exponents] = []

    def rec(prefix: list[int], remaining: int, slot: int):
        if slot == ctx.nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slot + 1)

    if d < 0:
        return []
    rec([], d, 0)
    out.sort(key=ctx.order.key, reverse=True)
    return out
