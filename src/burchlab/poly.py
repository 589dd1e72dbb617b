"""Multivariate polynomials over F_p under grevlex.

Every ring is grevlex but one: the elimination ring of an intersection
(`groebner.ideal_intersection`) is Block(1), its variable t first and then
grevlex on the rest.  `RingContext` refuses any other order.

A monomial is stored as one packed key (Bachmann and Schönemann, "Monomial
representations for Gröbner bases computations", ISSAC 1998): a Python int
whose integer order is the ring's monomial order (`MonomialCodec`, one per
`RingContext`), so a product or quotient is one addition, divisibility one
subtraction and a mask, and the lcm a few masks over the guard bits.  A
Polynomial stores its terms as a tuple of (key, coefficient) pairs, strictly
descending, with coefficients in [1, p).  The empty term tuple is the zero
polynomial.  Values are immutable and hashable.

Exponent tuples are the edge form: `RingContext.monomial`, `from_dict`,
`lead_exps` and `exponent_terms` encode or decode them, and printing reads
them.  `MonomialOrder.key` defines both orders on exponent tuples; the
packing is tested against it.  The parser works on keys too: a sum adds its
terms into one dict, and monomial factors multiply by adding their keys.
"""
from __future__ import annotations

import functools
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


# ---------------------------------------------------------------------------
# monomial helpers on exponent tuples, for the monomial-ideal routes; map over
# a builtin runs about twice as fast as the equivalent generator expression


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
# packed monomials

FIELD_BITS = 32
EXPONENT_BITS = 27
MAX_PACKED_EXPONENT = (1 << EXPONENT_BITS) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


class MonomialCodec:
    """The packing of the monomials of one ring into single ints.

    A packed monomial is its own order key: 32-bit fields, most significant
    first, that compare as the order does.
    - grevlex: the degree, then F - e_n, ..., F - e_1;
    - Block(1): that grevlex layout for the first variable, then for the
      rest.
    F = MAX_PACKED_EXPONENT.  Bit 27 of each exponent field is its guard,
    and bits 28-31 stay clear: a degree field sums at most 8 exponents (a
    ring has at most MAX_VARIABLES = 8, and its elimination ring, Block(1)
    over t and 8 more, has blocks of 1 and 8), so it, or the sum of two
    degrees in a product, fits in a field without a carry.
    The key is affine in the exponents, key(ab) = key(a) + key(b) - one
    with one = key(1), so
    - the product of a and b is a + b - one; it sets a guard bit exactly
      when an exponent passes F;
    - the quotient a / b is a - b + one, and b divides a exactly when that
      sets no guard bit;
    - the lcm is the per-field max of the exponents, taken with the guard
      bits, with its degree fields summed anew."""

    def __init__(self, nvars: int, order: MonomialOrder):
        n = nvars
        split = order.split if isinstance(order, Block) else 0
        layout = []
        for block in (range(split), range(split, n)):
            if block:
                layout.append(("deg", block))
                layout.extend(("neg", i) for i in reversed(block))
        self.one = self.guard = self.mask = 0
        self.units = [0] * n  # key(x_i) - one
        self.shifts = [0] * n
        self.degrees = []  # (degree field shift, lowest field shift, top column, ones) per block
        for k, (kind, what) in enumerate(reversed(layout)):
            shift = k * FIELD_BITS
            if kind == "deg":
                count = len(what)
                low = shift - count * FIELD_BITS
                ones = sum(1 << (j * FIELD_BITS) for j in range(count))
                self.degrees.append((shift, low, (count - 1) * FIELD_BITS, ones))
                for i in what:
                    self.units[i] += 1 << shift
                continue
            self.shifts[what] = shift
            self.guard |= 1 << (shift + EXPONENT_BITS)
            self.mask |= MAX_PACKED_EXPONENT << shift
            self.one |= MAX_PACKED_EXPONENT << shift
            self.units[what] -= 1 << shift

    def encode(self, exps) -> int:
        if max(exps) > MAX_PACKED_EXPONENT:
            raise packing_overflow()
        return self.one + sum(map(operator.mul, exps, self.units))

    def decode(self, key: int) -> tuple:
        x = key ^ self.one  # every exponent field now holds e_i itself
        return tuple([(x >> s) & MAX_PACKED_EXPONENT for s in self.shifts])

    def degree(self, key: int) -> int:
        return sum(self.decode(key))

    def lcm(self, a: int, b: int) -> int:
        """The lcm of packed a and b: with the negated fields flipped back,
        x - y over guard-set fields leaves each guard set where x >= y; that
        mask picks x there and y elsewhere, and each degree field is the
        sum of its block's fields, the top column of a multiply by 1...1."""
        one, guard = self.one, self.guard
        x, y = (a ^ one) & self.mask, (b ^ one) & self.mask
        g = ((x | guard) - y) & guard  # the guard bit of each field where x >= y
        x = y ^ ((x ^ y) & (g - (g >> EXPONENT_BITS)))
        out = x ^ one
        for shift, low, top, ones in self.degrees:
            out += ((((x >> low) * ones) >> top) & _FIELD_MASK) << shift
        return out


def packing_overflow() -> PreconditionError:
    return PreconditionError(f"monomial exponent above {MAX_PACKED_EXPONENT}, the largest a packed monomial holds")


# ---------------------------------------------------------------------------
# ring context


@dataclass(frozen=True)
class RingContext:
    """A polynomial ring F_p[x_1..x_n] with its monomial order, grevlex or,
    for an elimination ring, Block(1), and the packing of its monomials
    (`codec`).

    The ring is read as the regular local ring obtained by localizing at
    (x_1..x_n); all user-facing ideals keep their generators inside that
    maximal ideal, which makes the polynomial computations agree with the
    local ones for every operation offered here.
    """

    p: int
    variables: tuple[str, ...]
    order: MonomialOrder = GREVLEX
    codec: MonomialCodec = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        # the documented range of moduli: p^2 < 2^53, so every product of two
        # residues in the int64 linear algebra is exact; checked before
        # primality, whose trial division grows with sqrt(p)
        if self.p * self.p >= EXACT_LIMIT:
            raise PreconditionError(f"modulus {self.p} outside the supported range (needs p^2 < 2^53)")
        if not linalg.is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.order not in (GREVLEX, Block(1)):
            raise ValueError(f"monomial order {self.order!r} is neither grevlex nor the elimination order Block(1)")
        # Block(1) is the elimination order: its ring has t besides the others
        limit = MAX_VARIABLES + (self.order == Block(1))
        if not (1 <= len(self.variables) <= limit):
            raise ValueError(f"need 1..{limit} variables")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        for name in self.variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise ValueError(f"bad variable name {name!r}")
        object.__setattr__(self, "codec", MonomialCodec(len(self.variables), self.order))

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
        return Polynomial(self, ((self.codec.one, 1),))

    def variable(self, i: int) -> "Polynomial":
        return Polynomial(self, ((self.codec.one + self.codec.units[i], 1),))

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
    terms: tuple  # ((key, coeff), ...) strictly descending keys, coeff in [1,p)

    @staticmethod
    def from_dict(ctx: RingContext, coeffs: dict) -> "Polynomial":
        """The polynomial with coefficient c at each exponent tuple."""
        encode = ctx.codec.encode
        return Polynomial.from_keys(ctx, {encode(exps): c for exps, c in coeffs.items()})

    @staticmethod
    def from_keys(ctx: RingContext, coeffs: dict) -> "Polynomial":
        """The polynomial with coefficient c at each packed key."""
        p = ctx.p
        return Polynomial(ctx, tuple(sorted(((k, c % p) for k, c in coeffs.items() if c % p), reverse=True)))

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.variables, self.terms))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead_exps(self) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.ctx.codec.decode(self.terms[0][0])

    @property
    def lead_coeff(self) -> int:
        return self.terms[0][1]

    @property
    def constant_term(self) -> int:
        # 1 is the least monomial, so the constant term is the last one
        if self.terms and self.terms[-1][0] == self.ctx.codec.one:
            return self.terms[-1][1]
        return 0

    def exponent_terms(self) -> list:
        """The terms as (exponent tuple, coefficient) pairs, in term order."""
        decode = self.ctx.codec.decode
        return [(decode(k), c) for k, c in self.terms]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(self.ctx.codec.degree(k) for k, _ in self.terms)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if mixed (0 is degree 0)."""
        if not self.terms:
            return 0
        degs = {self.ctx.codec.degree(k) for k, _ in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_homogeneous(self) -> bool:
        return self.homogeneous_degree() is not None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        check_same_context(self, other)
        out = dict(self.terms)
        p = self.ctx.p
        for k, c in other.terms:
            v = (out.get(k, 0) + c) % p
            if v:
                out[k] = v
            else:
                del out[k]
        return Polynomial(self.ctx, tuple(sorted(out.items(), reverse=True)))

    def __neg__(self) -> "Polynomial":
        p = self.ctx.p
        return Polynomial(self.ctx, tuple((k, p - c) for k, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The product; a monomial past MAX_PACKED_EXPONENT is refused."""
        check_same_context(self, other)
        ctx = self.ctx
        p, one = ctx.p, ctx.codec.one
        if len(other.terms) == 1:
            self, other = other, self
        if len(self.terms) == 1:
            # the order is multiplicative: a monomial factor keeps the term order
            (k1, c1), = self.terms
            terms = tuple([(k + k1 - one, c * c1 % p) for k, c in other.terms])
        else:
            work: dict = {}
            for k1, c1 in self.terms:
                s = k1 - one
                for k2, c2 in other.terms:
                    k = k2 + s
                    v = (work.get(k, 0) + c1 * c2) % p
                    if v:
                        work[k] = v
                    else:
                        del work[k]
            terms = tuple(sorted(work.items(), reverse=True))
        if functools.reduce(operator.or_, [k for k, _ in terms], 0) & ctx.codec.guard:
            raise packing_overflow()
        return Polynomial(ctx, terms)

    def scale(self, c: int) -> "Polynomial":
        c %= self.ctx.p
        if c == 0:
            return self.ctx.zero()
        p = self.ctx.p
        return Polynomial(self.ctx, tuple((k, (a * c) % p) for k, a in self.terms))

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
        for idx, (exps, c) in enumerate(self.exponent_terms()):
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
# arrays, which overflow on an unbounded int, and a packed monomial holds
# at most MAX_PACKED_EXPONENT = 2^27 - 1.
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
_TOKENS = re.compile(r"(?:\s*(?:\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*^()]))*")  # the longest run of tokens


class _Parser:
    def __init__(self, text: str, ctx: RingContext):
        self.ctx = ctx
        self.variable_keys = {name: ctx.codec.one + unit for name, unit in zip(ctx.variables, ctx.codec.units)}
        end = _TOKENS.match(text).end()
        if text[end:].strip():
            raise ParseError(f"unexpected character {text[end]!r}", end)
        # the tokens and their positions, closed by None at the end of the text
        found = list(_TOKEN.finditer(text, 0, end))
        self.tokens = [m.group(1) for m in found] + [None]
        self.starts = [m.start(1) for m in found] + [len(text)]
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i]

    def pos(self) -> int:
        return self.starts[self.i]

    def next(self) -> str:
        tok = self.tokens[self.i]
        if tok is None:
            raise ParseError("unexpected end of input", self.starts[self.i])
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.starts[self.i - 1])

    def parse(self) -> Polynomial:
        f = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())
        return Polynomial(self.ctx, f)

    # Every method below returns the terms of a polynomial, descending keys
    # with coefficients in [1, p), and builds no `Polynomial` unless it
    # multiplies or raises one of more than one term.

    def expr(self) -> tuple:
        """A sum, its terms added into one dict."""
        p = self.ctx.p
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        work: dict = {}
        while True:
            for k, c in self.term():
                work[k] = (work.get(k, 0) + sign * c) % p
            if self.peek() not in ("+", "-"):
                break
            sign = 1 if self.next() == "+" else -1
        return tuple(sorted(((k, c) for k, c in work.items() if c), reverse=True))

    def term(self) -> tuple:
        """A product; two monomials multiply by adding their keys."""
        ctx = self.ctx
        p, one = ctx.p, ctx.codec.one
        f = self.factor()
        while self.peek() == "*":
            at = self.pos()
            self.next()
            g = self.factor()
            if len(f) * len(g) > MAX_TERMS:
                raise ParseError(f"product expands above the limit of {MAX_TERMS} terms", at)
            if len(f) == 1 and len(g) == 1:
                # factors hold exponents at most MAX_EXPONENT, so the key
                # sum sets no guard bit and decodes to the product's exponents
                (k1, c1), (k2, c2) = f[0], g[0]
                k = k1 + k2 - one
                if max(ctx.codec.decode(k)) > MAX_EXPONENT:
                    raise ParseError(f"product makes an exponent above the limit {MAX_EXPONENT}", at)
                f = ((k, c1 * c2 % p),)
                continue
            # the largest exponent of the product is the largest pairwise sum
            if f and g:
                top = max(map(operator.add, _largest_exponents(ctx, f), _largest_exponents(ctx, g)))
                if top > MAX_EXPONENT:
                    raise ParseError(f"product makes an exponent above the limit {MAX_EXPONENT}", at)
            f = (Polynomial(ctx, f) * Polynomial(ctx, g)).terms
        return f

    def factor(self) -> tuple:
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
            n, t = int(tok), len(base)
            # a t-term base to the n has at most comb(n + t - 1, t - 1) terms,
            # which for t > 1 and n > 0 is at least n + 1 and t: those cheap
            # tests go first, so comb only ever sees small arguments
            if t > 1 and n > 0 and (max(n + 1, t) > MAX_TERMS or math.comb(n + t - 1, t - 1) > MAX_TERMS):
                raise ParseError(f"power expands above the limit of {MAX_TERMS} terms", at)
            if t and n * max(_largest_exponents(self.ctx, base)) > MAX_EXPONENT:
                raise ParseError(f"power makes an exponent above the limit {MAX_EXPONENT}", at)
            if t == 1:
                (k, c), one = base[0], self.ctx.codec.one
                return ((one + n * (k - one), pow(c, n, self.ctx.p)),)
            return (Polynomial(self.ctx, base) ** n).terms
        return base

    def base(self) -> tuple:
        ctx = self.ctx
        at = self.pos()
        tok = self.next()
        if tok == "(":
            f = self.expr()
            self.expect(")")
            return f
        if tok == "-":
            p = ctx.p
            return tuple([(k, p - c) for k, c in self.base()])
        if tok.isdigit():
            c = int(tok) % ctx.p
            return ((ctx.codec.one, c),) if c else ()
        if tok in self.variable_keys:
            return ((self.variable_keys[tok], 1),)
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            raise ParseError(f"unknown variable {tok!r}", at)
        raise ParseError(f"unexpected token {tok!r}", at)


def _largest_exponents(ctx: RingContext, terms) -> tuple:
    """The largest exponent of each variable among nonzero terms."""
    if len(terms) == 1:
        return ctx.codec.decode(terms[0][0])
    return tuple([max(column) for column in zip(*map(ctx.codec.decode, (k for k, _ in terms)))])


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
    out.sort(key=ctx.codec.encode, reverse=True)
    return out
