"""Buchberger's algorithm and the ideal calculus used by the Burch tests.

The reduced Groebner basis is the canonical form of an ideal under a fixed
order, so equality, membership and colon computations all route through it.

The kernel (`buchberger`, `_spoly`, `_reduce`, `normal_form`, `Reducers`,
`reduce_basis`, `exact_divide`) runs on packed monomials (Bachmann and
Schönemann, "Monomial representations for Gröbner bases computations",
ISSAC 1998): one Python int per monomial, whose integer order is the
monomial order, so a product or quotient is one addition, divisibility one
subtraction and a mask, and the lcm a few masks over the guard bits
(`MonomialCodec`, one per ring context).  Every exponent field holds up to
`MAX_PACKED_EXPONENT` = 2^27 - 1, thirteen times the parser's bound; a
monomial beyond it, given or made by a product, is refused with
`PreconditionError`.  Polynomials are packed once on the way in and unpacked
once on the way out; `Polynomial.terms` keeps exponent tuples.

`buchberger` prunes S-pairs with the Gebauer–Möller criteria as each new
element is made, and keeps the live pairs in a dict beside a heap ordered by
lcm.  Division runs against a `Reducers` table (lead, inverse lead
coefficient, tail per element), which `buchberger` extends as the basis
grows and an `Ideal` builds once for its reduced basis; the working terms
of a division are a dict beside a heap of their keys.  Intersections use
a single auxiliary elimination variable; colons by a non-principal ideal
intersect the principal colons, and each ideal memoizes its colons and its
product with m.  First
syzygies of a homogeneous generating list are computed degree by degree with
exact linear algebra, which yields a minimal generating set directly (graded
Nakayama) instead of minimizing a Schreyer-style presentation afterwards.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import PreconditionError
from .poly import (
    Block,
    Grevlex,
    Lex,
    Polynomial,
    RingContext,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)


# ---------------------------------------------------------------------------
# packed monomials

FIELD_BITS = 32
EXPONENT_BITS = 27
MAX_PACKED_EXPONENT = (1 << EXPONENT_BITS) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


class MonomialCodec:
    """The packing of the monomials of one ring context into single ints.

    A packed monomial is its own order key: 32-bit fields, most significant
    first, that compare as the order does.
    - lex: e_1, ..., e_n;
    - grevlex: the degree, then F - e_n, ..., F - e_1;
    - Block(s): that grevlex layout for the first s variables, then for
      the rest.
    F = MAX_PACKED_EXPONENT.  Bit 27 of each exponent field is its guard,
    and bits 28-31 stay clear: a degree, a sum of at most 8 exponents, or
    the sum of two degrees in a product, fits in a field without a carry.
    The key is affine in the exponents, key(ab) = key(a) + key(b) - one
    with one = key(1), so
    - the product of a and b is a + b - one; it sets a guard bit exactly
      when an exponent passes F;
    - the quotient a / b is a - b + one, and b divides a exactly when that
      sets no guard bit;
    - the lcm is the per-field max of the exponents, taken with the guard
      bits, with its degree fields summed anew."""

    def __init__(self, ctx: RingContext):
        self.ctx = ctx
        self.p = ctx.p
        n, order = ctx.nvars, ctx.order
        if isinstance(order, Lex):
            layout = [("exp", i) for i in range(n)]
        elif isinstance(order, (Grevlex, Block)):
            split = min(order.split, n) if isinstance(order, Block) else 0
            layout = []
            for block in (range(split), range(split, n)):
                if block:
                    layout.append(("deg", block))
                    layout.extend(("neg", i) for i in reversed(block))
        else:
            raise TypeError(f"no packing for the monomial order {order!r}")
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
            if kind == "neg":
                self.one |= MAX_PACKED_EXPONENT << shift
                self.units[what] -= 1 << shift
            else:
                self.units[what] += 1 << shift

    def encode(self, exps) -> int:
        if max(exps) > MAX_PACKED_EXPONENT:
            raise _overflow()
        return self.one + sum(map(operator.mul, exps, self.units))

    def decode(self, key: int) -> tuple:
        x = key ^ self.one  # every exponent field now holds e_i itself
        return tuple([(x >> s) & MAX_PACKED_EXPONENT for s in self.shifts])

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

    def pack(self, f: Polynomial) -> "PackedPolynomial":
        return PackedPolynomial(self, tuple([(self.encode(e), c) for e, c in f.terms]))

    def unpack(self, terms) -> Polynomial:
        """The Polynomial of (key, coefficient) terms with descending keys."""
        return Polynomial(self.ctx, tuple([(self.decode(k), c) for k, c in terms]))


@functools.cache
def monomial_codec(ctx: RingContext) -> MonomialCodec:
    """The one codec of ctx."""
    return MonomialCodec(ctx)


def _overflow() -> PreconditionError:
    return PreconditionError(f"monomial exponent above {MAX_PACKED_EXPONENT}, the largest the Groebner kernel holds")


class PackedPolynomial(NamedTuple):
    """A polynomial in the kernel's form: (key, coefficient) terms with
    strictly descending packed keys; `lead` and `monic` need it nonzero."""

    codec: MonomialCodec
    terms: tuple

    @property
    def lead(self) -> int:
        return self.terms[0][0]

    def monic(self) -> "PackedPolynomial":
        p = self.codec.p
        inv = pow(self.terms[0][1], -1, p)
        return PackedPolynomial(self.codec, tuple([(k, c * inv % p) for k, c in self.terms]))


# ---------------------------------------------------------------------------
# division / Buchberger


class Reducers:
    """The reducer table of a basis: (lead key - one, inverse lead
    coefficient, packed tail) of each nonzero element, in basis order.

    `normal_form` takes it, so a caller that reduces many polynomials by
    one basis builds the table once; `add` extends it as a basis grows."""

    def __init__(self, basis=()):
        self.rows: list[tuple] = []
        for g in basis:
            if not g.is_zero:
                self.add(monomial_codec(g.ctx).pack(g))

    def add(self, g: PackedPolynomial) -> None:
        codec = g.codec
        self.rows.append((g.lead - codec.one, pow(g.terms[0][1], -1, codec.p), g.terms[1:]))


def normal_form(f: Polynomial, reducers: Reducers) -> Polynomial:
    """Full remainder of f under multivariate division by the basis (in
    order) of the `Reducers` table."""
    codec = monomial_codec(f.ctx)
    return codec.unpack(_reduce(codec, dict(codec.pack(f).terms), reducers.rows))


def _subtract(work: dict, heap: list, shift: int, coeff: int, tail, p: int) -> None:
    """work -= coeff · tail shifted by `shift` (a monomial quotient minus
    one); each key new to `work` goes on the max-heap `heap`, negated."""
    for e, c in tail:
        e += shift
        v = work.get(e)
        if v is None:
            work[e] = -coeff * c % p
            heapq.heappush(heap, -e)
        else:
            v = (v - coeff * c) % p
            if v:
                work[e] = v
            else:
                del work[e]


def _reduce(codec: MonomialCodec, work: dict, rows: list[tuple]) -> list:
    """The remainder, as descending (key, coefficient) terms, of the
    polynomial whose packed terms are the (unsorted) dict `work` under
    division by the `Reducers` rows; `work` is consumed.  A key is checked
    for a set guard bit when it leaves the heap, before it is used: an
    overflowed key equals no valid key, and two equal ones are one
    monomial, so what cancels before that check cancels exactly."""
    p, one, guard = codec.p, codec.one, codec.guard
    heap = [-k for k in work]
    heapq.heapify(heap)
    remainder = []
    while heap:
        k = -heapq.heappop(heap)
        coeff = work.pop(k, 0)
        if not coeff:
            continue  # it cancelled after it was pushed
        if k & guard:
            raise _overflow()
        for dl, inv, tail in rows:
            q = k - dl  # the quotient k / lead, valid when no guard bit is set
            if not q & guard:
                # subtract (coeff/lead coeff)·(k / lead)·g; its leading term cancels k
                _subtract(work, heap, q - one, coeff * inv % p, tail, p)
                break
        else:
            remainder.append((k, coeff))
    return remainder


def _spoly(f: PackedPolynomial, g: PackedPolynomial) -> dict:
    """The S-polynomial of monic f and g as an unsorted dict of packed
    terms: the leading terms cancel, so only the two tails are shifted and
    merged."""
    codec = f.codec
    lcm = codec.lcm(f.lead, g.lead)
    a = lcm - f.lead
    work = {e + a: c for e, c in f.terms[1:]}
    _subtract(work, [], lcm - g.lead, 1, g.terms[1:], codec.p)
    return work


def buchberger(gens: list[Polynomial], ctx: RingContext) -> list[PackedPolynomial]:
    """A Groebner basis of (gens) under ctx.order (not yet reduced), monic
    and packed.

    Pairs are pruned when they are made, by the criteria of Gebauer and
    Möller (1988): when h joins the basis, an old pair (i, j) goes if lead(h)
    divides its lcm L and L differs from both lcm(i, h) and lcm(j, h); of the
    new pairs (i, h), one is kept per minimal lcm, and none whose leads are
    coprime.  Pairs are reduced in ascending order of their lcm."""
    codec = monomial_codec(ctx)
    one, guard, lcm_of = codec.one, codec.guard, codec.lcm
    basis: list[PackedPolynomial] = []
    leads: list[int] = []
    reducers = Reducers()
    active: list[int] = []  # elements whose lead no later lead divides
    pairs: dict[tuple[int, int], int] = {}  # live pairs -> lcm of the leads
    heap: list = []  # (lcm, i, j) of every pair made; dead ones are skipped

    def insert(h: PackedPolynomial) -> None:
        lh = h.lead
        dl = lh - one  # lh divides m exactly when m - dl sets no guard bit
        for (i, j), lcm in list(pairs.items()):
            if not (lcm - dl) & guard and lcm != lcm_of(leads[i], lh) and lcm != lcm_of(leads[j], lh):
                del pairs[i, j]
        made = [lcm_of(leads[i], lh) for i in active]
        kept: list[int] = []  # lcms of the kept new pairs, in the order made
        queued: list[tuple[int, int]] = []
        for n, (lcm, i) in enumerate(zip(made, active)):
            if lcm == leads[i] + dl:
                # coprime leads, lcm = lead(i)·lh: kept only to prune others, never queued
                kept.append(lcm)
                continue
            up = lcm + one  # m divides lcm exactly when up - m sets no guard bit
            if not [m for m in made[n + 1 :] + kept if not (up - m) & guard]:
                kept.append(lcm)
                queued.append((lcm, i))
        new = len(basis)
        for lcm, i in queued:
            pairs[i, new] = lcm
            heapq.heappush(heap, (lcm, i, new))
        active[:] = [i for i in active if (leads[i] - dl) & guard]
        active.append(new)
        basis.append(h)
        leads.append(lh)
        reducers.add(h)

    for g in gens:
        if not g.is_zero:
            insert(codec.pack(g).monic())
    while pairs:
        _, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        r = _reduce(codec, _spoly(basis[i], basis[j]), reducers.rows)
        if r:
            insert(PackedPolynomial(codec, tuple(r)).monic())
    return basis


def reduce_basis(basis: list[PackedPolynomial], ctx: RingContext) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis of the monic packed basis that
    `buchberger` returns: auto-reduced, sorted by leading term, unpacked."""
    codec = monomial_codec(ctx)
    one, guard = codec.one, codec.guard
    # drop elements whose lead another lead divides; of equal leads the first stays
    leads = [g.lead for g in basis]
    keep = []
    for i, g in enumerate(basis):
        up = leads[i] + one  # h divides lead(g) exactly when up - h sets no guard bit
        if all(leads[j] == leads[i] and j >= i for j in [j for j, h in enumerate(leads) if not (up - h) & guard]):
            keep.append(g)
    # tail-reduce every survivor against one table of all survivors: no other
    # lead divides lead(g), and lead(g) divides no term below itself, so
    # g's own row never applies to its tail
    table = Reducers()
    for g in keep:
        table.add(g)
    reduced = [g.terms[:1] + tuple(_reduce(codec, dict(g.terms[1:]), table.rows)) for g in keep]
    reduced.sort(key=lambda terms: terms[0][0])
    return tuple(codec.unpack(terms) for terms in reduced)


def reduced_groebner(gens, ctx: RingContext) -> tuple[Polynomial, ...]:
    gb = reduce_basis(buchberger(list(gens), ctx), ctx)
    if any(g.total_degree() == 0 for g in gb):
        return (ctx.one(),)
    return gb


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class Ideal:
    """An ideal of F_p[x_1..x_n] with its reduced Groebner basis cached.

    Library operations may produce the unit ideal (e.g. a colon of an ideal
    by itself); user-entered generators are constrained to the maximal ideal
    at the parsing boundary instead.
    """

    ctx: RingContext
    gens: tuple[Polynomial, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __hash__(self):
        # equality compares reduced bases, so the hash must too
        return hash((self.ctx.p, self.ctx.variables, self.groebner()))

    @staticmethod
    def make(ctx: RingContext, gens) -> "Ideal":
        cleaned = tuple(g for g in gens if not g.is_zero)
        for g in cleaned:
            if g.ctx != ctx:
                raise ValueError("generator from a different ring context")
        return Ideal(ctx, cleaned)

    @property
    def is_zero(self) -> bool:
        return not self.groebner()

    @property
    def contains_unit(self) -> bool:
        gb = self.groebner()
        return bool(gb) and gb[0].total_degree() == 0

    def in_max_ideal(self) -> bool:
        return all(g.constant_term == 0 for g in self.gens)

    def groebner(self) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis under ctx.order, computed once."""
        if "groebner" not in self._cache:
            self._cache["groebner"] = reduced_groebner(self.gens, self.ctx)
        return self._cache["groebner"]

    def reducers(self) -> Reducers:
        """The `Reducers` table of the reduced basis, built once per ideal."""
        if "reducers" not in self._cache:
            self._cache["reducers"] = Reducers(self.groebner())
        return self._cache["reducers"]

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero:
            return True
        return normal_form(f, self.reducers()).is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ValueError("ideals from different ring contexts")
        return self.groebner() == other.groebner()

    def __le__(self, other: "Ideal") -> bool:
        return all(other.contains(g) for g in self.gens)

    def sum(self, other: "Ideal") -> "Ideal":
        return Ideal.make(self.ctx, self.gens + other.gens)

    def product(self, other: "Ideal") -> "Ideal":
        gens = [f * g for f in self.gens for g in other.gens]
        return Ideal.make(self.ctx, gens)

    def _staircase(self) -> tuple | None:
        """The monomials outside the leading-term ideal, ascending in the
        order, when there are finitely many (S/I has finite length) and I
        is proper; None otherwise.  Computed once."""
        if "staircase" not in self._cache:
            self._cache["staircase"] = None
            leads = [g.lead_exps for g in self.groebner()]
            # the least pure power of each variable among the leads
            bounds = [min((le[i] for le in leads if sum(le) == le[i]), default=0) for i in range(self.ctx.nvars)]
            if leads and all(bounds):
                out = [e for e in itertools.product(*map(range, bounds)) if not any(mono_divides(le, e) for le in leads)]
                self._cache["staircase"] = tuple(sorted(out, key=self.ctx.order.key))
        return self._cache["staircase"]

    def finite_colength(self) -> bool:
        """S/I has finite length and I is proper."""
        return self._staircase() is not None

    def is_m_primary(self) -> bool:
        """rad I = m: S/I has finite length and every variable is nilpotent
        in it (`_nilpotent`); in a quotient that is not local, some variable
        is a unit at another maximal ideal.  Computed once."""
        if "m_primary" not in self._cache:
            basis = self._staircase()
            self._cache["m_primary"] = basis is not None and all(
                self._nilpotent(v, basis) for v in range(self.ctx.nvars)
            )
        return self._cache["m_primary"]

    def _nilpotent(self, v: int, basis: tuple) -> bool:
        """Whether x_v is nilpotent in S/I, of finite length L with standard
        monomials `basis`.  A nilpotent element has x^L = 0, so x_v^n ∈ I for
        any one n >= L decides it.  With x_v^b the least pure power of x_v
        among the leads, n = b·2^j: x_v^b reduces to its normal form g, and
        each squaring of g doubles the power."""
        reducers = self.reducers()
        power = 1 + max(e[v] for e in basis)
        g = normal_form(self.ctx.monomial(tuple(power if j == v else 0 for j in range(self.ctx.nvars))), reducers)
        while power < len(basis) and not g.is_zero:
            g, power = normal_form(g * g, reducers), 2 * power
        return g.is_zero

    def standard_monomials(self) -> tuple:
        """All monomials outside the leading-term ideal, ascending in the
        order; their count is the length of S/I.  Requires an m-primary ideal."""
        if not self.is_m_primary():
            raise PreconditionError("standard monomials need an m-primary ideal")
        return self._staircase()

    def length(self) -> int:
        return len(self.standard_monomials())

    def dim_in_degree(self, d: int) -> int:
        """dim_k of the degree-d graded piece (homogeneous ideals only)."""
        gb = self.groebner()
        leads = [g.lead_exps for g in gb]
        n = 0
        for exps in monomials_of_degree(self.ctx, d):
            if any(mono_divides(le, exps) for le in leads):
                n += 1
        return n

    def min_gen_count_graded(self) -> int:
        """mu(I) for a homogeneous ideal via graded piece ranks."""
        for g in self.gens:
            if not g.is_homogeneous():
                raise PreconditionError("graded mu needs homogeneous generators")
        if not self.gens:
            return 0
        dmax = max(g.total_degree() for g in self.gens)
        mI = max_ideal_product(self)
        return sum(self.dim_in_degree(d) - mI.dim_in_degree(d) for d in range(dmax + 1))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens)
        return f"Ideal({gens})"


def max_ideal(ctx: RingContext) -> Ideal:
    return Ideal.make(ctx, [ctx.variable(i) for i in range(ctx.nvars)])


def max_ideal_product(I: Ideal) -> Ideal:
    """m·I, memoized in I's cache so that the routes of one command share
    one product and its reduced basis.  The memo lives on I, not on a shared
    m, which would then keep every product of a sweep alive."""
    if "m_product" not in I._cache:
        I._cache["m_product"] = max_ideal(I.ctx).product(I)
    return I._cache["m_product"]


def _fresh_variable(ctx: RingContext) -> str:
    base = "t"
    k = 0
    while True:
        name = base if k == 0 else f"{base}{k}"
        if name not in ctx.variables:
            return name
        k += 1


@functools.cache
def _extend_context(ctx: RingContext) -> RingContext:
    """ctx with a fresh elimination variable in front; one per context, so
    the prime is checked once rather than once per elimination."""
    return RingContext(ctx.p, (_fresh_variable(ctx),) + ctx.variables, Block(1))


def _lift(f: Polynomial, ctx2: RingContext, tpow: int) -> Polynomial:
    terms = {(tpow,) + e: c for e, c in f.terms}
    return Polynomial.from_dict(ctx2, terms)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J by eliminating t from t·I + (1-t)·J."""
    if I.ctx != J.ctx:
        raise ValueError("ideals from different ring contexts")
    ctx = I.ctx
    if not I.gens or not J.gens:
        return Ideal.make(ctx, ())
    ctx2 = _extend_context(ctx)
    t_gens = [_lift(f, ctx2, 1) for f in I.gens]
    one_minus_t = [_lift(g, ctx2, 0) - _lift(g, ctx2, 1) for g in J.gens]
    gb = reduced_groebner(t_gens + one_minus_t, ctx2)
    out = []
    for g in gb:
        if all(e[0] == 0 for e, _ in g.terms):
            out.append(Polynomial.from_dict(ctx, {e[1:]: c for e, c in g.terms}))
    return Ideal.make(ctx, out)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when g divides f (guaranteed by membership f ∈ (g))."""
    codec = monomial_codec(f.ctx)
    p, one, guard = codec.p, codec.one, codec.guard
    work = dict(codec.pack(f).terms)
    heap = [-k for k in work]
    heapq.heapify(heap)
    g = codec.pack(g)
    lead, tail = g.lead, g.terms[1:]
    inv_lead = pow(g.terms[0][1], -1, p)
    quotient = []  # descending, as the dividend's leading terms are
    while heap:
        k = -heapq.heappop(heap)
        coeff = work.pop(k, 0)
        if not coeff:
            continue
        if k & guard:
            raise _overflow()
        q = k - lead + one
        if q & guard:
            raise ValueError("exact division failed: input not a multiple")
        q_coeff = coeff * inv_lead % p
        quotient.append((q, q_coeff))
        _subtract(work, heap, k - lead, q_coeff, tail, p)
    return codec.unpack(quotient)


def ideal_colon_element(I: Ideal, g: Polynomial) -> Ideal:
    """(I : g) = (I ∩ (g)) / g."""
    if g.is_zero:
        raise PreconditionError("colon by zero element")
    meet = ideal_intersection(I, Ideal.make(I.ctx, (g,)))
    return Ideal.make(I.ctx, [exact_divide(h, g) for h in meet.gens])


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {f : fJ ⊆ I}, via intersection of the principal colons.

    The result is memoized in I's cache, keyed by J's generators, so the
    routes of one command that each need (I : m) share one computation."""
    if I.ctx != J.ctx:
        raise ValueError("ideals from different ring contexts")
    gens = [g for g in J.gens if not g.is_zero]
    if not gens:
        raise PreconditionError("colon by the zero ideal")
    memo = ("colon", J.gens)
    if memo not in I._cache:
        result = ideal_colon_element(I, gens[0])
        for g in gens[1:]:
            result = ideal_intersection(result, ideal_colon_element(I, g))
        I._cache[memo] = result
    return I._cache[memo]


# ---------------------------------------------------------------------------
# first syzygies of homogeneous generators


@dataclass(frozen=True)
class SyzygyMatrix:
    """Columns are minimal generators of the first syzygy module of `gens`."""

    ctx: RingContext
    gens: tuple[Polynomial, ...]
    columns: tuple  # tuple of tuples of Polynomial, each of length len(gens)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.gens), len(self.columns))

    def entry(self, i: int, j: int) -> Polynomial:
        return self.columns[j][i]

    def check(self) -> None:
        zero = self.ctx.zero()
        for col in self.columns:
            acc = zero
            for f, h in zip(self.gens, col):
                acc = acc + f * h
            if not acc.is_zero:
                raise AssertionError("column is not a syzygy")


def _degree_basis(ctx: RingContext, d: int) -> tuple[list, dict]:
    monos = monomials_of_degree(ctx, d)
    return monos, {m: i for i, m in enumerate(monos)}


def syzygy_matrix(I: Ideal) -> SyzygyMatrix:
    """Minimal first syzygies of I's generator list (homogeneous, minimal).

    Works degree by degree: in degree t the syzygies are the kernel of the
    multiplication map ⊕_i S_{t-d_i} → S_t, and the new minimal generators
    are a complement of the span of x_j·(lower-degree syzygies).  The stop
    degree is certified by Schreyer's bound on the reduced Groebner basis.
    """
    ctx = I.ctx
    p = ctx.p
    gens = I.gens
    if not gens:
        return SyzygyMatrix(ctx, (), ())
    degs = []
    for g in gens:
        d = g.homogeneous_degree()
        if d is None:
            raise PreconditionError(f"non-homogeneous generator: {g}")
        degs.append(d)
    for i, g in enumerate(gens):
        others = Ideal.make(ctx, gens[:i] + gens[i + 1 :])
        if others.contains(g):
            raise PreconditionError(f"redundant generator: {g}")

    gb = I.groebner()
    bound = max(degs)
    for a, b in itertools.combinations(gb, 2):
        bound = max(bound, sum(mono_lcm(a.lead_exps, b.lead_exps)))

    mu = len(gens)
    chosen: list[tuple[int, list[Polynomial]]] = []  # (degree, column)

    def col_index_map(t: int):
        """Coordinates of ⊕_i S_{t-d_i}: list of (i, mono) and lookup dict."""
        coords = []
        for i in range(mu):
            for m in monomials_of_degree(ctx, t - degs[i]):
                coords.append((i, m))
        return coords, {c: k for k, c in enumerate(coords)}

    prev_span: linalg.Triples | None = None
    prev_coords: list = []
    for t in range(min(degs), bound + 1):
        coords, lookup = col_index_map(t)
        if not coords:
            continue
        row_monos, row_lookup = _degree_basis(ctx, t)
        # multiplication matrix: coordinate (i, m) maps to m * gens[i]
        entries = [(row_lookup[mono_mul(e, m)], k, c) for k, (i, m) in enumerate(coords) for e, c in gens[i].terms]
        M = linalg.Triples.from_entries(entries, (len(row_monos), len(coords)))
        K = linalg.kernel_basis(M, p)
        # span of x_j * (syzygies of degree t-1), in degree-t coordinates
        carried = linalg.Triples.zeros(len(coords), 0)
        if prev_span is not None and prev_span.shape[1]:
            shifted = []
            for j in range(ctx.nvars):
                xj = ctx.var_exps(j)
                to = np.array([lookup[(i, mono_mul(m, xj))] for i, m in prev_coords], dtype=np.int64)
                shape = (len(coords), prev_span.shape[1])
                shifted.append(linalg.Triples(to[prev_span.rows], prev_span.cols, prev_span.vals, shape))
            carried = linalg.column_space_basis(linalg.hstack(shifted, len(coords)), p)
        new = K.take_columns(linalg.complete_columns(carried, K, p))
        for vec in new.toarray().T:
            col = [ctx.zero()] * mu
            parts: dict[int, dict] = {}
            for k, (i, m) in enumerate(coords):
                if vec[k]:
                    parts.setdefault(i, {})[m] = int(vec[k])
            for i, d in parts.items():
                col[i] = Polynomial.from_dict(ctx, d)
            chosen.append((t, col))
        prev_span = linalg.hstack([carried, new], len(coords))
        prev_coords = coords

    matrix = SyzygyMatrix(ctx, gens, tuple(tuple(col) for _, col in chosen))
    matrix.check()
    for col in matrix.columns:
        for h in col:
            if not h.is_zero and h.constant_term:
                raise AssertionError("constant entry in a minimal syzygy matrix")
    return matrix


def entry_ideal(matrix) -> Ideal:
    """The ideal generated by all entries of a matrix over the ring."""
    if isinstance(matrix, SyzygyMatrix):
        ctx = matrix.ctx
        entries = [h for col in matrix.columns for h in col]
    else:
        rows = list(matrix)
        entries = [h for row in rows for h in row]
        if not entries:
            raise ValueError("cannot infer ring context from an empty matrix")
        ctx = entries[0].ctx
    seen = set()
    gens = []
    for h in entries:
        if h.is_zero:
            continue
        h = h.monic()
        if h not in seen:
            seen.add(h)
            gens.append(h)
    return Ideal.make(ctx, gens)
