"""Buchberger's algorithm and the ideal calculus used by the Burch tests.

The reduced Groebner basis is the canonical form of an ideal under a fixed
order, so equality, membership and colon computations all route through it.

The kernel (`buchberger`, `_spoly`, `_reduce`, `normal_form`, `Reducers`,
`reduce_basis`, `exact_divide`) takes and returns `Polynomial`s as they are:
their terms are packed monomial keys (`poly.MonomialCodec`), so a product or
quotient of monomials is one addition, divisibility one subtraction and a
mask, and the lcm a few masks over the guard bits.  A monomial past
`MAX_PACKED_EXPONENT` = 2^27 - 1, thirteen times the parser's bound, made by
a product in a reduction or an S-polynomial, is refused with
`PreconditionError`.

`buchberger` prunes S-pairs with the Gebauer–Möller criteria as each new
element is made, taking only the lcms the update uses and walking the new
ones in ascending order, so that each is checked only against the minimal
ones before it, and keeps the live pairs in a dict beside a heap ordered by
lcm.  It never queues a pair whose S-polynomial is zero by construction:
two monomials, or two elements of one input block that is a Groebner basis
already; such a pair still counts as treated in the pair criteria.
Division runs against a `Reducers` table (lead, inverse lead coefficient,
tail per element), which `buchberger` extends as the basis grows and an
`Ideal` builds once for its reduced basis; the working terms of a division
are a dict beside a heap of their keys.  Monomial generators skip
`buchberger` and `reduce_basis`: their reduced basis is their minimal
generators, monic and ascending, kept by the same one-pass lead
minimalisation that `reduce_basis` runs.  A product of ideals lists each
product of generators once.  The product m·I lists x_v·f for f in I's
generators, but its reduced basis starts from x_v·G_I, the products of I's
reduced basis: when G_I is monomial, m·I takes the monomial path and no
Buchberger run.

An intersection of ideals of a grevlex ring eliminates a single variable t
under Block(1), the power of t first and then grevlex.  It starts from
t·G_I + (1 - t)·G_J, where G_I and G_J are the reduced bases, so Buchberger
reduces only pairs across the two; a key lifts by adding a constant and
comes back by subtracting it, and the intersection and each colon carry
their reduced basis in their cache, so nothing downstream runs Buchberger
again for them.  A colon by (g_1..g_r) is a chain of r eliminations,
K_j = K_{j-1} ∩ (I : g_j) = (I ∩ g_j·K_{j-1}) / g_j, each seeded with
g_j·G_{K_{j-1}}, a Groebner basis of g_j·K_{j-1}; each ideal memoizes its
colons and its product with m.  First syzygies of a homogeneous generating
list are computed degree by degree with exact linear algebra, which yields
a minimal generating set directly (graded Nakayama) instead of minimizing a
Schreyer-style presentation afterwards.
"""
from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import PreconditionError
from .poly import (
    GREVLEX,
    Block,
    Polynomial,
    RingContext,
    monomials_of_degree,
    packing_overflow,
)

# The longest S/I whose standard monomials `Ideal._staircase` lists.  Listing
# 4096 of them takes about 15 ms; the algebra built on them costs more, and
# `check` and `invariants` also build the algebra S/mI: `check --route all` on
# (x^4094, y), the longest m-adic chain they accept, takes about 0.4 s and
# 34 MB peak (one 2-CPU x86 host).
MAX_LENGTH = 4096


# ---------------------------------------------------------------------------
# division / Buchberger


class Reducers:
    """The reducer table of a basis: (lead key - one, inverse lead
    coefficient, tail) of each nonzero element, in basis order.

    `normal_form` takes it, so a caller that reduces many polynomials by
    one basis builds the table once; `add` extends it as a basis grows."""

    def __init__(self, basis=()):
        self.rows: list[tuple] = []
        for g in basis:
            if not g.is_zero:
                self.add(g)

    def add(self, g: Polynomial) -> None:
        (lead, c), tail = g.terms[0], g.terms[1:]
        self.rows.append((lead - g.ctx.codec.one, pow(c, -1, g.ctx.p), tail))


def normal_form(f: Polynomial, reducers: Reducers) -> Polynomial:
    """Full remainder of f under multivariate division by the basis (in
    order) of the `Reducers` table."""
    return Polynomial(f.ctx, tuple(_reduce(f.ctx, dict(f.terms), reducers.rows)))


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


def _reduce(ctx: RingContext, work: dict, rows: list[tuple]) -> list:
    """The remainder, as descending (key, coefficient) terms, of the
    polynomial whose terms are the (unsorted) dict `work` under division by
    the `Reducers` rows; `work` is consumed.  A key is checked for a set
    guard bit when it leaves the heap, before it is used: an overflowed key
    equals no valid key, and two equal ones are one monomial, so what
    cancels before that check cancels exactly."""
    p, one, guard = ctx.p, ctx.codec.one, ctx.codec.guard
    heap = [-k for k in work]
    heapq.heapify(heap)
    remainder = []
    while heap:
        k = -heapq.heappop(heap)
        coeff = work.pop(k, 0)
        if not coeff:
            continue  # it cancelled after it was pushed
        if k & guard:
            raise packing_overflow()
        for dl, inv, tail in rows:
            q = k - dl  # the quotient k / lead, valid when no guard bit is set
            if not q & guard:
                # subtract (coeff/lead coeff)·(k / lead)·g; its leading term cancels k
                _subtract(work, heap, q - one, coeff * inv % p, tail, p)
                break
        else:
            remainder.append((k, coeff))
    return remainder


def _spoly(f: Polynomial, g: Polynomial) -> dict:
    """The S-polynomial of monic f and g as an unsorted dict of terms: the
    leading terms cancel, so only the two tails are shifted and merged."""
    lf, lg = f.terms[0][0], g.terms[0][0]
    lcm = f.ctx.codec.lcm(lf, lg)
    a = lcm - lf
    work = {e + a: c for e, c in f.terms[1:]}
    _subtract(work, [], lcm - lg, 1, g.terms[1:], f.ctx.p)
    return work


def buchberger(gens: list[Polynomial], ctx: RingContext, bases=()) -> list[Polynomial]:
    """A Groebner basis of (gens) plus the ideals of `bases`, each of which
    is a monic Groebner basis already, under ctx.order (not yet reduced),
    monic.

    Pairs are pruned when they are made, by the criteria of Gebauer and
    Möller (1988): when h joins the basis, an old pair (i, j) goes if lead(h)
    divides its lcm L and L differs from both lcm(i, h) and lcm(j, h); of the
    new pairs (i, h), one is kept per minimal lcm, and none whose leads are
    coprime (`_new_pairs`, which walks the distinct lcms in ascending order
    and checks each against the minimal ones met before it).  A kept
    pair whose S-polynomial is zero by construction counts as treated, as
    one reduced to zero does, but is never queued: both elements are
    monomials, or both come from one of `bases`.  Pairs are reduced in
    ascending order of their lcm."""
    codec = ctx.codec
    one, guard, lcm_of = codec.one, codec.guard, codec.lcm
    basis: list[Polynomial] = []
    leads: list[int] = []
    monomial: list[bool] = []
    block: list[int | None] = []  # the index in `bases` an element comes from, or None
    reducers = Reducers()
    active: list[int] = []  # elements whose lead no later lead divides
    pairs: dict[tuple[int, int], int] = {}  # live pairs -> lcm of the leads
    heap: list = []  # (lcm, i, j) of every pair made; dead ones are skipped

    def insert(h: Polynomial, b: int | None = None) -> None:
        lh = h.terms[0][0]
        dl = lh - one  # lh divides m exactly when m - dl sets no guard bit
        mono = len(h.terms) == 1
        # lcm(lead(i), lh) is taken only where it is used: for each active i,
        # and for the two ends of a live pair whose lcm lh divides
        dead = [
            (i, j)
            for (i, j), lcm in pairs.items()
            if not (lcm - dl) & guard and lcm != lcm_of(leads[i], lh) and lcm != lcm_of(leads[j], lh)
        ]
        for ij in dead:
            del pairs[ij]
        new = len(basis)

        def zero(i: int) -> bool:
            return (mono and monomial[i]) or (b is not None and block[i] == b)

        for lcm, i in _new_pairs(codec, lh, active, leads, zero):
            pairs[i, new] = lcm
            heapq.heappush(heap, (lcm, i, new))
        active[:] = [i for i in active if (leads[i] - dl) & guard]
        active.append(new)
        basis.append(h)
        leads.append(lh)
        monomial.append(mono)
        block.append(b)
        reducers.add(h)

    for g in gens:
        if not g.is_zero:
            insert(g.monic())
    for b, known in enumerate(bases):
        for g in known:
            insert(g, b)
    while pairs:
        _, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        r = _reduce(ctx, _spoly(basis[i], basis[j]), reducers.rows)
        if r:
            insert(Polynomial(ctx, tuple(r)).monic())
    return basis


def _new_pairs(codec, lh: int, active: list[int], leads: list[int], zero) -> list[tuple[int, int]]:
    """The pairs (lcm, i) that a new element with lead key lh makes with the
    elements i in `active` (ascending) and `buchberger` queues: one per
    minimal lcm(lead(i), lh), the last in `active` order, none whose lcm
    also belongs to a pair with coprime leads, and none for which zero(i)
    says that the S-polynomial is zero by construction.

    The pairs are grouped by lcm and the distinct lcms walked in ascending
    key order: a divisor of an lcm has a smaller key, so each lcm is checked
    only against the minimal lcms met before it."""
    one, guard, lcm_of = codec.one, codec.guard, codec.lcm
    dl = lh - one
    last: dict[int, int] = {}  # lcm(lead(i), lh) -> the last i with that lcm
    coprime = set()  # the lcms lead(i)·lh of pairs with coprime leads
    for i in active:
        lcm = lcm_of(leads[i], lh)
        last[lcm] = i
        if lcm == leads[i] + dl:
            coprime.add(lcm)
    minimal: list[int] = []  # the minimal lcms met so far
    queued = []
    for lcm in sorted(last):
        up = lcm + one  # m divides lcm exactly when up - m sets no guard bit
        for m in minimal:
            if not (up - m) & guard:
                break
        else:
            minimal.append(lcm)
            # a coprime lcm prunes others, but no pair with it is queued
            if lcm not in coprime and not zero(last[lcm]):
                queued.append((lcm, last[lcm]))
    return queued


def _minimal_leads(basis, ctx: RingContext) -> list[Polynomial]:
    """The elements whose lead no other lead divides, ascending by lead,
    from one pass: a divisor sorts before its multiples, and of equal leads
    the first in basis order stays (the sort is stable)."""
    one, guard = ctx.codec.one, ctx.codec.guard
    kept: list[Polynomial] = []
    divisors: list[int] = []  # kept leads minus one: d divides k when k - d sets no guard bit
    for g in sorted(basis, key=lambda g: g.terms[0][0]):
        k = g.terms[0][0]
        if all((k - d) & guard for d in divisors):
            divisors.append(k - one)
            kept.append(g)
    return kept


def reduce_basis(basis: list[Polynomial], ctx: RingContext) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis of a monic Groebner basis, such as
    `buchberger` returns: auto-reduced and sorted by leading term."""
    keep = _minimal_leads(basis, ctx)
    # tail-reduce every survivor against one table of all survivors: no other
    # lead divides lead(g), and lead(g) divides no term below itself, so
    # g's own row never applies to its tail
    table = Reducers(keep)
    return tuple(Polynomial(ctx, g.terms[:1] + tuple(_reduce(ctx, dict(g.terms[1:]), table.rows))) for g in keep)


def reduced_groebner(gens, ctx: RingContext) -> tuple[Polynomial, ...]:
    """The reduced basis of (gens), monic, ascending; monomial generators
    give their minimal generators, with no Buchberger run."""
    gens = [g for g in gens if not g.is_zero]
    if all(len(g.terms) == 1 for g in gens):
        return tuple(_minimal_leads([Polynomial(ctx, ((g.terms[0][0], 1),)) for g in gens], ctx))
    return reduce_basis(buchberger(gens, ctx), ctx)


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
        return bool(gb) and gb[0].terms[0][0] == self.ctx.codec.one

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
        """I·J; equal products of generators (x·(y·f) = y·(x·f)) are listed once."""
        return Ideal.make(self.ctx, _products(self.gens, other.gens))

    def _staircase(self) -> tuple | None:
        """The keys of the monomials outside the leading-term ideal,
        ascending, when there are finitely many (S/I has finite length) and
        I is proper; None otherwise; refused past MAX_LENGTH of them.  S/I
        has finite length exactly when each variable has a pure power among
        the leads (cached as "pure_powers").  Computed once."""
        if "staircase" not in self._cache:
            gb = self.groebner()
            leads = [g.lead_exps for g in gb]
            bounds = [min((le[v] for le in leads if sum(le) == le[v]), default=0) for v in range(self.ctx.nvars)]
            staircase = None
            if all(bounds):
                codec = self.ctx.codec
                # lead g divides k exactly when k - (g - one) sets no guard bit
                divisors = [g.terms[0][0] - codec.one for g in gb]
                # walk up from 1: a divisor of a standard monomial is standard
                found, todo = {codec.one}, [codec.one]
                while todo:
                    k = todo.pop()
                    for unit in codec.units:
                        m = k + unit
                        if m not in found and all((m - d) & codec.guard for d in divisors):
                            if len(found) == MAX_LENGTH:
                                raise PreconditionError(f"a quotient S/J of length above the limit of {MAX_LENGTH}, J = {self._short()}")
                            found.add(m)
                            todo.append(m)
                staircase = tuple(sorted(found))
            self._cache["pure_powers"], self._cache["staircase"] = bounds, staircase
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
                self._nilpotent(v, b, len(basis)) for v, b in enumerate(self._cache["pure_powers"])
            )
        return self._cache["m_primary"]

    def _nilpotent(self, v: int, power: int, length: int) -> bool:
        """Whether x_v is nilpotent in S/I, of finite length L = `length`,
        where x_v^power is the least pure power of x_v among the leads.  A
        nilpotent element has x^L = 0, so x_v^n ∈ I for any one n >= L
        decides it; n = power·2^j: x_v^power reduces to its normal form g,
        and each squaring of g doubles the power."""
        reducers = self.reducers()
        g = normal_form(self.ctx.variable(v) ** power, reducers)
        while power < length and not g.is_zero:
            g, power = normal_form(g * g, reducers), 2 * power
        return g.is_zero

    def standard_keys(self) -> tuple:
        """The keys of all monomials outside the leading-term ideal,
        ascending; their count is the length of S/I.  Requires an m-primary
        ideal."""
        if not self.is_m_primary():
            raise PreconditionError("standard monomials need an m-primary ideal")
        return self._staircase()

    def standard_monomials(self) -> tuple:
        """`standard_keys` as exponent tuples, decoded once."""
        if "standard" not in self._cache:
            self._cache["standard"] = tuple(map(self.ctx.codec.decode, self.standard_keys()))
        return self._cache["standard"]

    def length(self) -> int:
        return len(self.standard_keys())

    def dim_in_degree(self, d: int) -> int:
        """dim_k of the degree-d graded piece (homogeneous ideals only)."""
        codec = self.ctx.codec
        divisors = [g.terms[0][0] - codec.one for g in self.groebner()]
        keys = map(codec.encode, monomials_of_degree(self.ctx, d))
        return sum(1 for k in keys if not all((k - dl) & codec.guard for dl in divisors))

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

    def _short(self, shown: int = 4, width: int = 120) -> str:
        """The generator list for a message, cut after `shown` generators or
        `width` characters, with the count when it is cut."""
        text = ", ".join(str(g) for g in self.gens[:shown])
        if len(self.gens) > shown or len(text) > width:
            text = f"{text[:width]}, ... ({len(self.gens)} generators)"
        return f"({text})"

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens)
        return f"Ideal({gens})"


def max_ideal(ctx: RingContext) -> Ideal:
    return Ideal.make(ctx, [ctx.variable(i) for i in range(ctx.nvars)])


def _products(fs, gs) -> tuple:
    """f·g for f in fs and g in gs, f-major, each product listed once."""
    return tuple(dict.fromkeys(f * g for f in fs for g in gs))


def max_ideal_product(I: Ideal) -> Ideal:
    """m·I, memoized in I's cache so that the routes of one command share
    one product and its reduced basis.  The memo lives on I, not on a shared
    m, which would then keep every product of a sweep alive.

    Its generators are x_v·f for f in I.gens, as `Ideal.product` lists them.
    Its reduced basis is computed with it (every caller asks for it next)
    from x_v·g for g in I's reduced basis G, which generates I as well:
    when G is monomial, as the basis of m·I often is, the products are
    monomials and need no Buchberger run.  When I.gens is G, as for a
    colon, the generators are the seed."""
    if "m_product" not in I._cache:
        variables = max_ideal(I.ctx).gens
        basis = I.groebner()
        mI = Ideal.make(I.ctx, _products(variables, I.gens))
        seed = mI.gens if basis == I.gens else _products(variables, basis)
        mI._cache["groebner"] = reduced_groebner(seed, I.ctx)
        I._cache["m_product"] = mI
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
    """ctx's variables with a fresh elimination variable t in front, under
    Block(1): the power of t first, then grevlex on the rest.  Block(1)
    admits one variable past MAX_VARIABLES.  One context per ctx, so the
    prime is checked once rather than once per elimination."""
    return RingContext(ctx.p, (_fresh_variable(ctx),) + ctx.variables, Block(1))


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J by eliminating t from t·I + (1-t)·J under Block(1).

    Every multiple of t lies above every t-free monomial there, so the
    t-free elements of a Groebner basis form one of I ∩ J, and
    `reduce_basis` of them alone gives the grevlex reduced basis of I ∩ J:
    a t-free lead is divisible only by t-free leads, and a t-free element
    has only t-free terms.  Further:
    - the result carries that basis;
    - t·G_I and (t-1)·G_J, from the reduced bases of I and J, are Groebner
      bases in the elimination ring already, so `buchberger` reduces only
      pairs across them;
    - a key of ctx becomes the key of the same monomial there by adding a
      constant (the field of F - e_t that grevlex does not have), and a
      multiple by t adds one more.
    That lift holds for grevlex keys only, so I and J must lie in a grevlex
    ring."""
    if I.ctx != J.ctx:
        raise ValueError("ideals from different ring contexts")
    ctx = I.ctx
    if ctx.order != GREVLEX:
        raise PreconditionError(f"intersection needs a grevlex ring, not {ctx.order!r}")
    if not I.gens or not J.gens:
        return Ideal.make(ctx, ())
    ctx2 = _extend_context(ctx)
    t = ctx2.codec.units[0]
    t_key = ctx2.codec.one + t  # g is free of t exactly when its lead lies below t
    p, free = ctx.p, ctx2.codec.one - ctx.codec.one
    t_I = [Polynomial(ctx2, tuple([(k + free + t, c) for k, c in g.terms])) for g in I.groebner()]
    t_J = [
        Polynomial(ctx2, tuple([(k + free + t, c) for k, c in g.terms] + [(k + free, p - c) for k, c in g.terms]))
        for g in J.groebner()
    ]
    gb = reduce_basis([g for g in buchberger([], ctx2, (t_I, t_J)) if g.terms[0][0] < t_key], ctx2)
    meet = Ideal.make(ctx, [Polynomial(ctx, tuple([(k - free, c) for k, c in g.terms])) for g in gb])
    meet._cache["groebner"] = meet.gens
    return meet


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when g divides f (guaranteed by membership f ∈ (g))."""
    p, one, guard = f.ctx.p, f.ctx.codec.one, f.ctx.codec.guard
    work = dict(f.terms)
    heap = [-k for k in work]
    heapq.heapify(heap)
    (lead, c), tail = g.terms[0], g.terms[1:]
    inv_lead = pow(c, -1, p)
    quotient = []  # descending, as the dividend's leading terms are
    while heap:
        k = -heapq.heappop(heap)
        coeff = work.pop(k, 0)
        if not coeff:
            continue
        if k & guard:
            raise packing_overflow()
        q = k - lead + one
        if q & guard:
            raise ValueError("exact division failed: input not a multiple")
        q_coeff = coeff * inv_lead % p
        quotient.append((q, q_coeff))
        _subtract(work, heap, k - lead, q_coeff, tail, p)
    return Polynomial(f.ctx, tuple(quotient))


def ideal_colon_element(I: Ideal, g: Polynomial) -> Ideal:
    """(I : g) = (I ∩ (g)) / g, the first step of `ideal_colon`, carrying
    its reduced basis."""
    if g.is_zero:
        raise PreconditionError("colon by zero element")
    return _colon_step(I, g, None)


def _colon_step(I: Ideal, g: Polynomial, K: Ideal | None) -> Ideal:
    """K ∩ (I : g) = (I ∩ g·K) / g, or (I : g) when K is None, from one
    elimination.

    K carries its reduced basis G_K.  Since in(g·K) = lead(g)·in(K), g·G_K,
    made monic, is a Groebner basis of g·K, so it seeds the elimination as
    (g) does; by a monomial g it is the reduced basis itself, by any other g
    it is tail-reduced first.  The result carries its reduced basis: the
    quotients h/g of the reduced basis of I ∩ g·K are a Groebner basis of
    it."""
    ctx = I.ctx
    if K is None:
        multiple = Ideal.make(ctx, (g,))
        multiple._cache["groebner"] = (g.monic(),)
    else:
        multiple = Ideal.make(ctx, [g.monic() * f for f in K.groebner()])
        basis = multiple.gens
        multiple._cache["groebner"] = basis if len(g.terms) == 1 else reduce_basis(list(basis), ctx)
    meet = ideal_intersection(I, multiple)
    colon = Ideal.make(ctx, [exact_divide(h, g) for h in meet.gens])
    # lead(h) = lead(g)·lead(h/g), so the quotients have minimal leads; by a
    # monic monomial g, h and h/g have the same terms shifted, and the
    # quotients are the reduced basis itself
    if len(g.terms) == 1 and g.lead_coeff == 1:
        colon._cache["groebner"] = colon.gens
    else:
        colon._cache["groebner"] = reduce_basis([q.monic() for q in colon.gens], ctx)
    return colon


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {f : fJ ⊆ I} for J = (g_1..g_r), by a chain of r
    eliminations: K_1 = (I : g_1), and K_j = K_{j-1} ∩ (I : g_j) =
    (I ∩ g_j·K_{j-1}) / g_j (`_colon_step`), with K_r the colon.  Each
    step needs one elimination where intersecting the principal colons
    would take two.  The result carries its reduced basis, and by monic
    monomials g_j, as for (I : m), its generators are that basis.

    The result is memoized in I's cache, keyed by J's generators, so the
    routes of one command that each need (I : m) share one computation."""
    if I.ctx != J.ctx:
        raise ValueError("ideals from different ring contexts")
    gens = [g for g in J.gens if not g.is_zero]
    if not gens:
        raise PreconditionError("colon by the zero ideal")
    memo = ("colon", J.gens)
    if memo not in I._cache:
        colon = None
        for g in gens:
            colon = _colon_step(I, g, colon)
        I._cache[memo] = colon
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

    codec = ctx.codec
    bound = max(degs)
    for a, b in itertools.combinations(I.groebner(), 2):
        bound = max(bound, codec.degree(codec.lcm(a.terms[0][0], b.terms[0][0])))

    mu = len(gens)
    chosen: list[tuple[int, list[Polynomial]]] = []  # (degree, column)

    def col_index_map(t: int):
        """Coordinates of ⊕_i S_{t-d_i}: list of (i, mono) and lookup dict."""
        coords = []
        for i in range(mu):
            for m in map(codec.encode, monomials_of_degree(ctx, t - degs[i])):
                coords.append((i, m))
        return coords, {c: k for k, c in enumerate(coords)}

    prev_span: linalg.Triples | None = None
    prev_coords: list = []
    for t in range(min(degs), bound + 1):
        coords, lookup = col_index_map(t)
        if not coords:
            continue
        row_lookup = {m: r for r, m in enumerate(map(codec.encode, monomials_of_degree(ctx, t)))}
        # multiplication matrix: coordinate (i, m) maps to m * gens[i]
        entries = [(row_lookup[e + m - codec.one], k, c) for k, (i, m) in enumerate(coords) for e, c in gens[i].terms]
        M = linalg.Triples.from_entries(entries, (len(row_lookup), len(coords)))
        K = linalg.kernel_basis(M, p)
        # span of x_j * (syzygies of degree t-1), in degree-t coordinates
        carried = linalg.Triples.zeros(len(coords), 0)
        if prev_span is not None and prev_span.shape[1]:
            shifted = []
            for unit in codec.units:
                to = np.array([lookup[(i, m + unit)] for i, m in prev_coords], dtype=np.int64)
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
                col[i] = Polynomial.from_keys(ctx, d)
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
