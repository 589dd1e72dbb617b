"""Buchberger's algorithm and the ideal calculus used by the Burch tests.

The reduced Groebner basis is the canonical form of an ideal under a fixed
order, so equality, membership and colon computations all route through it.
`buchberger` prunes S-pairs with the Gebauer–Möller criteria as each new
element is made, and keeps the live pairs in a dict beside a heap ordered by
lcm.  Division runs against a `Reducers` table (lead, inverse lead
coefficient, tail per element), which `buchberger` extends as the basis
grows and an `Ideal` builds once for its reduced basis; an S-polynomial
goes to the division loop as an unsorted term dict.  Intersections use
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
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import PreconditionError
from .poly import (
    Block,
    Exponents,
    Polynomial,
    RingContext,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)


# ---------------------------------------------------------------------------
# division / Buchberger


class Reducers:
    """The reducer table of a basis: (lead exponents, inverse lead
    coefficient, tail terms) of each nonzero element, in basis order.

    `normal_form` takes it, so a caller that reduces many polynomials by
    one basis builds the table once; `add` extends it as a basis grows."""

    def __init__(self, basis=()):
        self.rows: list[tuple] = []
        for g in basis:
            self.add(g)

    def add(self, g: Polynomial) -> None:
        if not g.is_zero:
            self.rows.append((g.lead_exps, pow(g.lead_coeff, -1, g.ctx.p), g.terms[1:]))


def normal_form(f: Polynomial, reducers: Reducers) -> Polynomial:
    """Full remainder of f under multivariate division by the basis (in
    order) of the `Reducers` table."""
    return _reduce(f.ctx, dict(f.terms), reducers.rows)


def _reduce(ctx: RingContext, work: dict, rows: list[tuple]) -> Polynomial:
    """The remainder of the polynomial whose terms are the (unsorted) dict
    `work` under division by the `Reducers` rows; `work` is consumed."""
    p = ctx.p
    key = ctx.order.key
    remainder = []  # terms leave `work` in descending order
    while work:
        exps = max(work, key=key)
        coeff = work.pop(exps)
        for le, inv, tail in rows:
            if mono_divides(le, exps):
                q_exps = mono_div(exps, le)
                q_coeff = coeff * inv % p
                # subtract (q_coeff * x^q_exps) * g; the leading term cancels
                for ge, gc in tail:
                    e = mono_mul(ge, q_exps)
                    v = (work.get(e, 0) - q_coeff * gc) % p
                    if v:
                        work[e] = v
                    else:
                        work.pop(e, None)
                break
        else:
            remainder.append((exps, coeff))
    return Polynomial(ctx, tuple(remainder))


def _spoly(f: Polynomial, g: Polynomial) -> dict:
    """The S-polynomial of monic f and g as an unsorted term dict: the
    leading terms cancel, so only the two tails are shifted and merged."""
    p = f.ctx.p
    lcm = mono_lcm(f.lead_exps, g.lead_exps)
    a = mono_div(lcm, f.lead_exps)
    b = mono_div(lcm, g.lead_exps)
    work = {mono_mul(e, a): c for e, c in f.terms[1:]}
    for e, c in g.terms[1:]:
        e = mono_mul(e, b)
        v = (work.get(e, 0) - c) % p
        if v:
            work[e] = v
        else:
            work.pop(e, None)
    return work


def buchberger(gens: list[Polynomial], ctx: RingContext) -> list[Polynomial]:
    """A Groebner basis of (gens) under ctx.order (not yet reduced).

    Pairs are pruned when they are made, by the criteria of Gebauer and
    Möller (1988): when h joins the basis, an old pair (i, j) goes if lead(h)
    divides its lcm L and L differs from both lcm(i, h) and lcm(j, h); of the
    new pairs (i, h), one is kept per minimal lcm, and none whose leads are
    coprime.  Pairs are reduced in ascending order of their lcm."""
    key = ctx.order.key
    basis: list[Polynomial] = []
    leads: list[Exponents] = []
    reducers = Reducers()
    active: list[int] = []  # elements whose lead no later lead divides
    pairs: dict[tuple[int, int], Exponents] = {}  # live pairs -> lcm of the leads
    heap: list = []  # (key(lcm), i, j) of every pair made; dead ones are skipped

    def insert(h: Polynomial) -> None:
        lh = h.lead_exps
        for (i, j), lcm in list(pairs.items()):
            if mono_divides(lh, lcm) and lcm != mono_lcm(leads[i], lh) and lcm != mono_lcm(leads[j], lh):
                del pairs[i, j]
        made = [(mono_lcm(leads[i], lh), i) for i in active]
        # a coprime pair is kept here only to prune others; it is never queued
        kept: list = []  # (lcm, i, coprime) in the order made
        for n, (lcm, i) in enumerate(made):
            coprime = lcm == mono_mul(leads[i], lh)
            others = itertools.chain((m for m, _ in made[n + 1 :]), (m for m, _, _ in kept))
            if coprime or not any(mono_divides(m, lcm) for m in others):
                kept.append((lcm, i, coprime))
        new = len(basis)
        for lcm, i, coprime in kept:
            if not coprime:
                pairs[i, new] = lcm
                heapq.heappush(heap, (key(lcm), i, new))
        active[:] = [i for i in active if not mono_divides(lh, leads[i])]
        active.append(new)
        basis.append(h)
        leads.append(lh)
        reducers.add(h)

    for g in gens:
        if not g.is_zero:
            insert(g.monic())
    while pairs:
        _, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        r = _reduce(ctx, _spoly(basis[i], basis[j]), reducers.rows)
        if not r.is_zero:
            insert(r.monic())
    return basis


def reduce_basis(basis: list[Polynomial], ctx: RingContext) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis: monic, auto-reduced, sorted by leading term."""
    # drop elements whose lead is divisible by another lead
    basis = [g for g in basis if not g.is_zero]
    keep: list[Polynomial] = []
    for i, g in enumerate(basis):
        le = g.lead_exps
        redundant = False
        for j, h in enumerate(basis):
            if i == j:
                continue
            he = h.lead_exps
            if mono_divides(he, le) and (he != le or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    # tail-reduce every survivor against one table of all survivors: no other
    # lead divides lead(g), and lead(g) divides no term below itself, so
    # g's own row never applies to its tail
    table = Reducers(keep)
    reduced = []
    for g in keep:
        tail = Polynomial(ctx, g.terms[1:])
        if tail.terms:
            tail = normal_form(tail, table)
        reduced.append(Polynomial(ctx, g.terms[:1] + tail.terms).monic())
    reduced.sort(key=lambda g: ctx.order.key(g.lead_exps))
    return tuple(reduced)


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
    ctx = f.ctx
    p = ctx.p
    work = dict(f.terms)
    quotient: dict = {}
    key = ctx.order.key
    inv_lead = pow(g.lead_coeff, -1, p)
    while work:
        exps = max(work, key=key)
        coeff = work.pop(exps)
        if not mono_divides(g.lead_exps, exps):
            raise ValueError("exact division failed: input not a multiple")
        q_exps = mono_div(exps, g.lead_exps)
        q_coeff = (coeff * inv_lead) % p
        quotient[q_exps] = q_coeff
        for ge, gc in g.terms[1:]:
            e = mono_mul(ge, q_exps)
            v = (work.get(e, 0) - q_coeff * gc) % p
            if v:
                work[e] = v
            else:
                work.pop(e, None)
    return Polynomial.from_dict(ctx, quotient)


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
        bound = max(bound, mono_degree(mono_lcm(a.lead_exps, b.lead_exps)))

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
