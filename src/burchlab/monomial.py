"""Combinatorial fast paths for monomial ideals.

A MonomialIdeal is a sorted antichain of exponent tuples (the minimal
generators), which makes products, colons and the monomial Burch criterion
pure staircase arithmetic with no Groebner machinery.  The two-variable
enumerator walks all staircase profiles inside a bounded triangle and is the
workhorse behind the oracle sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .groebner import Ideal, PreconditionError
from .poly import Exponents, RingContext, mono_div, mono_divides, mono_lcm, mono_mul


def _trim(gens) -> tuple:
    """Keep the divisibility-minimal monomials, sorted for canonicity."""
    items = sorted(set(tuple(g) for g in gens))
    keep = []
    for g in items:
        if not any(mono_divides(h, g) for h in items if h != g):
            keep.append(g)
    return tuple(sorted(keep))


@dataclass(frozen=True)
class MonomialIdeal:
    """Canonical form: equal ideals have equal generator tuples."""

    ctx: RingContext
    gens: tuple  # sorted antichain of exponent tuples

    @staticmethod
    def make(ctx: RingContext, monomials) -> "MonomialIdeal":
        return MonomialIdeal(ctx, _trim(monomials))

    @staticmethod
    def max_ideal(ctx: RingContext) -> "MonomialIdeal":
        return MonomialIdeal.make(ctx, [ctx.var_exps(i) for i in range(ctx.nvars)])

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def contains_unit(self) -> bool:
        return self.gens == (self.ctx.zero_exps(),)

    def contains(self, mono: Exponents) -> bool:
        return any(mono_divides(g, mono) for g in self.gens)

    def to_ideal(self) -> Ideal:
        return Ideal.make(self.ctx, [self.ctx.monomial(g) for g in self.gens])

    @staticmethod
    def from_ideal(I: Ideal) -> "MonomialIdeal":
        gens = []
        for g in I.gens:
            if len(g.terms) != 1:
                raise ValueError("not a monomial ideal")
            gens.append(g.lead_exps)
        return MonomialIdeal.make(I.ctx, gens)

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        gens = [mono_mul(a, b) for a in self.gens for b in other.gens]
        return MonomialIdeal.make(self.ctx, gens)

    def intersection(self, other: "MonomialIdeal") -> "MonomialIdeal":
        gens = [mono_lcm(a, b) for a in self.gens for b in other.gens]
        return MonomialIdeal.make(self.ctx, gens)

    def colon_var(self, i: int) -> "MonomialIdeal":
        xi = self.ctx.var_exps(i)
        gens = [mono_div(g, xi) if g[i] else g for g in self.gens]
        return MonomialIdeal.make(self.ctx, gens)

    def is_m_primary(self) -> bool:
        if self.is_zero or self.contains_unit:
            return False
        for i in range(self.ctx.nvars):
            if not any(all(e == 0 for j, e in enumerate(g) if j != i) for g in self.gens):
                return False
        return True

    def standard_monomials(self) -> tuple:
        if not self.is_m_primary():
            raise PreconditionError("standard monomials need an m-primary ideal")
        import itertools

        bounds = []
        for i in range(self.ctx.nvars):
            bounds.append(min(g[i] for g in self.gens if sum(g) == g[i]))
        out = [e for e in itertools.product(*[range(b) for b in bounds]) if not self.contains(e)]
        out.sort(key=self.ctx.codec.encode)
        return tuple(out)

    def __repr__(self):
        names = self.ctx.variables

        def show(g):
            parts = [f"{n}^{e}" if e > 1 else n for n, e in zip(names, g) if e]
            return "*".join(parts) if parts else "1"

        return "MonomialIdeal(" + ", ".join(show(g) for g in self.gens) + ")"


def mono_colon_m(I: MonomialIdeal) -> MonomialIdeal:
    """(I : m) as a monomial ideal; may contain the unit (I = m case)."""
    out = I.colon_var(0)
    for i in range(1, I.ctx.nvars):
        out = out.intersection(I.colon_var(i))
    return out


@dataclass(frozen=True)
class MonomialBurchVerdict:
    burch: bool
    witness_monomial: Exponents | None = None
    witness_variable: int | None = None


def monomial_burch_test(I: MonomialIdeal) -> MonomialBurchVerdict:
    """A monomial ideal is Burch iff some monomial m in I\\mI admits a
    variable x_i | m with m·(x_j/x_i) in I for every j.  The monomials of
    I\\mI are exactly the minimal generators, so the search is finite."""
    n = I.ctx.nvars
    for g in I.gens:
        for i in range(n):
            if g[i] == 0:
                continue
            base = mono_div(g, I.ctx.var_exps(i))
            if all(I.contains(mono_mul(base, I.ctx.var_exps(j))) for j in range(n)):
                return MonomialBurchVerdict(True, g, i)
    return MonomialBurchVerdict(False)


def _staircase(I: MonomialIdeal) -> list[tuple[int, int]]:
    """Two-variable generators (a_i, b_i) sorted with a strictly decreasing."""
    if I.ctx.nvars != 2:
        raise PreconditionError("two-variable operation")
    if not I.is_m_primary():
        raise PreconditionError("m-primary ideal required")
    return sorted(I.gens, key=lambda g: -g[0])


def staircase_burch_test(I: MonomialIdeal) -> bool:
    """Two-variable criterion: with generators x^{a_i} y^{b_i}, a decreasing,
    Burch iff some consecutive pair has a_i = a_{i+1}+1 or b_{i+1} = b_i+1."""
    gens = _staircase(I)
    for (a1, b1), (a2, b2) in zip(gens, gens[1:]):
        if a1 == a2 + 1 or b2 == b1 + 1:
            return True
    return False


def hilbert_burch_matrix(I: MonomialIdeal):
    """The mu x (mu-1) bidiagonal presentation matrix of a two-variable
    m-primary monomial ideal: column i has y^{b_{i+1}-b_i} in row i and
    -x^{a_i-a_{i+1}} in row i+1.  Its maximal minors regenerate I."""
    from .groebner import SyzygyMatrix

    ctx = I.ctx
    gens = _staircase(I)
    mu = len(gens)
    zero = ctx.zero()
    columns = []
    for i in range(mu - 1):
        (a1, b1), (a2, b2) = gens[i], gens[i + 1]
        col = [zero] * mu
        col[i] = ctx.monomial((0, b2 - b1))
        col[i + 1] = ctx.monomial((a1 - a2, 0), ctx.p - 1)
        columns.append(tuple(col))
    ordered = [ctx.monomial(g) for g in gens]
    matrix = SyzygyMatrix(ctx, tuple(ordered), tuple(columns))
    matrix.check()
    return matrix


# staircase-profile enumeration: lambda_a = number of standard monomials in
# column a; weakly decreasing, bounded by the triangle a+b <= d.


def _profiles(d: int) -> Iterator[tuple[int, ...]]:
    def rec(prefix: list[int], col: int, prev: int):
        if col > d:
            yield tuple(prefix)
            return
        hi = min(prev, d + 1 - col)
        for lam in range(hi, -1, -1):
            if lam == 0:
                yield tuple(prefix + [0] * (d + 1 - col))
            else:
                yield from rec(prefix + [lam], col + 1, lam)

    for lam0 in range(1, d + 2):
        yield from rec([lam0], 1, lam0)


def _profile_to_ideal(ctx: RingContext, profile: tuple[int, ...]) -> MonomialIdeal:
    gens = []
    prev = None
    for a, lam in enumerate(profile):
        if prev is None or lam < prev:
            gens.append((a, lam))
        prev = lam
        if lam == 0:
            break
    else:
        gens.append((len(profile), 0))
    return MonomialIdeal.make(ctx, gens)


def count_m_primary(max_socle_degree: int) -> int:
    return sum(1 for _ in _profiles(max_socle_degree))


def enumerate_m_primary(ctx: RingContext, max_socle_degree: int) -> Iterator[MonomialIdeal]:
    """Every m-primary monomial ideal I of k[x,y] with m^(d+1) ⊆ I, each
    exactly once, in lex order of the staircase profile (deterministic)."""
    if ctx.nvars != 2:
        raise PreconditionError("enumeration is implemented for 2 variables")
    d = max_socle_degree
    if d < 0:
        raise PreconditionError("socle degree bound must be >= 0")
    if d > 7:
        raise PreconditionError(
            f"socle degree bound {d} too large (would enumerate about {count_m_primary(7)}+ ideals); max is 7"
        )
    profiles = sorted(_profiles(d))
    for prof in profiles:
        yield _profile_to_ideal(ctx, prof)
