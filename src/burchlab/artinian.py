"""Finite-dimensional quotient algebras R = S/I for m-primary ideals I.

The algebra is presented on its standard monomial basis with one
multiplication-by-variable matrix per variable (`mult`), a `linalg.Triples`
read off the normal forms of x_v·b; every invariant (length, Hilbert
function, socle, type, embedding dimension) is then plain linear algebra
over F_p.  The Hilbert function is the m-adic one.  When the algebra is
`graded` (every x_v maps basis degree e into e + 1, which holds exactly when
I is homogeneous) it is the count of standard monomials by degree, and m^j
is spanned by those of degree >= j (Macaulay); otherwise both come from the
m-adic chain, m^(j+1) = m·m^j one image span at a time, so they are correct
for non-homogeneous ideals too.  The chain is also the tests' oracle for the
graded route.  The embedding dimension and the Koszul generators need no
chain: m/m^2 of S/I is the space of linear forms modulo the linear parts of
I (`generator_variables`).

Every module-like object (R, the free modules R^m, their submodules and the
modules of `resolution`) is seen through one interface: a function
act(v, Y) computing x_v·Y on a batch of column vectors held as
`linalg.Triples`, by a scatter from the action matrix's
`linalg.scatter_table` form.  `QuotientAlgebra.act` serves R and every R^m
alike, since a row of Y says its component.  The algebra's walks and spans
take such an act: `basis_multiples` (all basis-monomial multiples; one walk
of an element a gives its dense multiplication matrix `operator(a)`),
`m_span` (m·W), `socle_span` (the socle of span W) and
`minimal_generators` (a complement of m·W among W's columns, with m·W,
from one elimination).  The m-adic chain starts from
`linalg.Triples.identity`; the socle of R is the kernel of the stacked
`mult` matrices themselves.

The results that callers read as arrays, `socle` and `operator(a)`, are
dense arrays built on request; annihilators (`AnnihilatorResult.subspace`)
stay Triples.

The socle also gives the colon by m without elimination: for m-primary I,
(I : m) = I + lift(Soc S/I) (`socle_colon`) is the colon-shift route's
(mI : m) and the decision layer's (I : m)
(`burch._colon_by_m`: the Burch verdict and witness, Choi's invariant,
depth zero and weak m-fullness); only the cross-check of `burch` still
eliminates (I : m), as the oracle.  Its Groebner basis needs no Buchberger
run either: the lifts of an echelon basis of the socle have distinct
standard monomials as leads, and with G_I they already form a basis, by a
count of colengths.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .groebner import Ideal, PreconditionError, normal_form, reduce_basis
from .poly import Exponents, Polynomial, RingContext


class QuotientAlgebra:
    """S/I with cached basis, multiplication matrices (`mult`, one
    `linalg.Triples` per variable) and invariants."""

    def __init__(self, ideal: Ideal):
        if not ideal.is_m_primary():
            raise PreconditionError("quotient algebra needs an m-primary ideal")
        self.ideal = ideal
        self.ctx = ideal.ctx
        self.p = ideal.ctx.p
        self.keys: tuple[int, ...] = ideal.standard_keys()
        self.basis: tuple[Exponents, ...] = ideal.standard_monomials()
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.dim = len(self.keys)
        self._reducers = ideal.reducers()
        self.mult = [self._variable_matrix(i) for i in range(self.ctx.nvars)]
        self._scatters = [linalg.scatter_table(M) for M in self.mult]
        check_commuting(self.act, self.mult, "multiplication matrices")
        self._parents = self._basis_parents()

    # -- construction ---------------------------------------------------------

    def _nf_vector(self, f: Polynomial) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        r = normal_form(f, self._reducers)
        for k, c in r.terms:
            v[self.index[k]] = c
        return v

    def _variable_matrix(self, i: int) -> linalg.Triples:
        """Multiplication by x_i: column b holds x_i·(basis monomial b), a
        basis monomial itself or the normal form of the product.  The
        product is a monomial, so `normal_form` would first take the first
        reducer whose lead divides it; when that reducer is a monomial, the
        normal form is 0 and is not taken."""
        codec = self.ctx.codec
        unit, guard = codec.units[i], codec.guard
        rows = self._reducers.rows
        entries = []
        for b, m in enumerate(self.keys):
            prod = m + unit
            if prod in self.index:
                entries.append((self.index[prod], b, 1))
            elif next(tail for dl, _, tail in rows if not (prod - dl) & guard):
                r = normal_form(Polynomial(self.ctx, ((prod, 1),)), self._reducers)
                entries.extend((self.index[k], b, c) for k, c in r.terms)
        return linalg.Triples.from_entries(entries, (self.dim, self.dim))

    def _basis_parents(self) -> list[tuple[int, int]]:
        """Entry b-1 is (index of basis[b] / x_v, v) for the first variable
        x_v dividing basis[b].  basis[0] is 1 and the ascending basis lists
        every standard monomial after its parent.  A divisor of a standard
        monomial is standard, and a key minus the unit of a variable that
        does not divide it sets a guard bit, so it is in no index."""
        units, index = self.ctx.codec.units, self.index
        return [next((index[k - u], v) for v, u in enumerate(units) if k - u in index) for k in self.keys[1:]]

    def act(self, v: int, Y: linalg.Triples) -> linalg.Triples:
        """x_v times each column of Y, a batch of coordinate vectors of R^m
        for any m, laid out component-major (index c·dim + b): each row of Y
        says its component."""
        if Y.shape[0] % self.dim:
            raise ValueError(f"vectors of length {Y.shape[0]} in a free module over an algebra of dimension {self.dim}")
        return linalg.apply_scatter(self._scatters[v], Y, self.p)

    # -- invariants, computed on first use -----------------------------------

    @cached_property
    def _chain(self) -> "_MadicChain":
        return _MadicChain(self)

    @cached_property
    def basis_degrees(self) -> np.ndarray:
        """The degree of each basis monomial, in basis order."""
        return np.array([sum(e) for e in self.basis], dtype=np.int64)

    @cached_property
    def graded(self) -> bool:
        """Whether every x_v maps each basis monomial of degree e into the
        span of those of degree e + 1: a property of the matrices `mult`,
        not of how I's generators are written, so (x^2 + y, y) is graded.
        It holds exactly when I is homogeneous: then the normal form of a
        monomial is homogeneous of its degree, so I, the kernel of the
        normal form, is spanned by homogeneous elements.  Then m^j is
        spanned by the basis monomials of degree >= j: a product of j
        variables raises degree by j, and a standard monomial of degree e is
        e variables applied to 1."""
        deg = self.basis_degrees
        return all(np.array_equal(deg[M.rows], deg[M.cols] + 1) for M in self.mult)

    @cached_property
    def hilbert(self) -> tuple[int, ...]:
        """The m-adic Hilbert function dim m^j/m^(j+1), j = 0, 1, ...: for
        a `graded` algebra the count of basis monomials by degree, otherwise
        read off the m-adic chain."""
        if self.graded:
            return tuple(np.bincount(self.basis_degrees).tolist())
        dims = self._chain.walk()
        return tuple(dims[j] - dims[j + 1] for j in range(len(dims) - 1))

    @cached_property
    def generator_variables(self) -> list[int]:
        """The variables whose images minimally generate m, chosen greedily
        in variable order: x_v is taken when it is not in m^2 + I + (the
        earlier variables), as the chain's choice of the images that extend
        m^2 to m takes it.  m/(m^2 + I) is the linear forms modulo the span
        L of the linear parts of I, and h_1·g_1 + ... has the linear part
        h_1(0)·lin(g_1) + ..., so the linear parts of I's reduced basis span
        L: the choice is one `complete_columns` over the n linear forms,
        with no chain walk and no rref over R."""
        codec, n = self.ctx.codec, self.ctx.nvars
        row = {codec.one + u: v for v, u in enumerate(codec.units)}
        basis = self.ideal.groebner()
        linear = [(row[k], j, c) for j, g in enumerate(basis) for k, c in g.terms if k in row]
        L = linalg.Triples.from_entries(linear, (n, len(basis)))
        return linalg.complete_columns(L, linalg.Triples.identity(n), self.p)

    @cached_property
    def edim(self) -> int:
        """dim m/m^2, the number of `generator_variables`; 0 for a field."""
        return len(self.generator_variables)

    @cached_property
    def koszul_d2(self) -> linalg.Triples:
        """∂_2 of the Koszul complex on `generator_variables`, by
        `resolution.koszul_d2`."""
        from .resolution import koszul_d2  # resolution imports this module
        return koszul_d2(self)

    @cached_property
    def koszul_h1(self) -> int:
        """dim H_1 of the Koszul complex of m, by `resolution.koszul_h1`."""
        from .resolution import koszul_h1
        return koszul_h1(self)

    @cached_property
    def socle(self) -> np.ndarray:
        """Basis of the socle (0 : m) as columns: the kernel of the `mult`
        matrices stacked one above the other, in the form
        `linalg.kernel_basis` gives: each column ends (by key) in a 1, at a
        coordinate where every other column is 0."""
        stacked = linalg.hstack([M.T for M in self.mult], self.dim).T
        return linalg.kernel_basis(stacked, self.p).toarray()

    # -- queries ---------------------------------------------------------------

    @property
    def length(self) -> int:
        return self.dim

    @property
    def is_field(self) -> bool:
        return self.dim == 1

    @property
    def socle_dim(self) -> int:
        return self.socle.shape[1]

    def type(self) -> int:
        return self.socle_dim

    def is_gorenstein(self) -> bool:
        return self.socle_dim == 1

    def max_power_basis(self, j: int) -> linalg.Triples:
        """Basis of m^j (as a column span): for a `graded` algebra the unit
        vectors of the basis monomials of degree >= j, otherwise from the
        m-adic chain, which keeps it for j <= KEPT_POWER."""
        if self.graded:
            return linalg.Triples.identity(self.dim).take_columns(np.flatnonzero(self.basis_degrees >= j))
        return self._chain.power(j)

    def element(self, f: Polynomial) -> "AlgebraElement":
        return AlgebraElement(self, self._nf_vector(f))

    def element_from_vector(self, v: np.ndarray) -> "AlgebraElement":
        return AlgebraElement(self, np.asarray(v, dtype=np.int64) % self.p)

    def variable_element(self, i: int) -> "AlgebraElement":
        return self.element(self.ctx.variable(i))

    def basis_multiples(self, X: linalg.Triples, act) -> list[linalg.Triples]:
        """(basis monomial b)·X for every b, in basis order, where act(v, Y)
        computes x_v·Y: one act call per basis monomial other than 1, on the
        multiple of its parent."""
        out = [X]
        for parent, v in self._parents:
            out.append(act(v, out[parent]))
        return out

    def m_span(self, W: linalg.Triples, act) -> linalg.Triples:
        """Basis of m·span(W) chosen among the columns of the x_v·W, where
        act(v, Y) computes x_v·Y."""
        images = [act(v, W) for v in range(self.ctx.nvars)]
        return linalg.column_space_basis(linalg.hstack(images, W.shape[0]), self.p)

    def socle_span(self, W: linalg.Triples, act) -> linalg.Triples:
        """Basis of the socle of span(W), the w with x_v·w = 0 for every v:
        W times the kernel of the x_v·W stacked one above the other."""
        images = [act(v, W).T for v in range(self.ctx.nvars)]
        stacked = linalg.hstack(images, W.shape[1]).T
        return linalg.matmul(W, linalg.kernel_basis(stacked, self.p), self.p)

    def minimal_generators(self, W: linalg.Triples, act) -> tuple[list[int], linalg.Triples]:
        """Indices of columns of W that minimally generate the submodule
        span(W) over R, a complement of m·span(W) chosen left to right, and
        the basis of m·span(W) that `m_span` gives: both from one rref of
        [x_1·W | ... | x_n·W | W], whose pivots inside the x_v·W are those
        of the x_v·W alone."""
        images = linalg.hstack([act(v, W) for v in range(self.ctx.nvars)], W.shape[0])
        _, pivots = linalg.rref(linalg.hstack([images, W], W.shape[0]), self.p)
        w = images.shape[1]
        span = images.take_columns([c for c in pivots if c < w])
        return [c - w for c in pivots if c >= w], span

    def operator(self, a: "AlgebraElement") -> np.ndarray:
        """The multiplication-by-a matrix on the standard basis, dense."""
        return self._operator(a).toarray()

    def _operator(self, a: "AlgebraElement") -> linalg.Triples:
        """The multiplication-by-a matrix: column b is (basis monomial b)·a,
        from one walk of a."""
        walk = self.basis_multiples(a.column(), self.act)
        return linalg.hstack(walk, self.dim)

    def lift(self, v: np.ndarray) -> Polynomial:
        """The standard-monomial representative in S of a coordinate vector."""
        coeffs = {self.keys[i]: int(c) for i, c in enumerate(np.asarray(v).ravel()) if c}
        return Polynomial.from_keys(self.ctx, coeffs)

    def socle_polynomials(self) -> list[Polynomial]:
        return [self.lift(self.socle[:, j]) for j in range(self.socle.shape[1])]

    @cached_property
    def socle_colon(self) -> Ideal:
        """(I : m) = I + lift(Soc S/I), the colon by m read off the socle
        with no elimination, generated by I's reduced basis and the lifts.

        It carries its reduced basis, found with no Buchberger run: `socle`
        is a reduced echelon basis with pivots at the highest key (the form
        `linalg.kernel_basis` gives), so the lifts are monic with distinct
        standard monomials s_1..s_r as leads, in(I) + (s_1..s_r) ⊆ in(I : m),
        and the two monomial ideals have the same colength ℓ(S/I) − r.  They
        are equal, and G_I with the lifts is a Groebner basis of (I : m),
        which `reduce_basis` reduces."""
        lifts = self.socle_polynomials()
        colon = Ideal.make(self.ctx, self.ideal.groebner() + tuple(lifts))
        colon._cache["groebner"] = reduce_basis(list(self.ideal.groebner()) + lifts, self.ctx)
        return colon

    def quotient_by_socle(self) -> "QuotientAlgebra":
        """R/Soc R = S/(I : m), presented by `socle_colon`.  No verdict
        builds it: c_R and the fibre-product branch are read in R itself.
        It is the presentation the test suite's oracle for c_R, the
        definition with R/Soc R, is evaluated on."""
        return quotient_algebra(self.socle_colon)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.ideal.gens)
        return f"QuotientAlgebra(dim={self.dim}, I=({gens}))"


def quotient_algebra(I: Ideal) -> QuotientAlgebra:
    """S/I, memoized in I's cache as `groebner.max_ideal_product` memoizes
    m·I, so that the routes of one command share one algebra."""
    if "algebra" not in I._cache:
        I._cache["algebra"] = QuotientAlgebra(I)
    return I._cache["algebra"]


# the deepest power m^j whose basis the m-adic walk of an algebra that is not
# graded keeps: the callers of `max_power_basis` ask for m^2
# (`burch.socle_outside_square`) and m^3 (the cube test)
KEPT_POWER = 3


class _MadicChain:
    """The m-adic chain R = m^0 ⊇ m^1 ⊇ ... ⊇ 0 of an algebra, walked one
    `m_span` at a time and only as far as asked.  It keeps the dimension of
    every power reached but the bases only of the deepest one and of m^0 ..
    m^KEPT_POWER, so a long chain costs memory linear in its length, not
    quadratic."""

    def __init__(self, R: QuotientAlgebra):
        self.R = R
        self.dims = [R.dim]  # dim m^j for j = 0 .. the deepest power reached
        self.deepest = linalg.Triples.identity(R.dim)
        self.kept = [self.deepest]  # m^0 .. m^KEPT_POWER, as far as reached

    def walk(self, j: int | None = None) -> list[int]:
        """Walk on to m^j, or to 0 if j is None; the dims reached."""
        while self.deepest.shape[1] and (j is None or len(self.dims) <= j):
            nxt = self.R.m_span(self.deepest, self.R.act)
            if nxt.shape[1] == self.deepest.shape[1]:
                raise AssertionError("m-adic filtration does not terminate")
            if len(self.kept) <= KEPT_POWER:
                self.kept.append(nxt)
            self.deepest = nxt
            self.dims.append(nxt.shape[1])
        return self.dims

    def power(self, j: int) -> linalg.Triples:
        if j > KEPT_POWER:
            basis = self.power(KEPT_POWER)
            for _ in range(j - KEPT_POWER):
                basis = self.R.m_span(basis, self.R.act)
            return basis
        self.walk(j)
        return self.kept[j] if j < len(self.kept) else linalg.Triples.zeros(self.R.dim, 0)


@dataclass
class AlgebraElement:
    algebra: QuotientAlgebra
    vec: np.ndarray

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=np.int64) % self.algebra.p

    @property
    def is_zero(self) -> bool:
        return not self.vec.any()

    def in_max_ideal(self) -> bool:
        one = self.algebra.index[self.algebra.ctx.codec.one]
        return self.vec[one] == 0

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.algebra, (self.vec + other.vec) % self.algebra.p)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        prod = linalg.matmul(self.algebra._operator(self), other.column(), self.algebra.p)
        return AlgebraElement(self.algebra, prod.toarray().ravel())

    def column(self) -> linalg.Triples:
        """The coordinate vector as a one-column matrix."""
        return linalg.Triples.from_dense(self.vec.reshape(-1, 1))

    def to_polynomial(self) -> Polynomial:
        return self.algebra.lift(self.vec)

    def __repr__(self):
        return f"AlgebraElement({self.to_polynomial()})"


def check_commuting(act, actions: list[linalg.Triples], what: str) -> None:
    """Raise AssertionError unless the action matrices M_v of the variables
    commute: x_i·M_j = x_j·M_i for every pair, where act(v, Y) computes
    x_v·Y = M_v·Y.  The two products are canonical Triples, so they are
    equal exactly when their entries, sorted by position, are."""

    def entries(T: linalg.Triples) -> np.ndarray:
        key = T.rows * T.shape[1] + T.cols
        order = key.argsort()
        return np.stack([key[order], T.vals[order]])

    for i in range(len(actions)):
        for j in range(i + 1, len(actions)):
            if not np.array_equal(entries(act(i, actions[j])), entries(act(j, actions[i]))):
                raise AssertionError(f"{what} do not commute")


@dataclass
class AnnihilatorResult:
    subspace: linalg.Triples  # basis of (0 : a) as columns, vectors of R
    generators: list[Polynomial]  # minimal generating set over R

    @property
    def dim(self) -> int:
        return self.subspace.shape[1]

    @property
    def is_principal(self) -> bool:
        return len(self.generators) == 1


def annihilator(R: QuotientAlgebra, a: AlgebraElement) -> AnnihilatorResult:
    return _annihilator(R, R._operator(a))


def _annihilator(R: QuotientAlgebra, op: linalg.Triples) -> AnnihilatorResult:
    """(0 : a) for the multiplication matrix op = R._operator(a)."""
    kernel = linalg.kernel_basis(op, R.p)
    gens, _ = R.minimal_generators(kernel, R.act)
    chosen = kernel.take_columns(gens).toarray()
    return AnnihilatorResult(kernel, [R.lift(v) for v in chosen.T])


@dataclass(frozen=True)
class ExactPair:
    a: Polynomial
    b: Polynomial


def find_exact_pairs(R: QuotientAlgebra) -> list[ExactPair]:
    """Pairs (a, b) with (0:a) = (b) and (0:b) = (a), found over a bounded
    candidate set: the variables and their pairwise sums.
    The second member is derived from the annihilator, so pairs like
    (x, x^3) over k[x]/(x^4) are found even though x^3 is not a candidate."""
    p = R.p
    candidates: list[AlgebraElement] = []
    seen = set()

    def add(el: AlgebraElement):
        key = tuple(el.vec.tolist())
        if not el.is_zero and el.in_max_ideal() and key not in seen:
            seen.add(key)
            candidates.append(el)

    for i in range(R.ctx.nvars):
        add(R.variable_element(i))
    for i in range(R.ctx.nvars):
        for j in range(i + 1, R.ctx.nvars):
            add(R.variable_element(i) + R.variable_element(j))

    operators: dict[bytes, linalg.Triples] = {}

    def operator(el: AlgebraElement) -> linalg.Triples:
        """R._operator(el), built once per element."""
        key = el.vec.tobytes()
        if key not in operators:
            operators[key] = R._operator(el)
        return operators[key]

    pairs = []
    found = set()
    for a in candidates:
        ann_a = _annihilator(R, operator(a))
        if not ann_a.is_principal:
            continue
        b = R.element(ann_a.generators[0])
        if b.is_zero:
            continue
        # verify both equalities exactly
        if not linalg.subspace_eq(ann_a.subspace, operator(b), p):
            continue
        ann_b = _annihilator(R, operator(b))
        if not linalg.subspace_eq(ann_b.subspace, operator(a), p):
            continue
        key = frozenset([str(a.to_polynomial()), str(b.to_polynomial())])
        if key not in found:
            found.add(key)
            pairs.append(ExactPair(a.to_polynomial(), b.to_polynomial()))
    return pairs


@dataclass(frozen=True)
class FibreProductPresentation:
    ideal: Ideal
    trivial: bool
    left_vars: tuple[str, ...]
    right_vars: tuple[str, ...]


def check_fibre_factors(RS: QuotientAlgebra, RT: QuotientAlgebra) -> None:
    """Raise PreconditionError unless RS and RT can form a fibre product:
    the same prime field and disjoint variable names."""
    if RS.p != RT.p:
        raise PreconditionError("fibre product factors over different prime fields")
    if set(RS.ctx.variables) & set(RT.ctx.variables):
        raise PreconditionError("fibre product factors share variable names")


def fibre_product(RS: QuotientAlgebra, RT: QuotientAlgebra) -> FibreProductPresentation:
    """The ideal I_S + I_T + (x_i y_j) presenting S x_k T on the disjoint
    union of the variables.  A field factor gives the trivial product, which
    is returned as the other factor's presentation unchanged."""
    check_fibre_factors(RS, RT)
    if RS.is_field or RT.is_field:
        keep = RT if RS.is_field else RS
        return FibreProductPresentation(keep.ideal, True, RS.ctx.variables, RT.ctx.variables)
    ctx = RingContext(RS.p, RS.ctx.variables + RT.ctx.variables)
    nl, nr = RS.ctx.nvars, RT.ctx.nvars

    def lift_left(f: Polynomial) -> Polynomial:
        return Polynomial.from_dict(ctx, {e + (0,) * nr: c for e, c in f.exponent_terms()})

    def lift_right(f: Polynomial) -> Polynomial:
        return Polynomial.from_dict(ctx, {(0,) * nl + e: c for e, c in f.exponent_terms()})

    gens = [lift_left(g) for g in RS.ideal.gens] + [lift_right(g) for g in RT.ideal.gens]
    for i in range(nl):
        for j in range(nr):
            gens.append(ctx.monomial(tuple(1 if k == i else 0 for k in range(nl)) + tuple(1 if k == j else 0 for k in range(nr))))
    return FibreProductPresentation(Ideal.make(ctx, gens), False, RS.ctx.variables, RT.ctx.variables)
