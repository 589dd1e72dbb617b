"""Modules over a quotient algebra and their minimal free resolutions.

Everything is exact linear algebra over F_p: a module is a vector space with
one commuting action matrix per variable, held as `linalg.Triples` like the
algebra's `mult` (`free_module` and `direct_sum` place them block-diagonally
by index arithmetic, `module_from_presentation` reads them off the reduced
images), and a resolution step picks minimal generators (a complement of mM
chosen deterministically) and takes the kernel of the induced map from a free
module.  Syzygies keep their embedding into the free cover, which is what the
socle-split test needs.

A module, R^m and a syzygy inside R^m are all handed to the algebra's walks
and spans through one act(v, Y) = x_v·Y on `linalg.Triples`:
`AlgebraModule.act` for a module, `QuotientAlgebra.act` for R^m and every
subspace of it.  Free-module coordinates are component-major: index
c·dim R + b.  Both apply an action matrix in its scatter form
(`linalg.scatter_table`), built once per variable from its Triples, so no
resolution step takes a matrix product.  Only `AlgebraModule.poly_operator`
evaluates the actions densely: it is the test oracle, and it runs the
relation check of `AlgebraModule(check=True)`.

Every resolution step, the first cover onto M included, runs on Triples:
the basis of Omega^i, its images x_v·Omega^i and the span m·Omega^i, the
chosen generators, the free map R^β -> Omega^i and its kernel Omega^{i+1}.
That kernel is taken when the next step or `Resolution.syzygy` asks for
it, except in the first cover, which acts through M itself; so a
resolution to length L stops at ∂_L and Omega^L.  `Resolution.syzygy`
hands Omega^i and m·Omega^i on as they are, and `k_summand_test` tests all
socle vectors against m·Omega^i with one elimination
(`linalg.columns_in_span`).  A matrix over R, such as ∂_i or a
presentation, is the Triples of shape (rows·dim R, cols) whose column j is a
vector of R^rows; the tensor maps ∂_i ⊗ N, entry ideals and ∂∂ = 0 are read
off it by index arithmetic.  Only `_dense_entries` builds the dense (rows,
cols, dim R) array, for `Resolution.matrix(i)` and
`MappingConeResult.presentation`.

The Koszul complex of R is built once per algebra, as far as ∂_2
(`koszul_d2`, cached as `QuotientAlgebra.koszul_d2`), on minimal
generators x_1..x_e of m chosen among the variables from the linear parts
of I.  Two numbers are read off it: dim H_1(K^R) = dim ker ∂_1 - rank ∂_2
(`koszul_h1`), which for R = S/mI is μ(mI), and the rank of
Soc(R)^e -> H_1(K^R), rank[∂_2 | W^e] - rank ∂_2 for W the socle basis
(`koszul_socle_rank`), which is the invariant c_R of a ring that is not a
field.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .artinian import AlgebraElement, QuotientAlgebra, check_commuting, quotient_algebra
from .groebner import Ideal, PreconditionError
from .poly import Polynomial


class AlgebraModule:
    """A finitely generated module given by variable-action matrices: one
    square `linalg.Triples` per variable, all of one size, with values in
    [1, p) and no position twice.  Their type, count, shape and values are
    always checked; `check` adds that they commute and that I acts as 0."""

    def __init__(self, algebra: QuotientAlgebra, actions: list[linalg.Triples], label: str = "", check: bool = True):
        self.algebra = algebra
        self.p = algebra.p
        self.actions = list(actions)
        self._check_actions()
        self.dim = self.actions[0].shape[0] if self.actions else 0
        self.label = label
        self._resolution: "Resolution | None" = None
        self._scatters = [linalg.scatter_table(A) for A in self.actions]
        if check:
            check_commuting(self.act, self.actions, "module actions")
            for g in self.algebra.ideal.groebner():
                if self.poly_operator(g).any():
                    raise AssertionError(f"relation {g} does not annihilate the module")

    def _check_actions(self) -> None:
        """Raise ValueError unless the actions are one square Triples of one
        size per variable, with values in [1, p)."""
        if len(self.actions) != self.algebra.ctx.nvars:
            raise ValueError("need one action matrix per variable")
        for A in self.actions:  # actions[0] is checked to be Triples before its shape is read
            if not isinstance(A, linalg.Triples):
                raise ValueError(f"action matrices must be linalg.Triples, got {type(A).__name__}")
            if A.shape != (self.actions[0].shape[0],) * 2:
                raise ValueError("action matrices must be square of equal size")
            if A.vals.size and not (A.vals.min() >= 1 and A.vals.max() < self.p):
                raise ValueError(f"action matrix values must lie in [1, {self.p})")

    def act(self, v: int, Y: linalg.Triples) -> linalg.Triples:
        """x_v times each column of Y."""
        if Y.shape[0] != self.dim:
            raise ValueError(f"vectors of length {Y.shape[0]} in a module of dimension {self.dim}")
        return linalg.apply_scatter(self._scatters[v], Y, self.p)

    @cached_property
    def monomial_operators(self) -> linalg.Triples:
        """Actions of the basis monomials as one (dim R) x (dim·dim) table, for
        `_tensor_map`: entry (s, t) of the action of basis monomial b is at
        row b, column s·dim + t."""
        walk = self.algebra.basis_multiples(linalg.Triples.identity(self.dim), self.act)
        return linalg.Triples(
            np.concatenate([np.full(X.vals.size, b) for b, X in enumerate(walk)]),
            np.concatenate([X.rows * self.dim + X.cols for X in walk]),
            np.concatenate([X.vals for X in walk]),
            (len(walk), self.dim * self.dim),
        )

    def poly_operator(self, f: Polynomial) -> np.ndarray:
        """Evaluate a polynomial at the action matrices (no normal form), dense."""
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for exps, coeff in f.exponent_terms():
            term = linalg.Triples.identity(self.dim)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = linalg.matmul(self.actions[i], term, self.p)
            out = (out + coeff * term.toarray()) % self.p
        return out

    def is_free(self) -> bool:
        res = self.resolution(1)
        return res.betti[1] == 0 and res.betti[0] * self.algebra.dim == self.dim

    def resolution(self, length: int) -> "Resolution":
        if length < 0:
            raise PreconditionError("resolution length must be >= 0")
        if self._resolution is None:
            self._resolution = Resolution(self)
        self._resolution.ensure_length(length)
        return self._resolution

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"AlgebraModule(dim={self.dim}{tag})"


def free_module(R: QuotientAlgebra, rank: int) -> AlgebraModule:
    actions = [_block_diagonal([M] * rank) for M in R.mult]
    return AlgebraModule(R, actions, label=f"R^{rank}", check=False)


def module_from_cyclic(R: QuotientAlgebra, J: Ideal) -> AlgebraModule:
    """The cyclic module S/J as a module over R = S/I; requires I ⊆ J."""
    if J.ctx != R.ctx:
        raise ValueError("ideal from a different ring context")
    for g in R.ideal.gens:
        if not J.contains(g):
            raise PreconditionError("cyclic module needs J ⊇ I")
    Q = quotient_algebra(J)
    return AlgebraModule(R, Q.mult, label=f"R/({', '.join(str(g) for g in J.gens)})", check=False)


def residue_field(R: QuotientAlgebra) -> AlgebraModule:
    return AlgebraModule(R, [linalg.Triples.zeros(1, 1)] * R.ctx.nvars, label="k", check=False)


def direct_sum(*modules: AlgebraModule) -> AlgebraModule:
    """Block-diagonal sum of modules over the same algebra."""
    if not modules:
        raise ValueError("direct sum of no modules")
    R = modules[0].algebra
    if any(M.algebra is not R for M in modules):
        raise ValueError("direct sum needs modules over the same algebra")
    actions = [_block_diagonal([M.actions[v] for M in modules]) for v in range(R.ctx.nvars)]
    label = " + ".join(M.label or "M" for M in modules)
    return AlgebraModule(R, actions, label=label, check=False)


def _block_diagonal(blocks: list[linalg.Triples]) -> linalg.Triples:
    """The square matrices `blocks` along the diagonal, in order."""
    offsets = list(itertools.accumulate((B.shape[0] for B in blocks), initial=0))
    empty = np.zeros(0, dtype=np.int64)  # np.concatenate refuses an empty list
    return linalg.Triples(
        np.concatenate([empty] + [B.rows + at for B, at in zip(blocks, offsets)]),
        np.concatenate([empty] + [B.cols + at for B, at in zip(blocks, offsets)]),
        np.concatenate([empty] + [B.vals for B in blocks]),
        (offsets[-1], offsets[-1]),
    )


def _free_map_matrix(R: QuotientAlgebra, G: linalg.Triples, act) -> linalg.Triples:
    """Matrix of R^{G.shape[1]} -> V sending e_j to the column G[:, j] of a
    module V with action act, as a linear map on coordinates: column j·dim R + b
    is (basis monomial b)·G[:, j]."""
    # multiples[b] holds (basis monomial b)·G for all generators at once
    multiples = R.basis_multiples(G, act)
    return linalg.Triples(
        np.concatenate([X.rows for X in multiples]),
        np.concatenate([X.cols * R.dim + b for b, X in enumerate(multiples)]),
        np.concatenate([X.vals for X in multiples]),
        (G.shape[0], G.shape[1] * R.dim),
    )


# ---------------------------------------------------------------------------
# resolutions


@dataclass
class SyzygyModule:
    """Omega^i M embedded in its free cover R^{ambient_rank}."""

    algebra: QuotientAlgebra
    ambient_rank: int
    basis: linalg.Triples  # (ambient_rank * dim) x s
    index: int
    m_span: linalg.Triples  # basis of m·Omega^i, from the step that covered it

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _adic_order(G: linalg.Triples, R: QuotientAlgebra) -> np.ndarray:
    """Smallest degree (`R.basis_degrees`) of a basis monomial supported by
    each column of G, a matrix of vectors of R^m; the value for a zero
    column is dim R."""
    out = np.full(G.shape[1], R.dim, dtype=np.int64)
    np.minimum.at(out, G.cols, R.basis_degrees[G.rows % R.dim])
    return out


def _sort_generators(R: QuotientAlgebra, G: linalg.Triples, m: int) -> linalg.Triples:
    """The columns of G, vectors of R^m, in a deterministic order: lowest
    m-adic order first, ties broken by the first nonzero coordinate scanning
    components in order and monomials from highest to lowest (so x-entries
    precede y-entries)."""
    # _witness_coordinate_order is its own inverse: it gives each row's place
    first = np.full(G.shape[1], m * R.dim, dtype=np.int64)
    np.minimum.at(first, G.cols, _witness_coordinate_order(R, m)[G.rows])
    # np.lexsort sorts by its last key first, and is stable
    return G.take_columns(np.lexsort((first, _adic_order(G, R))))


def _dense_entries(G: linalg.Triples, d: int) -> np.ndarray:
    """The (rows, cols, d) array of a matrix over R held as the Triples G of
    shape (rows·d, cols): entry (r, j) is the element vector G[r·d : (r+1)·d, j]."""
    out = np.zeros((G.shape[0] // d, G.shape[1], d), dtype=np.int64)
    out[G.rows // d, G.cols, G.rows % d] = G.vals
    return out


class Resolution:
    """Minimal free resolution data: betti[i] and the differentials ∂_1..∂_N.

    ∂_i = differential(i) is the Triples of shape (betti[i-1]·dim R,
    betti[i]) whose column j is the image of the j-th basis vector, a vector
    of R^{betti[i-1]}; matrix(i) is its dense (betti[i-1], betti[i], dim R)
    view.

    The module caches its resolution, and neither the resolution nor a
    syzygy it hands out refers back to the module: a module and its
    resolution are then freed by reference counting alone, without waiting
    for a cycle collection.
    """

    def __init__(self, module: AlgebraModule):
        self.R = module.algebra
        self.betti: list[int] = []
        self._differentials: list[linalg.Triples] = []  # ∂_{i+1} at i
        # Omega^{i+1} basis, ambient R^{betti[i]}; the kernel of the last
        # cover is added by `_omega` when a step or `syzygy` needs it
        self._omegas: list[linalg.Triples] = []
        self._m_spans: list[linalg.Triples] = []  # m·W of every cover: m·M, m·Omega^1, ...
        # M's generators are unit vectors, kept in the order they are chosen
        # in: ∂_1 and every later differential depend on that order.  The
        # first kernel is taken at once, while the module's act is at hand.
        G = self._cover(linalg.Triples.identity(module.dim), module.act)
        self._omegas.append(linalg.kernel_basis(_free_map_matrix(self.R, G, module.act), self.R.p))

    def _cover(self, W: linalg.Triples, act, m: int | None = None) -> linalg.Triples:
        """One step: choose minimal generators of span(W), whose vectors x_v
        multiplies by act(v, ·); record their number as the next Betti number
        and m·span(W).  W is M's identity in the first cover; with m, W is
        the basis of a syzygy in R^m and the generators are sorted.  Returns
        the generators, whose free cover R^β -> span(W) has the next syzygy
        as its kernel."""
        R = self.R
        chosen, span = R.minimal_generators(W, act)
        G = W.take_columns(chosen)
        if m is not None:
            G = _sort_generators(R, G, m)
        self.betti.append(G.shape[1])
        self._m_spans.append(span)
        return G

    def _omega(self, i: int) -> linalg.Triples:
        """The basis of Omega^{i+1} in R^{betti[i]}; for i >= 1 the kernel of
        the free map of ∂_i, taken on first use."""
        if i == len(self._omegas):
            R = self.R
            self._omegas.append(linalg.kernel_basis(_free_map_matrix(R, self._differentials[i - 1], R.act), R.p))
        return self._omegas[i]

    def ensure_length(self, length: int) -> None:
        while len(self._differentials) < length:
            self._step()

    def _step(self) -> None:
        R = self.R
        i = len(self._differentials)  # computing ∂_{i+1}
        G = self._cover(self._omega(i), R.act, self.betti[i])
        # basis[0] is 1, so coordinate c·dim R is the constant term of an entry
        if (G.rows % R.dim == 0).any():
            raise AssertionError("non-minimal resolution step: constant entry")
        self._differentials.append(G)

    def differential(self, i: int) -> linalg.Triples:
        """∂_i for i >= 1."""
        if i < 1 or i > len(self._differentials):
            raise IndexError(f"∂_{i} not computed")
        return self._differentials[i - 1]

    def matrix(self, i: int) -> np.ndarray:
        """∂_i for i >= 1, as its dense (betti[i-1], betti[i], dim R) array."""
        return _dense_entries(self.differential(i), self.R.dim)

    def syzygy(self, i: int) -> SyzygyModule:
        """Omega^i M with its embedding, for i >= 1."""
        if i < 1:
            raise PreconditionError("syzygy index must be >= 1")
        self.ensure_length(i)
        # the step that made ∂_i covered Omega^i and kept m·Omega^i
        return SyzygyModule(self.R, self.betti[i - 1], self._omega(i - 1), i, self._m_spans[i])

    def entry_ideal(self, i: int) -> Ideal:
        """I_1(∂_i) lifted to S via standard-monomial representatives."""
        return _entry_ideal(self.R, self.differential(i))

    def check_complex(self) -> None:
        """∂_i ∂_{i+1} = 0, with compositions evaluated on coordinates: ∂_i as
        the free map on R^{betti[i]}, times the columns of ∂_{i+1}."""
        R = self.R
        for G, H in zip(self._differentials, self._differentials[1:]):
            if linalg.matmul(_free_map_matrix(R, G, R.act), H, R.p).vals.size:
                raise AssertionError("∂∂ != 0")


# ---------------------------------------------------------------------------
# socle-summand test


@dataclass
class SummandVerdict:
    splits: bool
    witness: np.ndarray | None  # ambient coordinate vector of the socle witness
    witness_entries: tuple | None  # polynomials, one per free component
    socle_dim: int
    # the split embedding k -> Z is 1 |-> witness when splits is True


def k_summand_test(Z: SyzygyModule) -> SummandVerdict:
    """True iff Soc Z is not inside mZ (then k -> Z, 1 |-> z splits, since Z
    is a submodule of a free module).  The witness is taken from a reduced
    echelon basis of Soc Z, preferring single-component vectors."""
    R = Z.algebra
    p = R.p
    m = Z.ambient_rank
    soc = R.socle_span(Z.basis, R.act)
    socle_dim = soc.shape[1]
    # canonical echelon basis of the socle, scanning coordinates so that
    # higher monomials inside each free component come first; the scan
    # order is its own inverse, so it maps echelon columns back too
    perm = _witness_coordinate_order(R, m)
    ech, pivots = linalg.rref(linalg.Triples(soc.cols, perm[soc.rows], soc.vals, soc.shape[::-1]), p)
    socle_vectors = linalg.Triples(perm[ech.cols], ech.rows, ech.vals, (soc.shape[0], len(pivots)))
    outside = (~linalg.columns_in_span(Z.m_span, socle_vectors, p)).nonzero()[0]
    if not outside.size:
        return SummandVerdict(False, None, None, socle_dim)
    # the first vector outside mZ among those with the fewest components
    touched = np.zeros((len(pivots), m), dtype=bool)
    touched[socle_vectors.cols, socle_vectors.rows // R.dim] = True
    components = touched.sum(axis=1)
    witness = socle_vectors.take_columns([outside[components[outside].argmin()]]).toarray().ravel()
    entries = tuple(R.lift(witness[c * R.dim : (c + 1) * R.dim]) for c in range(m))
    return SummandVerdict(True, witness, entries, socle_dim)


def _witness_coordinate_order(R: QuotientAlgebra, m: int) -> np.ndarray:
    """Coordinate scan order: by component, highest basis monomial first."""
    return (np.arange(m)[:, None] * R.dim + np.arange(R.dim - 1, -1, -1)).ravel()


# ---------------------------------------------------------------------------
# Koszul homology, Tor, mapping cones


def koszul_d2(R: QuotientAlgebra) -> linalg.Triples:
    """∂_2 : K_2 = R^{C(e,2)} -> K_1 = R^e of the Koszul complex of R on
    its generator variables x_1..x_e (`QuotientAlgebra.generator_variables`,
    read off the linear parts of I: for R = S/mI, as mI ⊆ m^2, all n
    variables), with coordinates component-major as for any R^m;
    `QuotientAlgebra.koszul_d2` builds it once per algebra."""
    d, p = R.dim, R.p
    ops = [R.mult[v] for v in R.generator_variables]
    e = len(ops)
    # column block (i, j) of ∂_2 holds x_i at row block j and -x_j at row block i
    blocks = [
        linalg.Triples(
            np.concatenate([ops[i].rows + j * d, ops[j].rows + i * d]),
            np.concatenate([ops[i].cols, ops[j].cols]),
            np.concatenate([ops[i].vals, p - ops[j].vals]),
            (e * d, d),
        )
        for i, j in itertools.combinations(range(e), 2)
    ]
    return linalg.hstack(blocks, e * d)


def koszul_h1(R: QuotientAlgebra) -> int:
    """dim H_1(K^R) = dim ker ∂_1 - rank ∂_2, where ∂_1 : R^e -> R is
    [x_1 ... x_e], whose image is m as the x_i generate it: dim ker ∂_1 =
    e·dim R - (dim R - 1), and the one rank taken is that of ∂_2.  0 for a
    field, where e = 0.  With all n variables, as for R = S/J with J ⊆ m^2,
    this is dim Tor_1^S(S/J, k) = μ(J)."""
    return R.edim * R.dim - (R.dim - 1) - linalg.rank(R.koszul_d2, R.p)


def koszul_socle_rank(R: QuotientAlgebra) -> int:
    """The rank of Soc(R)^e -> H_1(K^R), e = edim R the number of Koszul
    generators: rank[∂_2 | W^e] - rank ∂_2, where W^e puts the socle basis
    W in each of the e row blocks of K_1 = R^e.  Since m·W = 0, W^e lies in
    the 1-cycles; the rank is the number of its columns that extend the
    boundaries, from one rref of [∂_2 | W^e].  This is c_R
    (`burch.burch_invariant`) for R not a field."""
    W = linalg.Triples.from_dense(R.socle)
    e, d, s = R.edim, R.dim, W.shape[1]
    block = np.arange(e)[:, None]
    We = linalg.Triples(
        (block * d + W.rows).ravel(), (block * s + W.cols).ravel(), np.tile(W.vals, e), (e * d, e * s)
    )
    return len(linalg.complete_columns(R.koszul_d2, We, R.p))


def _tensor_map(G: linalg.Triples, N: AlgebraModule) -> linalg.Triples:
    """∂ ⊗ N as a matrix on coordinates of N^{betti} (component-major), for
    ∂ held as G, of shape (m·dim R, mu)."""
    d = N.algebra.dim
    m, mu = G.shape[0] // d, G.shape[1]
    dN = N.dim
    # row r·mu + j of the entry matrix is the element vector of entry (r, j);
    # block (r, j) is the sum over b of its coordinate b · (monomial b on N),
    # and the product holds its entry (s, t) at row r·mu + j, column s·dN + t
    r, b = np.divmod(G.rows, d)
    entries = linalg.Triples(r * mu + G.cols, b, G.vals, (m * mu, d))
    blocks = linalg.matmul(entries, N.monomial_operators, N.p)
    r, j = np.divmod(blocks.rows, mu)
    s, t = np.divmod(blocks.cols, dN)
    return linalg.Triples(r * dN + s, j * dN + t, blocks.vals, (m * dN, mu * dN))


def tor(M: AlgebraModule, N: AlgebraModule, i: int) -> int:
    """dim_k Tor_i(M, N), the last entry of `tor_profile(M, N, i)`."""
    return tor_profile(M, N, i)[i]


def tor_profile(M: AlgebraModule, N: AlgebraModule, max_index: int) -> list[int]:
    """[dim Tor_i(M, N) for i = 0..max_index], sharing one resolution of M
    and one rank computation per differential."""
    if max_index < 0:
        raise PreconditionError("Tor index must be >= 0")
    res = M.resolution(max_index + 1)
    p = M.p
    dN = N.dim
    ranks = {}
    for i in range(1, max_index + 2):
        ranks[i] = linalg.rank(_tensor_map(res.differential(i), N), p) if res.betti[i] else 0
    dims = [res.betti[0] * dN - ranks[1]]
    for i in range(1, max_index + 1):
        dims.append(res.betti[i] * dN - ranks[i] - ranks[i + 1])
    return dims


@dataclass
class MappingConeResult:
    module: AlgebraModule
    relations: linalg.Triples  # ((b1+b0)·dim) x (b2+b1): columns are vectors of R^{b1+b0}
    entry_ideal: Ideal  # I_1 of the presentation, lifted to S
    dims_check: bool  # dim M(x) = dim M + dim Omega M

    @property
    def presentation(self) -> np.ndarray:
        """The relations as a (b1+b0) x (b2+b1) x dim array of element vectors."""
        return _dense_entries(self.relations, self.module.algebra.dim)


def mapping_cone_module(M: AlgebraModule, x: AlgebraElement) -> MappingConeResult:
    """M(x) = coker [[d2, x·I], [0, -d1]] for the start of a minimal
    resolution of M; sits in 0 -> ΩM -> M(x) -> M -> 0 and x ∈ I_1(M(x)) ⊆ m."""
    R = M.algebra
    p = R.p
    if x.is_zero or not x.in_max_ideal():
        raise PreconditionError("mapping cone element must be a nonzero element of m")
    if M.is_free():
        raise PreconditionError("mapping cone construction needs a nonfree module")
    res = M.resolution(2)
    b1, b2 = res.betti[1], res.betti[2]
    d = R.dim
    d1, d2 = res.differential(1), res.differential(2)
    # ∂_2 in the top left, x·e_j in column b2 + j, and -∂_1 below, b1 rows down
    support = x.vec.nonzero()[0]
    unit = np.repeat(np.arange(b1), support.size)
    P = linalg.Triples(
        np.concatenate([d2.rows, unit * d + np.tile(support, b1), d1.rows + b1 * d]),
        np.concatenate([d2.cols, unit + b2, d1.cols + b2]),
        np.concatenate([d2.vals, np.tile(x.vec[support], b1), p - d1.vals]),
        (d1.shape[0] + b1 * d, b2 + b1),
    )
    module = module_from_presentation(R, P, label=f"cone({M.label or 'M'}; {x.to_polynomial()})")
    dims_ok = module.dim == M.dim + res.syzygy(1).dim
    return MappingConeResult(module, P, _entry_ideal(R, P), dims_ok)


def _entry_ideal(R: QuotientAlgebra, G: linalg.Triples) -> Ideal:
    """I_1 of a matrix over R held as G, of shape (rows·dim R, cols): the
    distinct monic lifts of its nonzero entries, in row-major order: each
    distinct entry vector is lifted once, in order of first appearance."""
    r, b = np.divmod(G.rows, R.dim)
    # the nonzero entries r·cols + j in row-major order, one vector each
    keys, entry = np.unique(r * G.shape[1] + G.cols, return_inverse=True)
    vectors = np.zeros((keys.size, R.dim), dtype=np.int64)
    vectors[entry, b] = G.vals
    _, first = np.unique(vectors, axis=0, return_index=True)
    entries = (R.lift(e).monic() for e in vectors[np.sort(first)])
    return Ideal.make(R.ctx, dict.fromkeys(entries))


def module_from_presentation(R: QuotientAlgebra, G: linalg.Triples, label: str = "") -> AlgebraModule:
    """Cokernel of the map R^cols -> R^rows whose column j is the vector
    G[:, j] of R^rows, for G of shape (rows·dim R, cols)."""
    n = G.shape[0]  # R.act refuses a length that is not a multiple of dim R
    # span of all basis-monomial multiples of the columns, in reduced echelon
    # form: its rows are zero at every pivot but their own
    ech, pivots = linalg.rref(_free_map_matrix(R, G, R.act).T, R.p)
    free = np.setdiff1d(np.arange(n), pivots)
    # the quotient's basis is the free unit vectors; x_v·e_c reduces to its
    # free coordinates once the echelon rows clear its pivot coordinates
    units = linalg.Triples.identity(n).take_columns(free)
    reduced = (linalg.reduce_by_echelon(ech, pivots, R.act(v, units), R.p) for v in range(R.ctx.nvars))
    actions = [X.T.take_columns(free).T for X in reduced]
    return AlgebraModule(R, actions, label=label, check=False)
