"""The Burch decision layer.

An ideal I of the local ring S (polynomial ring localized at the variables)
is Burch when mI != m(I:m).  This module evaluates that definition, the
equivalent colon/socle/type characterizations, the weakly-m-full and m-full
tests, the presentation invariant dim n(I:n)/nI, the intrinsic invariant
  c_R = dim Soc R + dim H_1(K^R) - edim R - dim H_1(K^{R'}) + edim R'
with R' = R/Soc R, and the derived classifiers (Gorenstein, radical-cube
zero, fibre products, regular cut-downs).  A depth-zero ring is Burch
exactly when c_R > 0, which is cross-checked against the syzygy criterion
"k splits off Omega^2 k" whenever the ring is not a field.  c_R is
evaluated in R alone, as rank(Soc(R)^e -> H_1(K^R)) (`burch_invariant`,
by the long exact Koszul sequence of 0 -> Soc R -> R -> R' -> 0), and the
fibre-product test reads its socle-outside-m^2 branch in R too: the
decision layer builds no algebra R/Soc R.

The decision layer takes the colon by m from `_colon_by_m`: for m-primary I
it reads (I:m) = I + lift(Soc S/I) off the socle of S/I
(`QuotientAlgebra.socle_colon`, no elimination), and only for other I does
it eliminate (`groebner.ideal_colon`).  The definition, the witness, Choi's
invariant, depth zero and weak m-fullness all go this way.  The elimination
colon is the oracle of `burch_criteria_crosscheck`, whose definition,
colon-shift and type-count routes read it, so `check --route all` compares
the two colons' consequences on every m-primary ideal.

The generator counts mu(I) and mu(mI) of the invariant table and of the
two-variable criterion mu(mI) < 2 mu(I) come from the one algebra
A = S/mI that the colon shift and weak m-fullness read too (`_mu_pair`):
mu(I) = ℓ(A) - ℓ(S/I), and mu(mI) = dim H_1(K^A), the first Koszul
homology on all n variables, which is Tor_1^S(S/mI, k) = mI/m^2 I.  No
command builds a basis of m^2 I.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import linalg
from .artinian import QuotientAlgebra, check_fibre_factors, fibre_product, quotient_algebra
from .groebner import (
    Ideal,
    PreconditionError,
    ideal_colon,
    ideal_colon_element,
    max_ideal,
    max_ideal_product,
    normal_form,
)
from .poly import Polynomial, RingContext
from .resolution import k_summand_test, koszul_socle_rank, residue_field


class InternalConsistencyError(AssertionError):
    """Two provably-equivalent routes disagreed; a bug, not an input error."""


# ---------------------------------------------------------------------------
# core ideal tests


def _colon_by_m(I: Ideal) -> Ideal:
    """(I : m), read off the socle of S/I when I is m-primary
    (`QuotientAlgebra.socle_colon`), by elimination otherwise."""
    if I.is_m_primary():
        return quotient_algebra(I).socle_colon
    return ideal_colon(I, max_ideal(I.ctx))


def depth_zero_ideal(I: Ideal) -> bool:
    """depth S/I = 0, detected as (I : m) != I."""
    return _colon_by_m(I) != I


@dataclass
class BurchReport:
    burch: bool
    depth_zero: bool
    route: str
    witness_socle: Polynomial | None = None
    witness_variable: str | None = None
    witness_product: Polynomial | None = None
    invariants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.burch and not self.depth_zero:
            raise InternalConsistencyError("Burch ideal with positive depth")


def _require_proper_nonzero(I: Ideal) -> None:
    if not I.gens or I.is_zero:
        raise PreconditionError("the zero ideal is not testable")
    if not I.in_max_ideal():
        raise PreconditionError("generators must lie in the maximal ideal")
    if I.finite_colength() and not I.is_m_primary():
        raise PreconditionError("S/I has finite length but is not local: rad I is not m")


def burch_ideal_test(I: Ideal, with_invariants: bool = True) -> BurchReport:
    """The defining test mI != m(I:m), with a witness and invariant table.

    Since mI ⊆ m(I:m) always, the two differ exactly when some x_v·g lies
    outside mI for g in the reduced basis of (I:m), that is when the
    residue table `_colon_residues` is nonempty; no basis of m(I:m) is
    built.  (I:m) comes from `_colon_by_m`, so an m-primary I takes no
    elimination here.

    I need not be local when S/I has infinite length, as (x^2 - x) is not:
    (I:m)/I and m(I:m)/mI are supported at m alone, since (I:m)_P = I_P at
    every prime P != m, so the depth-zero and Burch verdicts, the witness
    and Choi's invariant computed in S are those of the localization at m."""
    _require_proper_nonzero(I)
    burch = bool(_colon_residues(I))
    depth0 = _colon_by_m(I) != I
    report = BurchReport(burch, depth0 or burch, "definition")
    if burch:
        g, v, _ = _colon_residues(I)[0]
        report.witness_socle = g
        report.witness_variable = I.ctx.variables[v]
        report.witness_product = I.ctx.variable(v) * g
    if with_invariants:
        report.invariants = _invariant_table(I)
    return report


def _colon_residues(I: Ideal) -> list[tuple[Polynomial, int, Polynomial]]:
    """(g, v, NF(x_v·g, G_mI)) for g in the reduced basis of (I:m) and v
    in variable order, the nonzero residues only, memoized in I's cache as
    `max_ideal_product` is: the Burch verdict is whether there is one and
    the witness is the first, Choi's invariant is the rank of them all, and
    the socle acts on m/mI exactly when there is one.  (I:m) comes from
    `_colon_by_m`; its reduced basis is the same whichever route built it,
    so the table is too."""
    if "colon_residues" not in I._cache:
        ctx = I.ctx
        reducers_mI = max_ideal_product(I).reducers()
        table = []
        for g in _colon_by_m(I).groebner():
            for v in range(ctx.nvars):
                r = normal_form(ctx.variable(v) * g, reducers_mI)
                if not r.is_zero:
                    table.append((g, v, r))
        I._cache["colon_residues"] = table
    return I._cache["colon_residues"]


def _mu_pair(I: Ideal, len_I: int) -> tuple[int, int]:
    """(mu(I), mu(mI)) of an m-primary I, given the length of S/I, from the
    one algebra A = S/mI that the routes of a command share
    (`quotient_algebra`, memoized on mI): mu(I) = ℓ(I/mI) = ℓ(A) - ℓ(S/I),
    and mu(mI) = dim mI/m^2 I = dim Tor_1^S(A, k) = dim H_1(K^A)
    (`QuotientAlgebra.koszul_h1`), as mI ⊆ m^2 makes the Koszul generators
    of A all n variables.  No basis of m^2 I is built; ℓ(S/m^2 I) - ℓ(S/mI)
    is the test suite's oracle."""
    A = quotient_algebra(max_ideal_product(I))
    return A.length - len_I, A.koszul_h1


def _invariant_table(I: Ideal) -> dict:
    table: dict = {"choi_invariant": choi_invariant(I)}
    if I.is_m_primary():
        R = quotient_algebra(I)
        mu_I, mu_mI = _mu_pair(I, R.length)
        table.update(
            length=R.length,
            edim=R.edim,
            type=R.type(),
            socle_dim=R.socle_dim,
            hilbert=R.hilbert,
            mu_I=mu_I,
            mu_mI=mu_mI,
            c_invariant=burch_invariant(R),
        )
    else:
        try:
            table["mu_I"] = I.min_gen_count_graded()
        except PreconditionError:
            pass
    return table


@dataclass
class CriteriaCrosscheck:
    verdicts: dict  # route name -> bool | None (None = skipped)
    agree: bool

    @property
    def burch(self) -> bool:
        return self.verdicts["definition"]


def burch_criteria_crosscheck(I: Ideal) -> CriteriaCrosscheck:
    """Evaluate the four equivalent characterizations independently:
    (definition)  mI != m(I:m)
    (colon shift) (I:m) != (mI:m)
    (socle action) Soc(S/I)·m is nonzero in m/Im
    (type count)  depth S/I = 0 and r(S/mI) != r(S/I) + mu(I)
    (I:m) comes from elimination, a chain of n steps in n variables (one
    elimination each, `groebner.ideal_colon`), shared by `definition` (with
    a basis of m(I:m)), the colon shift and the type count: this is the
    oracle against which the socle route of the decision layer is checked.
    For m-primary I the colon shift reads (mI:m) off the socle of A = S/mI
    (`QuotientAlgebra.socle_colon`, whose basis is G_mI with the socle
    lifts, with no Buchberger run), otherwise from elimination.  The socle
    action reads the normal forms of x_v·g modulo mI for g in the (I:m)
    that `_colon_by_m` reads off the socle of S/I (`_colon_residues`),
    which `burch_ideal_test` and Choi's invariant share.  The length-based
    routes are skipped (None) when I is not m-primary."""
    _require_proper_nonzero(I)
    ctx = I.ctx
    m = max_ideal(ctx)
    mI = max_ideal_product(I)
    J = ideal_colon(I, m)
    verdicts: dict = {}
    verdicts["definition"] = max_ideal_product(J) != mI
    if I.is_m_primary():
        A = quotient_algebra(mI)
        verdicts["colon_shift"] = J != A.socle_colon
        verdicts["socle_action"] = bool(_colon_residues(I))
        R = quotient_algebra(I)
        mu = mI.length() - R.length
        verdicts["type_count"] = (J != I) and (A.type() != R.type() + mu)
    else:
        verdicts["colon_shift"] = J != ideal_colon(mI, m)
        verdicts["socle_action"] = None
        verdicts["type_count"] = None
    stated = [v for v in verdicts.values() if v is not None]
    return CriteriaCrosscheck(verdicts, agree=len(set(stated)) == 1)


def weakly_m_full_test(I: Ideal) -> bool:
    """(mI : m) = I, with (mI : m) from `_colon_by_m`: read off the socle
    of S/mI when I, and so mI, is m-primary."""
    _require_proper_nonzero(I)
    return _colon_by_m(max_ideal_product(I)) == I


@dataclass
class MFullResult:
    m_full: bool
    witness: Polynomial | None  # certified witness x with (mI : x) = I
    trials: int


def m_full_test(I: Ideal, trials: int = 20, seed: int = 0) -> MFullResult:
    """Search for x in m with (mI : x) = I.  A yes is certified; a no only
    says no witness was found among the variables and `trials` random
    k-linear forms."""
    _require_proper_nonzero(I)
    ctx = I.ctx
    mI = max_ideal_product(I)
    candidates = [ctx.variable(i) for i in range(ctx.nvars)]
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = [rng.randrange(ctx.p) for _ in range(ctx.nvars)]
        if not any(coeffs):
            coeffs[0] = 1
        f = ctx.zero()
        for i, c in enumerate(coeffs):
            f = f + ctx.variable(i).scale(c)
        candidates.append(f)
    for x in candidates:
        if ideal_colon_element(mI, x) == I:
            return MFullResult(True, x, trials)
    return MFullResult(False, None, trials)


# ---------------------------------------------------------------------------
# numerical invariants


def choi_invariant(I: Ideal) -> int:
    """dim_k n(I:n)/nI for the presentation S -> S/I.

    nJ/nI is spanned by the classes of x_j * g_i over generators g_i of
    J = (I:n), because n·nJ ⊆ nI; so the dimension is the rank of the
    normal-form coefficient matrix of those products modulo nI."""
    _require_proper_nonzero(I)
    residues = _colon_residues(I)
    entries = []  # (monomial index, residue index, coefficient)
    monomials: dict = {}
    for j, (_, _, r) in enumerate(residues):
        entries.extend((monomials.setdefault(e, len(monomials)), j, c) for e, c in r.terms)
    mat = linalg.Triples.from_entries(entries, (len(monomials), len(residues)))
    return linalg.rank(mat, I.ctx.p)


def burch_invariant(R: QuotientAlgebra) -> int:
    """The intrinsic invariant c_R; positive iff R is Burch of depth zero.

    c_R = s + h - e - h' + e' with s = dim Soc R = dim W, h = dim H_1(K^R),
    e = edim R and h', e' those of R' = R/W, is read off R alone as the rank
    of ψ : W^e -> H_1(K^R) (`resolution.koszul_socle_rank`), by the long
    exact Koszul sequence of 0 -> W -> R -> R' -> 0 on the e generators
    x of m:
      m·W = 0 gives H_1(x; W) = W^e and H_0(x; W) = W, and W ⊆ m makes
      H_0(x; W) -> H_0(x; R) = k zero, so dim H_1(x; R') = h - rank ψ + s;
      on its own e' generators R' has h' = dim H_1(x; R') - (e - e'), so
      c_R = s + h - e - (h - rank ψ + s - e + e') + e' = rank ψ.
    The literal formula, with the algebra R/Soc R (`quotient_by_socle`), is
    the test suite's oracle.

    For a field the value is presentation-dependent (dim n/n^2) and the
    caller should treat it as the degenerate case."""
    if R.is_field:
        return R.ctx.nvars
    return koszul_socle_rank(R)


@dataclass
class RingVerdict:
    burch: bool
    c_invariant: int
    trivial_field: bool = False
    omega2_splits: bool | None = None


def burch_ring_depth_zero(R: QuotientAlgebra) -> RingVerdict:
    """c_R > 0, cross-checked against the criterion that k is a direct
    summand of its second syzygy (skipped for fields, where the syzygy
    criterion degenerates but the verdict is Burch by convention)."""
    c = burch_invariant(R)
    if R.is_field:
        return RingVerdict(True, c, trivial_field=True)
    verdict = c > 0
    res = residue_field(R).resolution(2)
    splits = k_summand_test(res.syzygy(2)).splits
    if splits != verdict:
        raise InternalConsistencyError(
            f"c_R = {c} disagrees with the second-syzygy criterion ({splits})"
        )
    return RingVerdict(verdict, c, omega2_splits=splits)


# ---------------------------------------------------------------------------
# classifiers


@dataclass
class GorensteinBurchReport:
    gorenstein: bool
    burch: bool
    edim: int
    length: int
    hypersurface_exponent: int | None  # r with R ≅ k[t]/(t^r) when it applies


def gorenstein_burch_classifier(I: Ideal) -> GorensteinBurchReport:
    """Gorenstein + Burch forces an artinian hypersurface (edim <= 1); the
    quotient is then k[t]/(t^r) with r = length."""
    if not I.is_m_primary():
        raise PreconditionError("classifier needs an m-primary ideal")
    R = quotient_algebra(I)
    gor = R.is_gorenstein()
    burch = burch_ideal_test(I, with_invariants=False).burch
    expo = None
    if gor and burch:
        if R.edim > 1:
            raise InternalConsistencyError("Gorenstein Burch quotient with edim > 1")
        expo = R.length
    return GorensteinBurchReport(gor, burch, R.edim, R.length, expo)


@dataclass
class CubeZeroVerdict:
    burch: bool
    beta2: int
    edim: int
    type: int


def cube_zero_test(R: QuotientAlgebra) -> CubeZeroVerdict:
    """For m^3 = 0: Burch iff beta_2(k) > edim^2 - type."""
    if R.max_power_basis(3).shape[1] != 0:
        raise PreconditionError("cube-zero test needs m^3 = 0")
    res = residue_field(R).resolution(2)
    beta2 = res.betti[2]
    e, r = R.edim, R.type()
    return CubeZeroVerdict(beta2 > e * e - r, beta2, e, r)


@dataclass
class SummandConditionResult:
    holds: bool
    i1a_in_j: bool
    quotient_gorenstein: bool | None


def cyclic_summand_condition(I: Ideal, J: Ideal, A) -> SummandConditionResult:
    """The ideal-arithmetic condition (I:J) not contained in
    (IJ : (J:n)·I_1(A)), evaluated literally; side flags report whether
    I_1(A) ⊆ J and whether S/J is Gorenstein (when decidable)."""
    ctx = I.ctx
    if not I <= J:
        raise PreconditionError("condition needs I ⊆ J")
    entries = [h for row in A for h in row if not h.is_zero]
    I1A = Ideal.make(ctx, entries)
    m = max_ideal(ctx)
    left = ideal_colon(I, J)
    if I1A.is_zero:
        holds = False
    else:
        K = ideal_colon(J, m).product(I1A)
        rhs = ideal_colon(I.product(J), K)
        holds = not left <= rhs
    i1a_in_j = I1A <= J
    gor = None
    if J.is_m_primary():
        gor = quotient_algebra(J).is_gorenstein()
    return SummandConditionResult(holds, i1a_in_j, gor)


@dataclass
class MuGrowthVerdict:
    burch: bool
    mu_I: int
    mu_mI: int


def mu_growth_test(I: Ideal) -> MuGrowthVerdict:
    """Two-variable m-primary criterion: Burch iff mu(mI) < 2 mu(I)."""
    if I.ctx.nvars != 2:
        raise PreconditionError("generator-count criterion needs 2 variables")
    if not I.is_m_primary():
        raise PreconditionError("generator-count criterion needs an m-primary ideal")
    mu_I, mu_mI = _mu_pair(I, I.length())
    return MuGrowthVerdict(mu_mI < 2 * mu_I, mu_I, mu_mI)


# ---------------------------------------------------------------------------
# cutting down by ring elements


@dataclass
class CutStep:
    element: Polynomial
    regular: bool
    eliminated: str | None


@dataclass
class CutResult:
    ideal: Ideal
    steps: list[CutStep]

    @property
    def all_regular(self) -> bool:
        return all(s.regular for s in self.steps)


def _substitute_variable(f: Polynomial, ctx_new: RingContext, var_index: int, replacement: Polynomial) -> Polynomial:
    """Substitute x_{var_index} := replacement (given in ctx_new) and drop
    that variable from the exponent tuples."""
    out = ctx_new.zero()
    for e, c in f.exponent_terms():
        rest = e[:var_index] + e[var_index + 1 :]
        term = ctx_new.monomial(rest, c)
        if e[var_index]:
            term = term * (replacement ** e[var_index])
        out = out + term
    return out


def cut_down(I: Ideal, elems, allow_nonlinear: bool = False) -> CutResult:
    """Quotient by a sequence of ring elements, checking stepwise regularity
    via ((I + previous) : x) = (I + previous).  An element that is not
    regular raises `PreconditionError` (exit 3 in the CLI) with a witness
    f, f·x ∈ I + previous but f ∉ I + previous, in its message, so every
    step of a returned result is regular.

    Linear forms are eliminated by substitution, presenting the quotient in
    the remaining variables.  Nonlinear elements (which by the embedded
    deformation obstruction can never produce a Burch quotient from a
    singular ring when inside m^2) require allow_nonlinear and are appended
    to the ideal without elimination."""
    cur = I
    steps: list[CutStep] = []
    pending = list(elems)
    while pending:
        x = pending.pop(0)
        if x.ctx != cur.ctx:
            raise PreconditionError("cut element from a different ring context")
        if x.is_zero or x.constant_term:
            raise PreconditionError("cut element must be a nonzero element of m")
        linear = x.homogeneous_degree() == 1
        if not linear and not allow_nonlinear:
            raise PreconditionError(
                f"cut element {x} is not a linear form (pass allow_nonlinear to override)"
            )
        colon = ideal_colon_element(cur, x)
        if colon != cur:
            witness = next(g for g in colon.gens if not cur.contains(g))
            raise PreconditionError(
                f"element {x} is not regular modulo the current ideal; witness {witness}"
            )
        if linear:
            old_ctx = cur.ctx
            j, coeff = next((i, c) for e, c in x.exponent_terms() for i, e_i in enumerate(e) if e_i)
            # solve x = 0 for the pivot variable
            names = old_ctx.variables[:j] + old_ctx.variables[j + 1 :]
            if not names:
                raise PreconditionError("cannot eliminate the last variable")
            ctx_new = RingContext(old_ctx.p, names)
            inv = pow(coeff, -1, old_ctx.p)
            repl_terms = {}
            for e, c in x.exponent_terms():
                if e[j]:
                    continue
                rest = e[:j] + e[j + 1 :]
                repl_terms[rest] = (-c * inv) % old_ctx.p
            replacement = Polynomial.from_dict(ctx_new, repl_terms)
            new_gens = [
                _substitute_variable(g, ctx_new, j, replacement) for g in cur.gens
            ]
            cur = Ideal.make(ctx_new, new_gens)
            pending = [_substitute_variable(f, ctx_new, j, replacement) for f in pending]
            steps.append(CutStep(x, True, old_ctx.variables[j]))
        else:
            cur = cur.sum(Ideal.make(cur.ctx, (x,)))
            steps.append(CutStep(x, True, None))
    return CutResult(cur, steps)


# ---------------------------------------------------------------------------
# fibre products


@dataclass
class FibreVerdict:
    burch: bool
    left_burch: bool
    right_burch: bool
    socle_outside_square: bool  # the edim-drop branch
    direct: bool | None  # verdict on the constructed presentation


def socle_outside_square(R: QuotientAlgebra) -> bool:
    """Soc R ⊄ m^2, read in R against the basis of m^2.  This is the
    edim-drop edim R > edim R/Soc R, with no algebra R/Soc R: the maximal
    ideal of R/Soc R is m/Soc R, so its edim is dim m/(m^2 + Soc R), which
    is smaller than dim m/m^2 exactly when Soc R ⊄ m^2."""
    return not linalg.subspace_le(linalg.Triples.from_dense(R.socle), R.max_power_basis(2), R.p)


def fibre_burch_test(RS: QuotientAlgebra, RT: QuotientAlgebra, direct: bool = True) -> FibreVerdict:
    """The fibre product of artinian rings is Burch iff one factor is Burch
    of depth zero (the socle-outside-m^2 branch is subsumed but evaluated).
    Optionally cross-checked against the constructed presentation."""
    check_fibre_factors(RS, RT)
    if RS.is_field or RT.is_field:
        raise PreconditionError("trivial fibre product: test the other factor directly")
    bS = burch_ring_depth_zero(RS).burch
    bT = burch_ring_depth_zero(RT).burch
    nS = socle_outside_square(RS)
    nT = socle_outside_square(RT)
    verdict = bS or bT or nS or nT
    direct_verdict = None
    if direct:
        pres = fibre_product(RS, RT)
        direct_verdict = burch_ring_depth_zero(quotient_algebra(pres.ideal)).burch
        if direct_verdict != verdict:
            raise InternalConsistencyError(
                "fibre-product criterion disagrees with the direct verdict"
            )
    return FibreVerdict(verdict, bS, bT, nS or nT, direct_verdict)
