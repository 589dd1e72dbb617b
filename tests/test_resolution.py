import dataclasses
import gc
import weakref

import numpy as np
import pytest

from burchlab import linalg, resolution
from burchlab.artinian import QuotientAlgebra
from burchlab.groebner import Ideal, PreconditionError, max_ideal
from burchlab.poly import RingContext, parse_polynomial
from burchlab.resolution import (
    AlgebraModule,
    _adic_order,
    _entry_ideal,
    _free_map_matrix,
    _sort_generators,
    _tensor_map,
    _witness_coordinate_order,
    direct_sum,
    free_module,
    k_summand_test,
    koszul_h1,
    mapping_cone_module,
    module_from_cyclic,
    module_from_presentation,
    residue_field,
    tor,
    tor_profile,
)

P = 32003
CTX = RingContext(P, ("x", "y"))
CX = RingContext(P, ("x",))


def _dense_act(act, v, Y):
    """act(v, ·) on a dense array, through Triples."""
    return act(v, linalg.Triples.from_dense(Y)).toarray()


def _product(A, B):
    """A·B mod P of dense arrays, in Python ints: the oracle for products."""
    return (A.astype(object) @ B.astype(object) % P).astype(np.int64)


def ideal(ctx, *gens):
    return Ideal.make(ctx, [parse_polynomial(g, ctx) for g in gens])


def quotient(ctx, *gens):
    return QuotientAlgebra(ideal(ctx, *gens))


@pytest.fixture(scope="module")
def r12():
    return quotient(CTX, "x^4", "x^2*y^2", "y^4")


# -- module construction --------------------------------------------------------


def test_cyclic_module_dimensions(r12):
    k = module_from_cyclic(r12, max_ideal(CTX))
    assert k.dim == 1
    M = module_from_cyclic(r12, ideal(CTX, "x^2", "x*y", "y^2"))
    assert M.dim == 3
    free = module_from_cyclic(r12, r12.ideal)
    assert free.dim == r12.dim and free.is_free()


def test_cyclic_module_over_hypersurface():
    R = quotient(CX, "x^4")
    M = module_from_cyclic(R, ideal(CX, "x^2"))
    assert M.dim == 2


def test_cyclic_requires_containment(r12):
    with pytest.raises(PreconditionError):
        module_from_cyclic(r12, ideal(CTX, "x^4", "y^4"))  # misses x^2y^2


def test_module_validation_catches_bad_actions(r12):
    T = linalg.Triples.from_dense
    good = T(np.zeros((2, 2), dtype=np.int64))
    bad = T(np.array([[0, 1], [0, 0]], dtype=np.int64))
    # x acts nilpotently of order 2 but x^4 != 0 composed with relations is 0;
    # here y-action fails to commute with x-action
    with pytest.raises(AssertionError):
        AlgebraModule(r12, [T(np.array([[0, 1], [1, 0]])), T(np.array([[1, 0], [0, 0]]))])
    # actions that violate the ideal relations (x^4 must act as 0)
    cx_r = quotient(CX, "x^2")
    with pytest.raises(AssertionError):
        AlgebraModule(cx_r, [T(np.array([[0, 1], [1, 0]]))])
    AlgebraModule(cx_r, [bad])  # legitimate: x^2 acts as 0
    AlgebraModule(r12, [good, good])
    # commuting actions whose products x·y and y·x list their entries in
    # different orders: R ⊗ k^2 over R = k[x,y]/(x^2, y^2), with x acting as
    # x ⊗ [[1, 0], [1, 0]] and y as y ⊗ 1, in a permuted basis
    r = quotient(CTX, "x^2", "y^2")
    X, Y = (A.toarray() for A in r.mult)
    perm = np.ix_(*[[3, 7, 0, 5, 6, 4, 2, 1]] * 2)
    M = AlgebraModule(r, [T(np.kron([[1, 0], [1, 0]], X)[perm]), T(np.kron(np.eye(2, dtype=np.int64), Y)[perm])])
    one = linalg.Triples.identity(M.dim)
    xy, yx = M.act(0, M.act(1, one)), M.act(1, M.act(0, one))
    assert np.array_equal(xy.toarray(), yx.toarray()) and not np.array_equal(xy.rows, yx.rows)
    # the form of the actions: Triples, one per variable, square of one
    # size, values in [1, p) -- nothing is reduced mod p on the way in
    malformed = [
        [np.zeros((2, 2), dtype=np.int64), good],  # a dense array
        [[[0, 0], [0, 0]], good],
        [good],  # one action for two variables
        [good, good, good],
        [good, T(np.zeros((3, 3), dtype=np.int64))],  # sizes differ
        [T(np.zeros((2, 3), dtype=np.int64))] * 2,  # not square
        [good, linalg.Triples(np.array([0]), np.array([1]), np.array([P + 1]), (2, 2))],  # P + 1 is 1 mod P
        [good, linalg.Triples(np.array([0]), np.array([1]), np.array([0]), (2, 2))],  # a stored zero
        [good, linalg.Triples(np.array([0]), np.array([1]), np.array([-1]), (2, 2))],
    ]
    for actions in malformed:
        with pytest.raises(ValueError):
            AlgebraModule(r12, actions)


# -- resolutions ----------------------------------------------------------------


def test_betti_doubling(r12):
    res = residue_field(r12).resolution(3)
    assert res.betti[:4] == [1, 2, 4, 8]


def test_hypersurface_periodic():
    R = quotient(CX, "x^3")
    res = residue_field(R).resolution(5)
    assert res.betti == [1, 1, 1, 1, 1, 1]
    assert str(R.lift(res.matrix(1)[0, 0])) == "x"
    assert str(R.lift(res.matrix(2)[0, 0])) == "x^2"
    assert str(R.lift(res.matrix(3)[0, 0])) == "x"


def test_free_module_resolution_stops(r12):
    res = free_module(r12, 2).resolution(3)
    assert res.betti == [2, 0, 0, 0]


def test_minimality_no_constant_entries(r12):
    res = residue_field(r12).resolution(3)
    one_index = r12.basis.index((0, 0))
    for i in range(1, 4):
        assert not res.matrix(i)[:, :, one_index].any()


def test_complex_composition_zero(r12):
    res = residue_field(r12).resolution(3)
    res.check_complex()


def test_rank_nullity_audit(r12):
    # betti[i-1]*len(R) = dim im(phi_i) + dim ker(phi_i) via stored data:
    # ker phi_i = Omega^{i+1}, im phi_i = Omega^i
    res = residue_field(r12).resolution(3)
    ell = r12.dim
    for i in range(1, 3):
        omega_i = res.syzygy(i).dim
        omega_next = res.syzygy(i + 1).dim
        assert res.betti[i] * ell == omega_i + omega_next


def test_syzygy_of_m_squared_zero_ring():
    R = quotient(CTX, "x^2", "x*y", "y^2")
    res = residue_field(R).resolution(2)
    z1 = res.syzygy(1)
    assert z1.dim == 2  # the maximal ideal, a 2-dim k-vector space
    assert res.betti[1] == 2


def test_free_module_has_zero_first_syzygy(r12):
    res = free_module(r12, 1).resolution(1)
    assert res.syzygy(1).dim == 0


# -- socle summand test ----------------------------------------------------------


def test_summand_verdicts(r12):
    res = residue_field(r12).resolution(3)
    assert not k_summand_test(res.syzygy(2)).splits
    v3 = k_summand_test(res.syzygy(3))
    assert v3.splits
    assert [str(f) for f in v3.witness_entries] == ["x^3*y", "0", "0", "0"]


def test_summand_witness_is_socle_outside_mz(r12):
    res = residue_field(r12).resolution(3)
    Z = res.syzygy(3)
    v = k_summand_test(Z).witness
    for var in range(2):
        assert not _dense_act(r12.act, var, v.reshape(-1, 1)).any()
    mZ = r12.m_span(Z.basis, r12.act)
    assert not linalg.in_column_space(mZ, linalg.Triples.from_dense(v.reshape(-1, 1)), P)


def test_summand_m2_zero_ring():
    R = quotient(CTX, "x^2", "x*y", "y^2")
    res = residue_field(R).resolution(2)
    assert k_summand_test(res.syzygy(2)).splits


# -- Koszul homology --------------------------------------------------------------


def test_koszul_h1_examples():
    assert koszul_h1(quotient(CX, "x^3")) == 1
    assert koszul_h1(quotient(CTX, "x^2", "x*y", "y^2")) == 3
    assert koszul_h1(QuotientAlgebra(max_ideal(CTX))) == 0  # field convention


def test_koszul_h1_uses_minimal_generators():
    # (x^3, y) presents k[x]/(x^3) with edim 1 inside a 2-variable ring
    assert koszul_h1(quotient(CTX, "x^3", "y")) == 1


def test_koszul_identity_beta2():
    from math import comb

    for gens in [("x^2", "x*y", "y^2"), ("x^3", "x*y", "y^3"), ("x^4", "x^2*y^2", "y^4"), ("x^2", "y^2")]:
        R = quotient(CTX, *gens)
        res = residue_field(R).resolution(2)
        assert koszul_h1(R) == res.betti[2] - comb(R.edim, 2)


# -- Tor ---------------------------------------------------------------------------


def test_tor_of_k_gives_betti(r12):
    k = residue_field(r12)
    for i in range(4):
        assert tor(k, k, i) == [1, 2, 4, 8][i]


def test_tor_free_module_vanishes(r12):
    F = free_module(r12, 2)
    N = module_from_cyclic(r12, ideal(CTX, "x", "y^2"))
    assert tor(F, N, 1) == 0
    assert tor(F, N, 2) == 0
    assert tor(F, N, 0) == 2 * N.dim


def test_tor_hypersurface_cyclic_modules():
    R = quotient(CX, "x^4")
    M = module_from_cyclic(R, ideal(CX, "x"))
    N = module_from_cyclic(R, ideal(CX, "x^2"))
    assert tor(M, N, 1) == 1


def test_tor_symmetric():
    R = quotient(CTX, "x^2", "x*y", "y^3")
    M = module_from_cyclic(R, ideal(CTX, "x", "y^2"))
    N = module_from_cyclic(R, ideal(CTX, "x", "y"))
    for i in range(4):
        assert tor(M, N, i) == tor(N, M, i)


def test_tor_is_the_profile_entry(oracle_rings):
    L = 4
    for R in oracle_rings:
        ctx = R.ctx
        cyclic = module_from_cyclic(R, R.ideal.sum(Ideal.make(ctx, [ctx.variable(0)])))
        for M in (residue_field(R), cyclic):
            for N in (residue_field(R), cyclic):
                profile = tor_profile(M, N, L)
                assert [tor(M, N, i) for i in range(L + 1)] == profile
    k = residue_field(oracle_rings[0])
    with pytest.raises(PreconditionError):
        tor(k, k, -1)


def test_negative_tor_index_and_resolution_length_are_refused(oracle_rings):
    k = residue_field(oracle_rings[0])
    with pytest.raises(PreconditionError, match="Tor index"):
        tor_profile(k, k, -1)
    with pytest.raises(PreconditionError, match="resolution length"):
        k.resolution(-1)
    assert k.resolution(0).betti[:1] == [1]


# -- mapping cones ------------------------------------------------------------------


def test_mapping_cone_hypersurface_example():
    R = quotient(CX, "x^4")
    M = module_from_cyclic(R, ideal(CX, "x^2"))
    x = R.element(parse_polynomial("x", CX))
    cone = mapping_cone_module(M, x)
    assert cone.dims_check
    assert cone.module.dim == 4
    # presentation [[x^2, x], [0, -x^2]] up to our sign conventions
    lifted = {
        str(R.lift(cone.presentation[r, j]).monic())
        for r in range(2)
        for j in range(2)
        if cone.presentation[r, j].any()
    }
    assert lifted == {"x^2", "x"}
    assert cone.entry_ideal == ideal(CX, "x")


def test_mapping_cone_contains_multiplier(r12):
    k = residue_field(r12)
    for var in ("x", "y"):
        el = r12.element(parse_polynomial(var, CTX))
        cone = mapping_cone_module(k, el)
        assert cone.dims_check
        assert cone.entry_ideal.contains(parse_polynomial(var, CTX))
        assert all(g.constant_term == 0 for g in cone.entry_ideal.gens)


def test_mapping_cone_rejects_free(r12):
    with pytest.raises(PreconditionError):
        mapping_cone_module(free_module(r12, 1), r12.element(parse_polynomial("x", CTX)))


def test_mapping_cone_aggregate_entry_ideal_is_maximal():
    # summing the cones over a minimal generating set of m gives I_1 = m
    R = quotient(CTX, "x^3", "x*y", "y^3")
    k = residue_field(R)
    total = Ideal.make(CTX, ())
    for var in ("x", "y"):
        cone = mapping_cone_module(k, R.element(parse_polynomial(var, CTX)))
        total = total.sum(cone.entry_ideal)
    assert total.sum(R.ideal) == max_ideal(CTX)


def test_mapping_cone_exact_sequence_tor_bound():
    # pd M(x) >= pd M is reflected in nonvanishing Tor against k
    R = quotient(CTX, "x^2", "x*y", "y^2")
    k = residue_field(R)
    M = module_from_cyclic(R, ideal(CTX, "x", "y^2"))
    cone = mapping_cone_module(M, R.element(parse_polynomial("x", CTX)))
    assert tor(cone.module, k, 3) > 0


# -- vectorized helpers against the loops they replaced ----------------------------


def _adic_order_loop(R, g, m):
    best = R.dim
    for c in range(m):
        chunk = g[c * R.dim : (c + 1) * R.dim]
        for b in np.nonzero(chunk)[0]:
            best = min(best, sum(R.basis[int(b)]))
    return best


def _free_map_matrix_loop(R, gens, m):
    """One generator and one basis monomial at a time."""
    d = R.dim
    blocks = []
    for g in gens:
        out = np.zeros((m * d, d), dtype=np.int64)
        out[:, 0] = g
        for b in range(1, d):
            exps = R.basis[b]
            i = next(k for k, e in enumerate(exps) if e)
            parent = R.basis.index(tuple(e - 1 if k == i else e for k, e in enumerate(exps)))
            out[:, b] = _dense_act(R.act, i, out[:, parent].reshape(-1, 1)).ravel()
        blocks.append(out)
    return np.hstack([np.zeros((m * d, 0), dtype=np.int64)] + blocks)


def _tensor_map_loop(res_matrix, N):
    """One polynomial evaluated at N's actions per nonzero entry of the
    differential, without the basis-monomial walk."""
    m, mu, _ = res_matrix.shape
    dN = N.dim
    out = np.zeros((m * dN, mu * dN), dtype=np.int64)
    for r in range(m):
        for j in range(mu):
            coeff = res_matrix[r, j]
            if coeff.any():
                block = N.poly_operator(N.algebra.lift(coeff))
                out[r * dN : (r + 1) * dN, j * dN : (j + 1) * dN] = block
    return out


@pytest.fixture(scope="module")
def oracle_rings(r12):
    return [r12, quotient(CX, "x^4"), quotient(CTX, "x^2", "x*y", "y^3")]


def _random_vectors(R, m, count, rng):
    """Dense, sparse and zero vectors of R^m."""
    vecs = [np.zeros(m * R.dim, dtype=np.int64)]
    for t in range(count):
        v = rng.integers(0, P, size=m * R.dim)
        if t % 2:
            v[rng.random(v.size) < 0.8] = 0
        vecs.append(v.astype(np.int64))
    return vecs


def test_adic_order_matches_loop_reference(oracle_rings):
    """_adic_order on the columns of a sparse matrix, one column at a time and
    all at once, zero columns included."""
    rng = np.random.default_rng(1)
    for R in oracle_rings:
        for m in (1, 3):
            vecs = _random_vectors(R, m, 20, rng)
            for g in vecs:
                assert _adic_order(linalg.Triples.from_dense(g.reshape(-1, 1)), R)[0] == _adic_order_loop(R, g, m)
            G = linalg.Triples.from_dense(np.stack(vecs, axis=1))
            assert _adic_order(G, R).tolist() == [_adic_order_loop(R, g, m) for g in vecs]


def _witness_coordinate_order_loop(R, m):
    return np.array([c * R.dim + b for c in range(m) for b in range(R.dim - 1, -1, -1)], dtype=np.int64)


def _generators(res, i):
    """The columns of ∂_i, as vectors of R^{betti[i-1]}."""
    mat = res.matrix(i)
    return [mat[:, j, :].ravel() for j in range(mat.shape[1])]


def _sort_generators_sorted(R, gens, m):
    """The ordering as a Python sort key per generator."""
    perm = _witness_coordinate_order_loop(R, m)

    def key(g):
        return (_adic_order_loop(R, g, m), int(np.nonzero(g[perm])[0][0]))

    return sorted(gens, key=key)


def test_sort_generators_matches_sorted_key(oracle_rings):
    rng = np.random.default_rng(4)
    for R in oracle_rings:
        for m in (1, 2, 3):
            assert np.array_equal(_witness_coordinate_order(R, m), _witness_coordinate_order_loop(R, m))
        # generators of a real resolution, shuffled, and random nonzero vectors
        # with repeated supports, so that both key parts tie
        res = residue_field(R).resolution(3)
        gens = _generators(res, 3)
        cases = [(res.betti[2], [gens[j] for j in rng.permutation(res.betti[3])])]
        for m in (1, 3):
            vecs = [v for v in _random_vectors(R, m, 12, rng) if v.any()]
            cases.append((m, vecs + [3 * v % P for v in vecs[:4]]))
        for m, gens in cases:
            got = _sort_generators(R, linalg.Triples.from_dense(np.stack(gens, axis=1)), m)
            want = np.stack(_sort_generators_sorted(R, gens, m), axis=1)
            assert got.shape == want.shape and np.array_equal(got.toarray(), want)


def _free_map(R, gens, m):
    G = np.stack(gens, axis=1) if gens else np.zeros((m * R.dim, 0), dtype=np.int64)
    return _free_map_matrix(R, linalg.Triples.from_dense(G), R.act).toarray()


def test_free_map_matrix_matches_loop_reference(oracle_rings):
    rng = np.random.default_rng(2)
    for R in oracle_rings:
        for m, mu in ((1, 1), (2, 3), (3, 0)):
            gens = _random_vectors(R, m, mu, rng)[1:] if mu else []
            got = _free_map(R, gens, m)
            assert np.array_equal(got, _free_map_matrix_loop(R, gens, m))
        # columns of a real resolution, zero vector included
        res = residue_field(R).resolution(3)
        gens = _generators(res, 3)
        gens.append(np.zeros_like(gens[0]))
        assert np.array_equal(_free_map(R, gens, res.betti[2]), _free_map_matrix_loop(R, gens, res.betti[2]))


def test_tensor_map_matches_loop_reference(oracle_rings):
    for R in oracle_rings:
        proper = [e for e in R.basis if sum(e) >= 1]
        ctx = R.ctx
        modules = [residue_field(R), free_module(R, 2)] + [
            module_from_cyclic(R, R.ideal.sum(Ideal.make(ctx, [ctx.monomial(e)]))) for e in proper[:3]
        ]
        for M in modules[2:] + modules[:1]:
            res = M.resolution(4)
            for N in modules:
                for i in range(1, 5):
                    got = _tensor_map(res.differential(i), N)
                    assert np.array_equal(got.toarray(), _tensor_map_loop(res.matrix(i), N))


def test_monomial_operators_match_polynomial_evaluation(oracle_rings):
    """The shared basis-monomial walk against evaluation at the action
    matrices: R.operator(a) for random a, also against the product with the
    stack of basis-monomial operators it replaced, and the cached operators
    of k, R^2 and a cyclic module."""
    rng = np.random.default_rng(3)
    for R in oracle_rings:
        d = R.dim
        regular = AlgebraModule(R, R.mult, check=False)
        walk = R.basis_multiples(linalg.Triples.identity(d), R.act)
        cube = np.stack([X.toarray() for X in walk]).reshape(d, d * d)
        for a in _random_vectors(R, 1, 6, rng):
            got = R.operator(R.element_from_vector(a))
            assert np.array_equal(got, regular.poly_operator(R.lift(a)))
            assert np.array_equal(got, _product(a.reshape(1, d), cube).reshape(d, d))
        ctx = R.ctx
        cyclic = module_from_cyclic(R, R.ideal.sum(Ideal.make(ctx, [ctx.variable(0)])))
        for M in (residue_field(R), free_module(R, 2), cyclic):
            assert M.monomial_operators.shape == (R.dim, M.dim * M.dim)
            operators = M.monomial_operators.toarray().reshape(R.dim, M.dim, M.dim)
            for b, exps in enumerate(R.basis):
                assert np.array_equal(operators[b], M.poly_operator(ctx.monomial(exps)))


def test_check_complex_detects_a_broken_differential(r12):
    res = residue_field(r12).resolution(3)
    res.check_complex()
    d3 = res.differential(3)
    # the first nonzero coordinate of column 0, the lowest monomial of its
    # first nonzero entry, gets another nonzero value
    k = np.flatnonzero(d3.cols == 0)[d3.rows[d3.cols == 0].argmin()]
    vals = d3.vals.copy()
    vals[k] = vals[k] % (P - 1) + 1
    res._differentials[2] = linalg.Triples(d3.rows, d3.cols, vals, d3.shape)
    with pytest.raises(AssertionError):
        res.check_complex()


# -- the shared module interface against the code it replaced -----------------------


def test_act_matches_free_module_actions(oracle_rings):
    """R.act on columns of R^m against the block-diagonal actions of
    free_module(R, m), with m = 0 and batches of s = 0 columns included."""
    rng = np.random.default_rng(5)
    for R in oracle_rings:
        for m in (0, 1, 3):
            F = free_module(R, m)
            for s in (0, 1, 4):
                Y = rng.integers(0, P, size=(m * R.dim, s)).astype(np.int64)
                for v in range(R.ctx.nvars):
                    got = R.act(v, linalg.Triples.from_dense(Y))
                    assert got.shape == Y.shape
                    assert np.array_equal(got.toarray(), _product(F.actions[v].toarray(), Y))


def _assert_canonical(A, n):
    """A is an n x n linalg.Triples with values in [1, P) and no position twice."""
    assert isinstance(A, linalg.Triples) and A.shape == (n, n)
    assert np.all((A.vals >= 1) & (A.vals < P))
    assert np.unique(A.rows * n + A.cols).size == A.vals.size


def test_free_module_matches_kron_of_multiplication_matrices(oracle_rings):
    """free_module(R, m) against the dense block diagonal it was built as,
    np.kron(eye(m), R.mult[v]), with m = 0 included."""
    for R in oracle_rings + [quotient(CTX, "x^3", "y - x^2")]:
        for m in (0, 1, 3):
            F = free_module(R, m)
            assert F.dim == m * R.dim and len(F.actions) == R.ctx.nvars
            for A, M in zip(F.actions, R.mult):
                _assert_canonical(A, F.dim)
                assert np.array_equal(A.toarray(), np.kron(np.eye(m, dtype=np.int64), M.toarray()))


def test_direct_sum_matches_dense_block_fill(oracle_rings):
    """direct_sum against the dense fill of each summand's actions into its
    diagonal block, with residue_field summands, whose actions are zero."""
    rng = np.random.default_rng(9)
    for R in oracle_rings + [quotient(CTX, "x^3", "y - x^2")]:
        ctx = R.ctx
        cyclic = module_from_cyclic(R, R.ideal.sum(Ideal.make(ctx, [ctx.variable(0)])))
        cone = module_from_presentation(R, _relations(_presentations(R, rng)[2]))
        for summands in ((residue_field(R),), (cyclic, residue_field(R), free_module(R, 2)), (residue_field(R), cone)):
            S = direct_sum(*summands)
            total = sum(M.dim for M in summands)
            assert S.dim == total
            for v, A in enumerate(S.actions):
                want = np.zeros((total, total), dtype=np.int64)
                at = 0
                for M in summands:
                    want[at : at + M.dim, at : at + M.dim] = M.actions[v].toarray()
                    at += M.dim
                _assert_canonical(A, total)
                assert np.array_equal(A.toarray(), want)


def test_constructors_return_canonical_triples(oracle_rings):
    """Every action that the ring and the module constructors build is a
    canonical linalg.Triples: values in [1, P), no position twice."""
    rng = np.random.default_rng(10)
    ctx3 = RingContext(P, ("x", "y", "z"))
    for R in oracle_rings + [quotient(CTX, "x^3", "y - x^2"), quotient(ctx3, *DENSE_RING)]:
        ctx = R.ctx
        modules = [
            residue_field(R),
            free_module(R, 0),
            free_module(R, 2),
            module_from_cyclic(R, R.ideal.sum(Ideal.make(ctx, [ctx.variable(0)]))),
            direct_sum(residue_field(R), free_module(R, 1)),
        ] + [module_from_presentation(R, _relations(pres)) for pres in _presentations(R, rng)]
        for A in R.mult:
            _assert_canonical(A, R.dim)
        for M in modules:
            assert len(M.actions) == ctx.nvars
            for A in M.actions:
                _assert_canonical(A, M.dim)


def test_act_matches_dense_product_with_several_entries_per_row():
    """R.act and M.act against the dense product with R.mult[v] and
    M.actions[v], on rings and modules whose action matrices have rows with
    several nonzeros, some of them not 1."""
    rng = np.random.default_rng(7)
    ctx3 = RingContext(P, ("x", "y", "z"))
    dense = ["x^2 + 3*y*z - 2*z^2 + 5*x*y", "y^2 - 7*x*z + 2*x*y + 4*z^2", "z^3 + 11*x*y*z - x^2*z", "x*y*z - 3*y^3 + 9*x^3"]

    def several_per_row(A):
        return (np.count_nonzero(A, axis=1) > 1).any() and (A > 1).any()

    dense_ring = quotient(ctx3, *dense)
    assert any(several_per_row(A.toarray()) for A in dense_ring.mult)
    for R in (quotient(CTX, "x^3", "y - x^2"), dense_ring):
        for m in (0, 1, 3):
            F = free_module(R, m)
            for s in (0, 1, 4):
                Y = rng.integers(0, P, size=(m * R.dim, s)).astype(np.int64)
                for v in range(R.ctx.nvars):
                    assert np.array_equal(_dense_act(R.act, v, Y), _product(F.actions[v].toarray(), Y))
        modules = [module_from_presentation(R, _relations(pres)) for pres in _presentations(R, rng)]
        assert any(several_per_row(A.toarray()) for M in modules for A in M.actions)
        for M in modules:
            for s in (0, 1, 4):
                Y = rng.integers(0, P, size=(M.dim, s)).astype(np.int64)
                for v, A in enumerate(M.actions):
                    assert np.array_equal(_dense_act(M.act, v, Y), _product(A.toarray(), Y))


def test_resolution_steps_take_no_dense_product(monkeypatch):
    """Resolving k and a cyclic module over a monomial ring scatters: no
    step multiplies by an action matrix."""
    R = quotient(CTX, "x^2", "x*y", "y^3")
    M = module_from_cyclic(R, ideal(CTX, "x", "y^2"))

    def refuse(*args):
        raise AssertionError("dense product in a resolution step")

    monkeypatch.setattr(linalg, "matmul", refuse)
    assert residue_field(R).resolution(6).betti == [1, 2, 4, 8, 16, 32, 64]
    assert M.resolution(6).betti[0] == 1


DENSE_RING = ("x^2 + 3*y*z - 2*z^2 + 5*x*y", "y^2 - 7*x*z + 2*x*y + 4*z^2", "z^3 + 11*x*y*z - x^2*z", "x*y*z - 3*y^3 + 9*x^3")


def test_act_on_triples_matches_gather_with_several_entries_per_row():
    """R.act on linalg.Triples against the dense product with the actions of
    free_module(R, m), on the rings of the test above: entries that meet at
    one target are summed, and vanishing sums dropped."""
    rng = np.random.default_rng(8)
    ctx3 = RingContext(P, ("x", "y", "z"))
    dense_ring = quotient(ctx3, *DENSE_RING)
    assert any(merge for _, _, merge in dense_ring._scatters)
    for R in (quotient(CTX, "x^3", "y - x^2"), dense_ring):
        for m in (0, 1, 3):
            for s in (0, 1, 4):
                Y = rng.choice(np.array([0, 0, 1, 2, P - 1]), size=(m * R.dim, s)).astype(np.int64)
                for v, A in enumerate(free_module(R, m).actions):
                    got = R.act(v, linalg.Triples.from_dense(Y))
                    assert isinstance(got, linalg.Triples) and got.shape == Y.shape
                    assert np.all(got.vals > 0) and np.array_equal(got.toarray(), _product(A.toarray(), Y))


def test_resolution_steps_stay_sparse(monkeypatch):
    """Every step, the first cover onto M included, keeps Omega and m·Omega
    as linalg.Triples, builds its free map as Triples and hands rref only
    Triples; the differentials and Betti numbers are those of the dense
    steps (pinned from them)."""
    ctx3 = RingContext(P, ("x", "y", "z"))
    cases = [
        (residue_field(quotient(ctx3, *DENSE_RING)), [1, 3, 7, 15, 31]),
        (module_from_cyclic(quotient(CTX, "x^2", "x*y", "y^3"), ideal(CTX, "x", "y^2")), [1, 2, 4, 8, 16]),
    ]
    for M, betti in cases:
        real_rref, real_free_map = linalg.rref, resolution._free_map_matrix
        kinds, free_maps = [], []

        def rref(A, p):
            kinds.append(type(A))
            return real_rref(A, p)

        def free_map(R, G, act):
            free_maps.append(real_free_map(R, G, act))
            return free_maps[-1]

        monkeypatch.setattr(linalg, "rref", rref)
        monkeypatch.setattr(resolution, "_free_map_matrix", free_map)
        res = M.resolution(4)
        monkeypatch.undo()
        assert res.betti == betti
        assert kinds and set(kinds) == {linalg.Triples}
        assert len(free_maps) == 4 and all(isinstance(F, linalg.Triples) for F in free_maps)
        assert all(isinstance(W, linalg.Triples) for W in res._omegas + res._m_spans)
        assert not hasattr(res, "matrices") and len(res._differentials) == 4
        for i, G in enumerate(res._differentials, start=1):
            assert isinstance(G, linalg.Triples) and G is res.differential(i)
            # column j of G holds entry (r, j) at rows r·dim R .. (r+1)·dim R - 1
            dense = G.toarray().reshape(-1, M.algebra.dim, G.shape[1]).transpose(0, 2, 1)
            assert np.array_equal(dense, res.matrix(i))
        res.check_complex()


def test_k_summand_test_reuses_the_steps_m_span(r12, monkeypatch):
    """k_summand_test takes m·Omega^i from the step that covered Omega^i: no
    m_span call, and the verdict and witness of the recomputed span."""
    res = residue_field(r12).resolution(4)
    calls = []
    real = QuotientAlgebra.m_span

    def counting(R, W, act):
        calls.append(W.shape)
        return real(R, W, act)

    monkeypatch.setattr(QuotientAlgebra, "m_span", counting)
    verdicts = [k_summand_test(res.syzygy(i)) for i in (2, 3, 4)]
    assert calls == []
    monkeypatch.undo()
    for i, got in zip((2, 3, 4), verdicts):
        Z = res.syzygy(i)
        span = r12.m_span(Z.basis, r12.act)
        assert np.array_equal(Z.m_span.toarray(), span.toarray())
        want = k_summand_test(dataclasses.replace(Z, m_span=span))
        assert (got.splits, got.socle_dim, got.witness_entries) == (want.splits, want.socle_dim, want.witness_entries)
        assert (got.witness is None) == (want.witness is None)
        assert got.witness is None or np.array_equal(got.witness, want.witness)
    assert [v.splits for v in verdicts] == [False, True, False]


def _k_summand_witness_loop(Z):
    """The witness as k_summand_test chose it one socle vector at a time: the
    dense echelon rows of the socle, each tested by the rank of [mZ | v], and
    the first outside mZ among those with the fewest components."""
    R, m = Z.algebra, Z.ambient_rank
    soc = R.socle_span(Z.basis, R.act).toarray()
    perm = _witness_coordinate_order_loop(R, m)
    ech = linalg.rref(linalg.Triples.from_dense(soc[perm, :].T), P)[0].toarray()
    inv = np.argsort(perm)
    vecs = [ech[r][inv] for r in range(ech.shape[0]) if ech[r].any()]
    mZ = Z.m_span.toarray()
    rank = linalg.rank(Z.m_span, P)
    outside = [v for v in vecs if linalg.rank(linalg.Triples.from_dense(np.concatenate([mZ, v[:, None]], axis=1)), P) > rank]
    outside.sort(key=lambda v: np.count_nonzero(v.reshape(m, R.dim).any(axis=1)))
    return outside[0] if outside else None


def test_k_summand_witness_matches_per_vector_loop(oracle_rings):
    """The batched span test of k_summand_test chooses the witness that the
    per-vector loop chooses, on syzygies of k and of cyclic modules, over
    monomial rings and a non-monomial one."""
    ctx3 = RingContext(P, ("x", "y", "z"))
    rings = oracle_rings + [quotient(CTX, "x^3", "y - x^2"), quotient(ctx3, *DENSE_RING)]
    splits = []
    for R in rings:
        ctx = R.ctx
        modules = [residue_field(R), module_from_cyclic(R, R.ideal.sum(Ideal.make(ctx, [ctx.variable(0)])))]
        for M in modules:
            res = M.resolution(4)
            for i in range(1, 5):
                Z = res.syzygy(i)
                got, want = k_summand_test(Z), _k_summand_witness_loop(Z) if Z.dim else None
                splits.append(got.splits)
                assert got.splits == (want is not None)
                assert want is None or np.array_equal(got.witness, want)
    assert True in splits and False in splits


def test_variable_operator_is_multiplication_matrix(oracle_rings):
    # R.mult[v], which koszul_h1 takes as the action of x_v, is the matrix
    # that the basis-monomial walk of the element x_v gives
    for R in oracle_rings + [quotient(CTX, "x^3", "y - x^2"), quotient(CTX, "x^3", "y")]:
        for v in range(R.ctx.nvars):
            assert np.array_equal(R.mult[v].toarray(), R.operator(R.variable_element(v)))


def test_socle_span_matches_replaced_socle_code(oracle_rings):
    """The algebra's socle and the socles of syzygies against the kernels of
    the stacked action matrices they were computed from before."""
    for R in oracle_rings:
        stacked = linalg.Triples.from_dense(np.concatenate([A.toarray() for A in R.mult], axis=0))
        assert np.array_equal(R.socle, linalg.kernel_basis(stacked, P).toarray())
        res = residue_field(R).resolution(3)
        for i in (1, 2, 3):
            Z = res.syzygy(i)
            F = free_module(R, Z.ambient_rank)
            basis = Z.basis.toarray()
            stacked = linalg.Triples.from_dense(np.concatenate([_product(A.toarray(), basis) for A in F.actions], axis=0))
            want = _product(basis, linalg.kernel_basis(stacked, P).toarray())
            assert np.array_equal(R.socle_span(Z.basis, R.act).toarray(), want)


def _module_from_presentation_loop(R, pres):
    """The cokernel's actions by projecting each x_v·e_c, one coordinate and
    one echelon row at a time."""
    rows, cols, d = pres.shape
    W = _free_map_matrix_loop(R, [pres[:, j, :].reshape(rows * d) for j in range(cols)], rows)
    ech, pivots = linalg.rref(linalg.Triples.from_dense(W.T), P)
    ech = ech.toarray()
    ech_rows = [ech[r] for r in range(ech.shape[0]) if ech[r].any()]
    free_coords = [c for c in range(rows * d) if c not in set(pivots)]

    def project(v):
        v = v.copy() % P
        for row, c in zip(ech_rows, pivots):
            if v[c]:
                v = (v - int(v[c]) * row) % P
        return v[free_coords]

    F = free_module(R, rows)
    actions = []
    for A in F.actions:
        A = A.toarray()
        B = np.zeros((len(free_coords), len(free_coords)), dtype=np.int64)
        for t, c in enumerate(free_coords):
            B[:, t] = project(A[:, c])
        actions.append(B)
    return actions


def _relations(pres):
    """A dense (rows, cols, dim R) presentation as the Triples of shape
    (rows·dim R, cols) that module_from_presentation and _entry_ideal take."""
    rows, cols, d = pres.shape
    return linalg.Triples.from_dense(pres.transpose(0, 2, 1).reshape(rows * d, cols))


def _presentations(R, rng):
    """Mapping-cone presentations and random ones with entries in m, with
    an empty presentation among them."""
    k = residue_field(R)
    x = R.variable_element(0)
    out = [mapping_cone_module(k, x).presentation, np.zeros((2, 0, R.dim), dtype=np.int64)]
    for rows, cols in ((1, 1), (2, 3), (3, 2)):
        pres = rng.integers(0, P, size=(rows, cols, R.dim)).astype(np.int64)
        pres[rng.random(pres.shape) < 0.6] = 0
        pres[:, :, 0] = 0
        out.append(pres)
    return out


def test_module_from_presentation_matches_projection_loop(oracle_rings):
    rng = np.random.default_rng(6)
    for R in oracle_rings:
        for pres in _presentations(R, rng):
            got = module_from_presentation(R, _relations(pres)).actions
            want = _module_from_presentation_loop(R, pres)
            assert len(got) == len(want)
            assert all(np.array_equal(a.toarray(), b) for a, b in zip(got, want))


def _entry_ideal_loop(R, mat):
    """The distinct monic lifts of the entries, scanned row by row."""
    entries, seen = [], set()
    for r in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            f = R.lift(mat[r, j])
            if f.is_zero:
                continue
            f = f.monic()
            if f not in seen:
                seen.add(f)
                entries.append(f)
    return tuple(entries)


def test_entry_ideal_generators_match_loop(oracle_rings):
    rng = np.random.default_rng(7)
    for R in oracle_rings:
        res = module_from_cyclic(R, R.ideal.sum(Ideal.make(R.ctx, [R.ctx.variable(0)]))).resolution(4)
        for i in range(1, 5):
            assert res.entry_ideal(i).gens == _entry_ideal_loop(R, res.matrix(i))
        for pres in _presentations(R, rng):
            assert _entry_ideal(R, _relations(pres)).gens == _entry_ideal_loop(R, pres)
        # the mapping cone's generators are now monic; the ideal is the same
        k = residue_field(R)
        cone = mapping_cone_module(k, R.variable_element(0))
        raw = [R.lift(e) for e in cone.presentation.reshape(-1, R.dim) if e.any()]
        assert cone.entry_ideal == Ideal.make(R.ctx, raw)


# -- lifetime ------------------------------------------------------------------------


def test_module_with_resolution_freed_by_refcount(r12):
    """A module caches its resolution; dropping the module frees both without
    the cycle collector."""
    gc.disable()
    try:
        M = module_from_cyclic(r12, ideal(CTX, "x^2", "x*y", "y^2"))
        res = M.resolution(3)
        module_ref, res_ref = weakref.ref(M), weakref.ref(res)
        del M, res
        assert module_ref() is None and res_ref() is None
    finally:
        gc.enable()


def test_held_syzygy_does_not_keep_its_module_alive(r12):
    """A syzygy still held after the module and its resolution are dropped
    keeps neither alive, without the cycle collector."""
    gc.disable()
    try:
        M = module_from_cyclic(r12, ideal(CTX, "x^2", "x*y", "y^2"))
        res = M.resolution(3)
        Z = res.syzygy(2)
        module_ref, res_ref = weakref.ref(M), weakref.ref(res)
        del M, res
        assert module_ref() is None and res_ref() is None
        assert Z.index == 2 and Z.dim > 0
    finally:
        gc.enable()
