import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burchlab import linalg
from burchlab.linalg import PreconditionError
from burchlab.poly import RingContext

P = 32003


def _triples(rows, p=P):
    """The Triples of a nested list or array, reduced mod p."""
    return linalg.Triples.from_dense(np.asarray(rows, dtype=np.int64).reshape(len(rows), -1) % p)


def test_rank_identity_and_zero():
    assert linalg.rank(linalg.Triples.identity(2), P) == 2
    assert linalg.rank(linalg.Triples.zeros(3, 4), P) == 0


def test_rank_dependent_rows():
    # [[1,2],[2,4]]: second row is twice the first
    assert linalg.rank(_triples([[1, 2], [2, 4]]), P) == 1


def test_kernel_identity_empty():
    K = linalg.kernel_basis(linalg.Triples.identity(2), P)
    assert K.shape == (2, 0)


def test_kernel_zero_matrix_full():
    K = linalg.kernel_basis(linalg.Triples.zeros(2, 2), P)
    assert K.shape == (2, 2)
    assert linalg.rank(K, P) == 2


def test_kernel_single_relation():
    # x + y = 0 has a one-dimensional solution space
    A = _triples([[1, 1]])
    K = linalg.kernel_basis(A, P)
    assert K.shape == (2, 1)
    assert linalg.matmul(A, K, P).vals.size == 0


def test_column_membership():
    A = linalg.Triples.identity(2)
    assert linalg.in_column_space(A, _triples([5, 7]), P)
    Z = linalg.Triples.zeros(2, 1)
    assert not linalg.in_column_space(Z, _triples([1, 0]), P)
    M = _triples([[1], [2]])
    assert linalg.in_column_space(M, _triples([2, 4]), P)
    assert not linalg.in_column_space(M, _triples([1, 0]), P)


def test_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.in_column_space(linalg.Triples.identity(2), _triples([1, 2, 3]), P)


def test_complete_columns_greedy():
    W = _triples([[1], [0], [0]])
    C = linalg.Triples.identity(3)
    assert linalg.complete_columns(W, C, P) == [1, 2]


matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, P - 1), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_transpose_agrees(rows):
    # the row-echelon and column-echelon routes must give the same rank
    A = _triples(rows)
    assert linalg.rank(A, P) == linalg.rank(A.T, P)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilate(rows):
    A = _triples(rows)
    K = linalg.kernel_basis(A, P)
    assert K.shape[1] == A.shape[1] - linalg.rank(A, P)
    assert linalg.matmul(A, K, P).vals.size == 0
    assert linalg.rank(K, P) == K.shape[1]


def test_rref_deterministic_first_pivot():
    A = _triples([[0, 2], [3, 0]])
    R1, piv1 = linalg.rref(A, P)
    R2, piv2 = linalg.rref(A, P)
    assert np.array_equal(R1.toarray(), R2.toarray()) and piv1 == piv2 == (0, 1)


def test_subspace_relations():
    A = _triples([[1, 0], [0, 1], [0, 0]])
    B = _triples([[1], [0], [0]])
    assert linalg.subspace_le(B, A, P)
    assert not linalg.subspace_le(A, B, P)
    assert linalg.subspace_eq(A, A.take_columns([1, 0]), P)


# -- vectorized kernel against the loop it replaced ------------------------------


def _kernel_basis_loop(A, p):
    """Reference: back-substitution one entry at a time, from the Python-int
    elimination `_rref_python` of the dense array A."""
    n = A.shape[1]
    R, pivots = _rref_python(A.tolist(), p)
    free = [j for j in range(n) if j not in set(pivots)]
    K = linalg.zeros(n, len(free))
    for k, j in enumerate(free):
        K[j, k] = 1
        for r, c in enumerate(pivots):
            if c < j:
                K[c, k] = (-R[r][j]) % p
    return K


@st.composite
def kernel_cases(draw):
    """(A, p) with A random, sparse, zero or of full rank, 0-7 rows and columns."""
    p = draw(st.sampled_from([2, 3, P]))
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["random", "sparse", "zero", "full_rank"]))
    A = linalg.zeros(rows, cols)
    if kind == "full_rank":
        k = min(rows, cols)
        A[:k, :k] = np.triu(np.ones((k, k), dtype=np.int64))
    elif kind != "zero":
        entries = st.integers(0, p - 1) if kind == "random" else st.sampled_from([0, 0, 0, 1, p - 1])
        flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        A = np.array(flat, dtype=np.int64).reshape(rows, cols)
    return A, p


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
@example((linalg.zeros(0, 0), P))
@example((linalg.zeros(0, 4), P))
@example((linalg.zeros(3, 0), P))
def test_kernel_basis_matches_loop_reference(case):
    A, p = case
    K = _dense(linalg.kernel_basis(linalg.Triples.from_dense(A), p), p)
    ref = _kernel_basis_loop(A, p)
    assert K.dtype == ref.dtype and K.shape == ref.shape and np.array_equal(K, ref)


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
@example((linalg.zeros(3, 0), P))
@example((linalg.zeros(2, 4), P))
def test_kernel_basis_is_reduced_echelon_from_the_last_coordinate(case):
    """Each column ends in a 1 at a coordinate where every other column is
    0, and those ends ascend: with the coordinates reversed, the basis is
    its own rref, so `QuotientAlgebra.socle_colon` lifts it as it is."""
    A, p = case
    K = _dense(linalg.kernel_basis(linalg.Triples.from_dense(A), p), p)
    ends = [int(np.flatnonzero(K[:, k])[-1]) for k in range(K.shape[1])]
    assert ends == sorted(set(ends))
    for k, j in enumerate(ends):
        assert K[j, k] == 1 and np.count_nonzero(K[j]) == 1
    flipped = K[::-1, ::-1].T
    R, pivots = linalg.rref(linalg.Triples.from_dense(flipped), p)
    assert np.array_equal(_dense(R, p)[: len(pivots)], flipped)


# -- the prime bound of the exact int64 elimination ------------------------------------


def _largest_exact_prime():
    p = math.isqrt(linalg.EXACT_LIMIT - 1)
    while not linalg.is_prime(p):
        p -= 1
    return p


def _rref_python(rows, p):
    """Reference: Gauss-Jordan on Python ints, with rref's pivoting rule."""
    R = [[x % p for x in row] for row in rows]
    m, n = len(R), len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        i = next((i for i in range(r, m) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        for k in range(m):
            if k != r and R[k][c]:
                f = R[k][c]
                R[k] = [(a - f * b) % p for a, b in zip(R[k], R[r])]
        pivots.append(c)
        r += 1
    return R, tuple(pivots)


def test_rref_exact_at_largest_accepted_prime():
    p = _largest_exact_prime()
    assert p == 94906249
    RingContext(p, ("x",))  # accepted
    rng = np.random.default_rng(7)
    full = rng.integers(0, p, size=(40, 40))
    deficient = np.concatenate([full[:25], (3 * full[:15] + full[10:25]) % p])
    for A in (full, deficient[:, :33]):
        R, pivots = linalg.rref(_triples(A, p), p)
        ref, ref_pivots = _rref_python(A.tolist(), p)
        assert pivots == ref_pivots
        assert _dense(R, p).tolist() == ref


def test_context_refuses_inexact_prime():
    with pytest.raises(PreconditionError):
        RingContext(2**31 - 1, ("x",))
    with pytest.raises(PreconditionError):
        RingContext(_largest_exact_prime() + 2**20, ("x",))  # composite, but too large first


def test_matmul_exact_at_largest_accepted_prime():
    """At the largest accepted prime, matmul is exact at inner dimensions
    where a float64 sum of products (p-1)^2 would not be: 3, 12 and 3000,
    with every entry p - 1 and with random entries."""
    p = _largest_exact_prime()
    rng = np.random.default_rng(11)
    for inner in (3, 12, 3000):
        for A, B in (
            (np.full((2, inner), p - 1), np.full((inner, 3), p - 1)),
            (rng.integers(0, p, size=(2, inner)), rng.integers(0, p, size=(inner, 3))),
        ):
            got = linalg.matmul(_triples(A, p), _triples(B, p), p)
            assert got.shape == (2, 3) and np.array_equal(_dense(got, p), _product_along(A, B, 0, p))


# -- structural pivots against the Python-int reference ----------------------------

PRIMES = [2, 3, P, 94906249]


def _block(draw, p, rows, cols, dense):
    """A rows x cols array of residues, all nonzero if `dense`."""
    pick = st.just(1) if dense else st.sampled_from([0, 1])
    entries = [draw(pick) and draw(st.integers(1, p - 1)) for _ in range(rows * cols)]
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


@st.composite
def structured_matrices(draw):
    """(A, p): block-diagonal up to a row and column permutation, monomial,
    lone rows and columns beside one general block, or zero; with zero rows
    and columns, empty shapes, and entries shifted by multiples of p.  Past
    `linalg.SMALL` nonzeros: many small dense blocks, a wide monomial matrix,
    and one dense block of more than `linalg.BIG` nonzeros beside lone rows
    and columns, so that every kernel of `rref` runs."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(
        st.sampled_from(
            [
                "blocks", "monomial", "one_per_row_and_column", "lone_and_block", "zero",
                "many_blocks", "wide_monomial", "big_block",
            ]
        )
    )
    if kind in ("blocks", "lone_and_block", "many_blocks", "big_block"):
        lone = st.one_of(
            st.tuples(st.just(1), st.integers(1, 3)),
            st.tuples(st.integers(1, 3), st.just(1)),
            st.tuples(st.integers(0, 1), st.integers(0, 1)),
        )
        if kind == "blocks":
            shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5))
        elif kind == "many_blocks":
            # at least two nonzeros a block, so more than SMALL in all
            small = st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
            shapes = draw(st.lists(small, min_size=linalg.SMALL // 2 + 1, max_size=linalg.SMALL // 2 + 8))
        else:
            shapes = draw(st.lists(lone, max_size=6))
            r = draw(st.integers(2, 4) if kind == "lone_and_block" else st.integers(8, 10))
            c = draw(st.integers(2, 4)) if kind == "lone_and_block" else linalg.BIG // r + draw(st.integers(1, 2))
            shapes.insert(draw(st.integers(0, len(shapes))), (r, c))
        m, n = sum(r for r, _ in shapes), sum(c for _, c in shapes)
        A = linalg.zeros(m, n)
        i = j = 0
        for r, c in shapes:
            dense = kind != "blocks" or draw(st.booleans())
            A[i : i + r, j : j + c] = _block(draw, p, r, c, dense)
            i, j = i + r, j + c
    elif kind == "wide_monomial":
        # one nonzero in every column, more columns than SMALL
        m, n = draw(st.integers(1, 6)), draw(st.integers(linalg.SMALL + 1, linalg.SMALL + 24))
        A = linalg.zeros(m, n)
        for c, r in enumerate(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))):
            A[r, c] = draw(st.integers(1, p - 1))
    else:
        m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        A = linalg.zeros(m, n)
        if kind == "monomial" and m:
            # at most one nonzero per column
            for c, r in enumerate(draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))):
                if r >= 0:
                    A[r, c] = draw(st.integers(1, p - 1))
        elif kind == "one_per_row_and_column":
            k = draw(st.integers(0, min(m, n)))
            rs = draw(st.permutations(range(m)))[:k]
            cs = draw(st.permutations(range(n)))[:k]
            for r, c in zip(rs, cs):
                A[r, c] = draw(st.integers(1, p - 1))
    A = A[draw(st.permutations(range(A.shape[0])))][:, draw(st.permutations(range(A.shape[1])))]
    shifts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(-2, 3, size=A.shape)
    A = A + p * shifts
    if draw(st.booleans()):
        A = np.ascontiguousarray(A.T).T  # same matrix, column-major
    return A, p


@settings(max_examples=400, deadline=None)
@given(structured_matrices())
@example((linalg.zeros(0, 0), P))
@example((linalg.zeros(0, 5), 2))
@example((linalg.zeros(4, 0), 3))
@example((linalg.zeros(3, 3), P))
@example((np.array([[5]], dtype=np.int64), 3))
@example((np.array([[0, 2, 0], [1, 0, 0], [0, 3, 0]], dtype=np.int64), 5))
@example((np.array([[-1, 94906249 + 4], [0, 0]], dtype=np.int64), 94906249))
def test_rref_matches_python_reference(case):
    A, p = case
    T = linalg.Triples.from_dense(A % p)
    before = [X.copy() for X in (T.rows, T.cols, T.vals)]
    R, pivots = linalg.rref(T, p)
    ref, ref_pivots = _rref_python(A.tolist(), p)
    assert all(np.array_equal(X, Y) for X, Y in zip((T.rows, T.cols, T.vals), before))
    assert R.shape == A.shape
    assert pivots == ref_pivots and all(type(c) is int for c in pivots)
    assert _dense(R, p).tolist() == ref


def _block_diagonal(blocks):
    """The blocks along the diagonal, in order."""
    A = linalg.zeros(sum(B.shape[0] for B in blocks), sum(B.shape[1] for B in blocks))
    i = j = 0
    for B in blocks:
        A[i : i + B.shape[0], j : j + B.shape[1]] = B
        i, j = i + B.shape[0], j + B.shape[1]
    return A


@pytest.mark.parametrize("p", PRIMES)
def test_rref_runs_each_kernel_on_its_own_input(monkeypatch, p):
    """Which kernel eliminates which entries follows from the nonzero
    pattern: a matrix of at most SMALL nonzeros goes whole to
    `_eliminate_rows`; a larger all-lone one to neither loop; the small
    components of a larger one's rest to one `_eliminate_rows` call, and
    each component of more than BIG nonzeros to its own `_eliminate`; and
    every result equals the Python-int reference."""
    rng = np.random.default_rng(p)
    real_rows, real_dense = linalg._eliminate_rows, linalg._eliminate
    calls = []

    def rows_kernel(rows, cols, vals, p):
        calls.append(("rows", len(vals)))
        return real_rows(rows, cols, vals, p)

    def dense_kernel(R, p):
        calls.append(("dense", R.shape))
        return real_dense(R, p)

    monkeypatch.setattr(linalg, "_eliminate_rows", rows_kernel)
    monkeypatch.setattr(linalg, "_eliminate", dense_kernel)

    def dense(r, c):
        return rng.integers(1, p, size=(r, c)) if p > 2 else np.ones((r, c), dtype=np.int64)

    wide = linalg.zeros(4, linalg.SMALL + 10)
    wide[rng.integers(0, 4, size=wide.shape[1]), np.arange(wide.shape[1])] = dense(1, wide.shape[1])[0]
    small_blocks = [dense(3, 3) for _ in range(linalg.SMALL // 9 + 1)]
    big_r, big_c = 8, linalg.BIG // 8 + 1
    cases = [
        (dense(3, 4), [("rows", 12)]),
        (wide, []),
        (_block_diagonal(small_blocks + [dense(1, 5), dense(4, 1)]), [("rows", 9 * len(small_blocks))]),
        (_block_diagonal([dense(1, 3), dense(big_r, big_c), dense(2, 1)]), [("dense", (big_r, big_c))]),
        (
            _block_diagonal([dense(big_r, big_c), dense(2, 2), dense(big_c, big_r)]),
            [("rows", 4), ("dense", (big_r, big_c)), ("dense", (big_c, big_r))],
        ),
    ]
    for A, want in cases:
        A = A[rng.permutation(A.shape[0])][:, rng.permutation(A.shape[1])]
        calls.clear()
        R, pivots = linalg.rref(linalg.Triples.from_dense(A), p)
        assert sorted(calls) == sorted(want)
        ref, ref_pivots = _rref_python(A.tolist(), p)
        assert pivots == ref_pivots and _dense(R, p).tolist() == ref


def _rank_python(A, p):
    return len(_rref_python(A.tolist(), p)[1])


def _rank_greedy(W, C, p):
    """Reference for complete_columns: add C's columns one at a time, keeping
    those that raise the rank."""
    chosen, cur = [], W
    for j in range(C.shape[1]):
        ext = np.concatenate([cur, C[:, j : j + 1]], axis=1)
        if _rank_python(ext, p) > _rank_python(cur, p):
            chosen.append(j)
            cur = ext
    return chosen


@settings(max_examples=150, deadline=None)
@given(structured_matrices(), st.data())
def test_span_tests_match_rank_definitions(case, data):
    A, p = case
    A %= p
    w = data.draw(st.integers(0, A.shape[1]))
    W, C = A[:, :w], A[:, w:]
    W_t, C_t = linalg.Triples.from_dense(W), linalg.Triples.from_dense(C)
    assert linalg.complete_columns(W_t, C_t, p) == _rank_greedy(W, C, p)
    rank_w = _rank_python(W, p)
    both = _rank_python(np.concatenate([W, C], axis=1), p)
    assert linalg.subspace_le(C_t, W_t, p) == (both == rank_w)
    assert linalg.subspace_eq(C_t, W_t, p) == (both == rank_w == _rank_python(C, p))
    mask = [_rank_python(np.concatenate([W, C[:, j : j + 1]], axis=1), p) == rank_w for j in range(C.shape[1])]
    assert linalg.columns_in_span(W_t, C_t, p).tolist() == mask
    for j in range(C.shape[1]):
        assert linalg.in_column_space(W_t, C_t.take_columns([j]), p) == mask[j]


def _product_along(A, Y, axis, p):
    """A·Y mod p along `axis` of Y, in Python ints: Y with that axis first
    and the others flattened."""
    Yt = np.moveaxis(Y, axis, 0)
    flat = Yt.reshape(Yt.shape[0], math.prod(Yt.shape[1:]))
    prod = (np.asarray(A).astype(object) @ flat.astype(object) % p).astype(np.int64)
    return np.moveaxis(prod.reshape((A.shape[0],) + Yt.shape[1:]), 0, axis)


BIG_P = PRIMES[-1]


# -- the row-gather form of an action, a second oracle for the scatter form ---------


def _gather_table(A):
    """Row-gather form (idx, val) of a canonical matrix A: two (rows, k)
    tables, k the most nonzeros in a row, where row i of A holds val[i, j] in
    column idx[i, j], its nonzeros left to right; padded slots hold 0."""
    k = int(np.count_nonzero(A, axis=1).max(initial=0))
    idx = np.zeros((A.shape[0], k), dtype=np.intp)
    val = np.zeros((A.shape[0], k), dtype=np.int64)
    for i in range(A.shape[0]):
        cols = np.nonzero(A[i])[0]
        idx[i, : cols.size] = cols
        val[i, : cols.size] = A[i, cols]
    return idx, val


def _apply_gather(table, Y, p, axis):
    """A·Y mod p along `axis` of Y for A in the row-gather form `table`: the
    sum over j of Y[idx[:, j]]·val[:, j] on that axis, each product reduced
    mod p before it is added, in Python ints."""
    idx, val = table
    Yt = np.moveaxis(Y, axis, 0)
    out = np.zeros((idx.shape[0],) + Yt.shape[1:], dtype=object)
    for j in range(idx.shape[1]):
        for i in range(idx.shape[0]):
            out[i] = (out[i] + Yt[idx[i, j]].astype(object) * int(val[i, j]) % p) % p
    return np.moveaxis(out.astype(np.int64), 0, axis)


@st.composite
def gather_cases(draw):
    """(A, Y, axis, p): A dense, monomial (at most one nonzero per row and
    column), zero, without rows, or sparse with unequal nonzero counts per
    row; nonzero values unit or not.  Y is canonical, 2-d and acted on
    along axis 0 or 3-d along axis 1, with 0 columns among the shapes."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(["dense", "monomial", "zero", "no_rows", "sparse"]))
    m = 0 if kind == "no_rows" else draw(st.integers(1, 6))
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.just(1), st.integers(1, p - 1))
    A = linalg.zeros(m, n)
    if kind == "dense":
        A[:] = _block(draw, p, m, n, dense=True)
    elif kind == "monomial":
        k = draw(st.integers(0, min(m, n)))
        for r, c in zip(draw(st.permutations(range(m)))[:k], draw(st.permutations(range(n)))[:k]):
            A[r, c] = draw(entry)
    elif kind == "sparse" and n:
        for r in range(m):
            for c in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
                A[r, c] = draw(entry)
    axis = draw(st.sampled_from([0, 1]))
    s = draw(st.integers(0, 4))
    shape = (n, s) if axis == 0 else (draw(st.integers(0, 3)), n, s)
    size = math.prod(shape)
    Y = np.array(draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size)), dtype=np.int64)
    return A, Y.reshape(shape), axis, p


@settings(max_examples=400, deadline=None)
@given(gather_cases())
@example((linalg.zeros(0, 3), np.ones((3, 2), dtype=np.int64), 0, P))
@example((linalg.zeros(3, 0), linalg.zeros(0, 2), 0, 2))
@example((linalg.zeros(2, 2), np.ones((2, 2, 0), dtype=np.int64), 1, 3))
@example((np.array([[BIG_P - 1, 2, 0], [0, 0, 0], [5, 0, BIG_P - 1]]), np.full((2, 3, 2), BIG_P - 1), 1, BIG_P))
def test_apply_gather_matches_dense_product(case):
    """The row-gather form of A acting along an axis of Y equals the dense
    product, and so does matmul of the Triples of A and of each block of Y;
    neither changes A or Y."""
    A, Y, axis, p = case
    A_before, Y_before = A.copy(), Y.copy()
    table = _gather_table(A)
    assert table[0].shape == (A.shape[0], int(np.count_nonzero(A, axis=1).max(initial=0)))
    got = _apply_gather(table, Y, p, axis)
    want = _product_along(A, Y, axis, p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert got.size == 0 or (got.min() >= 0 and got.max() < p)
    assert np.array_equal(got, want)
    blocks = [Y] if axis == 0 else list(Y)
    products = [linalg.matmul(linalg.Triples.from_dense(A), linalg.Triples.from_dense(B), p) for B in blocks]
    assert np.array_equal(A, A_before) and np.array_equal(Y, Y_before)
    for T, B in zip(products, [want] if axis == 0 else list(want)):
        assert T.shape == B.shape and np.array_equal(_dense(T, p), B)


# -- Triples against the Python-int references ---------------------------------------


def _dense(T, p):
    """T as a dense array, checking that it is `Triples` of nonzero residues
    with no position twice."""
    assert isinstance(T, linalg.Triples)
    assert T.vals.size == 0 or (T.vals.min() >= 1 and T.vals.max() < p)
    cells = list(zip(T.rows.tolist(), T.cols.tolist()))
    assert len(set(cells)) == len(cells)
    return T.toarray()


@settings(max_examples=300, deadline=None)
@given(structured_matrices(), st.integers(0, 2**32 - 1))
@example((linalg.zeros(0, 0), P), 0)
@example((linalg.zeros(0, 4), 2), 1)
@example((linalg.zeros(3, 0), 3), 2)
@example((linalg.zeros(2, 3), P), 3)
def test_triples_match_dense_results(case, seed):
    """rref, kernel_basis, column_space_basis and complete_columns on Triples,
    entries in any order, equal the Python-int references on the dense
    array: on block, monomial and zero matrices, empty shapes, and a general
    block beside lone rows and columns (the rest block that goes to
    _eliminate)."""
    A, p = case
    A = A % p
    rng = np.random.default_rng(seed)
    T = linalg.Triples.from_dense(A)
    order = rng.permutation(T.rows.size)
    T = linalg.Triples(T.rows[order], T.cols[order], T.vals[order], A.shape)

    ref, ref_pivots = _rref_python(A.tolist(), p)
    R, pivots = linalg.rref(T, p)
    assert pivots == ref_pivots and _dense(R, p).tolist() == ref
    assert np.array_equal(_dense(linalg.kernel_basis(T, p), p), _kernel_basis_loop(A, p))
    assert np.array_equal(_dense(linalg.column_space_basis(T, p), p), A[:, list(ref_pivots)])
    w = int(rng.integers(0, A.shape[1] + 1))
    W, C = T.take_columns(range(w)), T.take_columns(range(w, A.shape[1]))
    assert np.array_equal(_dense(linalg.hstack([W, C], A.shape[0]), p), A)
    assert linalg.complete_columns(W, C, p) == _rank_greedy(A[:, :w], A[:, w:], p)


@st.composite
def scatter_cases(draw):
    """(A, Y, p): A square, dense, monomial (at most one nonzero per row and
    column), zero, empty, or sparse with unequal nonzero counts per row (so
    that sources meet at a target, and their sum may vanish); nonzero values
    unit or not.  Y is canonical, with rows in q blocks of A's size and 0
    columns or blocks among the shapes."""
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(["dense", "monomial", "zero", "sparse", "cancel"]))
    n = draw(st.integers(0 if kind == "zero" else 1, 5))
    entry = st.one_of(st.just(1), st.integers(1, p - 1))
    A = linalg.zeros(n, n)
    if kind == "dense":
        A[:] = _block(draw, p, n, n, dense=True)
    elif kind == "monomial":
        for r, c in zip(draw(st.permutations(range(n))), draw(st.permutations(range(n)))):
            A[r, c] = draw(st.sampled_from([0, 1])) and draw(entry)
    elif kind == "sparse":
        for r in range(n):
            for c in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
                A[r, c] = draw(entry)
    elif kind == "cancel":
        A[0, :] = 1  # every source reaches row 0: entries 1 and p - 1 cancel there
    q, s = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    size = q * n * s
    values = st.one_of(st.sampled_from([0, 1, p - 1, 2 % p]), st.integers(0, p - 1))
    Y = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.int64)
    return A, Y.reshape(q * n, s), p


@settings(max_examples=300, deadline=None)
@given(scatter_cases())
@example((np.array([[1, 1], [0, 0]], dtype=np.int64), np.array([[1], [2]], dtype=np.int64), 3))
@example((linalg.zeros(0, 0), linalg.zeros(0, 3), P))
@example((np.array([[BIG_P - 1, 2, 0], [0, 0, 0], [5, 0, BIG_P - 1]]), np.full((6, 2), BIG_P - 1), BIG_P))
@example((linalg.zeros(2, 2), linalg.zeros(4, 0), 3))
def test_apply_scatter_matches_dense_product(case):
    """The scatter form of A acts on Triples of Y as the dense product A·Y
    acts on each block of n rows, and leaves A and Y as they were."""
    A, Y, p = case
    n = A.shape[0]
    A_before, Y_before = A.copy(), Y.copy()
    table = linalg.scatter_table(linalg.Triples.from_dense(A))
    assert table[0].shape == (int(np.count_nonzero(A, axis=0).max(initial=0)), n)
    assert table[2] == bool((np.count_nonzero(A, axis=1) > 1).any())
    got = linalg.apply_scatter(table, linalg.Triples.from_dense(Y), p)
    assert np.array_equal(A, A_before) and np.array_equal(Y, Y_before)
    want = _product_along(A, Y.reshape(Y.shape[0] // n if n else 0, n, Y.shape[1]), 1, p)
    assert got.shape == Y.shape and np.array_equal(_dense(got, p), want.reshape(Y.shape))


@settings(max_examples=300, deadline=None)
@given(scatter_cases())
@example((np.array([[1, 1], [0, 0]], dtype=np.int64), np.array([[1], [2]], dtype=np.int64), 3))
@example((linalg.zeros(0, 0), linalg.zeros(0, 3), P))
def test_apply_scatter_matches_apply_gather(case):
    """The scatter form of A acts on Triples as the row-gather form of A acts
    on each block of n rows of the dense array; the scatter table merges
    exactly when the gather table has two or more slots in a row."""
    A, Y, p = case
    n = A.shape[0]
    gather = _gather_table(A)
    table = linalg.scatter_table(linalg.Triples.from_dense(A))
    assert table[0].shape == (int(np.count_nonzero(A, axis=0).max(initial=0)), n)
    assert table[2] == (gather[0].shape[1] > 1)
    got = linalg.apply_scatter(table, linalg.Triples.from_dense(Y), p)
    want = _apply_gather(gather, Y.reshape(Y.shape[0] // n if n else 0, n, Y.shape[1]), p, axis=1)
    assert got.shape == Y.shape and np.array_equal(_dense(got, p), want.reshape(Y.shape))


@settings(max_examples=200, deadline=None)
@given(structured_matrices(), structured_matrices(), st.integers(0, 2**32 - 1))
@example((linalg.zeros(0, 3), P), (linalg.zeros(3, 2), P), 0)
@example((np.array([[BIG_P - 1, BIG_P - 1]]), BIG_P), (np.array([[BIG_P - 1], [1]]), BIG_P), 1)
def test_matmul_matches_python_product(left, right, seed):
    """matmul on Triples against the product in Python ints: A is the first
    matrix, B the second cut or padded to A's column count, at A's prime."""
    A, p = left
    A = A % p
    rng = np.random.default_rng(seed)
    B = right[0][: A.shape[1]] % p
    B = np.concatenate([B, rng.integers(0, p, size=(A.shape[1] - B.shape[0], B.shape[1]))]).astype(np.int64)
    got = linalg.matmul(linalg.Triples.from_dense(A), linalg.Triples.from_dense(B), p)
    want = _product_along(A, B, 0, p)
    assert got.shape == want.shape and np.array_equal(_dense(got, p), want)
    with pytest.raises(ValueError):
        linalg.matmul(linalg.Triples.zeros(2, 3), linalg.Triples.zeros(2, 3), p)
