"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  Elimination
and dense products run on float64 copies so the updates hit vectorized BLAS
paths.  float64 holds integers exactly below 2**53, which bounds the prime:

- `rref` reduces mod p after every pivot, so its largest intermediate value
  is a product of two residues: it is exact while p**2 < 2**53;
- `matmul` sums `inner` such products before reducing, so it is exact while
  inner * (p-1)**2 < 2**53, and raises `PreconditionError` otherwise.

`RingContext` refuses primes with p**2 >= 2**53 up front.  Pivoting is
deterministic: the first nonzero entry in row order, columns scanned left to
right.

An action matrix (multiplication by a variable on a ring or module) is
applied in its row-gather form: `gather_table` stores, for each row, its k
nonzero columns and values, k the most nonzeros in any row, and
`apply_gather` sums k gathered rows scaled by those values.  It runs in
int64 and reduces each product mod p before the k terms are added, so every
intermediate value is below max(p**2, k*p): it is exact for every prime
`RingContext` accepts, with no bound on the size of the matrix.  On the
standard-monomial basis of a monomial ring k <= 1.  `matmul` remains where
a dense matrix is the result or an operand: a polynomial evaluated at the
action matrices, the product of two algebra elements (the walk-built
`operator(a)` times a vector), the tensor maps of `resolution`, the
products with a kernel basis in `socle_span` and
`module_from_presentation`, and the checks that action matrices commute
and that a complex composes to zero.

The matrices of the rings and modules here are mostly monomial: most blocks
of their row/column nonzero graph are a single row (a lone row) or a single
column (a lone column).
`rref` takes those pivots straight from the nonzero pattern, with a few
whole-array operations: a lone row is scaled by the inverse of its first
entry, a lone column is a unit row.  The per-pivot loop `_eliminate` runs
only on the submatrix of the remaining blocks, which for a dense matrix is
all of it.
"""
from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 32003

# float64 holds integers exactly up to 2**53; matmul accumulates at most
# inner_dim * (p-1)**2, so this caps its inner dimension, and rref's single
# products cap the prime itself.
EXACT_LIMIT = 2**53


class PreconditionError(ValueError):
    """An operation's stated precondition failed."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Scalar arithmetic in F_p on plain ints kept in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


def as_matrix(entries, p: int) -> np.ndarray:
    """Coerce a nested sequence (or array) to a canonical int64 matrix mod p."""
    A = np.asarray(entries, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError(f"expected a 2d matrix, got shape {A.shape}")
    return A % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    if A.shape[1] == 0:
        return zeros(A.shape[0], B.shape[1])
    if A.shape[1] * (p - 1) ** 2 >= EXACT_LIMIT:
        raise PreconditionError(
            f"inner dimension {A.shape[1]} too large for exact float64 matmul mod {p} "
            "(needs inner * (p-1)^2 < 2^53)"
        )
    C = (A.astype(np.float64) @ B.astype(np.float64)) % p
    return C.astype(np.int64)


def gather_table(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-gather form (idx, val) of a canonical matrix A: two (rows, k)
    tables, k the largest number of nonzeros in a row.  Row i of A holds
    val[i, j] in column idx[i, j], its nonzeros left to right; padded slots
    hold val 0 and idx 0."""
    A = np.asarray(A, dtype=np.int64)
    rows, cols = np.nonzero(A)
    count = np.bincount(rows, minlength=A.shape[0])
    k = int(count.max()) if count.size else 0
    idx = np.zeros((A.shape[0], k), dtype=np.intp)
    val = np.zeros((A.shape[0], k), dtype=np.int64)
    # nonzero() lists entries row by row: slot = rank within its row
    slot = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
    idx[rows, slot] = cols
    val[rows, slot] = A[rows, cols]
    return idx, val


def apply_gather(table: tuple[np.ndarray, np.ndarray], Y: np.ndarray, p: int, axis: int = 0) -> np.ndarray:
    """A·Y mod p along `axis` of a canonical array Y, for A in the gather
    form `table`: the sum over j of Y[idx[:, j]]·val[:, j] on that axis,
    each product reduced mod p before the k terms are added."""
    idx, val = table
    Y = np.asarray(Y, dtype=np.int64)
    rows, k = idx.shape
    if k == 0:  # A is zero
        out_shape = list(Y.shape)
        out_shape[axis] = rows
        return np.zeros(out_shape, dtype=np.int64)
    shape = [1] * Y.ndim
    shape[axis] = rows

    def term(j: int) -> np.ndarray:
        t = np.take(Y, idx[:, j], axis=axis)  # a copy: safe to update in place
        t *= val[:, j].reshape(shape)
        t %= p
        return t

    out = term(0)
    for j in range(1, k):
        out += term(j)
    if k > 1:
        out %= p
    return out


def matvec(A: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    return matmul(A, v.reshape(-1, 1), p).ravel()


def rref(A: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and the pivot-column indices.

    Lone rows and lone columns are reduced from the nonzero pattern, and
    `_eliminate` runs on the rest (see the module docstring).  The RREF of a
    block-diagonal matrix, up to permutation, is its blocks' RREF rows
    ordered by pivot column, so the result equals a full elimination's.
    """
    m, n = A.shape
    A = np.asarray(A, dtype=np.int64)
    if A.size and (A.min() < 0 or A.max() >= p):
        A = A % p
    R = zeros(m, n)
    rows, cols = np.nonzero(A)
    if rows.size == 0:
        return R, ()
    row_count = np.bincount(rows, minlength=m)
    col_count = np.bincount(cols, minlength=n)
    lone_row = row_count > 0
    lone_row[rows[col_count[cols] > 1]] = False
    lone_col = col_count > 1  # a 1x1 block counts once, as a row
    lone_col[cols[row_count[rows] > 1]] = False
    in_row = lone_row[rows]
    rest = ~(in_row | lone_col[cols])

    # nonzero() lists entries row by row, left to right: a lone row's first
    # entry is its pivot
    r_rows, r_cols = rows[in_row], cols[in_row]
    head = np.ones(r_rows.size, dtype=bool)
    head[1:] = r_rows[1:] != r_rows[:-1]
    vals = A[r_rows, r_cols]
    scale = vals[head]
    odd = scale != 1
    if odd.any():
        firsts, index = np.unique(scale[odd], return_inverse=True)
        scale[odd] = np.array([pow(a, p - 2, p) for a in firsts.tolist()], dtype=np.int64)[index]
    run = np.cumsum(head) - 1  # entry -> its lone row, in row order
    r_pivots = r_cols[head]
    c_pivots = np.flatnonzero(lone_col)
    sub_cols = s_pivots = np.zeros(0, dtype=np.int64)  # empty without a rest block
    if rest.any():
        sub_rows = np.flatnonzero(np.bincount(rows[rest], minlength=m))
        sub_cols = np.flatnonzero(np.bincount(cols[rest], minlength=n))
        sub, sub_pivots = _eliminate(A[np.ix_(sub_rows, sub_cols)], p)
        s_pivots = sub_cols[list(sub_pivots)]

    pivots = np.concatenate([r_pivots, c_pivots, s_pivots])
    order = np.argsort(pivots)
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    nr, nc = r_pivots.size, c_pivots.size
    R[slot[run], r_cols] = vals * scale[run] % p
    R[slot[nr : nr + nc], c_pivots] = 1
    if s_pivots.size:
        R[np.ix_(slot[nr + nc :], sub_cols)] = sub[: s_pivots.size]
    return R, tuple(pivots[order].tolist())


def _eliminate(A: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan elimination of a canonical matrix, one pivot at a time:
    the first nonzero entry in row order, columns scanned left to right."""
    m, n = A.shape
    R = A.astype(np.float64)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        # rows r.. are zero left of c, so columns before c never change
        inv = pow(int(R[r, c]), p - 2, p)
        R[r, c:] = (R[r, c:] * inv) % p
        col = R[:, c].copy()
        col[r] = 0.0
        rows = np.nonzero(col)[0]
        if rows.size:
            R[rows, c:] = (R[rows, c:] - np.outer(col[rows], R[r, c:])) % p
        pivots.append(c)
        r += 1
    return R.astype(np.int64), tuple(pivots)


def rank(A: np.ndarray, p: int) -> int:
    return len(rref(A, p)[1])


def kernel_basis(A: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of {v : Av = 0}; count = cols - rank(A)."""
    n = A.shape[1]
    R, pivots = rref(A, p)
    is_free = np.ones(n, dtype=bool)
    is_free[list(pivots)] = False
    free = np.flatnonzero(is_free)
    K = zeros(n, free.size)
    K[free, np.arange(free.size)] = 1
    # x_free = e_k forces x_c = -R[r, j] at the pivot c of row r; in RREF
    # R[r, j] is already 0 for every free j left of c
    K[list(pivots), :] = (-R[: len(pivots)][:, free]) % p
    return K


def column_space_basis(A: np.ndarray, p: int) -> np.ndarray:
    """A subset of A's columns forming a basis of its column space."""
    _, pivots = rref(A, p)
    return A[:, list(pivots)]


def in_column_space(A: np.ndarray, v: np.ndarray, p: int) -> bool:
    v = np.asarray(v, dtype=np.int64).reshape(-1) % p
    if v.shape[0] != A.shape[0]:
        raise ValueError(f"vector length {v.shape[0]} != row count {A.shape[0]}")
    if not v.any():
        return True
    return not complete_columns(A, v.reshape(-1, 1), p)


def hstack(blocks: list[np.ndarray], rows: int) -> np.ndarray:
    blocks = [B for B in blocks if B.shape[1] > 0]
    if not blocks:
        return zeros(rows, 0)
    return np.concatenate(blocks, axis=1)


def complete_columns(W: np.ndarray, C: np.ndarray, p: int) -> list[int]:
    """Greedy indices j such that the columns C[:, j] extend span(W) to
    span(W) + span(C), scanning C left to right: the pivots of [W | C] past
    W, since those inside W are exactly the pivots of W alone."""
    if W.shape[0] != C.shape[0]:
        raise ValueError("ambient dimension mismatch")
    _, pivots = rref(np.concatenate([W, C], axis=1), p)
    w = W.shape[1]
    return [c - w for c in pivots if c >= w]


def subspace_le(A: np.ndarray, B: np.ndarray, p: int) -> bool:
    """span(A) <= span(B), both given by column spans."""
    if A.shape[1] == 0:
        return True
    return not complete_columns(B, A, p)


def subspace_eq(A: np.ndarray, B: np.ndarray, p: int) -> bool:
    return subspace_le(A, B, p) and subspace_le(B, A, p)
