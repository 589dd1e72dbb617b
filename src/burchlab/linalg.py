"""Exact linear algebra over a prime field F_p.

Every matrix is held as `Triples`, the lists (rows, cols, vals) of its
nonzero entries, with values reduced to [1, p).  `rref`, `kernel_basis`,
`column_space_basis`, `complete_columns`, `hstack` and `matmul` take Triples
and answer with Triples, so a chain of them never builds or scans a dense
array.

`rref` eliminates each entry with one of three kernels, chosen from the
nonzero pattern alone (no option selects one):

(a) `_eliminate_rows`, Gauss-Jordan on rows held as dicts column -> value in
    Python ints, reduced mod p after every product, so exact for every
    prime.  It takes the whole matrix when it has at most `SMALL` nonzeros,
    as almost all matrices here do, and costs only a few numpy calls.
(b) On a larger matrix, one whole-array pass over the blocks of the
    row/column nonzero graph that are a single row (a lone row, scaled by
    the inverse of its first entry) or a single column (a lone column, a
    unit row), as the matrices of monomial rings and modules mostly are.
    The connected components of the rest are labelled (`_components`);
    those of at most `BIG` nonzeros all go to one `_eliminate_rows` call,
    which never combines rows of different components.
(c) Each larger component, such as a dense matrix, goes to `_eliminate`, a
    per-pivot loop on that component's own dense int64 block, in place.  It
    reduces mod p after every pivot, so its largest intermediate value is a
    product of two residues, below p**2: exact for every prime `RingContext`
    accepts (p**2 < 2**53, the documented input range), well inside int64.

The RREF is unique, and a block-diagonal matrix's RREF is its blocks' rows
ordered by pivot column, so every choice gives the same result.  Every
modular inverse is Python's pow(a, -1, p).

An action matrix (multiplication by a variable on a ring or module) is
applied in its scatter form (`scatter_table`): each source's targets and
values, with entries that meet at one target summed mod p only where a row
of the matrix has several nonzeros.  `matmul` multiplies two Triples, and
`reduce_by_echelon` clears vectors against a reduced echelon basis, which
tests membership in a span for many vectors at once (`columns_in_span`).
All three run in int64 and reduce each product mod p before any sum, so
they are exact for every prime `RingContext` accepts, at every size.
"""
from __future__ import annotations

import itertools

import numpy as np

DEFAULT_PRIME = 32003

# the accepted primes: p**2 < EXACT_LIMIT, so a product of two residues,
# _eliminate's largest value, stays far inside int64
EXACT_LIMIT = 2**53

# rref eliminates a matrix of at most SMALL nonzeros, and each component of
# at most BIG nonzeros of a larger one's rest, on Python-int row dicts
# (`_eliminate_rows`).  Measured on one 2-CPU x86 host: any SMALL in 32..64
# is within 5% on the benchmark's workloads; row dicts take about 3x as long
# as the whole-array pass on a 40 x 400 monomial matrix, and 10x as long as
# `_eliminate` on a dense 256 x 256 block
SMALL = 48
BIG = 64


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


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


class Triples:
    """A matrix of `shape` held as its nonzero entries: vals[k] at (rows[k],
    cols[k]).  Values lie in [1, p), no position appears twice, and the
    entries are in no particular order."""

    __slots__ = ("rows", "cols", "vals", "shape")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]):
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Triples":
        empty = np.zeros(0, dtype=np.int64)
        return cls(empty, empty, empty, (rows, cols))

    @classmethod
    def identity(cls, n: int) -> "Triples":
        diagonal = np.arange(n)
        return cls(diagonal, diagonal, np.ones(n, dtype=np.int64), (n, n))

    @classmethod
    def from_entries(cls, entries: list[tuple[int, int, int]], shape: tuple[int, int]) -> "Triples":
        """The matrix with the given (row, col, value) entries."""
        rows, cols, vals = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        return cls(rows, cols, vals, shape)

    @classmethod
    def from_dense(cls, A: np.ndarray) -> "Triples":
        """The entries of a canonical dense matrix."""
        rows, cols = A.nonzero()
        return cls(rows, cols, A[rows, cols], A.shape)

    def toarray(self) -> np.ndarray:
        A = zeros(*self.shape)
        A[self.rows, self.cols] = self.vals
        return A

    def take_columns(self, index) -> "Triples":
        """The columns `index` (distinct) in that order."""
        index = np.asarray(index, dtype=np.int64)
        at = np.full(self.shape[1], -1, dtype=np.int64)
        at[index] = np.arange(index.size)
        cols = at[self.cols]
        keep = (cols >= 0).nonzero()[0]
        return Triples(self.rows[keep], cols[keep], self.vals[keep], (self.shape[0], index.size))

    @property
    def T(self) -> "Triples":
        return Triples(self.cols, self.rows, self.vals, self.shape[::-1])


def scatter_table(A: Triples) -> tuple[np.ndarray, np.ndarray, bool]:
    """Scatter form (idx, val, merge) of a square matrix A, for
    `apply_scatter`: two (k, n) tables, k the most nonzeros in a column of A,
    where slot j of source column b holds the target row idx[j, b] and the
    value val[j, b] (0 in a padded slot); and whether some row of A has two
    or more nonzeros, that is whether two sources can reach one target."""
    n = A.shape[1]
    order = np.lexsort((A.rows, A.cols))  # by source, targets ascending
    sources, targets = A.cols[order], A.rows[order]
    count = np.bincount(sources, minlength=n)
    k = int(count.max()) if n else 0
    idx = np.zeros((k, n), dtype=np.int64)
    val = np.zeros((k, n), dtype=np.int64)
    slot = np.arange(sources.size) - (count.cumsum() - count)[sources]
    idx[slot, sources] = targets
    val[slot, sources] = A.vals[order]
    merge = bool((np.bincount(targets, minlength=A.shape[0]) > 1).any())
    return idx, val, merge


def apply_scatter(table: tuple[np.ndarray, np.ndarray, bool], Y: Triples, p: int) -> Triples:
    """A·Y mod p on the rows of Y, taken in blocks of A's size n, for A in the
    scatter form `table`: entry c at row q·n + b goes to row q·n + t, scaled
    by A[t, b], for every target t of source b.  Entries that meet at one
    position are summed mod p, and the zero sums dropped, only when `table`
    says that two sources can reach one target."""
    idx, val, merge = table
    k, n = idx.shape
    if k == 0:  # A is zero
        return Triples.zeros(*Y.shape)
    src = Y.rows % n
    base = Y.rows - src
    parts = []
    for j in range(k):
        c = val[j][src]
        hit = c.nonzero()[0]  # padded slots hold 0
        parts.append((base[hit] + idx[j][src[hit]], Y.cols[hit], Y.vals[hit] * c[hit] % p))
    rows, cols, vals = parts[0] if k == 1 else (np.concatenate(x) for x in zip(*parts))
    if merge:
        return _summed(rows, cols, vals, Y.shape, p)
    return Triples(rows, cols, vals, Y.shape)


def _summed(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int], p: int) -> Triples:
    """The Triples of entries given with repeats: values that meet at one
    position are summed mod p, and the zero sums dropped."""
    key = rows * shape[1] + cols
    order = key.argsort(kind="stable")
    key = key[order]
    head = np.ones(key.size, dtype=bool)
    head[1:] = key[1:] != key[:-1]
    first = head.nonzero()[0]
    sums = np.add.reduceat(vals[order], first) % p
    keep = sums.nonzero()[0]
    first = order[first[keep]]
    return Triples(rows[first], cols[first], sums[keep], shape)


def _products(A: Triples, B: Triples, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every term A[i, t]·B[t, j] of A·B, as (i, j, value mod p), unsummed."""
    order = B.rows.argsort(kind="stable")
    count = np.bincount(B.rows, minlength=B.shape[0])
    reps = count[A.cols]  # the terms each entry of A takes part in
    a = np.repeat(np.arange(A.rows.size), reps)
    offset = (count.cumsum() - count)[A.cols] - (reps.cumsum() - reps)
    b = order[np.repeat(offset, reps) + np.arange(a.size)]
    return A.rows[a], B.cols[b], A.vals[a] * B.vals[b] % p


def matmul(A: Triples, B: Triples, p: int) -> Triples:
    """A·B mod p, each term reduced mod p before the sums, so it is exact for
    every prime `RingContext` accepts, at any size."""
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    return _summed(*_products(A, B, p), (A.shape[0], B.shape[1]), p)


def reduce_by_echelon(E: Triples, pivots, V: Triples, p: int) -> Triples:
    """V - Eᵀ·V[pivots]: each column of V minus the combination of the rows
    of E, a reduced row echelon form with those pivots, that agrees with it
    at the pivots.  A column is zero exactly when it lies in E's row space."""
    at = np.full(V.shape[0], -1, dtype=np.int64)
    at[list(pivots)] = np.arange(len(pivots))
    r = at[V.rows]
    hit = (r >= 0).nonzero()[0]
    at_pivots = Triples(r[hit], V.cols[hit], V.vals[hit], (E.shape[0], V.shape[1]))
    rows, cols, vals = _products(E.T, at_pivots, p)
    return _summed(
        np.concatenate([V.rows, rows]), np.concatenate([V.cols, cols]), np.concatenate([V.vals, p - vals]), V.shape, p
    )


def rref(A: Triples, p: int) -> tuple[Triples, tuple[int, ...]]:
    """Reduced row echelon form and the pivot-column indices.

    `_eliminate_rows` takes a matrix of at most SMALL nonzeros whole; on a
    larger one, lone rows and lone columns are reduced from the nonzero
    pattern, the components of the rest with at most BIG nonzeros go to one
    `_eliminate_rows` call, and each larger one to `_eliminate` (see the
    module docstring).  The RREF of a block-diagonal matrix, up to
    permutation, is its blocks' RREF rows ordered by pivot column, so the
    result equals a full elimination's.
    """
    m, n = A.shape
    if A.vals.size == 0:
        return Triples.zeros(m, n), ()
    if A.vals.size <= SMALL:
        pivots, reduced = _eliminate_rows(A.rows.tolist(), A.cols.tolist(), A.vals.tolist(), p)
        return _from_rows(reduced, (m, n)), tuple(pivots)
    # the entries row by row, left to right
    order = (A.rows * n + A.cols).argsort()
    rows, cols, vals = A.rows[order], A.cols[order], A.vals[order]
    row_count = np.bincount(rows, minlength=m)
    col_count = np.bincount(cols, minlength=n)
    lone_row = row_count > 0
    lone_row[rows[col_count[cols] > 1]] = False
    lone_col = col_count > 1  # a 1x1 block counts once, as a row
    lone_col[cols[row_count[rows] > 1]] = False
    in_row = lone_row[rows]
    rest = (~(in_row | lone_col[cols])).nonzero()[0]

    # a lone row's first entry is its pivot
    r_rows, r_cols, r_vals = rows[in_row], cols[in_row], vals[in_row]
    head = np.ones(r_rows.size, dtype=bool)
    head[1:] = r_rows[1:] != r_rows[:-1]
    scale = r_vals[head]
    odd = scale != 1
    if odd.any():
        firsts, index = np.unique(scale[odd], return_inverse=True)
        scale[odd] = np.array([pow(a, -1, p) for a in firsts.tolist()], dtype=np.int64)[index]
    run = head.cumsum() - 1  # entry -> its lone row, in row order
    r_pivots = r_cols[head]
    c_pivots = lone_col.nonzero()[0]
    parts = [
        (r_pivots, run, r_cols, r_vals * scale[run] % p),
        (c_pivots, np.arange(c_pivots.size), c_pivots, np.ones(c_pivots.size, dtype=np.int64)),
    ]
    if rest.size:
        rows, cols, vals = rows[rest], cols[rest], vals[rest]
        label = _components(rows, cols + m, m + n)
        small = np.bincount(label, minlength=m + n)[label] <= BIG
        if small.any():
            s_pivots, reduced = _eliminate_rows(rows[small].tolist(), cols[small].tolist(), vals[small].tolist(), p)
            S = _from_rows(reduced, (len(s_pivots), n))
            parts.append((np.array(s_pivots, dtype=np.int64), S.rows, S.cols, S.vals))
        big = (~small).nonzero()[0]
        if big.size:
            big = big[label[big].argsort(kind="stable")]
            for one in np.split(big, np.flatnonzero(np.diff(label[big])) + 1):
                parts.append(_eliminate_component(rows[one], cols[one], vals[one], (m, n), p))

    pivots = np.concatenate([part[0] for part in parts])
    order = pivots.argsort()
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    offsets = itertools.accumulate((part[0].size for part in parts), initial=0)
    R = Triples(
        np.concatenate([slot[at + part[1]] for part, at in zip(parts, offsets)]),
        np.concatenate([part[2] for part in parts]),
        np.concatenate([part[3] for part in parts]),
        (m, n),
    )
    return R, tuple(pivots[order].tolist())


def _components(rows: np.ndarray, cols: np.ndarray, nodes: int) -> np.ndarray:
    """The connected component of each entry in the graph on `nodes` nodes
    whose edges are the entries' (row, col) node pairs, as the least node of
    the component: label propagation along the edges, with pointer jumping."""
    label = np.arange(nodes)
    while True:
        at_row, at_col = label[rows], label[cols]
        if (at_row == at_col).all():
            return at_row
        low = np.minimum(at_row, at_col)
        np.minimum.at(label, rows, low)
        np.minimum.at(label, cols, low)
        while True:  # every label is a node of the same component, no larger
            jump = label[label]
            if (jump == label).all():
                break
            label = jump


def _eliminate_rows(
    rows: list[int], cols: list[int], vals: list[int], p: int
) -> tuple[list[int], list[dict[int, int]]]:
    """Gauss-Jordan elimination of the matrix with the given entries (values
    in [1, p)) on rows held as dicts column -> value in Python ints, reduced
    mod p after every product, as in SymPy's sparse `sdm_irref`.  Returns
    the pivot columns ascending and the reduced rows in that order.

    Each row is cleared against the pivot rows it meets and, if anything is
    left, becomes a pivot row at its first column, which is then cleared
    from the earlier pivot rows that hold it (found by a column -> pivot
    rows index).  A pivot row never gains an entry left of its pivot, so
    the rows are the unique RREF whatever order they come in; rows of
    different blocks share no column and are never combined."""
    by_row: dict[int, dict[int, int]] = {}
    for i, j, v in zip(rows, cols, vals):
        by_row.setdefault(i, {})[j] = v
    pivot_row: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}  # column -> pivots whose rows hold it
    for row in sorted(by_row.values(), key=min):
        # a pivot row is zero at every other pivot, so no clearing adds one
        for j in [j for j in row if j in pivot_row]:
            f = row.pop(j)
            for k, v in pivot_row[j].items():
                if k != j:
                    x = (row.get(k, 0) - f * v) % p
                    if x:
                        row[k] = x
                    else:
                        del row[k]
        if not row:
            continue
        c = min(row)
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            for k in row:
                row[k] = row[k] * inv % p
        for j in holders.pop(c, ()):
            other = pivot_row[j]
            f = other.pop(c)
            for k, v in row.items():
                if k != c:
                    x = (other.get(k, 0) - f * v) % p
                    if not x:
                        del other[k]
                        holders[k].discard(j)
                    else:
                        if k not in other:
                            holders.setdefault(k, set()).add(j)
                        other[k] = x
        pivot_row[c] = row
        for k in row:
            if k != c:
                holders.setdefault(k, set()).add(c)
    pivots = sorted(pivot_row)
    return pivots, [pivot_row[c] for c in pivots]


def _from_rows(reduced: list[dict[int, int]], shape: tuple[int, int]) -> Triples:
    """The Triples whose row i holds the entries of the dict reduced[i]."""
    rows = [i for i, row in enumerate(reduced) for _ in row]
    cols = [k for row in reduced for k in row]
    vals = [v for row in reduced for v in row.values()]
    return Triples(
        np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals, dtype=np.int64), shape
    )


def _eliminate_component(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int], p: int):
    """(pivots, row, col, val) of one component's entries in a matrix of
    `shape`, eliminated by `_eliminate` as a dense block over the
    component's own rows and columns: its pivot columns and the entries of
    its reduced rows, row k being the one of the k-th pivot."""
    in_rows = np.bincount(rows, minlength=shape[0]) > 0
    in_cols = np.bincount(cols, minlength=shape[1]) > 0
    block_cols = in_cols.nonzero()[0]
    block = zeros(int(in_rows.sum()), block_cols.size)
    block[(in_rows.cumsum() - 1)[rows], (in_cols.cumsum() - 1)[cols]] = vals
    sub, sub_pivots = _eliminate(block, p)
    s_rows, s_cols = sub[: len(sub_pivots)].nonzero()
    return block_cols[list(sub_pivots)], s_rows, block_cols[s_cols], sub[s_rows, s_cols]


def _eliminate(R: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan elimination of a canonical int64 matrix, in place, one
    pivot at a time: the first nonzero entry in row order, columns scanned
    left to right.  Returns R itself, reduced, and the pivot columns."""
    m, n = R.shape
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
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), -1, p) % p
        col = R[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            R[rows, c:] = (R[rows, c:] - np.outer(col[rows], R[r, c:])) % p
        pivots.append(c)
        r += 1
    return R, tuple(pivots)


def rank(A: Triples, p: int) -> int:
    return len(rref(A, p)[1])


def kernel_basis(A: Triples, p: int) -> Triples:
    """Columns form a basis of {v : Av = 0}; count = cols - rank(A).

    Column k is 1 at the k-th free (non-pivot) column of A's rref, 0 at every
    other free column, and nonzero elsewhere only at pivot columns left of
    its own free column: read from the last coordinate, the basis is a
    reduced echelon basis, its pivots the free columns, in ascending order."""
    n = A.shape[1]
    R, pivots = rref(A, p)
    is_free = np.ones(n, dtype=bool)
    is_free[list(pivots)] = False
    free = is_free.nonzero()[0]
    # x_free = e_k forces x_c = -R[r, j] at the pivot c of row r; in RREF
    # R[r, j] is already 0 for every free j left of c
    at = np.full(n, -1, dtype=np.int64)
    at[free] = np.arange(free.size)
    k = at[R.cols]
    hit = (k >= 0).nonzero()[0]  # R's entries in free columns: all but the pivots
    return Triples(
        np.concatenate([free, np.asarray(pivots, dtype=np.int64)[R.rows[hit]]]),
        np.concatenate([np.arange(free.size), k[hit]]),
        np.concatenate([np.ones(free.size, dtype=np.int64), p - R.vals[hit]]),
        (n, free.size),
    )


def column_space_basis(A: Triples, p: int) -> Triples:
    """A subset of A's columns forming a basis of its column space."""
    _, pivots = rref(A, p)
    return A.take_columns(pivots)


def columns_in_span(A: Triples, V: Triples, p: int) -> np.ndarray:
    """Which columns of V lie in the column space of A, as a boolean mask:
    one rref of Aᵀ, then one residual (`reduce_by_echelon`) for all of V."""
    if A.shape[0] != V.shape[0]:
        raise ValueError(f"vector length {V.shape[0]} != row count {A.shape[0]}")
    E, pivots = rref(A.T, p)
    residual = reduce_by_echelon(E, pivots, V, p)
    return np.bincount(residual.cols, minlength=V.shape[1]) == 0


def in_column_space(A: Triples, v: Triples, p: int) -> bool:
    """Whether the one column of v lies in the column space of A: the
    one-column case of `columns_in_span`."""
    return bool(columns_in_span(A, v, p)[0])


def hstack(blocks: list[Triples], rows: int) -> Triples:
    """The blocks side by side; no blocks give a (rows, 0) matrix."""
    if not blocks:
        return Triples.zeros(rows, 0)
    offsets = list(itertools.accumulate((B.shape[1] for B in blocks), initial=0))
    return Triples(
        np.concatenate([B.rows for B in blocks]),
        np.concatenate([B.cols + at for B, at in zip(blocks, offsets)]),
        np.concatenate([B.vals for B in blocks]),
        (rows, offsets[-1]),
    )


def complete_columns(W: Triples, C: Triples, p: int) -> list[int]:
    """Greedy indices j such that the columns C[:, j] extend span(W) to
    span(W) + span(C), scanning C left to right: the pivots of [W | C] past
    W, since those inside W are exactly the pivots of W alone."""
    if W.shape[0] != C.shape[0]:
        raise ValueError("ambient dimension mismatch")
    _, pivots = rref(hstack([W, C], W.shape[0]), p)
    w = W.shape[1]
    return [c - w for c in pivots if c >= w]


def subspace_le(A: Triples, B: Triples, p: int) -> bool:
    """span(A) <= span(B), both given by column spans."""
    if A.shape[1] == 0:
        return True
    return not complete_columns(B, A, p)


def subspace_eq(A: Triples, B: Triples, p: int) -> bool:
    return subspace_le(A, B, p) and subspace_le(B, A, p)
