"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  Elimination
and products run on float64 copies so the updates hit vectorized BLAS paths.
float64 holds integers exactly below 2**53, which bounds the prime:

- `rref` reduces mod p after every pivot, so its largest intermediate value
  is a product of two residues: it is exact while p**2 < 2**53;
- `matmul` sums `inner` such products before reducing, so it is exact while
  inner * (p-1)**2 < 2**53, and raises `PreconditionError` otherwise.

`RingContext` refuses primes with p**2 >= 2**53 up front.  Pivoting is
deterministic: the first nonzero entry in row order, columns scanned left to
right.
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

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

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


def matvec(A: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    return matmul(A, v.reshape(-1, 1), p).ravel()


def rref(A: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and the pivot-column indices."""
    m, n = A.shape
    R = (A.astype(np.float64)) % p
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
    free = np.setdiff1d(np.arange(n), pivots)
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
    aug = np.concatenate([A, v.reshape(-1, 1)], axis=1)
    return rank(aug, p) == rank(A, p)


def solve(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of Ax = b (free variables set to 0), or None."""
    b = np.asarray(b, dtype=np.int64).reshape(-1) % p
    if b.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch in solve")
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivots = rref(aug, p)
    n = A.shape[1]
    if n in pivots:
        return None
    x = zeros(n, 1).ravel()
    for r, c in enumerate(pivots):
        x[c] = R[r, n]
    return x


def hstack(blocks: list[np.ndarray], rows: int) -> np.ndarray:
    blocks = [B for B in blocks if B.shape[1] > 0]
    if not blocks:
        return zeros(rows, 0)
    return np.concatenate(blocks, axis=1)


def complete_columns(W: np.ndarray, C: np.ndarray, p: int) -> list[int]:
    """Greedy indices j such that the columns C[:, j] extend span(W) to
    span(W) + span(C), scanning C left to right."""
    if W.shape[0] != C.shape[0]:
        raise ValueError("ambient dimension mismatch")
    base = rank(W, p)
    _, pivots = rref(np.concatenate([W, C], axis=1), p)
    w = W.shape[1]
    chosen = [c - w for c in pivots if c >= w]
    assert len(chosen) + base == len(pivots)
    return chosen


def subspace_le(A: np.ndarray, B: np.ndarray, p: int) -> bool:
    """span(A) <= span(B), both given by column spans."""
    if A.shape[1] == 0:
        return True
    rb = rank(B, p)
    return rank(np.concatenate([B, A], axis=1), p) == rb


def subspace_eq(A: np.ndarray, B: np.ndarray, p: int) -> bool:
    return rank(A, p) == rank(B, p) and subspace_le(A, B, p)
