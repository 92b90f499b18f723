"""Vectors, elimination and small matrix enumeration over F_p, on plain
ints.

A vector is a tuple of ints, a matrix a tuple of row tuples and a residue
an int.  Central values live in a cyclic group Z of order m (a prime or
prime power) and are stored additively: the group element z^a is the
residue a mod m.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np


def fp_vector(coords: Sequence[int], p: int) -> tuple:
    """Vector over F_p: the coordinates reduced into [0, p)."""
    return tuple(int(c) % p for c in coords)


def basis_vector(i: int, k: int, p: int) -> tuple:
    """The i-th standard basis vector of F_p^k, 0-based."""
    if not 0 <= i < k:
        raise IndexError("basis index %d out of range for dim %d" % (i, k))
    return tuple(int(j == i) for j in range(k))


def _rank_mod_p(rows: list, p: int) -> int:
    """Gaussian elimination mod p; mutates its argument."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if rows[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def row_reduce(rows, p: int) -> list:
    """The nonzero rows of the reduced row echelon form of rows over F_p,
    which is unique for their span."""
    rows = (np.asarray(rows, dtype=np.int64) % p).tolist()
    return rows[:_rank_mod_p(rows, p)]


def nullspace_mod_p(M, p: int) -> list:
    """{v : M v = 0} over F_p, as the row_reduce rows of a basis.

    Each non-pivot column f of the reduced M gives the kernel vector with
    1 at f and minus column f of the reduced rows at their pivots."""
    M = np.asarray(M, dtype=np.int64)
    rows = row_reduce(M, p)
    pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
    basis = []
    for f in sorted(set(range(M.shape[1])) - set(pivots)):
        v = [0] * M.shape[1]
        v[f] = 1
        for r, c in zip(rows, pivots):
            v[c] = -r[f] % p
        basis.append(v)
    return row_reduce(basis, p)


DEFAULT_ENUM_LIMITS = {2: 5, 3: 4}


def enumerate_invertible(k: int, p: int) -> Iterator[tuple]:
    """Yield every invertible k x k matrix over F_p exactly once, as a
    tuple of row tuples.

    Order is row-major lexicographic over all p^(k*k) matrices, filtered by
    invertibility, so searches that consume the stream are reproducible.
    The stream is meant for brute-force searches, so k is limited by
    DEFAULT_ENUM_LIMITS: k <= 5 for p = 2, k <= 4 for p = 3, k <= 3
    otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    limit = DEFAULT_ENUM_LIMITS.get(p, 3)
    if k > limit:
        raise ValueError("enumerate_invertible: k=%d exceeds the limit "
                         "k <= %d for p=%d" % (k, limit, p))
    for entries in itertools.product(range(p), repeat=k * k):
        rows = tuple(entries[r * k:(r + 1) * k] for r in range(k))
        if _rank_mod_p([list(r) for r in rows], p) == k:
            yield rows
