"""Residue arithmetic, exponent vectors, elimination and small matrix
enumeration over F_p.

Central values live in a cyclic group Z of order m (a prime or prime power)
and are stored additively: the group element z^a is represented by the
residue a mod m.  Vectors are exponent tuples with a per-slot modulus; in
the elementary abelian case every slot modulus equals p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class Residue(int):
    """An integer reduced mod a fixed modulus, with ring arithmetic.

    Subclasses int so residues compare and hash like their canonical
    representative; arithmetic between residues requires equal moduli.
    """

    modulus: int

    def __new__(cls, value: int, modulus: int) -> "Residue":
        if modulus <= 0:
            raise ValueError("modulus must be positive, got %r" % (modulus,))
        self = super().__new__(cls, value % modulus)
        self.modulus = modulus
        return self

    def _coerce(self, other) -> int:
        if isinstance(other, Residue) and other.modulus != self.modulus:
            raise ValueError(
                "modulus mismatch: %d vs %d" % (self.modulus, other.modulus))
        return int(other)

    def __add__(self, other) -> "Residue":
        return Residue(int(self) + self._coerce(other), self.modulus)

    __radd__ = __add__

    def __sub__(self, other) -> "Residue":
        return Residue(int(self) - self._coerce(other), self.modulus)

    def __rsub__(self, other) -> "Residue":
        return Residue(self._coerce(other) - int(self), self.modulus)

    def __mul__(self, other) -> "Residue":
        return Residue(int(self) * self._coerce(other), self.modulus)

    __rmul__ = __mul__

    def __neg__(self) -> "Residue":
        return Residue(-int(self), self.modulus)

    def __repr__(self) -> str:
        return "Residue(%d, mod %d)" % (int(self), self.modulus)


@dataclass(frozen=True)
class FpVector:
    """Exponent vector; slot i is a residue mod moduli[i]."""

    coords: tuple
    moduli: tuple

    def __post_init__(self):
        if len(self.coords) != len(self.moduli):
            raise ValueError("coords/moduli length mismatch")
        if any(m <= 0 for m in self.moduli):
            raise ValueError("moduli must be positive")
        reduced = tuple(int(c) % m for c, m in zip(self.coords, self.moduli))
        object.__setattr__(self, "coords", reduced)
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def residues(self) -> tuple:
        return tuple(Residue(c, m) for c, m in zip(self.coords, self.moduli))

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]


def fp_vector(coords: Sequence[int], p: int) -> FpVector:
    """Vector over F_p (uniform slot modulus)."""
    return FpVector(tuple(coords), (p,) * len(coords))


def zero_vector(k: int, p: int) -> FpVector:
    return FpVector((0,) * k, (p,) * k)


def basis_vector(i: int, k: int, p: int) -> FpVector:
    """The i-th standard basis vector, 0-based."""
    if not 0 <= i < k:
        raise IndexError("basis index %d out of range for dim %d" % (i, k))
    return FpVector(tuple(1 if j == i else 0 for j in range(k)), (p,) * k)


def vec_add(a: FpVector, b: FpVector) -> FpVector:
    if a.moduli != b.moduli:
        raise ValueError("vector moduli mismatch: %r vs %r" % (a.moduli, b.moduli))
    return FpVector(tuple(x + y for x, y in zip(a.coords, b.coords)), a.moduli)


def vec_neg(a: FpVector) -> FpVector:
    return FpVector(tuple(-x for x in a.coords), a.moduli)


def vec_scale(n: int, a: FpVector) -> FpVector:
    return FpVector(tuple(n * x for x in a.coords), a.moduli)


def vec_sub(a: FpVector, b: FpVector) -> FpVector:
    return vec_add(a, vec_neg(b))


@dataclass(frozen=True)
class FpMatrix:
    """k x k matrix over F_p, rows as tuples."""

    rows: tuple
    p: int

    def __post_init__(self):
        k = len(self.rows)
        rows = []
        for r in self.rows:
            if len(r) != k:
                raise ValueError("matrix is not square")
            rows.append(tuple(int(x) % self.p for x in r))
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def k(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> FpVector:
        return fp_vector([r[j] for r in self.rows], self.p)

    def is_invertible(self) -> bool:
        return _rank_mod_p([list(r) for r in self.rows], self.p) == self.k


def mat_apply(M: FpMatrix, v: FpVector) -> FpVector:
    if set(v.moduli) != {M.p} or v.dim != M.k:
        raise ValueError("matrix/vector mismatch")
    coords = tuple(sum(r[j] * v.coords[j] for j in range(M.k)) % M.p
                   for r in M.rows)
    return FpVector(coords, v.moduli)


def mat_mul(A: FpMatrix, B: FpMatrix) -> FpMatrix:
    if A.p != B.p or A.k != B.k:
        raise ValueError("matrix mismatch")
    k, p = A.k, A.p
    rows = tuple(tuple(sum(A.rows[i][t] * B.rows[t][j] for t in range(k)) % p
                       for j in range(k)) for i in range(k))
    return FpMatrix(rows, p)


def identity_matrix(k: int, p: int) -> FpMatrix:
    return FpMatrix(tuple(tuple(1 if i == j else 0 for j in range(k))
                          for i in range(k)), p)


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


def enumerate_invertible(k: int, p: int, max_k: int | None = None) -> Iterator[FpMatrix]:
    """Yield every invertible k x k matrix over F_p exactly once.

    Order is row-major lexicographic over all p^(k*k) matrices, filtered by
    invertibility, so searches that consume the stream are reproducible.
    The default size limits (k <= 5 for p = 2, k <= 4 for p = 3, k <= 3
    otherwise) exist because the stream is meant for brute-force searches;
    pass max_k to override.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    limit = max_k if max_k is not None else DEFAULT_ENUM_LIMITS.get(p, 3)
    if k > limit:
        raise ValueError(
            "enumerate_invertible: k=%d exceeds limit %d for p=%d "
            "(pass max_k to override)" % (k, limit, p))
    n = k * k
    for code in range(p ** n):
        digits = []
        c = code
        for _ in range(n):
            digits.append(c % p)
            c //= p
        digits.reverse()  # row-major lexicographic: first entry most significant
        rows = tuple(tuple(digits[r * k:(r + 1) * k]) for r in range(k))
        M = FpMatrix(rows, p)
        if M.is_invertible():
            yield M


def count_invertible(k: int, p: int) -> int:
    """|GL(k,p)| by the standard product formula."""
    n = 1
    for i in range(k):
        n *= p ** k - p ** i
    return n
