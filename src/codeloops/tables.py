"""Bulk index tables for F_p^k (and mixed-radix) vector enumeration.

Vectors of dimension k are ranked lexicographically with the first
coordinate most significant: rank(v) = sum v_i * p^(k-1-i).  All bulk
machinery (Cayley tables, exhaustive identity scans) works on ranks, and
adds them without going back to vectors: by XOR when every slot has
order 2, digit by digit otherwise.
"""

from __future__ import annotations

import numpy as np


def vector_table(moduli: tuple) -> np.ndarray:
    """All vectors with the given slot moduli, one per row, in rank order."""
    k = len(moduli)
    n = 1
    for m in moduli:
        n *= m
    out = np.zeros((n, k), dtype=np.int64)
    rep = n
    for i, m in enumerate(moduli):
        rep //= m
        tile = n // (rep * m)
        col = np.repeat(np.arange(m, dtype=np.int64), rep)
        out[:, i] = np.tile(col, tile)
    return out


def rank_rows(rows: np.ndarray, moduli: tuple) -> np.ndarray:
    """Rank of each row vector under the lexicographic convention."""
    k = len(moduli)
    r = np.zeros(rows.shape[:-1], dtype=np.int64)
    for i in range(k):
        r = r * moduli[i] + (rows[..., i] % moduli[i])
    return r


def rank_of(v, moduli: tuple) -> int:
    """Rank of one vector (a sequence of ints)."""
    r = 0
    for x, m in zip(v, moduli):
        r = r * m + int(x) % m
    return r


def unrank(r: int, moduli: tuple) -> tuple:
    """The vector of rank r."""
    out = []
    for m in reversed(moduli):
        out.append(r % m)
        r //= m
    return tuple(reversed(out))


def add_index_table(moduli: tuple) -> np.ndarray:
    """n x n table: entry (a, b) is the rank of vector_a + vector_b,
    computed from the ranks alone."""
    r = np.arange(int(np.prod(moduli, dtype=np.int64)), dtype=np.int64)
    a, b = r[:, None], r[None, :]
    if all(m == 2 for m in moduli):
        return a ^ b
    s = a + b  # digitwise sums; take m off every digit that reaches m
    w = 1
    for m in reversed(moduli):
        s = s - (a // w % m + b // w % m >= m) * (m * w)
        w *= m
    return s


def neg_index(moduli: tuple) -> np.ndarray:
    V = vector_table(moduli)
    return rank_rows(-V, moduli)
