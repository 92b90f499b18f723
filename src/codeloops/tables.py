"""Bulk index tables for F_p^k (and mixed-radix) vector enumeration.

Vectors of dimension k are ranked lexicographically with the first
coordinate most significant: rank(v) = sum v_i * p^(k-1-i).  All bulk
machinery (Cayley tables, exhaustive identity scans) works on ranks, and
adds them without going back to vectors: by XOR when every slot has
order 2, digit by digit otherwise.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# The one bound on the entries of a full table or grid: every n x n table
# (the theta table, |C| <= 4096), n x n x n table (the associator table,
# order <= 256), exhaustive grid of |C|^arity tuples and classified state
# space holds at most this many.
MAX_ENTRIES = 1 << 24


@lru_cache(maxsize=8)
def vector_table(moduli: tuple) -> np.ndarray:
    """All vectors with the given slot moduli, one per row, in rank order;
    built once per moduli and read-only."""
    out = unrank_rows(np.arange(math.prod(moduli), dtype=np.int64), moduli)
    out.setflags(write=False)
    return out


def unrank_rows(ranks: np.ndarray, moduli: tuple,
                dtype=np.int64) -> np.ndarray:
    """The vector of each rank, as a row of dtype: shape ranks.shape + (k,)."""
    r = np.asarray(ranks, dtype=np.int64)
    out = np.empty(r.shape + (len(moduli),), dtype=dtype)
    for i in reversed(range(len(moduli))):
        r, out[..., i] = np.divmod(r, moduli[i])
    return out


def signed_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every integer in
    [-bound - 1, bound]: int8 up to 127.  Signed, so that a negated row
    stays negative (np.min_scalar_type of a nonnegative bound is
    unsigned, even at 0)."""
    return np.min_scalar_type(-bound - 1)


def place_values(moduli: tuple) -> np.ndarray:
    """The mixed-radix place values: rank(v) = v . place_values(moduli)
    for every reduced v."""
    return np.array([math.prod(moduli[i + 1:]) for i in range(len(moduli))],
                    dtype=np.int64)


def rank_rows(rows: np.ndarray, moduli: tuple) -> np.ndarray:
    """Rank of each row vector under the lexicographic convention."""
    k = len(moduli)
    r = np.zeros(rows.shape[:-1], dtype=np.int64)
    for i in range(k):
        r = r * moduli[i] + (rows[..., i] % moduli[i])
    return r


def reduce_mod(a: np.ndarray, m: int) -> np.ndarray:
    """a mod m in place, for an integer array and 0 < m that fits a's dtype;
    returns a.  Equal to a % m, negative entries included, but numpy's
    integer floor division by a scalar is several times faster than its
    remainder (numpy 2.4 on a shared 2-core VM, best of 5: a 27^3 int64
    associator block with negative entries 215 us by % against 43 us
    here; a 256 x 4096 theta-table chunk from the float GEMM, cast to
    uint8 and reduced, 4.0 ms against 0.85 ms).  Three ufunc calls cost
    more than one on a few entries, so single products keep %."""
    q = a // m
    q *= m
    a -= q
    return a


def rank_of(v, moduli: tuple) -> int:
    """Rank of one vector (a sequence of ints)."""
    r = 0
    for x, m in zip(v, moduli):
        r = r * m + int(x) % m
    return r


def unrank(r: int, moduli: tuple) -> tuple:
    """The vector of rank r."""
    return tuple(unrank_rows(r, moduli).tolist())


def add_index_table(moduli: tuple) -> np.ndarray:
    """n x n table: entry (a, b) is the rank of vector_a + vector_b,
    computed from the ranks alone.  Digit by digit, the carry mask is the
    only other n x n array, one byte per entry."""
    r = np.arange(int(np.prod(moduli, dtype=np.int64)), dtype=np.int64)
    if all(m == 2 for m in moduli):
        return np.bitwise_xor.outer(r, r)
    s = np.add.outer(r, r)  # take m off every digit that reaches m
    w = 1
    for m in reversed(moduli):
        d = (r // w % m).astype(np.min_scalar_type(m))
        # digit(a) + digit(b) >= m exactly when m - digit(a) <= digit(b)
        np.subtract(s, m * w, out=s, where=np.less_equal.outer(m - d, d))
        w *= m
    return s


@lru_cache(maxsize=8)
def index_tables(moduli: tuple) -> tuple:
    """(vector_table, add_index_table, rank of -v) for the moduli, built
    once per moduli and read-only.  The add table is n x n, so callers
    use this only for the small |C| they scan exhaustively."""
    V = vector_table(moduli)
    out = (V, add_index_table(moduli), rank_rows(-V, moduli))
    for a in out[1:]:
        a.setflags(write=False)
    return out
