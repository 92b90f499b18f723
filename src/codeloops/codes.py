"""Doubly even binary codes and their coded vector spaces.

A doubly even code C (all weights divisible by 4) induces a CVS over F_2:

    sigma(c) = wt(c)/4 mod 2
    chi(c,d) = wt(c & d)/2 mod 2
    alpha(c,d,e) = wt(c & d & e) mod 2

and conversely every CVS over F_2 arises this way; cvs_to_code realizes
the constructive direction block by block.

Codewords are packed into Python ints, bit i = coordinate i; popcount is
the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cvs import Cvs, body_lines, cvs_new, pair_list, triple_list


@dataclass(frozen=True)
class BinaryCode:
    """Binary linear code given by independent generator rows."""

    length: int
    generators: tuple  # packed ints, bit i = coordinate i

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be >= 0")
        for g in self.generators:
            if g < 0 or g >> self.length:
                raise ValueError("generator does not fit in length %d" % self.length)
        if _gf2_rank(list(self.generators)) != len(self.generators):
            raise ValueError("generator rows are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.generators)

    def codewords(self) -> list:
        """All 2^m codewords in generator-subset order (word 0 first)."""
        words = [0]
        for g in self.generators:
            words += [w ^ g for w in words]
        return words

    def row_string(self, g: int) -> str:
        return "".join("1" if (g >> i) & 1 else "0" for i in range(self.length))


def _gf2_rank(rows: list) -> int:
    rank = 0
    pivots = []
    for r in rows:
        for p in pivots:
            r = min(r, r ^ p)
        if r:
            pivots.append(r)
            pivots.sort(reverse=True)
            rank += 1
    return rank


def weight(c: int) -> int:
    return c.bit_count()


def intersect2(c: int, d: int) -> int:
    return (c & d).bit_count()


def intersect3(c: int, d: int, e: int) -> int:
    return (c & d & e).bit_count()


_CROSS_CHECK_MAX = 1 << 16  # largest code enumerated to cross-check


def is_doubly_even(C: BinaryCode) -> bool:
    """Basis criterion: wt(g_i) = 0 mod 4 and wt(g_i & g_j) = 0 mod 2.

    Cross-checked by exhaustive enumeration when 2^dim is small enough;
    disagreement would be a hard internal error.
    """
    gens = C.generators
    by_basis = all(weight(g) % 4 == 0 for g in gens) and all(
        intersect2(gens[i], gens[j]) % 2 == 0
        for i in range(len(gens)) for j in range(i + 1, len(gens)))
    if 2 ** C.dim <= _CROSS_CHECK_MAX:
        exhaustive = bool((codeword_weights(C) % 4 == 0).all())
        if exhaustive != by_basis:
            raise AssertionError("doubly-even basis criterion disagrees with "
                                 "exhaustive enumeration")
    return by_basis


def code_to_cvs(C: BinaryCode) -> Cvs:
    """The CVS of a doubly even code, basis value tables from the generators."""
    if not is_doubly_even(C):
        raise ValueError("code is not doubly even")
    gens = C.generators
    k = len(gens)
    sigma = [(weight(g) // 4) % 2 for g in gens]
    chi = {(i, j): (intersect2(gens[i], gens[j]) // 2) % 2
           for i, j in pair_list(k)}
    alpha = {(i, j, l): intersect3(gens[i], gens[j], gens[l]) % 2
             for i, j, l in triple_list(k)}
    return cvs_new(2, k, sigma, chi, alpha)


# The two correction block patterns from the constructive proof, written
# as printed there: one 14-column pair block adds 1 to chi_im and nothing
# else; one 13-column triple block adds 1 to alpha_ijm and nothing else.
_CHI_BLOCK_I = "11111111000000"
_CHI_BLOCK_M = "00000011111111"
_ALPHA_BLOCK_I = "1111000111100"
_ALPHA_BLOCK_J = "1111111000010"
_ALPHA_BLOCK_M = "1000111111001"


def _bits(s: str, offset: int) -> int:
    v = 0
    for t, ch in enumerate(s):
        if ch == "1":
            v |= 1 << (offset + t)
    return v


def cvs_to_code(V: Cvs) -> BinaryCode:
    """Constructive inverse of code_to_cvs for p = 2.

    Processes basis vectors in index order; for basis vector m it appends
    an 8-column (sigma_m = 0) or 4-column (sigma_m = 1) block on row m,
    then a 14-column block per i < m with chi_im = 1, then a 13-column
    block per pair i < j < m with alpha_ijm = 1.  The resulting code is
    doubly even and code_to_cvs returns V exactly, same basis order.
    """
    if V.p != 2:
        raise ValueError("cvs_to_code requires p = 2")
    k, X, A = V.k, V.forms.X, V.forms.A
    rows = [0] * k
    pos = 0
    for m in range(k):
        if V.sigma_basis[m] == 0:
            rows[m] |= _bits("11111111", pos)
            pos += 8
        else:
            rows[m] |= _bits("1111", pos)
            pos += 4
        for i in range(m):
            if X[i, m]:
                rows[i] |= _bits(_CHI_BLOCK_I, pos)
                rows[m] |= _bits(_CHI_BLOCK_M, pos)
                pos += 14
        for i in range(m):
            for j in range(i + 1, m):
                if A[i, j, m]:
                    rows[i] |= _bits(_ALPHA_BLOCK_I, pos)
                    rows[j] |= _bits(_ALPHA_BLOCK_J, pos)
                    rows[m] |= _bits(_ALPHA_BLOCK_M, pos)
                    pos += 13
    return BinaryCode(pos, tuple(rows))


def builtin_hamming734() -> BinaryCode:
    """The [7,3,4] simplex code; every nonzero codeword has weight 4."""
    gens = tuple(_bits(s, 0) for s in ("1110100", "0111010", "0011101"))
    C = BinaryCode(7, gens)
    assert all(weight(w) == 4 for w in C.codewords() if w), \
        "hamming [7,3,4] self-check failed"
    return C


def _golay23_generator_poly() -> int:
    """Smallest degree-11 divisor of x^23 + 1 over F_2, found by search.

    Polynomials are bitmasks (bit i = coefficient of x^i).  The quotient
    x^23+1 = (x+1) g(x) h(x) with g of degree 11 is what makes the cyclic
    [23,12] Golay code exist; no table of coefficients is trusted here.
    """
    target = (1 << 23) | 1
    for cand in range(1 << 11 | 1, 1 << 12, 2):  # monic deg 11, constant term 1
        poly = cand | (1 << 11)
        if _polydivmod(target, poly)[1] == 0:
            return poly
    raise AssertionError("no degree-11 divisor of x^23+1 found")


def _polydivmod(a: int, b: int) -> tuple:
    """Quotient and remainder of GF(2)[x] division, ints as bitmasks."""
    q = 0
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


_GOLAY_CACHE: list = []


def builtin_golay24() -> BinaryCode:
    """The extended binary Golay code [24,12,8].

    Built from the cyclic [23,12] code of the computed degree-11 generator
    polynomial, each row extended by an overall parity bit, then verified:
    dimension 12, doubly even, weight distribution
    (0:1, 8:759, 12:2576, 16:759, 24:1).  The verification recomputes the
    distribution over all 4096 words; nothing is taken on faith.
    """
    if _GOLAY_CACHE:
        return _GOLAY_CACHE[0]
    g = _golay23_generator_poly()
    rows = []
    for i in range(12):
        r = g << i  # g(x) * x^i, still degree < 23
        if weight(r) % 2:
            r |= 1 << 23
        rows.append(r)
    C = BinaryCode(24, tuple(rows))
    words = C.codewords()
    if len(words) != 4096:
        raise AssertionError("golay: wrong dimension")
    dist: dict = {}
    for w in words:
        dist[weight(w)] = dist.get(weight(w), 0) + 1
    if dist != {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}:
        raise AssertionError("golay: weight distribution check failed: %r" % dist)
    if not is_doubly_even(C):
        raise AssertionError("golay: not doubly even")
    _GOLAY_CACHE.append(C)
    return C


def parse_code(text: str) -> BinaryCode:
    """Parse the code text format ('code' header, then one 0/1 row per
    generator, '#' comments)."""
    rows, length = [], None
    for lineno, line in body_lines(text, "code"):
        for col, ch in enumerate(line, start=1):
            if ch not in "01":
                raise ValueError("line %d, column %d: invalid character %r "
                                 "(rows must be 0/1 strings)" % (lineno, col, ch))
        if length is None:
            length = len(line)
        elif len(line) != length:
            raise ValueError("line %d: ragged row (length %d, expected %d)"
                             % (lineno, len(line), length))
        rows.append(_bits(line, 0))
    if length is None:
        raise ValueError("code has no generator rows")
    return BinaryCode(length, tuple(rows))


def emit_code(C: BinaryCode) -> str:
    out = ["code"] + [C.row_string(g) for g in C.generators]
    return "\n".join(out) + "\n"


def codeword_weights(C: BinaryCode) -> np.ndarray:
    """Weights of all codewords via numpy popcount, in subset order (that
    of codewords): each word is a row of 64-bit limbs, and the rows are
    doubled by XOR with each generator in turn."""
    limbs = max(1, -(-C.length // 64))
    words = np.zeros((1, limbs), dtype=np.uint64)
    for g in C.generators:
        row = np.array([g >> (64 * i) & (2 ** 64 - 1) for i in range(limbs)],
                       dtype=np.uint64)
        words = np.concatenate([words, words ^ row])
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
