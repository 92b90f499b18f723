"""Coded vector spaces: (C, sigma, chi, alpha) over F_p with Z of order p.

A CVS is determined by free basis data: sigma_i on basis vectors, chi_ij
for i < j, alpha_ijl for i < j < l, all values in Z stored additively as
residues mod p.  The evaluators extend the basis data to all of C:

  alpha: the alternating trilinear extension (uniform in p; for p = 2 the
         signs vanish and this is the symmetric sum over distinct triples)
  chi:   for p > 2 the alternating bilinear extension; for p = 2 the
         quadratic closed form with alpha correction terms
  sigma: for p > 2 the linear extension; for p = 2 the closed form
         sigma(c) = sum c_i sigma_i + sum_{i<j} c_i c_j chi_ij
                    + sum_{i<j<l} c_i c_j c_l alpha_ijl

For p > 3 the axioms force alpha = 0 (alpha has exponent dividing both 6
and p), and construction rejects nonzero alpha.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .modular import enumerate_invertible, nullspace_mod_p, row_reduce
from .tables import (MAX_ENTRIES, index_tables, rank_rows, reduce_mod,
                     signed_dtype, unrank, unrank_rows)

_CHECK_CHUNK = 1 << 21  # tuples one identity check handles at a time
DEFAULT_VALIDATE_BUDGET = 3 ** 7


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def pair_list(k: int) -> list:
    return list(itertools.combinations(range(k), 2))


def triple_list(k: int) -> list:
    return list(itertools.combinations(range(k), 3))


@dataclass(frozen=True)
class Cvs:
    """Coded vector space over F_p, dimension k, basis tables as flat tuples.

    chi_flat follows pair_list(k) order, alpha_flat follows triple_list(k)
    order.  Use cvs_new to construct; it validates the data.
    """

    p: int
    k: int
    sigma_basis: tuple
    chi_flat: tuple
    alpha_flat: tuple

    @property
    def size(self) -> int:
        return self.p ** self.k

    @cached_property
    def forms(self) -> "Forms":
        """The row evaluators of sigma, chi and alpha."""
        return Forms(self.p, (self.p,) * self.k, self.p, self.sigma_basis,
                     *signed_forms(self.k, self.p, self.chi_flat,
                                   self.alpha_flat))

    def __repr__(self) -> str:
        return "Cvs(p=%d, k=%d, sigma=%r, chi=%r, alpha=%r)" % (
            self.p, self.k, self.sigma_basis, self.chi_flat, self.alpha_flat)


def signed_forms(k: int, modulus: int, chi_flat, alpha_flat) -> tuple:
    """(X, A) from flat basis data: the chi matrix with X[j,i] = -X[i,j]
    and the alternating alpha tensor, entries reduced mod modulus."""
    X = np.zeros((k, k), dtype=np.int64)
    for (i, j), v in zip(pair_list(k), chi_flat):
        X[i, j] = v % modulus
        X[j, i] = -v % modulus
    A = np.zeros((k, k, k), dtype=np.int64)
    for (i, j, l), v in zip(triple_list(k), alpha_flat):
        for perm, sign in (((i, j, l), 1), ((j, l, i), 1), ((l, i, j), 1),
                           ((j, i, l), -1), ((i, l, j), -1), ((l, j, i), -1)):
            A[perm] = sign * v % modulus
    return X, A


@dataclass(frozen=True)
class CvsIso:
    """An isomorphism up to scalar: c -> Mc on C, z -> a*z on Z, with M
    a tuple of row tuples."""

    matrix: tuple
    scalar: int


def cvs_new(p: int, k: int, sigma_basis=None, chi_basis=None,
            alpha_basis=None) -> Cvs:
    """Build a CVS from free basis data.

    sigma_basis: sequence of k values (default all 0).
    chi_basis: mapping (i, j) -> value with 0 <= i < j < k (default empty).
    alpha_basis: mapping (i, j, l) -> value with i < j < l (default empty).
    Values are residues mod p.  For p > 3, nonzero alpha is rejected: the
    axioms force alpha to have exponent dividing 6, and Z has order p.
    """
    if not is_prime(p):
        raise DataError("p", "p must be prime, got %r" % (p,))
    if k < 0:
        raise DataError("k", "dimension must be >= 0")
    chi = place_entries(k, 2, chi_basis or {}, p, "chi")
    alpha = place_entries(k, 3, alpha_basis or {}, p, "alpha")
    sigma = tuple(int(v) % p for v in (sigma_basis or (0,) * k))
    if len(sigma) != k:
        raise ValueError("sigma_basis must have length k=%d" % k)
    if p > 3 and any(alpha):
        key = next(key for key, v in alpha_basis.items() if int(v) % p)
        raise DataError(("alpha", key), "alpha must vanish for p > 3 "
                        "(alpha has exponent dividing 6)")
    return Cvs(p, k, sigma, chi, alpha)


class DataError(ValueError):
    """A ValueError about one item of basis data, so that a parser can name
    the line it read the item from (see located).  item is 'p', 'k',
    'orders', 'zorder', or (directive, 0-based index tuple) for an entry."""

    def __init__(self, item, message: str):
        super().__init__(message)
        self.item = item


def located(build, lines: dict):
    """build(), with a DataError about an item read on line N raised again
    as 'line N: ...'; lines maps each item to its line number."""
    try:
        return build()
    except DataError as e:
        if e.item not in lines:
            raise
        raise ValueError("line %d: %s" % (lines[e.item], e)) from None


def place_entries(k: int, r: int, entries: dict, modulus: int,
                  name: str) -> tuple:
    """The C(k, r) residues mod modulus of a map from strictly increasing
    0-based index r-tuples to values, in itertools.combinations order
    (pair_list for r = 2, triple_list for r = 3); absent tuples are 0.

    Refuses k^3 > MAX_ENTRIES, since the alpha tensor of Forms holds k^3
    entries.  A tuple c sits at C(k, r) - 1 - sum_t C(k - 1 - c_t, r - t),
    the number of tuples after it subtracted from the last position."""
    if k ** 3 > MAX_ENTRIES:
        raise DataError("k", "dimension %d too large: the alpha tensor "
                        "would hold k^3 > %d entries" % (k, MAX_ENTRIES))
    n = math.comb(k, r)
    out = [0] * n
    for key, v in entries.items():
        if not (len(key) == r and 0 <= key[0] and key[-1] < k and all(
                a < b for a, b in zip(key, key[1:]))):
            raise DataError((name, key),
                            "%s key %r out of range (need 0 <= %s < %d)"
                            % (name, key, " < ".join("ijl"[:r]), k))
        out[n - 1 - sum(math.comb(k - 1 - c, r - t)
                        for t, c in enumerate(key))] = int(v) % modulus
    return tuple(out)


def octonion_cvs() -> Cvs:
    """p=2, dim 3, all seven defining values equal 1; the CVS of the
    Hamming [7,3,4] code, whose coded extension is the octonion loop."""
    return cvs_new(2, 3, sigma_basis=(1, 1, 1),
                   chi_basis={(0, 1): 1, (0, 2): 1, (1, 2): 1},
                   alpha_basis={(0, 1, 2): 1})


# -- form evaluators (numpy, n vectors at a time) -------------------------
#
# One family serves CVSs and coded modules, since a CVS is the coded module
# with every slot order q and |Z| equal to p.  On rows F, G, H a quadratic
# term is rowdot(F @ M, G) and a cubic term is
# rowdot(outer_matmul(F, G, A.reshape(k*k, k)), H): the contraction with
# F is one GEMM, and G multiplies its rows one k x k block at a time, so
# the n x k^2 outer product of F and G is never formed.
#
# Exactness: every product runs in floats, so that it goes through BLAS
# (numpy has none for integers).  Rows are reduced into [0, q) and every
# coefficient into [0, |Z|), so each partial sum is a nonnegative integer
# below 3 k^3 q^3 |Z|.  Forms takes the float dtype exact_float picks for
# that bound, and so refuses data for which it reaches 2^53.

def exact_float(bound: int, what: str) -> type:
    """The float dtype for a product whose partial sums are nonnegative
    integers below bound: float32 below 2^24 and float64 below 2^53, where
    each holds every integer exactly; ValueError naming what beyond."""
    if bound < 2 ** 24:
        return np.float32
    if bound < 2 ** 53:
        return np.float64
    raise ValueError("%s not exact in float64: sums may reach %d >= 2^53"
                     % (what, bound))


_BLOCK_ENTRIES = 1 << 18  # entries of the largest temporary per block


def outer_matmul(F: np.ndarray, G: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Rows of sum_{i,j} F[n, i] G[n, j] T[i*kg + j], with kg = G.shape[1]:
    the product of the row-wise outer products of F and G with T, GEMM
    first.  P = F @ T as a k x (kg m) matrix, then each row G[n] times
    P[n] as a kg x m matrix; every shape is explicit, so n = 0 works."""
    n, k, kg, m = len(F), F.shape[1], G.shape[1], T.shape[1]
    P = (F @ T.reshape(k, kg * m)).reshape(n, kg, m)
    return (G.reshape(n, 1, kg) @ P).reshape(n, m)


def rowdot(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", F, G)


class Forms:
    """sigma, chi and alpha on rows of vectors, extended as in the module
    docstring from flat basis data: the prime p, the slot orders q_i, the
    modulus |Z|, the sigma (or z) values, the signed chi matrix X and the
    alternating alpha tensor A.  For p = 2, chi(c, d) is c X d plus
    sum_{i<j} c_i c_j d_m A_ijm + sum_{j<m} c_i d_j d_m A_ijm."""

    def __init__(self, p: int, orders: tuple, modulus: int, sigma, X, A):
        k = len(orders)
        q = max(orders, default=1)
        self._float = fl = exact_float(3 * k ** 3 * q ** 3 * modulus,
                                       "forms (3 k^3 q^3 |Z|)")
        self.p, self.orders, self.modulus = p, tuple(orders), modulus
        self._orders = np.array(orders, dtype=np.int64)
        # integer rows at least this wide hold every slot order
        self._row_bytes = signed_dtype(q).itemsize
        self._q = orders[0] if len(set(orders)) == 1 else None
        self.sigma_basis = np.asarray(sigma, dtype=np.int64) % modulus
        self.X = X = np.asarray(X, dtype=np.int64) % modulus
        self.A = A = np.asarray(A, dtype=np.int64).reshape(k, k, k) % modulus
        lt = np.less.outer(np.arange(k), np.arange(k))  # lt[a, b] = a < b

        def cubic(T):  # (k*k, k) coefficients, or None for a vanishing term
            # count_nonzero, not T.any(): Forms is rebuilt per isotope
            return (T.reshape(k * k, k).astype(fl) if np.count_nonzero(T)
                    else None)

        self._s = self.sigma_basis.astype(fl)
        self._X = X.astype(fl)
        self._A = cubic(A)
        self._sX = self._sA = self._cc = self._dd = None
        if p == 2:
            self._sX = np.where(lt, X, 0).astype(fl)  # i < j
            self._sA = cubic(np.where(lt[:, :, None] & lt[None, :, :], A, 0))
            self._cc = cubic(np.where(lt[:, :, None], A, 0))  # c_i c_j d_m
            self._dd = cubic(np.where(lt[:, :, None],  # d_j d_m c_i
                                      A.transpose(1, 2, 0), 0))
        # rows per block, so that the widest temporary stays bounded: the
        # k^2-wide F @ T of a cubic term when one is built, else k-wide rows
        cubics = (self._A, self._sA, self._cc, self._dd)
        width = k * k if any(T is not None for T in cubics) else k
        self._step = max(1, _BLOCK_ENTRIES // max(1, width))

    def chi_shifted(self, S) -> "Forms":
        """The same forms with the chi matrix X replaced by X + S."""
        return Forms(self.p, self.orders, self.modulus, self.sigma_basis,
                     self.X + S, self.A)

    def _rows(self, V) -> np.ndarray:
        """Rows reduced into [0, q), by the one slot order when there is
        one (as in every CVS), in the exact float dtype.  The reduction
        runs on a copy, in the rows' own signed integer dtype when it holds
        every slot order (sampled rows are int8 or int16), else in int64."""
        V = np.asarray(V)
        narrow = V.dtype.kind == "i" and V.itemsize >= self._row_bytes
        V = np.array(V, dtype=V.dtype if narrow else np.int64)
        V = (V % self._orders.astype(V.dtype) if self._q is None
             else reduce_mod(V, self._q))
        return V.astype(self._float)

    def _reduce(self, out: np.ndarray) -> np.ndarray:
        return reduce_mod(out.astype(np.int64), self.modulus)

    def _blocks(self, fn, *rows) -> np.ndarray:
        """fn on float rows, one block of at most self._step rows at a time."""
        rows = [np.asarray(R) for R in rows]
        return np.concatenate([
            fn(*(self._rows(R[lo:lo + self._step]) for R in rows))
            for lo in range(0, max(len(rows[0]), 1), self._step)])

    def sigma(self, V) -> np.ndarray:
        return self._reduce(self._blocks(self._sigma, V))

    def chi(self, C, D) -> np.ndarray:
        return self._reduce(self._blocks(self._chi, C, D))

    def alpha(self, C, D, E) -> np.ndarray:
        if self._A is None:  # alpha vanishes
            return np.zeros(len(C), dtype=np.int64)
        return self._reduce(self._blocks(
            lambda c, d, e: rowdot(outer_matmul(c, d, self._A), e), C, D, E))

    def chi_table(self, U, W) -> np.ndarray:
        """chi(u, w) for every pair of rows, as a len(U) x len(W) matrix."""
        U, W = self._rows(U), self._rows(W)
        out = self._chi_left(U) @ W.T
        if self._dd is not None:
            out += U @ outer_matmul(W, W, self._dd).T
        return self._reduce(out)

    def alpha_block(self, U, V, W=None) -> np.ndarray:
        """alpha(u, v, w) for u in U, v in V and w in W (default V), as
        len(U) x len(V) x len(W)."""
        U, V = self._rows(U), self._rows(V)
        W = V if W is None else self._rows(W)
        if self._A is None:  # alpha vanishes
            return np.zeros((len(U), len(V), len(W)), dtype=np.int64)
        k = V.shape[1]
        # P[u, j, m] = alpha(u, x_j, x_m), so alpha(u, v, w) = v P[u] w
        P = (U @ self._A.reshape(k, k * k)).reshape(len(U), k, k)
        return self._reduce((V @ P) @ W.T)

    # -- one block of float rows --

    def _sigma(self, V):
        out = V @ self._s
        if self._sX is not None:
            out += rowdot(V @ self._sX, V)
        if self._sA is not None:
            out += rowdot(outer_matmul(V, V, self._sA), V)
        return out

    def _chi_left(self, C):
        """Rows L(c) with chi(c, d) = L(c) . d + (the d_j d_m c_i term)."""
        left = C @ self._X
        if self._cc is not None:
            left += outer_matmul(C, C, self._cc)
        return left

    def _chi(self, C, D):
        out = rowdot(self._chi_left(C), D)
        if self._dd is not None:
            out += rowdot(outer_matmul(D, D, self._dd), C)
        return out


# -- public single-vector evaluators ---------------------------------------

def as_rows(F: Forms, *vs) -> list:
    """Each int vector in vs as a one-row array; ValueError unless it has
    one coordinate per slot of F (k for a CVS or a coded module)."""
    rows = [np.array([v], dtype=np.int64) for v in vs]
    k = len(F.orders)
    if any(row.shape != (1, k) for row in rows):
        raise ValueError("vector does not live in C: need %d coordinates" % k)
    return rows


def eval_sigma(C: Cvs, c) -> int:
    return int(C.forms.sigma(*as_rows(C.forms, c))[0])


def eval_chi(C: Cvs, c, d) -> int:
    return int(C.forms.chi(*as_rows(C.forms, c, d))[0])


def eval_alpha(C: Cvs, c, d, e) -> int:
    return int(C.forms.alpha(*as_rows(C.forms, c, d, e))[0])


# -- axiom validation --------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    mode: str  # 'exhaustive' or 'sampled'
    ok: bool
    witness: Optional[tuple] = None

    def __str__(self) -> str:
        s = "%s: %s (%s)" % (self.name, "pass" if self.ok else "FAIL", self.mode)
        if self.witness is not None:
            s += " witness=%r" % (self.witness,)
        return s


@dataclass
class ValidationReport:
    ok: bool
    checks: list = field(default_factory=list)

    def lines(self) -> list:
        return [str(c) for c in self.checks]

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]


def validate_axioms(C: Cvs, budget: int = DEFAULT_VALIDATE_BUDGET,
                    seed: int = 0, samples: int = 20000) -> ValidationReport:
    """Check every CVS identity, on all tuples when |C| is within the
    budget and |C|^arity <= MAX_ENTRIES, otherwise on seeded random tuples.

    Each check reports its mode and, on failure, a witness tuple of int
    vectors: the first failing tuple in grid or sample order.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1, got %r" % (samples,))
    n, tab = C.size, C.size <= budget
    elem, identities = _identities(C, tab)
    checks, rng = [], None
    for name, arity, check in identities:
        if tab and n ** arity <= MAX_ENTRIES:
            mode, tuples = "exhaustive", _grid(n, arity)
        else:
            if rng is None:  # loading numpy.random costs about 6 MB
                rng = np.random.default_rng(seed)
            # ranks above 2^63 overflow int64: draw rows digit by digit
            sample = (rng.integers(0, n, size=(arity, samples))
                      if n - 1 <= np.iinfo(np.int64).max
                      else rng.integers(0, C.p, size=(arity, samples, C.k)))
            mode, tuples = "sampled", np.split(
                sample, range(_CHECK_CHUNK, samples, _CHECK_CHUNK), axis=1)
        checks.append(_scan(name, mode, check, tuples, elem, C))
    return ValidationReport(all(ch.ok for ch in checks), checks)


def _grid(n: int, arity: int):
    """All n^arity rank tuples in C order: open meshes of aranges over runs
    of first ranks that hold at most _CHECK_CHUNK tuples (or one)."""
    step = max(1, _CHECK_CHUNK // n ** (arity - 1))
    for lo in range(0, n, step):
        yield np.ix_(np.arange(lo, min(lo + step, n)),
                     *[np.arange(n)] * (arity - 1))


def _scan(name: str, mode: str, check, tuples, elem, C: Cvs) -> CheckResult:
    """Run check on each chunk of rank arrays (or sampled rows) in turn,
    each converted by elem once; the witness is the first failing tuple in
    C order."""
    for idx in tuples:
        bad = check(*(elem(i) for i in idx))
        if bad.any():
            w = int(np.argmax(bad))
            return CheckResult(name, mode, False, tuple(
                tuple(int(x) for x in i[w]) if np.ndim(i) > bad.ndim
                else unrank(int(np.broadcast_to(i, bad.shape).flat[w]),
                            (C.p,) * C.k) for i in idx))
    return CheckResult(name, mode, True)


def _identities(C: Cvs, tab: bool) -> tuple:
    """(elem, identities): elem turns an array of ranks into elements, and
    each identity is (name, arity, check), in reporting order, where check
    takes one element per free vector and returns the mask of the tuples
    that fail."""
    p, k, F = C.p, C.k, C.forms
    moduli = (p,) * k
    # Five primitives serve both representations of an element.  Within the
    # budget it is a rank, and every identity, exhaustive or sampled, is
    # gathers, broadcast over a chunk's rank arrays, from tables of sigma,
    # chi and AB[c, d, m] = alpha(c, d, x_m): alp reads alpha(c, d, e) =
    # alpha(d, e, c) as AB[d, e] . c, possibly unreduced, and every identity
    # reduces mod p.  Above the budget an element is a block of rows,
    # unranked once per chunk.
    if tab:
        V, add_rank, _ = index_tables(moduli)
        # entries are below p <= |C|: narrow tables, built a block of rows
        # at a time, and every gather is widened to int64 for arithmetic
        narrow, eye = np.min_scalar_type(p - 1), np.eye(k, dtype=np.int64)
        step = _CHECK_CHUNK // (len(V) * k or 1) + 1
        table = lambda fn: np.concatenate([fn(V[lo:lo + step]).astype(narrow)
                                           for lo in range(0, len(V), step)])
        S1, X2 = F.sigma(V), table(lambda U: F.chi_table(U, V))
        AB = table(lambda U: F.alpha_block(U, V, eye))
        scl_rank = rank_rows(np.arange(p)[:, None, None] * V, moduli)
        elem = lambda I: I
        sig = lambda c: S1[c]
        chi = lambda c, d: X2[c, d].astype(np.int64)
        add = lambda c, d: add_rank[c, d]
        scl = lambda m, c: scl_rank[m, c]
        alp = lambda c, d, e: np.einsum(
            "...m,...m->...", AB[d, e], V[c], dtype=np.int64)
    else:
        # samples of a |C| above 2^63 arrive as rows; either way an element
        # is a narrow row, which holds c + d and m c for digits m, c, d
        narrow = signed_dtype((p - 1) * max(p - 1, 2))
        elem = lambda I: (I.astype(narrow) if I.ndim == 2
                          else unrank_rows(I, moduli, narrow))
        sig, chi, alp = F.sigma, F.chi, F.alpha
        add = lambda c, d: (c + d) % p
        scl = lambda m, c: (m * c) % p

    def alphaskew(c, d, e):
        a = alp(c, d, e)
        return ((alp(d, e, c) - a) % p != 0) | ((alp(d, c, e) + a) % p != 0)

    zero = elem(np.zeros(1, dtype=np.int64))
    # Four more identities are implied by these on the same grid or cannot
    # fail, and are left to the tests (tests/oracles.py):
    #   - chi-polarization, sigma(c+d) = sigma(c) + sigma(d) + chi(c,d) at
    #     p = 2, is the expression of sigmalin at p = 2;
    #   - sigmapowerlin, sigma(m c) = m sigma(c), tests only m = 0 at p = 2,
    #     which is unit's sigma(0) = 0; at odd p it follows from sigmalin by
    #     induction on m, given that both run in the same mode, as they do
    #     for any budget up to 4096 (|C|^2 <= MAX_ENTRIES);
    #   - alphapowerlin, alpha(m c, d, e) = m alpha(c, d, e), holds for any
    #     tables: alp dots AB[d, e] with the coordinates of c, and F.alpha
    #     is an exact trilinear product of reduced rows;
    #   - alphamultilin, AB[d, e] . c = AB[c, d] . e, is the first equation
    #     of alphaskew at (e, c, d); on rows both its sides are F.alpha.
    # unit, chipowerlin and alphasymp stay: for 256 < |C| <= 2187 they run
    # exhaustively, where the arity-3 identities run on samples.
    identities = [
        # identity element facts: sigma(0) = 0, chi(c,0) = 0, alpha(c,d,0) = 0
        ("unit (sigma(0), chi(c,0))", 1,
         lambda c: (sig(zero)[0] != 0) | (chi(c, scl(0, c)) != 0)),
        ("unit (alpha(c,d,0))", 2,
         lambda c, d: alp(c, d, scl(0, c)) % p != 0),
        # sigma(c+d) = sigma(c) + sigma(d) [+ chi(c,d) when p = 2]
        ("sigmalin", 2, lambda c, d: (sig(add(c, d)) - sig(c) - sig(d)
                                      - (chi(c, d) if p == 2 else 0)) % p != 0),
        # chi(c,c) = 0 and chi(c,d) = -chi(d,c)
        ("chisymp", 1, lambda c: chi(c, c) != 0),
        ("chiskew", 2, lambda c, d: (chi(c, d) + chi(d, c)) % p != 0),
        # chi(n c, d) = n chi(c, d), for every n in F_p but 1
        ("chipowerlin", 2, lambda c, d: np.any(
            [(chi(scl(m, c), d) - m * chi(c, d)) % p != 0
             for m in range(p) if m != 1], axis=0)),
        # chi(c+d, e) = chi(c,e) + chi(d,e) + 3 alpha(c,d,e)
        ("chimultilin", 3, lambda c, d, e: (chi(add(c, d), e) - chi(c, e)
                                            - chi(d, e) - 3 * alp(c, d, e))
         % p != 0),
        # alpha vanishes on repeated arguments
        ("alphasymp", 2, lambda c, d: (alp(c, c, d) % p != 0)
         | (alp(c, d, c) % p != 0) | (alp(d, c, c) % p != 0)),
        # alpha(c,d,e) = alpha(d,e,c) = -alpha(d,c,e)
        ("alphaskew", 3, alphaskew),
    ]
    return elem, identities


# -- radicals ----------------------------------------------------------------
#
# Both radicals are kernels over F_p, found by elimination at every |C| and
# returned as the rows of their reduced row echelon form.

def rad_alpha(C: Cvs) -> list:
    """Basis of {c : alpha(c,d,e) = 0 for all d,e}.  alpha is trilinear,
    so that is {c : sum_i c_i A[i, j, l] = 0 for all j, l}."""
    k = C.k
    return [tuple(r) for r in nullspace_mod_p(C.forms.A.reshape(k, k * k).T,
                                              C.p)]


def rad_chi(C: Cvs) -> list:
    """Basis of {c : chi(c,d) = 0 for all d}.

    For odd p, chi(c, d) = c X d, and this is the kernel of X^T.  For p = 2
    chi is not bilinear, but rad chi lies in rad alpha, and on rad alpha
    it is the kernel of the linear map c -> (chi(x_i, c))_i.  Proof, with
    chimultilin chi(c + d, e) = chi(c, e) + chi(d, e) + 3 alpha(c, d, e),
    where 3 alpha = alpha since 2 alpha = 0 over F_2, chiskew and the
    cyclic symmetry of alpha:
      - if chi(c, .) = 0 then chi(., c) = 0 by chiskew, so
        0 = chi(d + e, c) = alpha(d, e, c) = alpha(c, d, e) for all d, e:
        c lies in rad alpha;
      - for c in rad alpha, alpha(d, e, c) = 0 makes d -> chi(d, c)
        additive, hence linear over F_2, so chi(., c) = 0 exactly when
        chi(x_i, c) = 0 for every basis vector x_i, and chi(c, .) = 0
        then too by chiskew;
      - for c, c' in rad alpha, chi(x_i, c + c') = chi(x_i, c)
        + chi(x_i, c') because chi(c + c', x_i) expands with the vanishing
        alpha(c, c', x_i): the map is linear on rad alpha.
    So with B a basis of rad alpha, rad chi = {t B : sum_j t_j chi(x_i,
    b_j) = 0 for all i}."""
    p, F = C.p, C.forms
    if p != 2:
        return [tuple(r) for r in nullspace_mod_p(F.X.T, p)]
    rad = rad_alpha(C)
    if not rad:
        return []
    B = np.array(rad, dtype=np.int64)
    N = F.chi_table(np.eye(C.k, dtype=np.int64), B)  # N[i, j] = chi(x_i, b_j)
    T = np.array(nullspace_mod_p(N, p), dtype=np.int64).reshape(-1, len(B))
    return [tuple(r) for r in row_reduce(T @ B, p)]


# -- adjoint translates and isomorphism --------------------------------------

def adjoint_translate(C: Cvs, kvec) -> Cvs:
    """adt_k(C): chi(c,d) shifted to chi(c,d) + alpha(c,k,d); sigma, alpha kept.

    kvec is any sequence of k ints.  Defined for every p.  The output is
    not validated: it keeps the alpha of C, and when C is a CVS so is all
    basis data with that alpha (for p = 2, cvs_to_code builds a doubly even
    code for any basis data)."""
    kk = np.array(kvec, dtype=np.int64)
    if kk.shape != (C.k,):
        raise ValueError("translate vector has wrong dimension")
    X = (C.forms.X + np.einsum("m,imj->ij", kk, C.forms.A)) % C.p
    return Cvs(C.p, C.k, C.sigma_basis,
               tuple(X[np.triu_indices(C.k, 1)].tolist()), C.alpha_flat)


def pullback_tables(C: Cvs, rows) -> tuple:
    """(sigma, chi, alpha) basis tables of the pullback along e_i -> rows[i],
    in pair_list and triple_list order."""
    rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), C.k)
    pl = np.array(pair_list(len(rows)), dtype=np.int64).reshape(-1, 2).T
    tl = np.array(triple_list(len(rows)), dtype=np.int64).reshape(-1, 3).T
    F = C.forms
    return (tuple(F.sigma(rows).tolist()), tuple(F.chi(*rows[pl]).tolist()),
            tuple(F.alpha(*rows[tl]).tolist()))


def transform(C: Cvs, M) -> Cvs:
    """The CVS with basis data pulled back along the matrix M, given as
    rows (basis e_i -> M e_i, column i of M)."""
    return Cvs(C.p, C.k, *pullback_tables(C, np.transpose(M)))


def scale_cvs(C: Cvs, a: int) -> Cvs:
    """Scalar action on Z: multiply every basis value by a."""
    a = a % C.p
    return Cvs(C.p, C.k,
               tuple((a * v) % C.p for v in C.sigma_basis),
               tuple((a * v) % C.p for v in C.chi_flat),
               tuple((a * v) % C.p for v in C.alpha_flat))


def iso_up_to_scalar(A: Cvs, B: Cvs) -> Optional[CvsIso]:
    """Search for (M, a) with sigma_B(Mc) = a sigma_A(c), chi_B(M.,M.) =
    a chi_A, alpha_B(M.,M.,M.) = a alpha_A.

    Checking on basis tuples suffices: both sides extend multilinearly by
    the same laws.  Deterministic: first matrix in enumeration order wins,
    smallest scalar first.
    """
    if A.p != B.p or A.k != B.k:
        raise ValueError("CVSs must share p and k")
    p, k = A.p, A.k
    if k == 0:
        return CvsIso((), 1)
    targets = {}
    for a in range(1, p):
        targets[a] = (tuple((a * v) % p for v in A.sigma_basis),
                      tuple((a * v) % p for v in A.chi_flat),
                      tuple((a * v) % p for v in A.alpha_flat))
    for M in enumerate_invertible(k, p):
        got = pullback_tables(B, tuple(zip(*M)))
        for a in range(1, p):
            if targets[a] == got:
                return CvsIso(M, a)
    return None


def random_cvs(p: int, k: int, seed: int) -> Cvs:
    """Deterministic pseudo-random CVS (alpha forced to 0 for p > 3)."""
    rng = random.Random("%d/%d/%d" % (p, k, seed))
    sigma = [rng.randrange(p) for _ in range(k)]
    chi = {(i, j): rng.randrange(p) for i, j in pair_list(k)}
    if p > 3:
        alpha = {}
    else:
        alpha = {t: rng.randrange(p) for t in triple_list(k)}
    return cvs_new(p, k, sigma, chi, alpha)


# -- text format --------------------------------------------------------------

def content_lines(text: str):
    """(line number, content) of each content line of a text format: '#'
    starts a comment, surrounding space is dropped and blank lines are
    skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def body_lines(text: str, header: str):
    """The content lines after the first, which must be the header word."""
    lines = content_lines(text)
    lineno, first = next(lines, (0, None))
    if first is None:
        raise ValueError("empty input: missing %r header" % header)
    if first != header:
        raise ValueError("line %d: expected %r header, got %r"
                         % (lineno, header, first))
    return lines


def read_directives(lines, scalars: dict, entries: dict) -> tuple:
    """Read directive lines, each a name and then integers.

    scalars maps each scalar directive to its argument count (None for
    any); each must appear exactly once.  entries maps each entry
    directive to its index count; an entry line is that many 1-based,
    strictly increasing indices and then a value, at most once per index
    tuple.  Returns (values, found): values holds (line number, arguments)
    per scalar in the order of scalars, and found maps each entry
    directive to {0-based index tuple: (line number, value)}.  Every error
    on a line starts with 'line N: '."""
    values, found = {}, {name: {} for name in entries}
    for lineno, line in lines:
        name, *args = line.split()
        if name in scalars:
            want = scalars[name]
        elif name in entries:
            want = entries[name] + 1
        else:
            raise ValueError("line %d: unknown directive %r" % (lineno, name))
        if want is not None and len(args) != want:
            raise ValueError("line %d: '%s' takes %d arguments"
                             % (lineno, name, want))
        try:
            args = tuple(int(x) for x in args)
        except ValueError:
            raise ValueError("line %d: non-integer argument in %r"
                             % (lineno, line)) from None
        if name in scalars:
            if name in values:
                raise ValueError("line %d: repeated '%s' (first on line %d)"
                                 % (lineno, name, values[name][0]))
            values[name] = (lineno, args)
            continue
        idx = args[:-1]
        if idx[0] < 1:
            raise ValueError("line %d: index %d out of range (indices start "
                             "at 1)" % (lineno, idx[0]))
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("line %d: indices must be strictly increasing"
                             % lineno)
        key = tuple(t - 1 for t in idx)
        if key in found[name]:
            raise ValueError("line %d: duplicate %s entry for %s"
                             % (lineno, name, " ".join(map(str, idx))))
        found[name][key] = (lineno, args[-1])
    missing = [name for name in scalars if name not in values]
    if missing:
        raise ValueError("missing '%s' line (%s are all required)"
                         % (missing[0], ", ".join(scalars)))
    return [values[name] for name in scalars], found


def checked_entries(found: dict, k: int) -> tuple:
    """({index tuple: value} per entry directive, {(directive, index
    tuple): line number}), once every index is within 1..k."""
    lines = {}
    for name, entries in found.items():
        for key, (lineno, _) in entries.items():
            if key[-1] >= k:
                raise ValueError("line %d: index out of range 1..%d"
                                 % (lineno, k))
            lines[name, key] = lineno
    return {name: {key: v for key, (_, v) in entries.items()}
            for name, entries in found.items()}, lines


def parse_cvs(text: str) -> Cvs:
    """Parse the CVS text format; raises ValueError with line diagnostics."""
    ((n_p, (p,)), (n_k, (k,))), found = read_directives(
        body_lines(text, "cvs"), {"p": 1, "dim": 1},
        {"sigma": 1, "chi": 2, "alpha": 3})
    if not is_prime(p):
        raise ValueError("line %d: p must be prime, got %d" % (n_p, p))
    if k < 0:
        raise ValueError("line %d: dim must be >= 0" % n_k)
    for entries in found.values():
        for lineno, v in entries.values():
            if not 0 <= v < p:
                raise ValueError("line %d: value must be in [0, %d)"
                                 % (lineno, p))
    got, lines = checked_entries(found, k)
    lines.update(p=n_p, k=n_k)
    return located(lambda: cvs_new(
        p, k, place_entries(k, 1, got["sigma"], p, "sigma"), got["chi"],
        got["alpha"]), lines)


def emit_cvs(C: Cvs) -> str:
    """Canonical serialization: only nonzero entries, ascending indices."""
    out = ["cvs", "p %d" % C.p, "dim %d" % C.k]
    for i, v in enumerate(C.sigma_basis):
        if v:
            out.append("sigma %d %d" % (i + 1, v))
    for (i, j), v in zip(pair_list(C.k), C.chi_flat):
        if v:
            out.append("chi %d %d %d" % (i + 1, j + 1, v))
    for (i, j, l), v in zip(triple_list(C.k), C.alpha_flat):
        if v:
            out.append("alpha %d %d %d %d" % (i + 1, j + 1, l + 1, v))
    return "\n".join(out) + "\n"
