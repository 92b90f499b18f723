"""Coded extensions of CVSs and coded modules via the semidirect central product.

An element is (z, v): central value z and vector part v, denoting the
normal form z * x_1^{v_1}(x_2^{v_2}(...)).  Multiplication splits off the
last coordinate (C = D + <x_k> with dim D = k-1) and applies the product

  (z1, d1, e1)(z2, d2, e2) = (z0 + z1 + z2, d1 d2, e1 e2)
  z0 = chi(e1, d2) + alpha(d1, e1 - d2, e2) + 2 alpha(d1, e1, d2)
       - 2 alpha(e1, d2, e2)

recursively, so (z1, u)(z2, w) = (z1 + z2 + theta(u, w), u + w).  With q_m
the order of x_m and z_m = x_m^{q_m} (sigma_m for a CVS, where every q_m
and |Z| equal p), unrolling the recursion gives the level sum

  theta(u, w) = sum_m [ u_m chi(x_m, w_<m) - (w_m + 2 u_m) alpha(u_<m, w_<m, x_m)
                        + z_m [u_m + w_m >= q_m] ]

where w_<m is w with slots >= m zeroed.  With X the signed chi matrix and
A the alternating alpha tensor, each term, summed over m, splits into
functions of u dotted with functions of w:

  sum_m u_m chi(x_m, w_<m)             = u . (X_< w + Q(w))
  -sum_m w_m alpha(u_<m, w_<m, x_m)    = u . (-R(w))
  -sum_m 2 u_m alpha(u_<m, w_<m, x_m)  = S(u) . w
  sum_m z_m [u_m + w_m >= q_m]         = sum_{m,t} [u_m = t] z_m [w_m >= q_m - t]

  X_<       the strictly lower part of X
  Q(w)_m    = sum_{j<l<m} w_j w_l A_mjl, the p = 2 chi correction (0 for p > 2)
  R(w)_i    = sum_{i<m, j<m} w_j w_m A_ijm
  S(u)_j    = -2 sum_{i<m, j<m} u_i u_m A_ijm
  t         runs over 1 .. q_m - 1

So theta(u, w) = Phi(u) . Psi(w) mod |Z| with about 3k integer features

  Phi(u) = (u,                   [u_m = t],             S(u))
  Psi(w) = (X_< w + Q(w) - R(w), z_m [w_m >= q_m - t],  w)

and that one kernel serves every use: theta_rows is the row-wise dot
product, the theta table is Phi(V) Psi(V)^T over all of C in int64
(stored as the smallest unsigned dtype that holds |Z| - 1), a product
without a table evaluates one row, and sampled verification works on
sampled rows at any |C|.  A kappa-isotope adds alpha(u, kappa, w) = u B w,
so its features are the base features with (u, B w) appended.  The
literal recursion is kept as an oracle (mul_recursive), and the tests
compare both with a literal level sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .cvs import (
    CheckResult,
    Cvs,
    ValidationReport,
    adjoint_translate,
    alpha_rows,
    chi_rows,
    cvs_new,
    pair_list,
    sigma_rows,
    triple_list,
    validate_axioms,
)
from .modular import FpVector, fp_vector
from .tables import add_index_table, neg_index, rank_of, unrank, vector_table

DEFAULT_VERIFY_BUDGET = 3 ** 6
DEFAULT_TABLE_BUDGET = 2 ** 13
_THETA_CACHE_MAX = 4096  # largest |C| for which the full theta table is kept
_TABLE_CHUNK = 256  # theta table rows computed per matrix product


@dataclass(frozen=True)
class CodedLoopElement:
    """(central value, vector part); the pair is the normal form."""

    z: int
    v: tuple


class CentralExtensionLoop:
    """Shared machinery for loops built from a cocycle theta on C x C.

    Subclasses provide the feature maps phi, psi with theta(u, w) =
    phi(u) . psi(w) mod zmod; everything else (products, inverses, powers,
    commutators, associators, tables) is generic.  zmod is the order of the
    central subgroup; moduli are the slot orders of C.
    """

    zmod: int
    moduli: tuple

    def __init__(self, zmod: int, moduli: tuple):
        self.zmod = zmod
        self.moduli = tuple(moduli)
        self.csize = 1
        for m in self.moduli:
            self.csize *= m
        self.order = self.zmod * self.csize
        self._theta_table: Optional[np.ndarray] = None

    # -- subclass surface --

    def phi(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def psi(self, W: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def theta_rows(self, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        """theta(u, w) for each pair of rows; rows are reduced vector parts."""
        return np.einsum("ij,ij->i", self.phi(U), self.psi(W)) % self.zmod

    def _build_theta_table(self) -> np.ndarray:
        V = vector_table(self.moduli)
        P, Q = self.phi(V), np.ascontiguousarray(self.psi(V).T)
        T = np.empty((self.csize, self.csize), dtype=self.theta_dtype)
        for lo in range(0, self.csize, _TABLE_CHUNK):
            T[lo:lo + _TABLE_CHUNK] = P[lo:lo + _TABLE_CHUNK] @ Q % self.zmod
        return T

    # -- element plumbing --

    @property
    def k(self) -> int:
        return len(self.moduli)

    @property
    def theta_dtype(self) -> np.dtype:
        """The smallest unsigned dtype holding every value of Z."""
        return np.min_scalar_type(self.zmod - 1)

    def element(self, z: int, v) -> CodedLoopElement:
        coords = tuple(int(x) % m for x, m in zip(tuple(v), self.moduli))
        if len(coords) != self.k:
            raise ValueError("vector part has wrong dimension")
        return CodedLoopElement(int(z) % self.zmod, coords)

    @property
    def identity(self) -> CodedLoopElement:
        return CodedLoopElement(0, (0,) * self.k)

    def generator(self, i: int) -> CodedLoopElement:
        """The coset representative x_{i+1} = (0, e_i)."""
        return self.element(0, [1 if t == i else 0 for t in range(self.k)])

    def central_generator(self) -> CodedLoopElement:
        return CodedLoopElement(1 % self.zmod, (0,) * self.k)

    def rank(self, v: tuple) -> int:
        return rank_of(v, self.moduli)

    def unrank(self, r: int) -> tuple:
        return unrank(r, self.moduli)

    def index(self, a: CodedLoopElement) -> int:
        """Table index: z * |C| + mixed-radix rank of v."""
        return a.z * self.csize + self.rank(a.v)

    def element_at(self, idx: int) -> CodedLoopElement:
        return CodedLoopElement(idx // self.csize, self.unrank(idx % self.csize))

    def elements(self) -> Iterator[CodedLoopElement]:
        for idx in range(self.order):
            yield self.element_at(idx)

    # -- loop operations --

    def theta_table(self) -> np.ndarray:
        """theta over C x C, rank-indexed, stored as theta_dtype."""
        if self._theta_table is None:
            if self.csize > _THETA_CACHE_MAX:
                raise ValueError("theta table too large (|C| = %d)" % self.csize)
            self._theta_table = self._build_theta_table()
        return self._theta_table

    def _theta(self, u: tuple, w: tuple) -> int:
        if self._theta_table is not None:
            return int(self._theta_table[self.rank(u), self.rank(w)])
        return int(self.theta_rows(np.array([u], dtype=np.int64),
                                   np.array([w], dtype=np.int64))[0])

    def mul(self, a: CodedLoopElement, b: CodedLoopElement) -> CodedLoopElement:
        z = (a.z + b.z + self._theta(a.v, b.v)) % self.zmod
        v = tuple((x + y) % m for x, y, m in zip(a.v, b.v, self.moduli))
        return CodedLoopElement(z, v)

    def inv(self, a: CodedLoopElement) -> CodedLoopElement:
        nv = tuple((-x) % m for x, m in zip(a.v, self.moduli))
        z = (-a.z - self._theta(a.v, nv)) % self.zmod
        return CodedLoopElement(z, nv)

    def pow(self, a: CodedLoopElement, n: int) -> CodedLoopElement:
        """Iterated product with the convention a^(n+1) = a * a^n."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc = self.identity
        for _ in range(n):
            acc = self.mul(a, acc)
        return acc

    def element_order(self, a: CodedLoopElement) -> int:
        acc = a
        n = 1
        while acc != self.identity:
            acc = self.mul(a, acc)
            n += 1
            if n > self.order:
                raise AssertionError("order search ran past |L|")
        return n

    def commutator(self, a: CodedLoopElement, b: CodedLoopElement) -> CodedLoopElement:
        """[a,b] = (ba)^(-1) (ab)."""
        return self.mul(self.inv(self.mul(b, a)), self.mul(a, b))

    def associator(self, a, b, c) -> CodedLoopElement:
        """[a,b,c] = (a(bc))^(-1) ((ab)c)."""
        return self.mul(self.inv(self.mul(a, self.mul(b, c))),
                        self.mul(self.mul(a, b), c))

    # -- tables --

    def table_array(self, max_order: int = DEFAULT_TABLE_BUDGET) -> np.ndarray:
        """Full Cayley table over element indices z*|C| + rank(v)."""
        if self.order > max_order:
            raise ValueError("order %d exceeds table budget %d"
                             % (self.order, max_order))
        T = self.theta_table().astype(np.int64)
        n, zm, cs = self.order, self.zmod, self.csize
        add = add_index_table(self.moduli)
        out = np.zeros((n, n), dtype=np.int64)
        for za in range(zm):
            for zb in range(zm):
                zres = (za + zb + T) % zm
                block = zres * cs + add
                out[za * cs:(za + 1) * cs, zb * cs:(zb + 1) * cs] = block
        return out

    def to_table(self, max_order: int = DEFAULT_TABLE_BUDGET):
        from .analysis import LoopTable
        return LoopTable(self.table_array(max_order=max_order))


def _quadratic(U: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Rows of sum_{i,j} u_i u_j coef[i*k + j], exactly.

    numpy has no BLAS for integers, and this product dominates
    theta_rows, so it runs in float64; every partial sum is an integer
    below k^2 q^2 |Z|, far under 2^53, so the result is exact."""
    F = U.astype(np.float64)
    return ((F[:, :, None] * F[:, None, :]).reshape(len(F), -1)
            @ coef).astype(np.int64)


class LevelSumLoop(CentralExtensionLoop):
    """The coded extension of flat basis data: slot orders q_m, |Z|, the
    values z_m = x_m^{q_m}, the signed chi matrix X and the alternating
    alpha tensor A.  Holds the level-sum feature maps of the module
    docstring; CVSs and coded modules differ only in the data passed."""

    def __init__(self, p: int, moduli: tuple, zmod: int, z_values,
                 X: np.ndarray, A: np.ndarray):
        super().__init__(zmod, moduli)
        self.p = p
        self.alpha_tensor = A
        k = self.k
        lt = np.less.outer(np.arange(k), np.arange(k))  # lt[a, b] = a < b
        self._lin = np.tril(X, -1).T % zmod  # W @ _lin = X_< w
        below = np.where(lt[:, None, :] & lt[None, :, :], A, 0)  # i, j < m
        quad_w = -below.transpose(1, 2, 0)  # -R: [j, m, i] = A[i, j, m]
        if p == 2:  # +Q: [j, l, m] = A[m, j, l] for j < l < m
            quad_w = quad_w + np.where(lt[:, :, None] & lt[None, :, :],
                                       A.transpose(1, 2, 0), 0)
        quad_u = -2 * below.transpose(0, 2, 1)  # S: [i, m, j] = -2 A[i, j, m]

        def block(q):  # None for a block that vanishes mod |Z|
            q = q.reshape(k * k, k) % zmod
            return q.astype(np.float64) if q.any() else None

        # S vanishes whenever 2 alpha = 0, so for p = 2 it is left out
        self._quad_w, self._quad_u = block(quad_w), block(quad_u)
        # carries: one feature per (slot m, digit t = 1 .. q_m - 1)
        slot_t = np.array([(m, t) for m, q in enumerate(self.moduli)
                           for t in range(1, q)], dtype=np.int64).reshape(-1, 2)
        self._cslot, self._ct = slot_t.T
        self._cthresh = np.array(self.moduli, dtype=np.int64)[self._cslot] - self._ct
        self._cz = np.array(z_values, dtype=np.int64)[self._cslot] % zmod

    def phi(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.int64)
        parts = [U, U[:, self._cslot] == self._ct]
        if self._quad_u is not None:
            parts.append(_quadratic(U, self._quad_u) % self.zmod)
        return np.concatenate(parts, axis=1)

    def psi(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=np.int64)
        lin = W @ self._lin
        if self._quad_w is not None:
            lin = lin + _quadratic(W, self._quad_w)
        parts = [lin % self.zmod,
                 (W[:, self._cslot] >= self._cthresh) * self._cz]
        if self._quad_u is not None:
            parts.append(W)
        return np.concatenate(parts, axis=1)

    def alpha_bilinear_for(self, kvec: tuple) -> np.ndarray:
        """B[i, j] = alpha(e_i, kvec, e_j), so alpha(u, kvec, w) = u B w."""
        kk = np.array(tuple(kvec), dtype=np.int64)
        return np.einsum("m,imj->ij", kk, self.alpha_tensor) % self.zmod


class CodedLoop(LevelSumLoop):
    """The coded extension of a CVS: order p^(1+k), Z = {(z, 0)} central,
    x^p = sigma, [x,y] = chi, [x,y,z] = alpha."""

    def __init__(self, cvs: Cvs):
        super().__init__(cvs.p, (cvs.p,) * cvs.k, cvs.p, cvs.sigma_basis,
                         cvs.chi_mat, cvs.alpha_tensor)
        self.cvs = cvs

    def __repr__(self):
        return "CodedLoop(order %d, %r)" % (self.order, self.cvs)


def mul_recursive(L: CodedLoop, a: CodedLoopElement, b: CodedLoopElement,
                  flavor: str = "general") -> CodedLoopElement:
    """Literal recursive semidirect central product; oracle for mul.

    flavor selects the z0 error term: 'general' is the four-factor formula;
    'p2', 'p3', 'big' are the specializations valid for p = 2, p = 3 and
    p > 3.  All agree with CodedLoop.mul on every input (tested).
    """
    C, p = L.cvs, L.p

    def lift(prefix: tuple, k: int) -> np.ndarray:
        row = np.zeros((1, L.k), dtype=np.int64)
        row[0, :k] = prefix
        return row

    def rec(z1, u, z2, w, k):
        if k == 0:
            return (z1 + z2) % p, ()
        m, nn = u[k - 1], w[k - 1]
        d1, d2 = u[:k - 1], w[:k - 1]
        e1 = np.zeros((1, L.k), dtype=np.int64)
        e1[0, k - 1] = m
        e2 = np.zeros((1, L.k), dtype=np.int64)
        e2[0, k - 1] = nn
        D1, D2 = lift(d1, k - 1), lift(d2, k - 1)
        chi_ = int(chi_rows(C, e1, D2)[0])
        if flavor == "general":
            z0 = (chi_
                  + int(alpha_rows(C, D1, (e1 - D2) % p, e2)[0])
                  + 2 * int(alpha_rows(C, D1, e1, D2)[0])
                  - 2 * int(alpha_rows(C, e1, D2, e2)[0]))
        elif flavor == "p2":
            z0 = chi_ + int(alpha_rows(C, D1, (e1 + D2) % 2, e2)[0])
        elif flavor == "p3":
            z0 = (chi_
                  + int(alpha_rows(C, D1, (e1 - D2) % 3, e2)[0])
                  - int(alpha_rows(C, D1, e1, D2)[0])
                  + int(alpha_rows(C, e1, D2, e2)[0]))
        elif flavor == "big":
            z0 = chi_
        else:
            raise ValueError("unknown flavor %r" % flavor)
        zd, dd = rec(0, d1, 0, d2, k - 1)
        ze = C.sigma_basis[k - 1] * ((m + nn) // p)
        ee = (m + nn) % p
        return (z0 + z1 + z2 + zd + ze) % p, dd + (ee,)

    z, v = rec(a.z, a.v, b.z, b.v, L.k)
    return CodedLoopElement(z, v)


def build(V: Cvs, validate: bool = True) -> CodedLoop:
    """Build the coded extension of V (validated when |C| is small).

    validate=False skips the axiom battery; use it when V came out of a
    transform of an already-validated CVS."""
    if V.p > 3 and any(V.alpha_flat):
        raise ValueError("invalid CVS: nonzero alpha with p > 3")
    if validate and V.size <= DEFAULT_VERIFY_BUDGET:
        rep = validate_axioms(V)
        if not rep.ok:
            raise ValueError("invalid CVS: %s"
                             % "; ".join(str(c) for c in rep.failures()))
    return CodedLoop(V)


class KappaIsotope(CentralExtensionLoop):
    """The kappa-isotope: a o b = ab * alpha(v_a, kappa, v_b), same carrier.

    Works for any central-extension loop exposing alpha_bilinear_for; its
    features are the base features with (u, B w) appended."""

    def __init__(self, base: CentralExtensionLoop, kappa):
        coords = tuple(kappa.coords) if isinstance(kappa, FpVector) else tuple(kappa)
        if len(coords) != base.k:
            raise ValueError("kappa has wrong dimension")
        super().__init__(base.zmod, base.moduli)
        self.base = base
        self.p = getattr(base, "p", base.zmod)
        self.kappa = tuple(int(c) % m for c, m in zip(coords, base.moduli))
        self._BT = base.alpha_bilinear_for(self.kappa).T
        # The isotope is itself a coded extension, of the adjoint translate
        # by 2*kappa: the bilinear shift moves commutators by
        # alpha(c,k,d) - alpha(d,k,c) = 2 alpha(c,k,d) and nothing else.
        # For p = 3 that is the translate by -kappa; for p = 2 it cancels,
        # so the isotope realizes the base data itself (G-loops).
        # Recording the CVS lets the standard verifier check the laws.
        base_cvs = getattr(base, "cvs", None)
        if isinstance(base_cvs, Cvs):
            k2 = fp_vector([(2 * c) % base_cvs.p for c in self.kappa],
                           base_cvs.p)
            self.cvs = adjoint_translate(base_cvs, k2)

    def phi(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.int64)
        return np.concatenate([self.base.phi(U), U], axis=1)

    def psi(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=np.int64)
        return np.concatenate([self.base.psi(W), W @ self._BT], axis=1)


def kappa_isotope(L: CentralExtensionLoop, kvec) -> KappaIsotope:
    return KappaIsotope(L, kvec)


class SdcpLoop(CentralExtensionLoop):
    """Semidirect central product of two coded extensions inside an ambient CVS.

    Elements are flattened (z, d ++ e).  The d and e parts multiply in
    their own extensions; the correction z0 uses the ambient forms on the
    embedded images.  Both factors may themselves be SdcpLoops, so larger
    pieces can be glued iteratively.
    """

    def __init__(self, Dext: CentralExtensionLoop, Eext: CentralExtensionLoop,
                 ambient: Cvs, embedD: list, embedE: list):
        if Dext.zmod != ambient.p or Eext.zmod != ambient.p:
            raise ValueError("central orders do not match the ambient CVS")
        if len(embedD) != Dext.k or len(embedE) != Eext.k:
            raise ValueError("embedding size does not match factor dimension")
        super().__init__(ambient.p, Dext.moduli + Eext.moduli)
        self.Dext, self.Eext, self.ambient = Dext, Eext, ambient
        self.embedD = [np.array(v.coords, dtype=np.int64) for v in embedD]
        self.embedE = [np.array(v.coords, dtype=np.int64) for v in embedE]
        self._check_embedding()

    def _check_embedding(self):
        from .modular import _rank_mod_p

        amb, p = self.ambient, self.ambient.p
        stack = [[int(x) for x in v] for v in self.embedD + self.embedE]
        if stack and _rank_mod_p([r[:] for r in stack], p) != len(stack):
            raise ValueError("embedded subspaces are linearly dependent")
        for looppart, emb in ((self.Dext, self.embedD), (self.Eext, self.embedE)):
            sub = getattr(looppart, "cvs", None)
            if sub is None:
                continue
            got = restricted_cvs(amb, [fp_vector(v.tolist(), p) for v in emb])
            if (got.sigma_basis, got.chi_flat, got.alpha_flat) != (
                    sub.sigma_basis, sub.chi_flat, sub.alpha_flat):
                raise ValueError("ambient restriction does not match the "
                                 "factor's CVS")

    @property
    def cvs(self) -> Cvs:
        """Restriction of the ambient CVS to the concatenated basis."""
        p = self.ambient.p
        vecs = [fp_vector(v.tolist(), p) for v in self.embedD + self.embedE]
        return restricted_cvs(self.ambient, vecs)

    def _split(self, v: tuple):
        kd = self.Dext.k
        return v[:kd], v[kd:]

    def _lift(self, part: tuple, emb: list) -> np.ndarray:
        amb_k = self.ambient.k
        out = np.zeros((1, amb_k), dtype=np.int64)
        for c, vec in zip(part, emb):
            out[0] += c * vec
        return out % self.ambient.p

    def theta_rows(self, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        return np.array([self.theta_pair(tuple(u), tuple(w))
                         for u, w in zip(np.asarray(U).tolist(),
                                         np.asarray(W).tolist())],
                        dtype=np.int64)

    def _build_theta_table(self) -> np.ndarray:
        """Filled elementwise from theta_pair."""
        rows = [tuple(r) for r in vector_table(self.moduli).tolist()]
        return np.array([[self.theta_pair(u, w) for w in rows] for u in rows],
                        dtype=self.theta_dtype)

    def theta_pair(self, u: tuple, w: tuple) -> int:
        p = self.zmod
        d1, e1 = self._split(u)
        d2, e2 = self._split(w)
        zd = self.Dext.mul(CodedLoopElement(0, d1), CodedLoopElement(0, d2)).z
        ze = self.Eext.mul(CodedLoopElement(0, e1), CodedLoopElement(0, e2)).z
        E1, D2, E2 = (self._lift(e1, self.embedE), self._lift(d2, self.embedD),
                      self._lift(e2, self.embedE))
        D1 = self._lift(d1, self.embedD)
        amb = self.ambient
        z0 = (int(chi_rows(amb, E1, D2)[0])
              + int(alpha_rows(amb, D1, (E1 - D2) % p, E2)[0])
              + 2 * int(alpha_rows(amb, D1, E1, D2)[0])
              - 2 * int(alpha_rows(amb, E1, D2, E2)[0]))
        return (z0 + zd + ze) % p


def restricted_cvs(amb: Cvs, vecs: list) -> Cvs:
    """The CVS induced on the span of the given (independent) vectors,
    with the vectors as its basis."""
    p = amb.p
    rows = np.array([v.coords for v in vecs], dtype=np.int64)
    k = len(vecs)
    sig = tuple(int(x) for x in sigma_rows(amb, rows)) if k else ()
    chi = {}
    for i, j in pair_list(k):
        chi[(i, j)] = int(chi_rows(amb, rows[None, i], rows[None, j])[0])
    alpha = {}
    for i, j, l in triple_list(k):
        alpha[(i, j, l)] = int(
            alpha_rows(amb, rows[None, i], rows[None, j], rows[None, l])[0])
    return cvs_new(p, k, sig, chi, alpha)


def semidirect_central_product(Dext, Eext, ambient: Cvs,
                               embedD: list, embedE: list) -> SdcpLoop:
    return SdcpLoop(Dext, Eext, ambient, embedD, embedE)


# -- bulk verification -------------------------------------------------------
#
# The table consumers below widen the stored theta table to int64 before
# any sum and add ranks with add_index_table (XOR when p = 2, digit by
# digit otherwise).  The sampled checks never build a table: they multiply
# row elements (z, V), an array of central values and one of vector rows,
# through theta_rows, so they run at every |C|.

def _comm_table(L: CentralExtensionLoop) -> np.ndarray:
    """z-part of [(0,u),(0,w)] for all u, w (the v-part is always 0; the
    central lifts cancel structurally, so this covers all loop pairs)."""
    T = L.theta_table().astype(np.int64)
    s = add_index_table(L.moduli)  # s[u, w] = rank of u + w
    neg = neg_index(L.moduli)
    return (T - T.T - T[s, neg[s]] + T[neg[s], s]) % L.zmod


def _assoc_tables(L: CentralExtensionLoop, chunk: int = 64):
    """Yield (slice, z-part of [(0,u),(0,w),(0,t)]) over chunks of u."""
    T = L.theta_table().astype(np.int64)
    add = add_index_table(L.moduli)
    neg = neg_index(L.moduli)
    n = T.shape[0]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        u = np.arange(lo, hi)[:, None, None]
        w = np.arange(n)[None, :, None]
        t = np.arange(n)[None, None, :]
        wt = add[w, t]
        uw = add[u, w]
        s = add[u, wt]
        zA = T[w, t] + T[u, wt]
        zB = T[u, w] + T[uw, t]
        out = (zB - zA - T[s, neg[s]] + T[neg[s], s]) % L.zmod
        yield slice(lo, hi), out


def _rows_mul(L: CentralExtensionLoop, a: tuple, b: tuple) -> tuple:
    """Product of row elements a = (z, U), b = (z', W)."""
    (za, U), (zb, W) = a, b
    mods = np.asarray(L.moduli, dtype=np.int64)
    return (za + zb + L.theta_rows(U, W)) % L.zmod, (U + W) % mods


def _rows_inv(L: CentralExtensionLoop, a: tuple) -> tuple:
    z, U = a
    N = -U % np.asarray(L.moduli, dtype=np.int64)
    return (-z - L.theta_rows(U, N)) % L.zmod, N


def _rows_sample(L: CentralExtensionLoop, rng, size: int) -> tuple:
    """Seeded row elements with random central lifts."""
    return (rng.integers(0, L.zmod, size=size),
            rng.integers(0, np.asarray(L.moduli, dtype=np.int64),
                         size=(size, L.k)))


def _rows_central(a: tuple, want: np.ndarray) -> np.ndarray:
    """Mask of rows where a equals the central element (want, 0)."""
    z, U = a
    return (z == want) & ~U.any(axis=1)


def verify_coded_extension(L: CodedLoop, budget: int = DEFAULT_VERIFY_BUDGET,
                           samples: int = 100000, seed: int = 0) -> ValidationReport:
    """Check x^p = sigma(c), [x,y] = chi(c,d), [x,y,z] = alpha(c,d,e).

    Exhaustive over C, C^2, C^3 when |C| <= budget, on the theta table;
    otherwise on seeded sampled rows with random central lifts, through
    theta_rows.  Central lifts cancel in commutators and associators, so
    quantifying over C is exact.
    """
    from .cvs import alpha_tensor_table, chi_table, sigma_table

    C = L.cvs
    n = L.csize
    checks = []

    if n <= budget:
        T = L.theta_table().astype(np.int64)
        add = add_index_table(L.moduli)
        # CEpower: gamma^p = sigma(c) for every gamma, all central lifts
        zacc = np.zeros(n, dtype=np.int64)
        racc = np.zeros(n, dtype=np.int64)
        ar = np.arange(n)
        for _ in range(L.p):
            zacc = zacc + T[ar, racc]
            racc = add[ar, racc]
        sig = sigma_table(C)
        ok = np.all(racc == 0) and np.all(zacc % L.p == sig)
        checks.append(CheckResult("CEpower", "exhaustive", bool(ok),
                                  None if ok else _witness(L, zacc % L.p != sig)))
        # CEcommute
        comm = _comm_table(L)
        chi = chi_table(C)
        bad = comm != chi
        checks.append(CheckResult("CEcommute", "exhaustive", not bad.any(),
                                  _witness(L, bad)))
        # CEassociate
        okassoc = True
        wit = None
        if n <= 256:
            alph = alpha_tensor_table(C).astype(np.int64)
            for sl, az in _assoc_tables(L):
                bad = az != alph[sl]
                if bad.any():
                    okassoc = False
                    wit = _witness(L, bad, sl.start)
                    break
        else:
            V = vector_table(L.moduli)
            for sl, az in _assoc_tables(L):
                uu = np.repeat(np.arange(sl.start, sl.stop), n * n)
                ww = np.tile(np.repeat(np.arange(n), n), sl.stop - sl.start)
                tt = np.tile(np.arange(n), (sl.stop - sl.start) * n)
                av = alpha_rows(C, V[uu], V[ww], V[tt]).reshape(az.shape)
                bad = az != av
                if bad.any():
                    okassoc = False
                    wit = _witness(L, bad, sl.start)
                    break
        checks.append(CheckResult("CEassociate", "exhaustive", okassoc, wit))
    else:
        rng = np.random.default_rng(seed)
        a, b, c = (_rows_sample(L, rng, samples) for _ in range(3))
        mul = lambda x, y: _rows_mul(L, x, y)
        acc = (np.zeros(samples, dtype=np.int64), np.zeros_like(a[1]))
        for _ in range(L.p):
            acc = mul(a, acc)
        okp = _rows_central(acc, sigma_rows(C, a[1])).all()
        checks.append(CheckResult("CEpower", "sampled", bool(okp)))
        comm = mul(_rows_inv(L, mul(b, a)), mul(a, b))
        okc = _rows_central(comm, chi_rows(C, a[1], b[1])).all()
        checks.append(CheckResult("CEcommute", "sampled", bool(okc)))
        assoc = mul(_rows_inv(L, mul(a, mul(b, c))), mul(mul(a, b), c))
        oka = _rows_central(assoc, alpha_rows(C, a[1], b[1], c[1])).all()
        checks.append(CheckResult("CEassociate", "sampled", bool(oka)))

    return ValidationReport(all(c.ok for c in checks), checks)


def _witness(L, bad, first: int = 0):
    """The vectors at the first True entry of bad (ranks; the first axis
    starts at rank first), or None."""
    if not bad.any():
        return None
    idx = np.argwhere(bad)[0]
    idx[0] += first
    return tuple(fp_vector(L.unrank(int(i)), L.zmod) for i in idx)


def moufang_sampled(L: CentralExtensionLoop, ntriples: int, seed: int = 0):
    """Check the four Moufang identities on seeded random element triples.

    Returns (ok, witness_or_None).  Elements are sampled rows with random
    central lifts, multiplied through theta_rows, so no table is needed.
    """
    rng = np.random.default_rng(seed)
    g, d, e = (_rows_sample(L, rng, ntriples) for _ in range(3))
    mul = lambda x, y: _rows_mul(L, x, y)
    gd, eg = mul(g, d), mul(e, g)
    checks = [
        (mul(mul(mul(d, g), e), g), mul(d, mul(g, eg))),          # ((dg)e)g = d(g(eg))
        (mul(mul(gd, g), e), mul(g, mul(d, mul(g, e)))),          # ((gd)g)e = g(d(ge))
        (mul(mul(g, mul(d, e)), g), mul(gd, eg)),                 # (g(de))g = (gd)(eg)
        (mul(gd, eg), mul(g, mul(mul(d, e), g))),                 # (gd)(eg) = g((de)g)
    ]
    for which, ((lz, lv), (rz, rv)) in enumerate(checks):
        bad = (lz != rz) | (lv != rv).any(axis=1)
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            wit = (which + 1,) + tuple(L.element(int(z[t]), U[t].tolist())
                                       for z, U in (g, d, e))
            return False, wit
    return True, None


def center_vectors(L: CodedLoop) -> list:
    """Vector parts c with chi(c,.) = 0 and alpha(c,.,.) = 0; the center of
    the loop is Z x (these cosets).  Works at Parker-loop scale: the chi
    rows kill almost every candidate before any alpha work."""
    from .cvs import chi_table

    C = L.cvs
    n = L.csize
    CH = chi_table(C)
    cand = np.flatnonzero(~np.any(CH, axis=1))
    V = vector_table(L.moduli)
    out = []
    for c in cand:
        # exhaustive alpha check for the survivors
        Bc = np.einsum("i,ijl->jl", V[c], C.alpha_tensor) % C.p
        vals = (V @ Bc) @ V.T
        if not (vals % C.p).any():
            out.append(tuple(V[c].tolist()))
    return out


# -- Cayley table CSV ---------------------------------------------------------

def emit_cayley_csv(L: CentralExtensionLoop) -> str:
    """Header n=<order>,p=<p>,k=<k>; then n rows of indices."""
    if len(set(L.moduli)) > 1:
        raise ValueError("CSV export requires uniform slot modulus")
    p = L.moduli[0] if L.k else L.zmod
    arr = L.table_array()
    lines = ["n=%d,p=%d,k=%d" % (L.order, p, L.k)]
    for row in arr:
        lines.append(",".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_cayley_csv(text: str):
    """Returns (table ndarray, meta dict with n, p, k)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty table file")
    meta = {}
    for part in lines[0].split(","):
        if "=" not in part:
            raise ValueError("bad header %r (expected n=..,p=..,k=..)" % lines[0])
        key, val = part.split("=", 1)
        try:
            meta[key.strip()] = int(val)
        except ValueError:
            raise ValueError("bad header value %r" % part) from None
    if set(meta) != {"n", "p", "k"}:
        raise ValueError("header must define exactly n, p, k")
    n = meta["n"]
    if len(lines) != n + 1:
        raise ValueError("expected %d table rows, found %d" % (n, len(lines) - 1))
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        vals = [int(x) for x in ln.split(",")]
        if len(vals) != n:
            raise ValueError("line %d: expected %d entries" % (lineno, n))
        if any(not 0 <= v < n for v in vals):
            raise ValueError("line %d: index out of range" % lineno)
        rows.append(vals)
    return np.array(rows, dtype=np.int64), meta
