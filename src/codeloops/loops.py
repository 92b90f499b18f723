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
product, the theta table is Phi(V) Psi(V)^T over all of C, a product
without a table evaluates one row, a word evaluates the rows of all its
products at once (_RecordingLoop), and sampled verification works on
sampled rows at any |C|, kept in the narrowest signed dtype that holds a
sum of two slot entries (int8 up to slot order 64).  The table stores
each entry in the smallest unsigned dtype that holds |Z| - 1, except at
|Z| = 2, where theta is F_2-valued (every code loop) and each entry is
one bit, packed along w in np.packbits order (theta_table); only
_rows_theta, _theta and the value reader theta_values know that layout.
When S vanishes mod |Z| (every p = 2 CVS, every alpha-free CVS, every
coded module with 2 alpha = 0), Phi(u) . Psi is a sum over the slots m
of rows that depend on u_m alone, and the table is built slot by slot in
integers, by XOR of packed rows at |Z| = 2
(LevelSumLoop._build_theta_table); otherwise it is a GEMM per chunk of
rows in the dtype cvs.exact_float picks from dot_bound, a bound on every
row sum, reduced mod |Z| by tables.reduce_mod and packed at |Z| = 2.  A
kappa-isotope adds alpha(u, kappa, w) = u B w, so its features are the
base features with (u, B w) appended, and its table is the base's table,
built once and kept by the base, plus the GEMM of the appended features
alone.  An SdcpLoop glues two factor loops in bulk: its theta_rows is the
factors' theta_rows on the d and e parts plus the gluing term z0 above,
evaluated on the forms of the restricted CVS, and its table is that over
the rank grid.  The tests keep the literal recursion as an oracle and
compare both with a literal level sum, and keep the GEMM of all the
features and the one-byte-per-entry XOR build as oracles of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cvs import (
    _BLOCK_ENTRIES,
    CheckResult,
    Cvs,
    Forms,
    ValidationReport,
    adjoint_translate,
    content_lines,
    exact_float,
    outer_matmul,
    pullback_tables,
    validate_axioms,
)
from .modular import row_reduce
from .tables import (MAX_ENTRIES, add_index_table, index_tables,
                     place_values, rank_of, reduce_mod, signed_dtype,
                     unrank, vector_table)

DEFAULT_VERIFY_BUDGET = 3 ** 6
DEFAULT_TABLE_BUDGET = 2 ** 13
_TABLE_CHUNK = 256  # theta table rows computed per matrix product
_ASSOC_ENTRIES = 1 << 21  # largest associator chunk, in (u, w, t) entries
_SDCP_PAIRS = 1 << 16  # SDCP theta table pairs evaluated per chunk
_RECORD_BLOCK = 1 << 10  # products a word recording holds before its flush


@dataclass(frozen=True)
class CodedLoopElement:
    """(central value, vector part); the pair is the normal form."""

    z: int
    v: tuple


class CentralExtensionLoop:
    """Shared machinery for loops built from a cocycle theta on C x C.

    Subclasses provide the feature maps phi, psi with theta(u, w) =
    phi(u) . psi(w) mod zmod and, for the table product, dot_bound, a bound
    on every partial sum of that dot product; everything else (products,
    inverses, powers, commutators, associators, tables) is generic.  zmod
    is the order of the central subgroup; moduli are the slot orders of C.
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

    @cached_property
    def row_width(self) -> int:
        """Entries of the widest temporary row that theta_rows makes per
        row pair; it sizes the row blocks of a product without a table.
        k^2 bounds a quadratic feature; subclasses may know better."""
        return self.k * self.k

    @cached_property
    def row_dtype(self) -> np.dtype:
        """The dtype of sampled vector rows: the narrowest signed one that
        holds a sum of two slot entries."""
        return signed_dtype(2 * (max(self.moduli, default=1) - 1))

    def psi(self, W: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def forms(self) -> Forms:
        """The sigma, chi and alpha the loop's laws realize: its CVS's."""
        return self.cvs.forms

    def theta_rows(self, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        """theta(u, w) for each pair of rows; rows are reduced vector parts."""
        return np.einsum("ij,ij->i", self.phi(U), self.psi(W)) % self.zmod

    def _build_theta_table(self) -> np.ndarray:
        """Phi(V) Psi(V)^T mod |Z| (see _gemm_table)."""
        V = vector_table(self.moduli)
        return self._gemm_table(self.phi(V), self.psi(V))

    def _gemm_table(self, P: np.ndarray, Q: np.ndarray,
                    base: Optional[np.ndarray] = None) -> np.ndarray:
        """(P Q^T + base) mod |Z| as GEMMs on chunks of _TABLE_CHUNK rows,
        in the exact float dtype for dot_bound, which bounds every entry;
        each chunk is cast straight to the stored dtype when dot_bound and
        |Z| fit it (reduce_mod needs |Z| in the dtype), and stored in the
        table's layout.  base, a table in that layout, read and never
        written, defaults to 0."""
        fl = exact_float(self.dot_bound, "theta kernel")
        P = P.astype(fl)
        Q = np.ascontiguousarray(Q.T, dtype=fl)
        dt = self.theta_dtype
        fits = max(self.dot_bound, self.zmod) <= np.iinfo(dt).max
        acc = dt if fits else np.int64
        T = self._new_table()
        for lo in range(0, self.csize, _TABLE_CHUNK):
            G = P[lo:lo + _TABLE_CHUNK] @ Q
            if base is not None:
                G += self._unpacked(base[lo:lo + _TABLE_CHUNK])
            T[lo:lo + _TABLE_CHUNK] = self._packed(
                reduce_mod(G.astype(acc), self.zmod))
        return T

    def _new_table(self) -> np.ndarray:
        """A zero theta table in the stored layout (see theta_table)."""
        n = self.csize
        return np.zeros((n, -(-n // 8) if self.zmod == 2 else n),
                        dtype=self.theta_dtype)

    def _packed(self, R: np.ndarray) -> np.ndarray:
        """Rows of theta values in the stored layout: packed at |Z| = 2."""
        return np.packbits(R, axis=1) if self.zmod == 2 else R

    def _unpacked(self, R: np.ndarray) -> np.ndarray:
        """Rows of the stored table as values: the inverse of _packed."""
        return (np.unpackbits(R, axis=1, count=self.csize)
                if self.zmod == 2 else R)

    # -- element plumbing --

    @property
    def k(self) -> int:
        return len(self.moduli)

    @property
    def theta_dtype(self) -> np.dtype:
        """The smallest unsigned dtype holding every value of Z."""
        return np.min_scalar_type(self.zmod - 1)

    def element(self, z: int, v) -> CodedLoopElement:
        v = tuple(v)
        if len(v) != self.k:
            raise ValueError("vector part has wrong dimension")
        return CodedLoopElement(int(z) % self.zmod, tuple(
            int(x) % m for x, m in zip(v, self.moduli)))

    @property
    def identity(self) -> CodedLoopElement:
        return CodedLoopElement(0, (0,) * self.k)

    def generator(self, i: int) -> CodedLoopElement:
        """The coset representative x_{i+1} = (0, e_i), for 0 <= i < k."""
        if not 0 <= i < self.k:
            raise ValueError("generator index %d out of range: k = %d"
                             % (i, self.k))
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

    # -- loop operations --

    def theta_table(self) -> np.ndarray:
        """theta over C x C, rank-indexed, in theta_dtype; built when it
        has at most MAX_ENTRIES entries (|C| <= 4096).  Row u holds
        theta(u, .): n entries, or at |Z| = 2 one bit per entry, packed
        along w in np.packbits order (bit 7 - w % 8 of byte w // 8), so
        the table is n x ceil(n/8) bytes, 2 MiB for Parker's loop instead
        of 16.  theta_values reads it as values."""
        if self._theta_table is None:
            if self.csize ** 2 > MAX_ENTRIES:
                raise ValueError("theta table too large (|C| = %d)" % self.csize)
            self._theta_table = self._build_theta_table()
        return self._theta_table

    def theta_values(self) -> np.ndarray:
        """The theta table as an n x n array of values in theta_dtype,
        unpacked at |Z| = 2: for the exhaustive scans and Cayley tables,
        at small |C|."""
        return self._unpacked(self.theta_table())

    def _theta(self, u: tuple, w: tuple) -> int:
        T = self._theta_table
        if T is None:
            return int(self.theta_rows(np.array([u], dtype=np.int64),
                                       np.array([w], dtype=np.int64))[0])
        r, s = self.rank(u), self.rank(w)
        if self.zmod == 2:
            return int(T[r, s >> 3]) >> (7 - (s & 7)) & 1
        return int(T[r, s])

    def mul(self, a: CodedLoopElement, b: CodedLoopElement) -> CodedLoopElement:
        z = (a.z + b.z + self._theta(a.v, b.v)) % self.zmod
        v = tuple((x + y) % m for x, y, m in zip(a.v, b.v, self.moduli))
        return CodedLoopElement(z, v)

    def inv(self, a: CodedLoopElement) -> CodedLoopElement:
        nv = tuple((-x) % m for x, m in zip(a.v, self.moduli))
        z = (-a.z - self._theta(a.v, nv)) % self.zmod
        return CodedLoopElement(z, nv)

    def pow(self, a: CodedLoopElement, n: int) -> CodedLoopElement:
        """Iterated product with the convention a^(n+1) = a * a^n.

        With m = lcm(moduli), the vector part of a^n has period m, so
        a^(n+m) = a^n (c, 0) for a central value c that does not depend on
        n, and a^n depends only on n mod |Z| m: n is reduced first."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc = self.identity
        for _ in range(n % (self.zmod * math.lcm(*self.moduli))):
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
        T = self.theta_values().astype(np.int64)
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


class _Pending:
    """The central value of a recorded product, set when its block is
    resolved."""

    __slots__ = ("value",)


def _resolved(z) -> int:
    return z if z.__class__ is int else z.value


class _RecordingLoop(CentralExtensionLoop):
    """Products on L with every theta evaluated in bulk: the first pass of
    words.eval_word.

    The vector part of a product does not depend on the central parts,
    and theta depends only on vector parts, so every theta a word needs is
    known before any of them is computed.  mul and inv here compute the
    vector part and record the pair (u, w), for inv (u, -u), with a recipe
    for the central value: z_a + z_b + theta or -z_a - theta.  pow,
    commutator and associator are CentralExtensionLoop's, so the product
    order is theirs.  A central value is an int or a _Pending, which
    _flush sets: one _rows_theta call on the recorded pairs, then the
    recipes in order.  A power expands to up to |Z| lcm(moduli) products,
    so the recording is flushed every _RECORD_BLOCK products."""

    def __init__(self, L: CentralExtensionLoop):
        super().__init__(L.zmod, L.moduli)
        self.L = L
        self._U, self._W, self._recipes = [], [], []

    def _record(self, u: tuple, w: tuple, za, zb, sign: int) -> _Pending:
        z = _Pending()
        self._U.append(u)
        self._W.append(w)
        self._recipes.append((za, zb, sign, z))
        if len(self._recipes) >= _RECORD_BLOCK:
            self._flush()
        return z

    def mul(self, a: CodedLoopElement, b: CodedLoopElement) -> CodedLoopElement:
        v = tuple((x + y) % m for x, y, m in zip(a.v, b.v, self.moduli))
        return CodedLoopElement(self._record(a.v, b.v, a.z, b.z, 1), v)

    def inv(self, a: CodedLoopElement) -> CodedLoopElement:
        nv = tuple((-x) % m for x, m in zip(a.v, self.moduli))
        return CodedLoopElement(self._record(a.v, nv, a.z, 0, -1), nv)

    def _flush(self):
        if not self._recipes:
            return
        theta = _rows_theta(self.L, np.array(self._U, dtype=np.int64),
                            np.array(self._W, dtype=np.int64)).tolist()
        for (za, zb, sign, z), t in zip(self._recipes, theta):
            z.value = sign * (_resolved(za) + _resolved(zb) + t) % self.zmod
        self._U, self._W, self._recipes = [], [], []

    def resolve(self, a: CodedLoopElement) -> CodedLoopElement:
        """a as an element of L, once every recorded product is flushed."""
        self._flush()
        return CodedLoopElement(_resolved(a.z), a.v)


def _quadratic(U: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Rows of sum_{i,j} u_i u_j coef[i*k + j], in coef's float dtype
    (numpy has no BLAS for integers); exact by the bound LevelSumLoop
    picked that dtype for."""
    F = U.astype(coef.dtype)
    return outer_matmul(F, F, coef).astype(np.int64)


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
        below = np.where(lt[:, None, :] & lt[None, :, :], A, 0)  # i, j < m
        quad_w = -below.transpose(1, 2, 0)  # -R: [j, m, i] = A[i, j, m]
        if p == 2:  # +Q: [j, l, m] = A[m, j, l] for j < l < m
            quad_w = quad_w + np.where(lt[:, :, None] & lt[None, :, :],
                                       A.transpose(1, 2, 0), 0)
        quad_u = -2 * below.transpose(0, 2, 1)  # S: [i, m, j] = -2 A[i, j, m]

        # Float exactness, with q and z the largest slot entry and
        # residue: a quadratic feature is at most k^2 q^2 z, and Phi . Psi
        # at most k q z (u . lin) + k z (carries) + k q z (S(u) . w).
        q, z = max(self.moduli, default=1) - 1, zmod - 1
        fl = exact_float(k * k * q * q * z, "theta kernel")

        def block(T):  # None for a block that vanishes mod |Z|
            T = T.reshape(k * k, k) % zmod
            return T.astype(fl) if T.any() else None

        self._lin = (np.tril(X, -1).T % zmod).astype(fl)  # W @ _lin = X_< w
        # S vanishes whenever 2 alpha = 0, so for p = 2 it is left out
        self._quad_w, self._quad_u = block(quad_w), block(quad_u)
        self.dot_bound = k * z * (q * (1 + (self._quad_u is not None)) + 1)
        # carries: one feature per (slot m, digit t = 1 .. q_m - 1)
        slot_t = np.array([(m, t) for m, q in enumerate(self.moduli)
                           for t in range(1, q)], dtype=np.int64).reshape(-1, 2)
        self._cslot, self._ct = slot_t.T
        self._cthresh = np.array(self.moduli, dtype=np.int64)[self._cslot] - self._ct
        self._z = np.array(z_values, dtype=np.int64).reshape(k) % zmod
        self._cz = self._z[self._cslot]

    @cached_property
    def row_width(self) -> int:
        """The wider of Phi and Psi, or k^2 when a quadratic feature is
        built (the k x k outer product behind it)."""
        k, has_s = self.k, self._quad_u is not None
        quad = has_s or self._quad_w is not None
        return max(k + len(self._ct) + k * has_s, k * k * quad)

    def phi(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.int64)
        parts = [U, U[:, self._cslot] == self._ct]
        if self._quad_u is not None:
            parts.append(_quadratic(U, self._quad_u) % self.zmod)
        return np.concatenate(parts, axis=1)

    def _lin_rows(self, W: np.ndarray) -> np.ndarray:
        """The first Psi block, X_< w + Q(w) - R(w) mod |Z|; X_< w is a
        float product too, since numpy has no BLAS for integers."""
        lin = (W.astype(self._lin.dtype) @ self._lin).astype(np.int64)
        if self._quad_w is not None:
            lin = lin + _quadratic(W, self._quad_w)
        return lin % self.zmod

    def psi(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=np.int64)
        parts = [self._lin_rows(W),
                 (W[:, self._cslot] >= self._cthresh) * self._cz]
        if self._quad_u is not None:
            parts.append(W)
        return np.concatenate(parts, axis=1)

    def _build_theta_table(self) -> np.ndarray:
        """Without S (_quad_u is None), Phi(u) . Psi(w) = sum_m G_m[u_m, w]
        with G_m[t, w] = t lin_m(w) + z_m [w_m >= q_m - t], so the table
        is built slot by slot, last slot first, in integers: the rows
        whose slots <= m are zero are the rank prefix [0, B), B = prod_{i>m}
        q_i, and row t B + r is row r plus G_m[t] mod |Z|.  Each entry is
        written once: at |Z| = 2, where addition is XOR, by one XOR of
        packed rows, with G_m[t] packed once per block of digits t;
        otherwise from a sum s of two residues in an unsigned dtype, where
        s - |Z| wraps past s if s < |Z|, so min(s, s - |Z|) = s mod |Z|.
        With S the table is the GEMM of Phi and Psi."""
        if self._quad_u is not None:
            return super()._build_theta_table()
        V, n, zmod = vector_table(self.moduli), self.csize, self.zmod
        lin = self._lin_rows(V)
        wide = np.min_scalar_type(2 * (zmod - 1))  # holds a sum of two residues
        T = self._new_table()
        if zmod != 2:
            buf = np.empty((2, min(n, _TABLE_CHUNK) * n), dtype=wide)
        B = 1
        for m in reversed(range(self.k)):
            q = self.moduli[m]
            rows = T[B:q * B].reshape(q - 1, B, -1)  # rows[t - 1, r]: t B + r
            step = max(1, _TABLE_CHUNK // B)  # digits t per block
            for lo_t in range(1, q, step):
                t = np.arange(lo_t, min(lo_t + step, q))[:, None]
                G = (t * lin[:, m] + self._z[m] * (V[:, m] >= q - t)
                     ) % zmod  # G_m[t] for this block's t
                out = rows[lo_t - 1:lo_t - 1 + len(t)]
                if zmod == 2:
                    np.bitwise_xor(T[:B], self._packed(G)[:, None], out=out)
                    continue
                G = G.astype(wide)
                for lo in range(0, B, _TABLE_CHUNK):
                    hi = min(lo + _TABLE_CHUNK, B)
                    part = out[:, lo:hi]
                    s, d = (b[:part.size].reshape(part.shape) for b in buf)
                    np.add(T[lo:hi], G[:, None], out=s)
                    np.subtract(s, zmod, out=d)  # wraps where s < |Z|
                    np.minimum(s, d, out=part, casting="unsafe")
            B *= q
        return T

    def alpha_bilinear_for(self, kvec: tuple) -> np.ndarray:
        """B[i, j] = alpha(e_i, kvec, e_j), so alpha(u, kvec, w) = u B w."""
        kk = np.array(tuple(kvec), dtype=np.int64)
        return np.einsum("m,imj->ij", kk, self.alpha_tensor) % self.zmod


class CodedLoop(LevelSumLoop):
    """The coded extension of a CVS: order p^(1+k), Z = {(z, 0)} central,
    x^p = sigma, [x,y] = chi, [x,y,z] = alpha."""

    def __init__(self, cvs: Cvs):
        super().__init__(cvs.p, (cvs.p,) * cvs.k, cvs.p, cvs.sigma_basis,
                         cvs.forms.X, cvs.forms.A)
        self.cvs = cvs

    def __repr__(self):
        return "CodedLoop(order %d, %r)" % (self.order, self.cvs)


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

    Works for any central-extension loop exposing alpha_bilinear_for and
    forms.  With B the matrix of alpha(., kappa, .), theta is the base's
    plus u . (B w mod |Z|): the features, for products without a table,
    are the base features with (u, B w) appended, and the table is the
    base's table plus that term over V x V, so the isotopes of one base
    share its table build."""

    def __init__(self, base: CentralExtensionLoop, kappa):
        coords = tuple(kappa)
        if len(coords) != base.k:
            raise ValueError("kappa has wrong dimension")
        super().__init__(base.zmod, base.moduli)
        self.base = base
        self.p = getattr(base, "p", base.zmod)
        self.kappa = tuple(int(c) % m for c, m in zip(coords, base.moduli))
        self._BT = base.alpha_bilinear_for(self.kappa).T
        # the appended u . (B w mod |Z|) adds at most k q z
        self.dot_bound = base.dot_bound + self.k * (self.zmod - 1) * (
            max(self.moduli, default=1) - 1)

    @cached_property
    def row_width(self) -> int:
        """The base's, plus the appended k-wide features."""
        return self.base.row_width + self.k

    @cached_property
    def forms(self) -> Forms:
        """The isotope is the coded extension of the adjoint translate by
        2 kappa: commutators move by alpha(c,k,d) - alpha(d,k,c) =
        2 alpha(c,k,d), so chi becomes X + 2B; sigma (or z) and alpha stay.
        For p = 2 the shift cancels (G-loops)."""
        return self.base.forms.chi_shifted(2 * self._BT.T)

    @cached_property
    def cvs(self) -> Optional[Cvs]:
        """adt_{2 kappa} of the base CVS, or None over a module base."""
        C = getattr(self.base, "cvs", None)
        return None if C is None else adjoint_translate(
            C, [2 * c for c in self.kappa])

    def phi(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=np.int64)
        return np.concatenate([self.base.phi(U), U], axis=1)

    def psi(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=np.int64)
        return np.concatenate([self.base.psi(W), W @ self._BT % self.zmod],
                              axis=1)

    def _build_theta_table(self) -> np.ndarray:
        """The base's table plus V (B V^T mod |Z|), the appended features'
        GEMM, which keeps every entry below dot_bound."""
        V = vector_table(self.moduli)
        return self._gemm_table(V, V @ self._BT % self.zmod,
                                self.base.theta_table())


def kappa_isotope(L: CentralExtensionLoop, kvec) -> KappaIsotope:
    return KappaIsotope(L, kvec)


class SdcpLoop(CentralExtensionLoop):
    """Semidirect central product of two coded extensions inside an ambient CVS.

    Elements are flattened (z, d ++ e).  The d and e parts multiply in
    their own extensions, and the gluing term z0 of the module docstring
    is evaluated in bulk on the forms of the restricted CVS, with d1, e1,
    d2, e2 the rows of U and W with the other part zeroed.  Both factors
    may themselves be SdcpLoops, so larger pieces can be glued
    iteratively.
    """

    def __init__(self, Dext: CentralExtensionLoop, Eext: CentralExtensionLoop,
                 ambient: Cvs, embedD: list, embedE: list):
        if Dext.zmod != ambient.p or Eext.zmod != ambient.p:
            raise ValueError("central orders do not match the ambient CVS")
        if len(embedD) != Dext.k or len(embedE) != Eext.k:
            raise ValueError("embedding size does not match factor dimension")
        super().__init__(ambient.p, Dext.moduli + Eext.moduli)
        self.Dext, self.Eext, self.ambient = Dext, Eext, ambient
        self.embedD = [tuple(v) for v in embedD]
        self.embedE = [tuple(v) for v in embedE]
        self._check_embedding()

    def _check_embedding(self):
        amb, p = self.ambient, self.ambient.p
        stack = self.embedD + self.embedE
        if stack and len(row_reduce(stack, p)) != len(stack):
            raise ValueError("embedded subspaces are linearly dependent")
        for looppart, emb in ((self.Dext, self.embedD), (self.Eext, self.embedE)):
            sub = getattr(looppart, "cvs", None)
            if sub is None:
                continue
            if restricted_cvs(amb, emb) != sub:
                raise ValueError("ambient restriction does not match the "
                                 "factor's CVS")

    @cached_property
    def cvs(self) -> Cvs:
        """Restriction of the ambient CVS to the concatenated basis."""
        return restricted_cvs(self.ambient, self.embedD + self.embedE)

    def theta_rows(self, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        U, W = np.asarray(U, dtype=np.int64), np.asarray(W, dtype=np.int64)
        kd, F = self.Dext.k, self.forms
        dpart = np.arange(self.k) < kd
        d1, e1, d2, e2 = U * dpart, U * ~dpart, W * dpart, W * ~dpart
        z0 = (F.chi(e1, d2) + F.alpha(d1, e1 - d2, e2)
              + 2 * F.alpha(d1, e1, d2) - 2 * F.alpha(e1, d2, e2))
        return (self.Dext.theta_rows(U[:, :kd], W[:, :kd])
                + self.Eext.theta_rows(U[:, kd:], W[:, kd:]) + z0) % self.zmod

    def _build_theta_table(self) -> np.ndarray:
        """theta_rows over the rank grid, a chunk of u rows at a time."""
        V = vector_table(self.moduli)
        n = len(V)
        T = self._new_table()
        step = max(1, _SDCP_PAIRS // n)
        for lo in range(0, n, step):
            U = V[lo:lo + step]
            T[lo:lo + len(U)] = self._packed(self.theta_rows(
                np.repeat(U, n, axis=0), np.tile(V, (len(U), 1))
            ).reshape(len(U), n))
        return T


def restricted_cvs(amb: Cvs, vecs: list) -> Cvs:
    """The CVS induced on the span of the given (independent) int
    vectors, with the vectors as its basis."""
    return Cvs(amb.p, len(vecs), *pullback_tables(amb, vecs))


def semidirect_central_product(Dext, Eext, ambient: Cvs,
                               embedD: list, embedE: list) -> SdcpLoop:
    return SdcpLoop(Dext, Eext, ambient, embedD, embedE)


# -- bulk verification -------------------------------------------------------
#
# verify_coded_extension checks the laws of every loop against its forms:
# CodedLoop, SdcpLoop, ModuleLoop and KappaIsotope over either base.  The
# exhaustive scans widen the theta values (theta_values) to int64 before
# any sum and add ranks with the per-moduli index_tables (XOR when p = 2,
# digit by digit otherwise), only for the |C| scanned exhaustively.  The
# sampled checks never build a table: they multiply row elements (z, V),
# an int64 array of central values and one of vector rows in the loop's
# row_dtype (int8 or int16, signed so that negation stays exact), so they
# run at every |C| and add vector parts without widening.  Their theta
# values are gathered from the theta table, in theta_dtype (one bit each
# at |Z| = 2), when the loop already holds one, and come from theta_rows
# otherwise; both give the same values, and are added to the int64
# central parts, so the verdicts do not depend on the table.
#
# The exhaustive commutator and associator scans end in a left division
# x^{-1} y of two elements with the same vector part s.  The inverse of
# (z_x, s) is (-z_x - theta(s, -s), -s), so the z-part of x^{-1} y is
#
#   z_y - z_x + D[s],   D[s] = theta(-s, s) - theta(s, -s),
#
# one n-vector per loop.  D vanishes on a loop with the inverse property,
# such as every Moufang loop, but the scans must not assume the laws they
# check.  With it [(0,u),(0,w)] has z-part
# theta(u, w) - theta(w, u) + D[u + w], and [(0,u),(0,w),(0,t)] has
#
#   D[u+w+t] - theta(u, w+t) + theta(u+w, t) + theta(u, w) - theta(w, t),
#
# so a chunk of u rows is a gather of E = D[add] - T along its columns by
# the add table, a gather of the rows of T by add[u], and two broadcasts:
# no index array larger than n x n is built.

def _inverse_defect(T: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """D[s] = theta(-s, s) - theta(s, -s) for every rank s."""
    r = np.arange(len(neg))
    return T[neg, r] - T[r, neg]


def _comm_table(L: CentralExtensionLoop) -> np.ndarray:
    """z-part of [(0,u),(0,w)] for all u, w (the v-part is always 0; the
    central lifts cancel structurally, so this covers all loop pairs)."""
    T = L.theta_values().astype(np.int64)
    _, add, neg = index_tables(L.moduli)  # add[u, w] = rank of u + w
    return reduce_mod(T - T.T + _inverse_defect(T, neg)[add], L.zmod)


def _assoc_tables(L: CentralExtensionLoop):
    """Yield (slice, z-part of [(0,u),(0,w),(0,t)]) over chunks of u.

    The z-part is D[u+w+t] - theta(u, w+t) + theta(u+w, t) + theta(u, w)
    - theta(w, t), with D[s] = theta(-s, s) - theta(s, -s) the z-part
    that the left division by an element over s adds (see the section
    comment).  For u in a chunk: E[u, w+t] with E = D[add] - T is one
    gather of the rows E[u] by add, theta(u+w, t) one gather of the rows
    of T by add[u], theta(u, w) broadcasts over t and theta(w, t) over u.
    """
    T = L.theta_values().astype(np.int64)
    _, add, neg = index_tables(L.moduli)
    E = _inverse_defect(T, neg)[add] - T
    n = T.shape[0]
    chunk = max(1, _ASSOC_ENTRIES // (n * n))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        z = np.take(E[lo:hi], add, axis=1)  # D[u+w+t] - theta(u, w+t)
        z += T[add[lo:hi]]  # theta(u + w, t)
        z += T[lo:hi, :, None]  # theta(u, w), the same for every t
        z -= T  # theta(w, t)
        yield slice(lo, hi), reduce_mod(z, L.zmod)


def _rows_theta(L: CentralExtensionLoop, U: np.ndarray,
                W: np.ndarray) -> np.ndarray:
    """theta on rows of reduced vector parts.  When L holds its theta
    table, the values are gathered from it and stay in theta_dtype: the
    rows are reduced, so their ranks are dot products with the place
    values, one exact float GEMV per side (numpy has no BLAS for
    integers).  At |Z| = 2, theta(r, s) is bit 7 - s % 8 of byte s // 8
    of row r: the byte shifted left by s % 8, in uint8, then right by 7.
    Otherwise the feature kernel runs on blocks of rows whose widest
    temporary, L.row_width entries a row, stays within _BLOCK_ENTRIES."""
    T = L._theta_table
    if T is None:
        step = max(1, _BLOCK_ENTRIES // max(1, L.row_width))
        return np.concatenate([L.theta_rows(U[lo:lo + step], W[lo:lo + step])
                               for lo in range(0, max(len(U), 1), step)])
    place = place_values(L.moduli).astype(exact_float(L.csize, "row ranks"))
    R, S = (U @ place).astype(np.intp), (W @ place).astype(np.intp)
    if L.zmod == 2:
        return (T[R, S >> 3] << (S & 7).astype(np.uint8)) >> 7
    return T[R, S]


def _row_moduli(L: CentralExtensionLoop, U: np.ndarray):
    """The slot orders in U's dtype, so that sums stay narrow: one scalar
    when they are equal (a broadcast 12-wide array costs several times
    more), else an array."""
    m = L.moduli
    return (U.dtype.type(m[0]) if len(set(m)) == 1
            else np.asarray(m, dtype=U.dtype))


def _rows_mul(L: CentralExtensionLoop, a: tuple, b: tuple) -> tuple:
    """Product of row elements a = (z, U), b = (z', W): the vector parts
    are added in their own dtype, and theta to the central parts."""
    (za, U), (zb, W) = a, b
    mods = _row_moduli(L, U)
    S = U + W
    S -= mods * (S >= mods)  # the rows are reduced
    return (za + zb + _rows_theta(L, U, W)) % L.zmod, S


def _rows_inv(L: CentralExtensionLoop, a: tuple) -> tuple:
    z, U = a
    N = (_row_moduli(L, U) - U) * (U != 0)
    return (-z - _rows_theta(L, U, N)) % L.zmod, N


def _rows_sample(L: CentralExtensionLoop, rng, size: int) -> tuple:
    """Seeded row elements with random central lifts: int64 central parts
    and vector rows in L.row_dtype.  The draws are int64, cast once, and
    equal moduli take a scalar bound, which draws what the array bound
    draws, faster."""
    m = L.moduli
    high = m[0] if len(set(m)) == 1 else np.asarray(m, dtype=np.int64)
    return (rng.integers(0, L.zmod, size=size),
            rng.integers(0, high, size=(size, L.k)).astype(L.row_dtype))


def _rows_central(a: tuple, want: np.ndarray) -> np.ndarray:
    """Mask of rows where a equals the central element (want, 0)."""
    z, U = a
    return (z == want) & ~U.any(axis=1)


def _basis_powers(L: CentralExtensionLoop, F: Forms) -> CheckResult:
    """CEpower on the basis: x_i^{q_i} = z_i for every slot, exact at any
    |C| since it multiplies k short runs of elements."""
    for i, q in enumerate(L.moduli):
        if L.pow(L.generator(i), q) != L.element(F.sigma_basis[i], (0,) * L.k):
            return CheckResult("CEpower", "exhaustive", False,
                               (L.generator(i).v,))
    return CheckResult("CEpower", "exhaustive", True)


def verify_coded_extension(L: CentralExtensionLoop,
                           budget: int = DEFAULT_VERIFY_BUDGET,
                           samples: int = 100000, seed: int = 0) -> ValidationReport:
    """Check x^p = sigma(c), [x,y] = chi(c,d), [x,y,z] = alpha(c,d,e).

    L is a CodedLoop, SdcpLoop, ModuleLoop or KappaIsotope (over a CVS or a
    module base); the expected values come from L.forms.  CEpower checks
    every element against sigma when every slot order and |Z| equal p, and
    otherwise the basis powers x_i^{q_i} = z_i, which is exact at any |C|.
    CEcommute and CEassociate run exhaustively over C^2 and C^3 when
    |C| <= budget, on the theta table; otherwise on seeded sampled rows
    with random central lifts, through theta_rows, or through the theta
    table when L already holds one (the sampled path never builds it).
    Central lifts cancel in commutators and associators, so quantifying
    over C is exact.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1, got %r" % (samples,))
    F = L.forms
    p, n = F.p, L.csize
    elementary = L.zmod == p and all(q == p for q in L.moduli)
    checks = [] if elementary else [_basis_powers(L, F)]

    if n <= budget:
        V, add, _ = index_tables(L.moduli)
        if elementary:  # CEpower: gamma^p = sigma(c) for every gamma, all lifts
            T = L.theta_values().astype(np.int64)
            zacc = np.zeros(n, dtype=np.int64)
            racc = np.zeros(n, dtype=np.int64)
            ar = np.arange(n)
            for _ in range(p):
                zacc = zacc + T[ar, racc]
                racc = add[ar, racc]
            sig = F.sigma(V)
            ok = np.all(racc == 0) and np.all(zacc % p == sig)
            checks.append(CheckResult("CEpower", "exhaustive", bool(ok),
                                      None if ok else _witness(L, zacc % p != sig)))
        bad = _comm_table(L) != F.chi_table(V, V)
        checks.append(CheckResult("CEcommute", "exhaustive", not bad.any(),
                                  _witness(L, bad)))
        okassoc, wit = True, None
        for sl, az in _assoc_tables(L):
            bad = az != F.alpha_block(V[sl], V)
            if bad.any():
                okassoc, wit = False, _witness(L, bad, sl.start)
                break
        checks.append(CheckResult("CEassociate", "exhaustive", okassoc, wit))
    else:
        rng = np.random.default_rng(seed)
        a, b, c = (_rows_sample(L, rng, samples) for _ in range(3))
        mul = lambda x, y: _rows_mul(L, x, y)
        if elementary:
            acc = (np.zeros(samples, dtype=np.int64), np.zeros_like(a[1]))
            for _ in range(p):
                acc = mul(a, acc)
            okp = _rows_central(acc, F.sigma(a[1])).all()
            checks.append(CheckResult("CEpower", "sampled", bool(okp)))
        comm = mul(_rows_inv(L, mul(b, a)), mul(a, b))
        okc = _rows_central(comm, F.chi(a[1], b[1])).all()
        checks.append(CheckResult("CEcommute", "sampled", bool(okc)))
        assoc = mul(_rows_inv(L, mul(a, mul(b, c))), mul(mul(a, b), c))
        oka = _rows_central(assoc, F.alpha(a[1], b[1], c[1])).all()
        checks.append(CheckResult("CEassociate", "sampled", bool(oka)))

    return ValidationReport(all(c.ok for c in checks), checks)


def _witness(L, bad, first: int = 0):
    """The int vectors at the first True entry of bad (ranks; the first
    axis starts at rank first), or None."""
    if not bad.any():
        return None
    idx = np.argwhere(bad)[0]
    idx[0] += first
    return tuple(L.unrank(int(i)) for i in idx)


def moufang_sampled(L: CentralExtensionLoop, ntriples: int, seed: int = 0):
    """Check the Moufang identity ((dg)e)g = d(g(eg)), which in a loop
    implies the other three (see analysis.is_moufang), on seeded random
    element triples.

    Returns (ok, witness_or_None); the witness is (1, g, d, e) at the
    first failing triple.  Elements are sampled rows with random central
    lifts, multiplied through theta_rows, so no table is needed; when L
    already holds its theta table, the products read it instead.
    """
    if ntriples < 1:
        raise ValueError("ntriples must be >= 1, got %r" % (ntriples,))
    rng = np.random.default_rng(seed)
    g, d, e = (_rows_sample(L, rng, ntriples) for _ in range(3))
    mul = lambda x, y: _rows_mul(L, x, y)
    (lz, lv), (rz, rv) = mul(mul(mul(d, g), e), g), mul(d, mul(g, mul(e, g)))
    bad = (lz != rz) | (lv != rv).any(axis=1)
    if bad.any():
        t = int(np.flatnonzero(bad)[0])
        return False, (1,) + tuple(L.element(int(z[t]), U[t].tolist())
                                   for z, U in (g, d, e))
    return True, None


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
    """Returns (table ndarray, meta dict with n, p, k).  Comments and blank
    lines follow cvs.content_lines, as in the other text formats."""
    lines = list(content_lines(text))
    if not lines:
        raise ValueError("empty table file")
    header, meta = lines[0][1], {}
    for part in header.split(","):
        if "=" not in part:
            raise ValueError("bad header %r (expected n=..,p=..,k=..)" % header)
        key, val = part.split("=", 1)
        try:
            meta[key.strip()] = int(val)
        except ValueError:
            raise ValueError("bad header value %r" % part) from None
    if set(meta) != {"n", "p", "k"}:
        raise ValueError("header must define exactly n, p, k")
    n = meta["n"]
    if n < 1:
        raise ValueError("table order n must be >= 1, got %d" % n)
    if len(lines) != n + 1:
        raise ValueError("expected %d table rows, found %d" % (n, len(lines) - 1))
    rows = []
    for lineno, ln in lines[1:]:
        vals = [int(x) for x in ln.split(",")]
        if len(vals) != n:
            raise ValueError("line %d: expected %d entries" % (lineno, n))
        if any(not 0 <= v < n for v in vals):
            raise ValueError("line %d: index out of range" % lineno)
        rows.append(vals)
    return np.array(rows, dtype=np.int64), meta
