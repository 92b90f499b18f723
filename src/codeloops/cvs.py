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
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .modular import (
    FpMatrix,
    FpVector,
    Residue,
    enumerate_invertible,
    fp_vector,
    mat_apply,
)
from .tables import vector_table

# Exhaustive-scan caps for the axiom validator, by identity arity.
# An identity with a free vectors is checked on all |C|^a tuples when
# |C|^a stays under these sizes; otherwise it is checked on seeded samples.
_EXHAUSTIVE_CAP = {1: 1 << 16, 2: 1 << 23, 3: 1 << 24, 4: 1 << 24}
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

    def chi_entry(self, i: int, j: int) -> int:
        """chi on basis vectors (e_i, e_j), any index order."""
        if i == j:
            return 0
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        idx = pair_list(self.k).index((i, j))
        return (sign * self.chi_flat[idx]) % self.p

    def alpha_entry(self, i: int, j: int, l: int) -> int:
        """alpha on basis vectors, any index order; 0 on repeats."""
        if len({i, j, l}) < 3:
            return 0
        perm = sorted([(i, 0), (j, 1), (l, 2)])
        sign = _perm_sign([q for _, q in perm])
        idx = triple_list(self.k).index(tuple(q for q, _ in perm))
        return (sign * self.alpha_flat[idx]) % self.p

    # -- cached numpy views ------------------------------------------------

    @cached_property
    def chi_mat(self) -> np.ndarray:
        """k x k matrix X with X[i,j] = chi(e_i, e_j) (antisymmetric;
        symmetric for p = 2 where -1 = 1)."""
        return signed_forms(self.k, self.p, self.chi_flat, self.alpha_flat)[0]

    @cached_property
    def alpha_tensor(self) -> np.ndarray:
        """Full k x k x k signed tensor A with A[i,j,l] = alpha(e_i,e_j,e_l)."""
        return signed_forms(self.k, self.p, self.chi_flat, self.alpha_flat)[1]

    @cached_property
    def alpha_upper(self) -> np.ndarray:
        """A_ut[i,j,m] = alpha of the sorted triple for i < j, m not in
        {i,j}; zero elsewhere.  Used by the p = 2 chi closed form."""
        A = np.zeros((self.k, self.k, self.k), dtype=np.int64)
        for (i, j, l), v in zip(triple_list(self.k), self.alpha_flat):
            # for p = 2 alpha is fully symmetric, so sorted value is enough
            A[i, j, l] = v % self.p
            A[i, l, j] = v % self.p
            A[j, l, i] = v % self.p
        return A

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


def _perm_sign(perm: list) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


@dataclass(frozen=True)
class CvsIso:
    """An isomorphism up to scalar: c -> Mc on C, z -> a*z on Z."""

    matrix: FpMatrix
    scalar: Residue


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
        raise ValueError("p must be prime, got %r" % (p,))
    if k < 0:
        raise ValueError("dimension must be >= 0")
    sigma = tuple(int(v) % p for v in (sigma_basis or (0,) * k))
    if len(sigma) != k:
        raise ValueError("sigma_basis must have length k=%d" % k)

    pairs = pair_list(k)
    chi = [0] * len(pairs)
    for key, v in (chi_basis or {}).items():
        i, j = key
        if not (0 <= i < j < k):
            raise ValueError("chi index %r out of range (need 0 <= i < j < k)" % (key,))
        chi[pairs.index((i, j))] = int(v) % p

    triples = triple_list(k)
    alpha = [0] * len(triples)
    for key, v in (alpha_basis or {}).items():
        i, j, l = key
        if not (0 <= i < j < l < k):
            raise ValueError("alpha index %r out of range (need i < j < l)" % (key,))
        alpha[triples.index((i, j, l))] = int(v) % p

    if p > 3 and any(alpha):
        raise ValueError(
            "alpha must vanish for p > 3 (alpha has exponent dividing 6)")
    return Cvs(p, k, sigma, tuple(chi), tuple(alpha))


def octonion_cvs() -> Cvs:
    """p=2, dim 3, all seven defining values equal 1; the CVS of the
    Hamming [7,3,4] code, whose coded extension is the octonion loop."""
    return cvs_new(2, 3, sigma_basis=(1, 1, 1),
                   chi_basis={(0, 1): 1, (0, 2): 1, (1, 2): 1},
                   alpha_basis={(0, 1, 2): 1})


# -- row evaluators (numpy, n vectors at a time) ---------------------------

def sigma_rows(C: Cvs, V: np.ndarray) -> np.ndarray:
    # contractions run in float64 (exact for these small integers) so that
    # einsum can route through BLAS; int64 einsum is an order slower
    V = np.asarray(V, dtype=np.float64) % C.p
    s = np.array(C.sigma_basis, dtype=np.float64)
    out = V @ s
    if C.p == 2:
        X = np.triu(C.chi_mat, 1).astype(np.float64)
        out = out + np.einsum("ni,nj,ij->n", V, V, X, optimize=True)
        A = _strict_triples(C)
        if A.any():
            out = out + np.einsum("ni,nj,nl,ijl->n", V, V, V,
                                  A.astype(np.float64), optimize=True)
    return out.astype(np.int64) % C.p


def _strict_triples(C: Cvs) -> np.ndarray:
    """alpha values on strictly increasing triples only (i<j<l)."""
    A = np.zeros((C.k, C.k, C.k), dtype=np.int64)
    for (i, j, l), v in zip(triple_list(C.k), C.alpha_flat):
        A[i, j, l] = v % C.p
    return A


def chi_rows(C: Cvs, Vc: np.ndarray, Vd: np.ndarray) -> np.ndarray:
    Vc = np.asarray(Vc, dtype=np.float64) % C.p
    Vd = np.asarray(Vd, dtype=np.float64) % C.p
    X = C.chi_mat.astype(np.float64)
    out = np.einsum("ni,ij,nj->n", Vc, X, Vd, optimize=True)
    if C.p == 2:
        # p = 2 closed form; chi_mat is symmetric with zero diagonal here,
        # and alpha_upper holds the symmetric alpha values on pairs i < j.
        UT = C.alpha_upper
        if UT.any():
            U = UT.astype(np.float64)
            out = out + np.einsum("ni,nj,nm,ijm->n", Vc, Vc, Vd, U,
                                  optimize=True)
            out = out + np.einsum("nj,nm,ni,jmi->n", Vd, Vd, Vc, U,
                                  optimize=True)
    return out.astype(np.int64) % C.p


def alpha_rows(C: Cvs, Vc: np.ndarray, Vd: np.ndarray, Ve: np.ndarray) -> np.ndarray:
    Vc = np.asarray(Vc, dtype=np.float64) % C.p
    Vd = np.asarray(Vd, dtype=np.float64) % C.p
    Ve = np.asarray(Ve, dtype=np.float64) % C.p
    if not C.alpha_flat or not any(C.alpha_flat):
        return np.zeros(Vc.shape[0], dtype=np.int64)
    A = C.alpha_tensor.astype(np.float64)
    out = np.einsum("ni,nj,nl,ijl->n", Vc, Vd, Ve, A, optimize=True)
    return out.astype(np.int64) % C.p


# -- public single-vector evaluators ---------------------------------------

def _as_row(C: Cvs, v: FpVector) -> np.ndarray:
    if v.dim != C.k or set(v.moduli or (C.p,)) != {C.p}:
        raise ValueError("vector does not live in this CVS (dim %d over F_%d)"
                         % (C.k, C.p))
    return np.array([v.coords], dtype=np.int64)


def eval_sigma(C: Cvs, c: FpVector) -> Residue:
    return Residue(int(sigma_rows(C, _as_row(C, c))[0]), C.p)


def eval_chi(C: Cvs, c: FpVector, d: FpVector) -> Residue:
    return Residue(int(chi_rows(C, _as_row(C, c), _as_row(C, d))[0]), C.p)


def eval_alpha(C: Cvs, c: FpVector, d: FpVector, e: FpVector) -> Residue:
    return Residue(
        int(alpha_rows(C, _as_row(C, c), _as_row(C, d), _as_row(C, e))[0]), C.p)


def eval_chi_polarized(C: Cvs, c: FpVector, d: FpVector) -> Residue:
    """Cross-check oracle for p = 2: chi(c,d) = sigma(c+d) - sigma(c) - sigma(d).

    Independent of the chi closed form; the validator and tests compare it
    against eval_chi everywhere.
    """
    if C.p != 2:
        raise ValueError("polarized chi only defined for p = 2")
    rc, rd = _as_row(C, c), _as_row(C, d)
    s = sigma_rows(C, (rc + rd) % 2) - sigma_rows(C, rc) - sigma_rows(C, rd)
    return Residue(int(s[0]), 2)


# -- bulk tables over all of C ----------------------------------------------

def all_vectors(C: Cvs) -> np.ndarray:
    return vector_table((C.p,) * C.k)


def sigma_table(C: Cvs) -> np.ndarray:
    return sigma_rows(C, all_vectors(C))


def chi_table(C: Cvs) -> np.ndarray:
    """|C| x |C| matrix of chi values, rank-indexed."""
    V = all_vectors(C)
    if C.p > 2:
        return (V @ C.chi_mat @ V.T) % C.p
    out = V @ C.chi_mat @ V.T
    UT = C.alpha_upper
    if UT.any():
        Q = np.einsum("ni,nj,ijm->nm", V, V, UT)  # Q[c,m] = sum_{i<j} c_i c_j a_ijm
        out = out + Q @ V.T + V @ Q.T
    return out % 2


def alpha_tensor_table(C: Cvs) -> np.ndarray:
    """|C|^3 tensor of alpha values; only for |C| <= 256."""
    V = all_vectors(C)
    n = V.shape[0]
    if n > 256:
        raise ValueError("alpha tensor too large (|C| = %d > 256)" % n)
    if not any(C.alpha_flat):
        return np.zeros((n, n, n), dtype=np.int8)
    W = np.einsum("ai,ijl->ajl", V, C.alpha_tensor)
    out = np.einsum("bj,ajl,cl->abc", V, W, V) % C.p
    return out.astype(np.int8)


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
    """Check every CVS identity, exhaustively where |C|^arity permits.

    When |C| exceeds the budget, all multi-vector identities are checked on
    seeded random tuples instead.  Each check reports its mode and, on
    failure, a witness tuple of vectors.
    """
    p, k = C.p, C.k
    n = p ** k
    rng = np.random.default_rng(seed)
    checks: list = []

    def vec(idx: int, V: np.ndarray) -> FpVector:
        return fp_vector(V[idx].tolist(), p)

    def choose(arity: int) -> bool:
        """True: run exhaustively on the full grid; False: sample."""
        if n > budget:
            return False
        return n ** arity <= _EXHAUSTIVE_CAP[arity]

    V = all_vectors(C)

    def grids(arity: int):
        """Index arrays for either the full grid or a sample, plus mode."""
        if choose(arity):
            idx = np.indices((n,) * arity).reshape(arity, -1)
            return idx, "exhaustive"
        idx = rng.integers(0, n, size=(arity, samples))
        return idx, "sampled"

    def record(name, mode, bad_mask, idx):
        if bad_mask.any():
            w = int(np.flatnonzero(bad_mask)[0])
            witness = tuple(vec(int(idx[a][w]), V) for a in range(idx.shape[0]))
            checks.append(CheckResult(name, mode, False, witness))
        else:
            checks.append(CheckResult(name, mode, True))

    # Two evaluation strategies behind one set of helpers.  When the whole
    # space fits the arity-3 cap we tabulate sigma/chi/alpha once and turn
    # every identity into table gathers; the per-call contraction overhead
    # otherwise dominates exhaustive validation already at k = 5.
    tab = n <= budget and n ** 3 <= _EXHAUSTIVE_CAP[3]
    if tab:
        wts = (p ** np.arange(k - 1, -1, -1)).astype(np.int64)
        S1 = sigma_table(C)
        X2 = chi_table(C)
        A3 = alpha_tensor_table(C).astype(np.int64)
        add_i = ((V[:, None, :] + V[None, :, :]) % p) @ wts
        scl_i = np.stack([((m * V) % p) @ wts for m in range(p)])
        A3w = A3[:, :, wts]
        sig = lambda I: S1[I]
        chi = lambda I, J: X2[I, J]
        alp = lambda I, J, L: A3[I, J, L]
        sig_sum = lambda I, J: S1[add_i[I, J]]
        chi_sum = lambda I, J, E: X2[add_i[I, J], E]
        sig_scl = lambda m, I: S1[scl_i[m, I]]
        chi_scl = lambda m, I, J: X2[scl_i[m, I], J]
        alp_scl = lambda m, I, J, L: A3[scl_i[m, I], J, L]
        alp_last = lambda I, J, E: (A3w[I, J] * V[E]).sum(axis=1)
    else:
        sig = lambda I: sigma_rows(C, V[I])
        chi = lambda I, J: chi_rows(C, V[I], V[J])
        alp = lambda I, J, L: alpha_rows(C, V[I], V[J], V[L])
        sig_sum = lambda I, J: sigma_rows(C, (V[I] + V[J]) % p)
        chi_sum = lambda I, J, E: chi_rows(C, (V[I] + V[J]) % p, V[E])
        sig_scl = lambda m, I: sigma_rows(C, (m * V[I]) % p)
        chi_scl = lambda m, I, J: chi_rows(C, (m * V[I]) % p, V[J])
        alp_scl = lambda m, I, J, L: alpha_rows(C, (m * V[I]) % p, V[J], V[L])
        alp_last = lambda I, J, E: (np.einsum(
            "ni,nj,ijm->nm", V[I].astype(np.float64), V[J].astype(np.float64),
            C.alpha_tensor.astype(np.float64), optimize=True)
            * V[E]).sum(axis=1).astype(np.int64)

    zero_idx = np.zeros(1, dtype=np.int64)

    # identity element facts: sigma(0) = 0, chi(c,0) = 0, alpha(c,d,0) = 0
    idx, mode = grids(1)
    (c,) = idx
    bad = (sig(zero_idx)[0] != 0) | (chi(c, np.zeros_like(c)) != 0)
    record("unit (sigma(0), chi(c,0))", mode, np.atleast_1d(bad), idx)
    idx, mode = grids(2)
    c, d = idx
    record("unit (alpha(c,d,0))", mode,
           alp(c, d, np.zeros_like(c)) != 0, idx)

    # sigma(n c) = n sigma(c)
    idx, mode = grids(1)
    (c,) = idx
    bad = np.zeros(c.shape[0], dtype=bool)
    sc = sig(c)
    for nn in range(p):
        bad |= (sig_scl(nn, c) != (nn * sc) % p)
    record("sigmapowerlin", mode, bad, idx)

    # sigma(c+d) = sigma(c) + sigma(d) [+ chi(c,d) when p = 2]
    idx, mode = grids(2)
    c, d = idx
    lhs = sig_sum(c, d)
    rhs = sig(c) + sig(d) + (chi(c, d) if p == 2 else 0)
    record("sigmalin", mode, (lhs - rhs) % p != 0, idx)

    # chi(c,c) = 0 and chi(c,d) = -chi(d,c)
    idx, mode = grids(1)
    (c,) = idx
    record("chisymp", mode, chi(c, c) != 0, idx)
    idx, mode = grids(2)
    c, d = idx
    record("chiskew", mode, (chi(c, d) + chi(d, c)) % p != 0, idx)

    # chi(n c, d) = n chi(c, d)
    idx, mode = grids(2)
    c, d = idx
    bad = np.zeros(c.shape[0], dtype=bool)
    base = chi(c, d)
    for nn in range(p):
        bad |= (chi_scl(nn, c, d) != (nn * base) % p)
    record("chipowerlin", mode, bad, idx)

    # chi(c+d, e) = chi(c,e) + chi(d,e) + 3 alpha(c,d,e)
    idx, mode = grids(3)
    c, d, e = idx
    lhs = chi_sum(c, d, e)
    rhs = chi(c, e) + chi(d, e) + 3 * alp(c, d, e)
    record("chimultilin", mode, (lhs - rhs) % p != 0, idx)

    # polarization cross-check for p = 2: chi = sigma(c+d) - sigma(c) - sigma(d)
    if p == 2:
        idx, mode = grids(2)
        c, d = idx
        pol = (sig_sum(c, d) - sig(c) - sig(d)) % 2
        record("chi-polarization", mode, (pol - chi(c, d)) % 2 != 0, idx)

    # alpha vanishes on repeated arguments
    idx, mode = grids(2)
    c, d = idx
    bad = (alp(c, c, d) != 0) | (alp(c, d, c) != 0) | (alp(d, c, c) != 0)
    record("alphasymp", mode, bad, idx)

    # alpha(c,d,e) = alpha(d,e,c) = -alpha(d,c,e)
    idx, mode = grids(3)
    c, d, e = idx
    a0 = alp(c, d, e)
    bad = ((alp(d, e, c) - a0) % p != 0) | ((alp(d, c, e) + a0) % p != 0)
    record("alphaskew", mode, bad, idx)

    # alpha(n c, d, e) = n alpha(c, d, e)
    idx, mode = grids(3)
    c, d, e = idx
    bad = np.zeros(c.shape[0], dtype=bool)
    a0 = alp(c, d, e)
    for nn in range(p):
        bad |= (alp_scl(nn, c, d, e) != (nn * a0) % p)
    record("alphapowerlin", mode, bad, idx)

    # alpha(c, d, e) = sum_m e_m alpha(c, d, b_m): linear in the last slot,
    # which with the cyclic symmetry above gives multilinearity in every
    # slot without ever walking a 4-vector grid
    idx, mode = grids(3)
    c, d, e = idx
    lhs = alp(c, d, e)
    rhs = alp_last(c, d, e)
    record("alphamultilin", mode, (lhs - rhs) % p != 0, idx)

    return ValidationReport(all(ch.ok for ch in checks), checks)


# -- radicals ----------------------------------------------------------------

def _basis_of_subset(members: np.ndarray, C: Cvs) -> list:
    """Row-reduce the member vectors and return a basis as FpVectors.

    Asserts the member set is a subspace (size p^rank)."""
    rows = [list(r) for r in members.tolist()]
    from .modular import _rank_mod_p
    work = [r[:] for r in rows]
    rank = _rank_mod_p(work, C.p)
    if C.p ** rank != len(rows):
        raise AssertionError("radical is not a subspace (size %d, rank %d)"
                             % (len(rows), rank))
    basis = [r for r in work[:rank] if any(x % C.p for x in r)]
    return [fp_vector(r, C.p) for r in basis]


def rad_chi(C: Cvs, max_size: int = 4096) -> list:
    """Basis of {c : chi(c,d) = 0 for all d}, by exhaustive evaluation."""
    n = C.size
    if n > max_size:
        raise ValueError("rad_chi: |C| = %d exceeds limit %d" % (n, max_size))
    rows_ok = ~np.any(chi_table(C), axis=1)
    return _basis_of_subset(all_vectors(C)[rows_ok], C)


def rad_alpha(C: Cvs, max_size: int = 256) -> list:
    """Basis of {c : alpha(c,d,e) = 0 for all d,e}, by exhaustive evaluation."""
    n = C.size
    if n > max_size:
        raise ValueError("rad_alpha: |C| = %d exceeds limit %d" % (n, max_size))
    T = alpha_tensor_table(C)
    rows_ok = ~np.any(T.reshape(n, -1), axis=1)
    return _basis_of_subset(all_vectors(C)[rows_ok], C)


# -- adjoint translates and isomorphism --------------------------------------

def adjoint_translate(C: Cvs, kvec: FpVector) -> Cvs:
    """adt_k(C): chi(c,d) shifted to chi(c,d) + alpha(c,k,d); sigma, alpha kept.

    Defined for every p.  For p = 2 the output is validated rather than
    assumed legal (the translate equations are only stated for p = 3)."""
    if kvec.dim != C.k:
        raise ValueError("translate vector has wrong dimension")
    kk = np.array(kvec.coords, dtype=np.int64)
    chi_new = {}
    for i, j in pair_list(C.k):
        shift = int(np.einsum("m,m->", kk, C.alpha_tensor[i, :, j])) % C.p
        chi_new[(i, j)] = (C.chi_entry(i, j) + shift) % C.p
    out = cvs_new(C.p, C.k, C.sigma_basis, chi_new,
                  {t: v for t, v in zip(triple_list(C.k), C.alpha_flat)})
    if C.p == 2:
        rep = validate_axioms(out, seed=0)
        if not rep.ok:
            raise AssertionError(
                "adjoint translate produced an invalid CVS for p=2: %s"
                % "; ".join(str(c) for c in rep.failures()))
    return out


def transform_basis_tables(C: Cvs, M: FpMatrix) -> tuple:
    """(sigma, chi, alpha) basis tables of the pullback c -> Mc."""
    images = [mat_apply(M, fp_vector([1 if t == i else 0 for t in range(C.k)], C.p))
              for i in range(C.k)]
    rows = np.array([v.coords for v in images], dtype=np.int64)
    sig = tuple(int(x) for x in sigma_rows(C, rows))
    pl = pair_list(C.k)
    tl = triple_list(C.k)
    if pl:
        ci = np.array([i for i, _ in pl])
        cj = np.array([j for _, j in pl])
        chi = tuple(int(x) for x in chi_rows(C, rows[ci], rows[cj]))
    else:
        chi = ()
    if tl:
        ti = np.array([i for i, _, _ in tl])
        tj = np.array([j for _, j, _ in tl])
        tm = np.array([l for _, _, l in tl])
        alp = tuple(int(x) for x in alpha_rows(C, rows[ti], rows[tj], rows[tm]))
    else:
        alp = ()
    return sig, chi, alp


def transform(C: Cvs, M: FpMatrix) -> Cvs:
    """The CVS with basis data pulled back along M (basis e_i -> M e_i)."""
    sig, chi, alp = transform_basis_tables(C, M)
    return Cvs(C.p, C.k, sig, chi, alp)


def scale_cvs(C: Cvs, a: int) -> Cvs:
    """Scalar action on Z: multiply every basis value by a."""
    a = a % C.p
    return Cvs(C.p, C.k,
               tuple((a * v) % C.p for v in C.sigma_basis),
               tuple((a * v) % C.p for v in C.chi_flat),
               tuple((a * v) % C.p for v in C.alpha_flat))


def permute_basis(C: Cvs, perm: list) -> Cvs:
    """The CVS seen in the reordered basis e_i -> e_perm[i]."""
    rows = tuple(tuple(1 if j == perm[i] else 0 for j in range(C.k))
                 for i in range(C.k))
    # columns of M are the new basis vectors, so M[:, i] = e_perm[i]
    M = FpMatrix(tuple(zip(*rows)), C.p)
    return transform(C, M)


def iso_up_to_scalar(A: Cvs, B: Cvs, max_k: int | None = None) -> Optional[CvsIso]:
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
        from .modular import identity_matrix
        return CvsIso(identity_matrix(0, p), Residue(1, p))
    targets = {}
    for a in range(1, p):
        targets[a] = (tuple((a * v) % p for v in A.sigma_basis),
                      tuple((a * v) % p for v in A.chi_flat),
                      tuple((a * v) % p for v in A.alpha_flat))
    for M in enumerate_invertible(k, p, max_k=max_k):
        got = transform_basis_tables(B, M)
        for a in range(1, p):
            if targets[a] == got:
                return CvsIso(M, Residue(a, p))
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

def parse_cvs(text: str) -> Cvs:
    """Parse the CVS text format; raises ValueError with line diagnostics."""
    p = None
    k = None
    sigma: dict = {}
    chi: dict = {}
    alpha: dict = {}
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_header:
            if line != "cvs":
                raise ValueError("line %d: expected 'cvs' header, got %r"
                                 % (lineno, line))
            saw_header = True
            continue
        parts = line.split()
        key = parts[0]

        def ints(n):
            if len(parts) != n + 1:
                raise ValueError("line %d: '%s' takes %d arguments"
                                 % (lineno, key, n))
            try:
                return [int(x) for x in parts[1:]]
            except ValueError:
                raise ValueError("line %d: non-integer argument in %r"
                                 % (lineno, raw.strip())) from None

        if key == "p":
            (p,) = ints(1)
            if not is_prime(p):
                raise ValueError("line %d: p must be prime, got %d" % (lineno, p))
        elif key == "dim":
            (k,) = ints(1)
            if k < 0:
                raise ValueError("line %d: dim must be >= 0" % lineno)
        elif key in ("sigma", "chi", "alpha"):
            if p is None or k is None:
                raise ValueError("line %d: p and dim must come before entries"
                                 % lineno)
            nidx = {"sigma": 1, "chi": 2, "alpha": 3}[key]
            vals = ints(nidx + 1)
            idx, v = vals[:-1], vals[-1]
            if not all(1 <= t <= k for t in idx):
                raise ValueError("line %d: index out of range 1..%d" % (lineno, k))
            if list(idx) != sorted(set(idx)):
                raise ValueError("line %d: indices must be strictly increasing"
                                 % lineno)
            if not 0 <= v < p:
                raise ValueError("line %d: value must be in [0, %d)" % (lineno, p))
            key0 = tuple(t - 1 for t in idx)
            store = {"sigma": sigma, "chi": chi, "alpha": alpha}[key]
            if key0 in store:
                raise ValueError("line %d: duplicate %s entry for %s"
                                 % (lineno, key, " ".join(map(str, idx))))
            store[key0] = v
        else:
            raise ValueError("line %d: unknown directive %r" % (lineno, key))
    if not saw_header:
        raise ValueError("empty input: missing 'cvs' header")
    if p is None or k is None:
        raise ValueError("missing 'p' or 'dim' line")
    sig = [0] * k
    for (i,), v in sigma.items():
        sig[i] = v
    return cvs_new(p, k, sig, chi, alpha)


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
