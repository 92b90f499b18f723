"""Slow, independent oracles that the tests compare the library against:
the literal recursive product, chi by polarising sigma, the loop centre
and both radicals by evaluating the forms on all of C, and the Moufang
scan of all four identities."""

import numpy as np

from codeloops.analysis import SCAN_MAX, LoopTable
from codeloops.cvs import Cvs
from codeloops.loops import CodedLoop, CodedLoopElement
from codeloops.modular import _rank_mod_p
from codeloops.tables import vector_table


def all_vectors(C: Cvs) -> np.ndarray:
    return vector_table((C.p,) * C.k)


def chi_table(C: Cvs) -> np.ndarray:
    """|C| x |C| matrix of chi values, rank-indexed."""
    V = all_vectors(C)
    return C.forms.chi_table(V, V)


def eval_chi_polarized(C: Cvs, c, d) -> int:
    """For p = 2: chi(c,d) = sigma(c+d) - sigma(c) - sigma(d), independent
    of the chi closed form."""
    if C.p != 2:
        raise ValueError("polarized chi only defined for p = 2")
    rc, rd = (np.array([v], dtype=np.int64) for v in (c, d))
    sig = C.forms.sigma
    s = sig((rc + rd) % 2) - sig(rc) - sig(rd)
    return int(s[0]) % 2


def mul_recursive(L: CodedLoop, a: CodedLoopElement, b: CodedLoopElement,
                  flavor: str = "general") -> CodedLoopElement:
    """Literal recursive semidirect central product; oracle for mul.

    flavor selects the z0 error term: 'general' is the four-factor formula;
    'p2', 'p3', 'big' are the specializations valid for p = 2, p = 3 and
    p > 3.  All agree with CodedLoop.mul on every input (tested).
    """
    C, F, p = L.cvs, L.cvs.forms, L.p

    def lift(prefix: tuple, k: int) -> np.ndarray:
        row = np.zeros((1, L.k), dtype=np.int64)
        row[0, :k] = prefix
        return row

    def rec(z1, u, z2, w, k):
        if k == 0:
            return (z1 + z2) % p, ()
        m, nn = u[k - 1], w[k - 1]
        d1, d2 = u[:k - 1], w[:k - 1]
        e1, e2 = lift((0,) * (k - 1) + (m,), k), lift((0,) * (k - 1) + (nn,), k)
        D1, D2 = lift(d1, k - 1), lift(d2, k - 1)
        chi_ = int(F.chi(e1, D2)[0])
        alpha = lambda c, d, e: int(F.alpha(c, d, e)[0])
        if flavor == "general":
            z0 = (chi_ + alpha(D1, (e1 - D2) % p, e2)
                  + 2 * alpha(D1, e1, D2) - 2 * alpha(e1, D2, e2))
        elif flavor == "p2":
            z0 = chi_ + alpha(D1, (e1 + D2) % 2, e2)
        elif flavor == "p3":
            z0 = (chi_ + alpha(D1, (e1 - D2) % 3, e2)
                  - alpha(D1, e1, D2) + alpha(e1, D2, e2))
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


def center_vectors(L: CodedLoop) -> list:
    """Vector parts c with chi(c,.) = 0 and alpha(c,.,.) = 0; the center of
    the loop is Z x (these cosets)."""
    C = L.cvs
    V = vector_table(L.moduli)
    # the chi rows kill almost every candidate before any alpha work
    cand = V[~np.any(chi_table(C), axis=1)]
    return [tuple(c) for c in cand.tolist()
            if not C.forms.alpha_block([c], V).any()]


def _basis_of_subset(members: np.ndarray, C: Cvs) -> list:
    """The reduced row echelon basis of the member vectors, which must
    form a subspace (p^rank of them)."""
    work = members.tolist()
    rank = _rank_mod_p(work, C.p)
    assert C.p ** rank == len(members), (len(members), rank)
    return [tuple(r) for r in work[:rank]]


def rad_chi_exhaustive(C: Cvs) -> list:
    """{c : chi(c,d) = 0 for all d}, by evaluating chi on all of C^2."""
    return _basis_of_subset(all_vectors(C)[~np.any(chi_table(C), axis=1)], C)


def rad_alpha_exhaustive(C: Cvs, step: int = 16) -> list:
    """{c : alpha(c,d,e) = 0 for all d,e}, by evaluating alpha on C^3:
    step values of d at a time, each time on the c not yet refuted, so
    every member is checked on all of C^2."""
    V = cand = all_vectors(C)
    for lo in range(0, len(V), step):
        vals = C.forms.alpha_block(cand, V[lo:lo + step], V)
        cand = cand[~vals.reshape(len(cand), -1).any(axis=1)]
    return _basis_of_subset(cand, C)


def moufang_four_identities(L: LoopTable):
    """Exhaustive check of the four Moufang identities over all triples.

    Returns (ok, witness); the witness is (identity number 1..4, g, d, e).
    Gathers read the table in its stored narrow dtype, and columns come
    from one contiguous transposed copy.
    """
    T, n = L.table, L.n
    if n > SCAN_MAX:
        raise ValueError("order %d beyond Moufang scan budget %d"
                         % (n, SCAN_MAX))
    TT = np.ascontiguousarray(T.T)  # TT[x] is the column T[:, x]
    for g in range(n):
        A = T[g]        # g*x
        B = TT[g]       # x*g
        # 1: ((dg)e)g = d(g(eg))
        lhs = B[T[B]]
        rhs = TT[T[g, B]].T
        if lhs.shape != rhs.shape or not np.array_equal(lhs, rhs):
            d, e = np.argwhere(lhs != rhs)[0]
            return False, (1, g, int(d), int(e))
        # 2: ((gd)g)e = g(d(ge))
        lhs = T[B[A]]
        rhs = A[TT[A].T]
        if not np.array_equal(lhs, rhs):
            d, e = np.argwhere(lhs != rhs)[0]
            return False, (2, g, int(d), int(e))
        # 3: (g(de))g = (gd)(eg)
        lhs = B[A[T]]
        rhs = T[A[:, None], B[None, :]]
        if not np.array_equal(lhs, rhs):
            d, e = np.argwhere(lhs != rhs)[0]
            return False, (3, g, int(d), int(e))
        # 4: (gd)(eg) = g((de)g)
        rhs2 = A[B[T]]
        if not np.array_equal(rhs, rhs2):
            d, e = np.argwhere(rhs != rhs2)[0]
            return False, (4, g, int(d), int(e))
    return True, None
