"""Slow, independent oracles that the tests compare the library against:
the literal recursive product, chi by polarising sigma, the loop centre
and both radicals by evaluating the forms on all of C, the Moufang scan
and the sampled Moufang check of all four identities, the nucleus by
three gathers per element, the associator values by a division found by
sorting, the CVS validator with all 13 identities, the theta table as
one GEMM of the feature maps and, at |Z| = 2, slot by slot with one byte
per entry, the row-wise outer product that cvs.outer_matmul contracts
without forming, and the sampled row products on int64 rows, as they
were before rows were kept narrow."""

import numpy as np

from codeloops import cvs
from codeloops.analysis import SCAN_MAX, LoopTable
from codeloops.cvs import (DEFAULT_VALIDATE_BUDGET, Cvs, ValidationReport,
                           adjoint_translate)
from codeloops.loops import (CentralExtensionLoop, CodedLoop,
                             CodedLoopElement, LevelSumLoop)
from codeloops.modular import _rank_mod_p
from codeloops.tables import (MAX_ENTRIES, index_tables, place_values,
                              rank_rows, unrank_rows, vector_table)


def outer(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Row-wise outer products, flattened: out[n, i*k + j] = F[n, i] G[n, j]."""
    n, k, m = len(F), F.shape[1], G.shape[1]
    return (F[:, :, None] * G[:, None, :]).reshape(n, k * m)


def gemm_theta_table(L: CentralExtensionLoop, rows: int = 512) -> np.ndarray:
    """Phi(V) Psi(V)^T mod |Z| over all of C in theta_dtype: float64
    GEMMs, rows of V at a time, exact while dot_bound < 2^53."""
    assert L.dot_bound < 2 ** 53
    V = vector_table(L.moduli)
    P, Q = L.phi(V).astype(np.float64), L.psi(V).astype(np.float64)
    out = np.empty((L.csize, L.csize), dtype=L.theta_dtype)
    for lo in range(0, L.csize, rows):
        out[lo:lo + rows] = (P[lo:lo + rows] @ Q.T).astype(np.int64) % L.zmod
    return out


def xor_theta_table(L: LevelSumLoop) -> np.ndarray:
    """The theta table of a loop with |Z| = 2 and no S features, one uint8
    per entry, built slot by slot as LevelSumLoop._build_theta_table
    builds it: last slot first, with B the product of the later slot
    orders, row t B + r is row r XOR G_m[t], G_m[t, w] = t lin_m(w) +
    z_m [w_m >= q_m - t] mod 2."""
    assert L.zmod == 2 and L._quad_u is None
    V, n = vector_table(L.moduli), L.csize
    lin = L._lin_rows(V)
    T = np.zeros((n, n), dtype=np.uint8)
    B = 1
    for m in reversed(range(L.k)):
        q = L.moduli[m]
        for t in range(1, q):
            G = (t * lin[:, m] + L._z[m] * (V[:, m] >= q - t)) % 2
            T[t * B:(t + 1) * B] = T[:B] ^ G.astype(np.uint8)
        B *= q
    return T


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


# -- sampled row products on int64 rows --
#
# loops._rows_sample, _rows_mul, _rows_inv and _rows_theta keep vector
# rows in the loop's narrow row_dtype and theta in theta_dtype.  These are
# the same products with every row widened to int64: the table's values
# (theta_values) gathered by int64 ranks and widened, or theta_rows on all
# the rows at once.

def rows_sample_int64(L: CentralExtensionLoop, rng, size: int) -> tuple:
    """Seeded row elements drawn with the array bound, as int64."""
    return (rng.integers(0, L.zmod, size=size),
            rng.integers(0, np.asarray(L.moduli, dtype=np.int64),
                         size=(size, L.k)))


def rows_theta_int64(L: CentralExtensionLoop, U: np.ndarray,
                     W: np.ndarray) -> np.ndarray:
    U, W = np.asarray(U, dtype=np.int64), np.asarray(W, dtype=np.int64)
    if L._theta_table is None:
        return L.theta_rows(U, W)
    place = place_values(L.moduli)
    return L.theta_values()[U @ place, W @ place].astype(np.int64)


def rows_mul_int64(L: CentralExtensionLoop, a: tuple, b: tuple) -> tuple:
    (za, U), (zb, W) = a, b
    U, W = np.asarray(U, dtype=np.int64), np.asarray(W, dtype=np.int64)
    mods = np.asarray(L.moduli, dtype=np.int64)
    S = U + W
    S -= mods * (S >= mods)
    return (za + zb + rows_theta_int64(L, U, W)) % L.zmod, S


def rows_inv_int64(L: CentralExtensionLoop, a: tuple) -> tuple:
    z, U = a
    U = np.asarray(U, dtype=np.int64)
    N = (np.asarray(L.moduli, dtype=np.int64) - U) * (U != 0)
    return (-z - rows_theta_int64(L, U, N)) % L.zmod, N


def moufang_sampled_four_identities(L: CentralExtensionLoop, ntriples: int,
                                    seed: int = 0):
    """loops.moufang_sampled on all four Moufang identities, on the same
    seeded triples, multiplied on int64 rows.

    Returns (ok, witness_or_None); the witness is (identity number 1..4,
    g, d, e).
    """
    if ntriples < 1:
        raise ValueError("ntriples must be >= 1, got %r" % (ntriples,))
    rng = np.random.default_rng(seed)
    g, d, e = (rows_sample_int64(L, rng, ntriples) for _ in range(3))
    mul = lambda x, y: rows_mul_int64(L, x, y)
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


def nucleus_mask_three_gathers(L: LoopTable) -> np.ndarray:
    """Elements a with (ax)y = a(xy), (xa)y = x(ay) and (xy)a = x(ya),
    by three whole-table gathers per element."""
    T, n = np.asarray(L.table, dtype=np.int64), L.n
    mask = np.zeros(n, dtype=bool)
    for a in range(n):
        A = T[a]
        B = T[:, a]
        mask[a] = (np.array_equal(T[A], A[T])
                   and np.array_equal(T[B], T[:, A])
                   and np.array_equal(B[T], T[:, B]))
    return mask


def associator_values_scan(L: LoopTable) -> np.ndarray:
    """Sorted distinct values of (a(bc)) \\ ((ab)c), one a at a time, with
    the left division read off an argsort of the rows of the table."""
    T, n = np.asarray(L.table, dtype=np.int64), L.n
    ldiv = np.argsort(T, axis=1).ravel()  # ldiv[x n + y] = the b with xb = y
    seen = np.zeros(n, dtype=bool)
    for a in range(n):
        seen[ldiv[T[a, T] * n + T[T[a]]]] = True  # over b, c
    return np.flatnonzero(seen)


def validate_thirteen(C: Cvs, budget: int = DEFAULT_VALIDATE_BUDGET,
                      seed: int = 0, samples: int = 20000) -> ValidationReport:
    """cvs.validate_axioms with the 13 identities it once checked, in their
    reporting order and drawing samples in that order: its nine and
    chi-polarization, sigmapowerlin, alphapowerlin and alphamultilin."""
    n, tab = C.size, C.size <= budget
    elem, identities = thirteen_identities(C, tab)
    checks, rng = [], np.random.default_rng(seed)
    for name, arity, check in identities:
        if tab and n ** arity <= MAX_ENTRIES:
            mode, tuples = "exhaustive", cvs._grid(n, arity)
        else:
            mode, tuples = "sampled", [
                rng.integers(0, n, size=(arity, samples))]
        checks.append(cvs._scan(name, mode, check, tuples, elem, C))
    return ValidationReport(all(ch.ok for ch in checks), checks)


def thirteen_identities(C: Cvs, tab: bool) -> tuple:
    """(elem, identities) as cvs._identities returns them, for the 13
    identities: on ranks over tables of sigma, chi and AB[c, d, m] =
    alpha(c, d, x_m) within the budget, on rows above it.  alp_last(c, d,
    e) reads AB[c, d] . e where alp reads AB[d, e] . c, and on rows it is
    the trilinear sum over A in integers."""
    p, k, F = C.p, C.k, C.forms
    moduli = (p,) * k
    if tab:
        V, add_rank, _ = index_tables(moduli)
        S1, X2 = F.sigma(V), F.chi_table(V, V)
        AB = F.alpha_block(V, V, np.eye(k, dtype=np.int64))
        scl_rank = rank_rows(np.arange(p)[:, None, None] * V, moduli)
        elem = lambda I: I
        sig = lambda c: S1[c]
        chi = lambda c, d: X2[c, d]
        add = lambda c, d: add_rank[c, d]
        scl = lambda m, c: scl_rank[m, c]
        alp_last = lambda c, d, e: np.einsum(
            "...m,...m->...", AB[c, d], V[e], dtype=np.int64)
        alp = lambda c, d, e: alp_last(d, e, c)
    else:
        elem = lambda I: unrank_rows(I, moduli)
        sig, chi, alp = F.sigma, F.chi, F.alpha
        add = lambda c, d: (c + d) % p
        scl = lambda m, c: (m * c) % p
        alp_last = lambda c, d, e: np.einsum("ni,nj,nm,ijm->n", c, d, e, F.A)

    def scaled(image, base):
        """Where image(m) = m * base fails for some m in F_p but 1."""
        return np.any([(image(m) - m * base) % p != 0 for m in range(p)
                       if m != 1], axis=0)

    def alphaskew(c, d, e):
        a = alp(c, d, e)
        return ((alp(d, e, c) - a) % p != 0) | ((alp(d, c, e) + a) % p != 0)

    zero = elem(np.zeros(1, dtype=np.int64))
    identities = [
        ("unit (sigma(0), chi(c,0))", 1,
         lambda c: (sig(zero)[0] != 0) | (chi(c, scl(0, c)) != 0)),
        ("unit (alpha(c,d,0))", 2,
         lambda c, d: alp(c, d, scl(0, c)) % p != 0),
        ("sigmapowerlin", 1,
         lambda c: scaled(lambda m: sig(scl(m, c)), sig(c))),
        ("sigmalin", 2, lambda c, d: (sig(add(c, d)) - sig(c) - sig(d)
                                      - (chi(c, d) if p == 2 else 0)) % p != 0),
        ("chisymp", 1, lambda c: chi(c, c) != 0),
        ("chiskew", 2, lambda c, d: (chi(c, d) + chi(d, c)) % p != 0),
        ("chipowerlin", 2,
         lambda c, d: scaled(lambda m: chi(scl(m, c), d), chi(c, d))),
        ("chimultilin", 3, lambda c, d, e: (chi(add(c, d), e) - chi(c, e)
                                            - chi(d, e) - 3 * alp(c, d, e))
         % p != 0),
    ]
    if p == 2:
        identities.append(
            ("chi-polarization", 2, lambda c, d: (sig(add(c, d)) - sig(c)
                                                  - sig(d) - chi(c, d))
             % 2 != 0))
    identities += [
        ("alphasymp", 2, lambda c, d: (alp(c, c, d) % p != 0)
         | (alp(c, d, c) % p != 0) | (alp(d, c, c) % p != 0)),
        ("alphaskew", 3, alphaskew),
        ("alphapowerlin", 3,
         lambda c, d, e: scaled(lambda m: alp(scl(m, c), d, e),
                                alp(c, d, e))),
        ("alphamultilin", 3,
         lambda c, d, e: (alp(c, d, e) - alp_last(c, d, e)) % p != 0),
    ]
    return elem, identities


def checked_adjoint_translate(C: Cvs, kvec) -> Cvs:
    """adjoint_translate, with a p = 2 output validated by all 13
    identities rather than assumed to be a CVS; AssertionError if not."""
    out = adjoint_translate(C, kvec)
    if C.p == 2:
        rep = validate_thirteen(out)
        if not rep.ok:
            raise AssertionError(
                "adjoint translate produced an invalid CVS for p=2: %s"
                % "; ".join(str(c) for c in rep.failures()))
    return out
