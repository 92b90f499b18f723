"""The shared form evaluators (cvs.Forms) against literal Python sums over
pairs and triples, written from the definitions of sigma, chi and alpha on
free basis data:

  alpha(c, d, e) = sum_{i,j,l} c_i d_j e_l alpha(e_i, e_j, e_l), with
                   alpha(e_i, e_j, e_l) the sign of the permutation sorting
                   (i, j, l) times the stored value of the sorted triple
  chi(c, d)      = sum_{i,j} c_i d_j chi(e_i, e_j), chi(e_j, e_i) = -chi(e_i, e_j),
                   plus for p = 2 sum_{i<j} sum_m c_i c_j d_m alpha(e_i, e_j, e_m)
                   + sum_i sum_{j<m} c_i d_j d_m alpha(e_i, e_j, e_m)
  sigma(c)       = sum_i c_i sigma_i, plus for p = 2
                   sum_{i<j} c_i c_j chi_ij + sum_{i<j<l} c_i c_j c_l alpha_ijl

Vectors, pairs and triples are checked exhaustively while there are at
most CAP of them, and on seeded tuples above it; of the cases below only
the triples of the p = 5 CVSs with k >= 3 (where alpha = 0) are sampled.
"""

import itertools

import numpy as np
import pytest

from codeloops import cvs
from codeloops.codes import builtin_golay24, code_to_cvs
from codeloops.cvs import (Forms, cvs_new, exact_float, octonion_cvs,
                           outer_matmul, pair_list, random_cvs, signed_forms,
                           triple_list)
from codeloops.modules import eval_sigma2, module_new
from codeloops.tables import vector_table

from oracles import eval_chi_polarized, outer

CAP = 81 ** 3
SAMPLES = 3000


def _sign(perm) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


class Literal:
    """sigma, chi and alpha of flat basis data by literal sums."""

    def __init__(self, p, k, modulus, sigma, chi_flat, alpha_flat):
        self.p, self.k, self.m = p, k, modulus
        self.sigma_basis, self.chi_flat, self.alpha_flat = (
            sigma, chi_flat, alpha_flat)
        self.chi = {}
        for (i, j), v in zip(pair_list(k), chi_flat):
            self.chi[i, j], self.chi[j, i] = v, -v
        self.alpha = {}
        for t, v in zip(triple_list(k), alpha_flat):
            for perm in itertools.permutations(range(3)):
                self.alpha[tuple(t[a] for a in perm)] = _sign(perm) * v

    def alpha_of(self, c, d, e) -> int:
        return sum(c[i] * d[j] * e[l] * v
                   for (i, j, l), v in self.alpha.items()) % self.m

    def chi_of(self, c, d) -> int:
        s = sum(c[i] * d[j] * v for (i, j), v in self.chi.items())
        if self.p == 2:
            s += sum(c[i] * c[j] * d[m] * v
                     for (i, j, m), v in self.alpha.items() if i < j)
            s += sum(c[i] * d[j] * d[m] * v
                     for (i, j, m), v in self.alpha.items() if j < m)
        return s % self.m

    def sigma_of(self, c) -> int:
        s = sum(ci * si for ci, si in zip(c, self.sigma_basis))
        if self.p == 2:
            s += sum(c[i] * c[j] * v
                     for (i, j), v in zip(pair_list(self.k), self.chi_flat))
            s += sum(c[i] * c[j] * c[l] * v for (i, j, l), v
                     in zip(triple_list(self.k), self.alpha_flat))
        return s % self.m


def tuples(V, arity, seed=0):
    """Every arity-tuple of rows of V, or seeded ones above the caps."""
    n = len(V)
    if n ** arity <= CAP:
        idx = np.indices((n,) * arity).reshape(arity, -1)
    else:
        idx = np.random.default_rng(seed).integers(0, n, size=(arity, SAMPLES))
    return [V[i] for i in idx]


def check_forms(lit, V, chi, alpha, sigma=None):
    (c,) = tuples(V, 1)
    if sigma is not None:
        assert sigma(c).tolist() == [lit.sigma_of(x) for x in c.tolist()]
    c, d = tuples(V, 2)
    assert chi(c, d).tolist() == [lit.chi_of(x, y)
                                  for x, y in zip(c.tolist(), d.tolist())]
    c, d, e = tuples(V, 3)
    assert alpha(c, d, e).tolist() == [
        lit.alpha_of(x, y, z)
        for x, y, z in zip(c.tolist(), d.tolist(), e.tolist())]


def check_alpha_block(lit, V, forms):
    # three unequal row sets; W defaults to V
    U, Vs, W = V[:3], V[::5][:40], V[2::7][:30]
    assert forms.alpha_block(U, Vs, W).tolist() == [
        [[lit.alpha_of(x, y, z) for z in W.tolist()] for y in Vs.tolist()]
        for x in U.tolist()]
    assert np.array_equal(forms.alpha_block(U, Vs),
                          forms.alpha_block(U, Vs, Vs))


CVSS = ([random_cvs(2, k, s) for k in (2, 3, 4) for s in range(2)]
        + [octonion_cvs()]
        + [random_cvs(3, k, s) for k in (2, 3) for s in range(3)]
        + [cvs_new(3, 3, [1, 0, 0], {(0, 1): 1}, {(0, 1, 2): 1}),
           random_cvs(3, 4, 1)]
        + [random_cvs(5, k, s) for k in (2, 3) for s in range(2)]
        + [random_cvs(5, 4, 0)])

MODULES = [
    module_new(2, (4, 2), 2, (1, 1), {(0, 1): 1}, {}),
    module_new(2, (2, 2, 2, 2), 2, (1, 0, 1, 1), {(0, 1): 1, (2, 3): 1},
               {(0, 1, 2): 1, (1, 2, 3): 1}),
    module_new(2, (4, 2, 2), 4, (1, 3, 2), {(0, 1): 2, (1, 2): 2},
               {(0, 1, 2): 2}),
    module_new(2, (4, 4), 4, (1, 2), {(0, 1): 3}, {}),
    module_new(3, (9, 3), 9, (4, 2), {(0, 1): 3}, {}),
    module_new(3, (3, 3, 3), 9, (1, 2, 0), {(0, 1): 3, (1, 2): 6},
               {(0, 1, 2): 3}),
    module_new(3, (9, 3, 3), 9, (1, 2, 0), {(0, 1): 3}, {(0, 1, 2): 6}),
]


@pytest.mark.parametrize("C", CVSS, ids=repr)
def test_cvs_forms_are_the_literal_sums(C):
    lit = Literal(C.p, C.k, C.p, C.sigma_basis, C.chi_flat, C.alpha_flat)
    check_forms(lit, vector_table((C.p,) * C.k),
                C.forms.chi, C.forms.alpha, C.forms.sigma)
    check_alpha_block(lit, vector_table((C.p,) * C.k), C.forms)


@pytest.mark.parametrize("M", MODULES, ids=repr)
def test_module_forms_are_the_literal_sums(M):
    lit = Literal(M.p, M.k, M.z_order, M.z_values, M.chi_flat, M.alpha_flat)
    check_forms(lit, vector_table(M.orders),
                M.forms.chi, M.forms.alpha)
    check_alpha_block(lit, vector_table(M.orders), M.forms)


def test_golay_rows_against_sigma2_and_polarization():
    C = code_to_cvs(builtin_golay24())
    M = module_new(2, (2,) * C.k, 2, C.sigma_basis,
                   dict(zip(pair_list(C.k), C.chi_flat)),
                   dict(zip(triple_list(C.k), C.alpha_flat)))
    rng = np.random.default_rng(500)
    U, W, E = rng.integers(0, 2, size=(3, 500, C.k))
    assert C.forms.sigma(U).tolist() == [
        eval_sigma2(M, C.sigma_basis, u) for u in U.tolist()]
    chi = C.forms.chi(U, W)
    assert chi.tolist() == [
        eval_chi_polarized(C, u, w) for u, w in zip(U.tolist(), W.tolist())]
    assert np.array_equal(M.forms.chi(U, W), chi)
    lit = Literal(2, C.k, 2, C.sigma_basis, C.chi_flat, C.alpha_flat)
    assert C.forms.alpha(U, W, E).tolist() == [
        lit.alpha_of(u, w, e)
        for u, w, e in zip(U.tolist(), W.tolist(), E.tolist())]


def test_row_blocks_join_up():
    # at k = 4 a block holds 2^18 / 16 = 16384 rows, so 300000 rows take
    # 19 blocks; the answer must equal that of many small calls
    F = random_cvs(3, 4, 1).forms
    rng = np.random.default_rng(4)
    c, d, e = rng.integers(0, 3, size=(3, 300000, 4))
    parts = range(0, len(c), 1000)
    assert np.array_equal(F.alpha(c, d, e), np.concatenate(
        [F.alpha(c[i:i + 1000], d[i:i + 1000], e[i:i + 1000])
         for i in parts]))
    assert np.array_equal(F.chi(c, d), np.concatenate(
        [F.chi(c[i:i + 1000], d[i:i + 1000]) for i in parts]))
    assert np.array_equal(F.sigma(c), np.concatenate(
        [F.sigma(c[i:i + 1000]) for i in parts]))


@pytest.mark.parametrize("n, k, kg, m", [
    (500, 1, 1, 1), (3000, 12, 12, 12), (300, 70, 70, 70), (200, 3, 5, 2),
    (0, 1, 1, 1), (0, 12, 12, 12), (0, 70, 70, 70), (7, 0, 0, 0)])
def test_outer_matmul_is_the_outer_product_times_t(n, k, kg, m):
    # the cubic terms contract F with T first and never form outer(F, G);
    # explicit shapes keep n = 0 rows (and k = 0 slots) working
    rng = np.random.default_rng(n + k)
    F = rng.integers(0, 4, (n, k)).astype(np.float64)
    G = rng.integers(0, 4, (n, kg)).astype(np.float64)
    T = rng.integers(0, 9, (k * kg, m)).astype(np.float64)
    got = outer_matmul(F, G, T)
    assert got.shape == (n, m)
    assert np.array_equal(got, outer(F, G) @ T)


def test_exact_float_picks_the_narrowest_exact_dtype():
    assert exact_float(0, "x") is np.float32
    assert exact_float(2 ** 24 - 1, "x") is np.float32
    assert exact_float(2 ** 24, "x") is np.float64
    assert exact_float(2 ** 53 - 1, "x") is np.float64
    with pytest.raises(ValueError, match="^sums of x not exact.*2\\^53"):
        exact_float(2 ** 53, "sums of x")


@pytest.mark.parametrize("zorder, dtype", [(10922, np.float32),
                                           (10923, np.float64)])
def test_forms_are_the_literal_sums_at_the_float32_bound(zorder, dtype):
    # 3 k^3 q^3 |Z| = 1536 |Z| is just below 2^24 at |Z| = 10922 and just
    # above it at 10923; both dtypes must give the exact literal sums
    k = 4
    rng = np.random.default_rng(zorder)
    sigma = rng.integers(0, zorder, k).tolist()
    chi_flat = rng.integers(0, zorder, len(pair_list(k))).tolist()
    alpha_flat = rng.integers(0, zorder, len(triple_list(k))).tolist()
    F = Forms(2, (2,) * k, zorder, sigma,
              *signed_forms(k, zorder, chi_flat, alpha_flat))
    assert F._X.dtype == dtype
    lit = Literal(2, k, zorder, sigma, chi_flat, alpha_flat)
    V = vector_table((2,) * k)
    check_forms(lit, V, F.chi, F.alpha, F.sigma)
    check_alpha_block(lit, V, F)
    assert F.chi_table(V[:5], V).tolist() == [
        [lit.chi_of(x, y) for y in V.tolist()] for x in V[:5].tolist()]


def test_forms_reduce_rows_without_writing_them():
    # rows are reduced into [0, q) on a copy: the caller's array, with
    # entries out of range and negative, is left as it was
    for F, q in ((random_cvs(3, 4, 0).forms, 3),
                 (MODULES[2].forms, np.array(MODULES[2].orders))):
        # int8 rows are reduced in int8, int64 ones in int64
        for dt in (np.int64, np.int8):
            c = np.random.default_rng(0).integers(
                -20, 20, size=(50, F.A.shape[0])).astype(dt)
            d = c[::-1].copy()
            before = c.copy()
            assert np.array_equal(F.chi(c, d), F.chi(c % q, d % q))
            assert np.array_equal(F.sigma(c), F.sigma(c % q))
            assert np.array_equal(c, before)


def test_vanishing_alpha_skips_the_cubic_product(monkeypatch):
    # alpha = 0: alpha and alpha_block are zeros without a product
    C = cvs_new(3, 4, (1, 0, 2, 0), {(0, 1): 1, (2, 3): 2})
    F = C.forms
    monkeypatch.setattr(cvs, "outer_matmul", None)  # any call raises
    rows = np.random.default_rng(1).integers(0, 3, size=(3, 40, 4))
    got = F.alpha(*rows)
    assert got.dtype == np.int64 and np.array_equal(got, np.zeros(40))
    assert F.alpha(*rows[:, :0]).shape == (0,)
    block = F.alpha_block(rows[0][:5], rows[1][:6], rows[2][:7])
    assert block.dtype == np.int64 and block.shape == (5, 6, 7)
    assert not block.any()


@pytest.mark.parametrize("C, width", [
    # no cubic term: k-wide rows, so 3,744 rows a block at k = 70, not 53
    (cvs_new(2, 70, (1,) + (0,) * 69), 70),
    (cvs_new(3, 30, (1,) * 30, {(0, 1): 1}), 30),
    # alpha != 0 over F_2: the k^2-wide F @ T of the cubic terms
    (random_cvs(2, 20, 3), 400)])
def test_forms_blocks_follow_the_widest_temporary(C, width, monkeypatch):
    F = C.forms
    rng = np.random.default_rng(0)
    c, d = (rng.integers(0, C.p, size=(9000, C.k)) for _ in range(2))
    want_chi, want_sigma = F.chi(c, d), F.sigma(c)
    blocks = []
    rows = F._rows
    monkeypatch.setattr(F, "_rows", lambda V: blocks.append(len(V)) or rows(V))
    assert np.array_equal(F.chi(c, d), want_chi)
    assert np.array_equal(F.sigma(c), want_sigma)
    step = cvs._BLOCK_ENTRIES // width
    sizes = [min(step, 9000 - lo) for lo in range(0, 9000, step)]
    assert blocks == [s for s in sizes for _ in range(2)] + sizes


def test_forms_refuse_data_past_the_float64_bound():
    k = 4
    X, A = np.zeros((k, k), dtype=np.int64), np.zeros((k, k, k), dtype=np.int64)
    Forms(2, (2,) * k, 2 ** 40, (0,) * k, X, A)  # 3 * 64 * 8 * 2^40 < 2^53
    with pytest.raises(ValueError, match="2\\^53"):
        Forms(2, (2,) * k, 2 ** 45, (0,) * k, X, A)
