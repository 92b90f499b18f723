"""The theta kernel theta(u, w) = Phi(u) . Psi(w) against independent paths:
a literal level sum, table lookups, the recursive product oracle, and
sampled verification at a size with no theta table."""

import time

import numpy as np
import pytest

from codeloops.codes import builtin_golay24, code_to_cvs
from codeloops.cvs import (alpha_rows, chi_rows, cvs_new, octonion_cvs,
                           pair_list, random_cvs, triple_list)
from codeloops.loops import (build, kappa_isotope, moufang_sampled,
                             mul_recursive, verify_coded_extension)
from codeloops.modules import (alpha_rows_module, build_module_extension,
                               chi_rows_module, module_new,
                               verify_module_extension)
from codeloops.tables import rank_rows, vector_table


def level_sum(u, w, moduli, zmod, zvals, chi, alpha):
    """theta(u, w) = sum_m [u_m chi(x_m, w_<m) - (w_m + 2 u_m)
    alpha(u_<m, w_<m, x_m) + z_m [u_m + w_m >= q_m]], term by term."""
    k = len(moduli)
    z = 0
    for m in range(k):
        em = [int(i == m) for i in range(k)]
        up = list(u[:m]) + [0] * (k - m)
        wp = list(w[:m]) + [0] * (k - m)
        z += u[m] * chi(em, wp) - (w[m] + 2 * u[m]) * alpha(up, wp, em)
        z += zvals[m] * ((u[m] + w[m]) // moduli[m])
    return z % zmod


def oracle_table(L, zvals, chi, alpha, kappa=None):
    """The level sum over C x C, plus alpha(u, kappa, w) for an isotope."""
    rows = [tuple(r) for r in vector_table(L.moduli).tolist()]
    shift = (lambda u, w: alpha(u, kappa, w)) if kappa else (lambda u, w: 0)
    return np.array([[(level_sum(u, w, L.moduli, L.zmod, zvals, chi, alpha)
                       + shift(u, w)) % L.zmod for w in rows] for u in rows])


def cvs_forms(C):
    return (lambda c, d: int(chi_rows(C, np.array([c]), np.array([d]))[0]),
            lambda c, d, e: int(alpha_rows(C, np.array([c]), np.array([d]),
                                           np.array([e]))[0]))


def module_forms(M):
    return (lambda c, d: int(chi_rows_module(M, c, d)[0]),
            lambda c, d, e: int(alpha_rows_module(M, c, d, e)[0]))


CVSS = ([random_cvs(2, 4, s) for s in range(3)]
        + [random_cvs(3, 3, s) for s in range(3)]
        + [random_cvs(5, 2, s) for s in range(2)]
        + [octonion_cvs(), cvs_new(3, 3, [1, 0, 0], {(0, 1): 1},
                                   {(0, 1, 2): 1})])

MODULES = [
    module_new(2, (4, 2), 4, (1, 3), {(0, 1): 2}, {}),
    module_new(2, (4, 2, 2), 4, (1, 3, 2), {(0, 1): 2, (1, 2): 2},
               {(0, 1, 2): 2}),
    module_new(3, (9, 3), 9, (4, 2), {(0, 1): 3}, {}),
    module_new(3, (9, 3, 3), 3, (1, 2, 0), {(0, 1): 1}, {(0, 1, 2): 1}),
    module_new(2, (8, 2), 2, (1, 1), {(0, 1): 1}, {}),
]


@pytest.mark.parametrize("C", CVSS, ids=repr)
def test_theta_table_is_the_level_sum_cvs(C):
    L = build(C, validate=False)
    want = oracle_table(L, C.sigma_basis, *cvs_forms(C))
    assert np.array_equal(L.theta_table(), want)
    assert L.theta_table().dtype == np.uint8


@pytest.mark.parametrize("M", MODULES, ids=repr)
def test_theta_table_is_the_level_sum_module(M):
    L = build_module_extension(M)
    want = oracle_table(L, M.z_values, *module_forms(M))
    assert np.array_equal(L.theta_table(), want)


@pytest.mark.parametrize("C, kappa", [
    (octonion_cvs(), (1, 0, 1)),
    (cvs_new(3, 3, [1, 0, 0], {(0, 1): 1}, {(0, 1, 2): 1}), (1, 2, 0)),
    (random_cvs(3, 3, 4), (2, 2, 1)),
])
def test_theta_table_is_the_level_sum_isotope(C, kappa):
    iso = kappa_isotope(build(C, validate=False), kappa)
    want = oracle_table(iso, C.sigma_basis, *cvs_forms(C), kappa=kappa)
    assert np.array_equal(iso.theta_table(), want)


def test_theta_table_is_the_level_sum_module_isotope():
    M = MODULES[3]
    iso = kappa_isotope(build_module_extension(M), (2, 1, 1))
    want = oracle_table(iso, M.z_values, *module_forms(M), kappa=(2, 1, 1))
    assert np.array_equal(iso.theta_table(), want)


@pytest.mark.parametrize("L", [
    build(random_cvs(2, 6, 1), validate=False),
    build(random_cvs(3, 4, 2), validate=False),
    build(random_cvs(7, 2, 0), validate=False),
    build_module_extension(MODULES[1]),
    build_module_extension(MODULES[2]),
    kappa_isotope(build(random_cvs(3, 4, 5), validate=False), (1, 0, 2, 1)),
], ids=["cvs2", "cvs3", "cvs7", "module4", "module9", "isotope3"])
def test_theta_rows_match_table_lookups(L):
    rng = np.random.default_rng(7)
    U, W = (rng.integers(0, L.moduli, size=(500, L.k)) for _ in range(2))
    T = L.theta_table()
    want = T[rank_rows(U, L.moduli), rank_rows(W, L.moduli)]
    assert np.array_equal(L.theta_rows(U, W), want)


def test_mul_recursive_golay_rows_and_table():
    C = code_to_cvs(builtin_golay24())
    rows, table = build(C), build(C)
    table.theta_table()
    assert rows._theta_table is None
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, b = (rows.element(int(rng.integers(2)), rng.integers(0, 2, C.k))
                for _ in range(2))
        want = mul_recursive(rows, a, b)
        assert rows.mul(a, b) == want
        assert table.mul(a, b) == want


def test_table_consumers_widen_before_summing():
    # |Z| = 256 stores theta as uint8, so sums of three values would wrap
    # if any consumer added them in the stored dtype
    M = module_new(2, (2, 4), 256, (255, 129), {(0, 1): 128}, {})
    L = build_module_extension(M)
    assert L.theta_table().dtype == np.uint8
    assert verify_module_extension(L).ok
    arr = L.table_array(max_order=L.order)
    rng = np.random.default_rng(1)
    for i, j in rng.integers(0, L.order, size=(200, 2)):
        a, b = L.element_at(int(i)), L.element_at(int(j))
        assert arr[i, j] == L.index(L.mul(a, b))


def test_sampled_verification_without_a_table():
    # |C| = 8192 is above the theta table limit: both checks run on
    # sampled rows through theta_rows
    C = random_cvs(2, 13, 0)
    L = build(C, validate=False)
    with pytest.raises(ValueError, match="too large"):
        L.theta_table()
    t0 = time.perf_counter()
    rep = verify_coded_extension(L, samples=2000)
    ok, wit = moufang_sampled(L, 2000)
    assert time.perf_counter() - t0 < 30
    assert rep.ok, [str(c) for c in rep.checks]
    assert all(c.mode == "sampled" for c in rep.checks)
    assert ok, wit


def test_sampled_verification_catches_a_wrong_chi():
    # negative control: the loop of C checked against C with one chi
    # value flipped
    C = random_cvs(2, 13, 0)
    L = build(C, validate=False)
    chi = dict(zip(pair_list(13), C.chi_flat))
    chi[(2, 7)] ^= 1
    alpha = dict(zip(triple_list(13), C.alpha_flat))
    L.cvs = cvs_new(2, 13, C.sigma_basis, chi, alpha)
    rep = verify_coded_extension(L, samples=2000)
    assert not rep.ok
    assert any(c.name == "CEcommute" and not c.ok for c in rep.checks)
