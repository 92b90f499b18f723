"""The theta kernel, the level sum theta(u, w) = u . lin(w) + S(u) . w +
sum_m z_m [u_m + w_m >= q_m], against independent paths: a literal level
sum, the GEMM of its feature maps, table lookups, the recursive product
oracle, and sampled verification at a size with no theta table."""

import time
import tracemalloc

import numpy as np
import pytest

from codeloops import loops
from codeloops.codes import builtin_golay24, code_to_cvs
from codeloops.cvs import (Forms, cvs_new, exact_float, octonion_cvs,
                           pair_list, random_cvs, signed_forms, triple_list)
from codeloops.loops import (CentralExtensionLoop, LevelSumLoop, _rows_sample,
                             build, kappa_isotope, moufang_sampled,
                             verify_coded_extension)
from codeloops.modules import build_module_extension, module_new
from codeloops.tables import (add_index_table, index_tables, place_values,
                              rank_rows, reduce_mod, unrank, unrank_rows,
                              vector_table)

from oracles import (features, gemm_theta_table, mul_recursive,
                     rows_sample_int64, xor_theta_table)


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


def scalar_forms(F):
    """chi and alpha of a Forms object on single vectors, as ints."""
    return (lambda c, d: int(F.chi([c], [d])[0]),
            lambda c, d, e: int(F.alpha([c], [d], [e])[0]))


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
    # |Z| = 256: the table is uint8, but sums of the level-sum terms pass 255
    module_new(2, (2, 4), 256, (255, 129), {(0, 1): 128}, {}),
]


@pytest.mark.parametrize("C", CVSS, ids=repr)
def test_theta_table_is_the_level_sum_cvs(C):
    L = build(C, validate=False)
    want = oracle_table(L, C.sigma_basis, *scalar_forms(C.forms))
    assert np.array_equal(L.theta_values(), want)
    assert L.theta_table().dtype == np.uint8


@pytest.mark.parametrize("M", MODULES, ids=repr)
def test_theta_table_is_the_level_sum_module(M):
    L = build_module_extension(M)
    want = oracle_table(L, M.z_values, *scalar_forms(M.forms))
    assert np.array_equal(L.theta_values(), want)


@pytest.mark.parametrize("C, kappa", [
    (octonion_cvs(), (1, 0, 1)),
    (cvs_new(3, 3, [1, 0, 0], {(0, 1): 1}, {(0, 1, 2): 1}), (1, 2, 0)),
    (random_cvs(3, 3, 4), (2, 2, 1)),
])
def test_theta_table_is_the_level_sum_isotope(C, kappa):
    iso = kappa_isotope(build(C, validate=False), kappa)
    want = oracle_table(iso, C.sigma_basis, *scalar_forms(C.forms), kappa=kappa)
    assert np.array_equal(iso.theta_values(), want)


def test_theta_table_is_the_level_sum_module_isotope():
    M = MODULES[3]
    iso = kappa_isotope(build_module_extension(M), (2, 1, 1))
    want = oracle_table(iso, M.z_values, *scalar_forms(M.forms), kappa=(2, 1, 1))
    assert np.array_equal(iso.theta_values(), want)


def alpha_free(C):
    """C with its alpha dropped: the same sigma and chi."""
    return cvs_new(C.p, C.k, C.sigma_basis,
                   dict(zip(pair_list(C.k), C.chi_flat)))


def counted_gemms(monkeypatch) -> list:
    """(loop, width of P, width of Q) for each _gemm_table(P, Q, T) call
    from now on."""
    calls, gemm = [], CentralExtensionLoop._gemm_table

    def counted(self, P, Q, T):
        calls.append((self, P.shape[1], Q.shape[1]))
        return gemm(self, P, Q, T)

    monkeypatch.setattr(CentralExtensionLoop, "_gemm_table", counted)
    return calls


S_FREE = {
    "golay": lambda: code_to_cvs(builtin_golay24()),
    **{"random_cvs(2, %d, %d)" % (k, k % 3):
       (lambda k=k: random_cvs(2, k, k % 3)) for k in range(12)},
    "p3 k5 alpha-free": lambda: alpha_free(random_cvs(3, 5, 1)),
    "p3 k6 alpha-free": lambda: alpha_free(random_cvs(3, 6, 0)),
    "p5 k4": lambda: random_cvs(5, 4, 2),
    "p7 k3": lambda: random_cvs(7, 3, 0),
    "cvs_new(3, 0)": lambda: cvs_new(3, 0),
    "module (4,2)": lambda: module_new(2, (4, 2), 4, (1, 3), {(0, 1): 2}, {}),
    "module (4,2,2) 2 alpha = 0": lambda: MODULES[1],
    "module (8,2,2)": lambda: module_new(2, (8, 2, 2), 2, (1, 1, 0),
                                         {(0, 1): 1, (1, 2): 1}, {(0, 1, 2): 1}),
    # |Z| = 2 on slots of order 4 and 2: the table is built by XOR there too
    "module (4,2,2) |Z|=2": lambda: module_new(2, (4, 2, 2), 2, (1, 0, 1),
                                               {(0, 1): 1, (0, 2): 1}, {}),
    "module (256,2) |Z|=256": lambda: module_new(2, (256, 2), 256, (255, 129),
                                                 {(0, 1): 128}, {}),
    "module (9,3)": lambda: MODULES[2],
}


def loop_of(data):
    if hasattr(data, "orders"):
        return build_module_extension(data)
    return build(data, validate=False)


@pytest.mark.parametrize("make", S_FREE.values(), ids=S_FREE.keys())
def test_table_without_s_is_built_slot_by_slot(make, monkeypatch):
    # S(u) vanishes mod |Z|, so the table is built level by level in
    # integers; it must equal the GEMM of the level-sum features
    L = loop_of(make())
    assert L._quad_u is None
    calls = counted_gemms(monkeypatch)
    T = L.theta_table()
    assert calls == []
    assert T.dtype == L.theta_dtype
    assert np.array_equal(L.theta_values(), gemm_theta_table(L))
    if L.zmod == 2:  # packed bits, built by XOR: the one-byte XOR oracle
        assert np.array_equal(L.theta_values(), xor_theta_table(L))


S_NONZERO = {
    "random_cvs(3, 3, 1)": lambda: build(random_cvs(3, 3, 1), validate=False),
    "random_cvs(3, 4, 2)": lambda: build(random_cvs(3, 4, 2), validate=False),
    "module (9,3,3) 2 alpha != 0": lambda: build_module_extension(module_new(
        3, (9, 3, 3), 9, (4, 2, 1), {(0, 1): 3, (1, 2): 3}, {(0, 1, 2): 3})),
    "golay isotope": lambda: kappa_isotope(
        build(code_to_cvs(builtin_golay24()), validate=False), (1,) + (0,) * 11),
    "octonion isotope": lambda: kappa_isotope(build(octonion_cvs()), (1, 0, 1)),
}


@pytest.mark.parametrize("make", S_NONZERO.values(), ids=S_NONZERO.keys())
def test_table_with_s_or_an_isotope_takes_the_gemm(make, monkeypatch):
    L = make()
    assert getattr(L, "_quad_u", None) is not None or hasattr(L, "kappa")
    # the slot-by-slot table plus S(V) V^T, or the base's table plus
    # V (B V^T): one GEMM of k-wide operands, never the carry features
    calls = counted_gemms(monkeypatch)
    T = L.theta_table()
    assert calls[-1] == (L, L.k, L.k)
    assert T.dtype == L.theta_dtype
    assert np.array_equal(L.theta_values(), gemm_theta_table(L))


@pytest.mark.parametrize("L", [
    build(random_cvs(2, 4, 1), validate=False),
    build(random_cvs(3, 3, 1), validate=False),
    build(random_cvs(5, 2, 0), validate=False),
    build_module_extension(module_new(3, (9, 3, 3), 9, (4, 2, 1),
                                      {(0, 1): 3, (1, 2): 3}, {(0, 1, 2): 3})),
    build_module_extension(MODULES[5]),
], ids=["cvs2", "cvs3", "cvs5", "module9", "module256"])
def test_isotope_table_is_the_feature_gemm(L):
    # an isotope's table is its base's table plus the GEMM of V and B V^T;
    # the GEMM of all its level-sum features, (u, B w) appended, is the
    # oracle
    assert L.forms.A.any() or L.p > 3 or L.k < 3
    for kv in vector_table(L.moduli).tolist():
        iso = kappa_isotope(L, kv)
        got = iso.theta_table()
        assert got.dtype == L.theta_dtype
        assert np.array_equal(iso.theta_values(), gemm_theta_table(iso)), kv


def test_isotope_tables_leave_the_base_table_alone():
    L = build(random_cvs(3, 3, 1), validate=False)
    T = L.theta_table()
    before = T.tobytes()
    isos = [kappa_isotope(L, kv) for kv in vector_table(L.moduli).tolist()]
    assert any(not np.array_equal(iso.theta_table(), T) for iso in isos)
    assert L.theta_table() is T and T.tobytes() == before


def test_isotope_theta_table_keeps_the_size_limit():
    # |C| = 8192 > 4096: neither the base nor its isotope builds a table
    iso = kappa_isotope(build(random_cvs(2, 13, 0), validate=False),
                        (1,) + (0,) * 12)
    with pytest.raises(ValueError, match="too large"):
        iso.theta_table()
    assert iso.base._theta_table is None


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint16])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 9, 17, 256])
def test_reduce_mod_is_the_remainder(dtype, m):
    info = np.iinfo(dtype)
    lo = max(int(info.min), -2 ** 40)
    hi = min(int(info.max), 2 ** 40)
    rng = np.random.default_rng(m)
    for a in (np.zeros(0, dtype=dtype), np.zeros((0, 5), dtype=dtype),
              np.array([info.min, info.max, 0, m - 1 if m <= hi else 0],
                       dtype=dtype),
              rng.integers(lo, hi, size=(7, 27, 27), endpoint=True).astype(dtype)):
        if m > info.max:  # m does not fit the dtype: both refuse it
            with pytest.raises(OverflowError):
                a % m
            with pytest.raises(OverflowError):
                reduce_mod(a.copy(), m)
            continue
        want = a % m
        got = reduce_mod(a, m)
        assert got is a and got.dtype == dtype
        assert np.array_equal(got, want)


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
    T = L.theta_values()
    want = T[rank_rows(U, L.moduli), rank_rows(W, L.moduli)]
    assert np.array_equal(L.theta_rows(U, W), want)


def test_vector_table_is_shared_and_read_only():
    # one array per moduli, shared with index_tables; the place values
    # rank its rows as rank_rows does
    m = (3, 9, 2)
    V = vector_table(m)
    assert V is vector_table(m) is index_tables(m)[0]
    assert not V.flags.writeable
    ranks = np.arange(len(V))
    assert np.array_equal(rank_rows(V, m), ranks)
    assert np.array_equal(V @ place_values(m), ranks)
    # unrank_rows inverts rank_rows on any shape of rank array, and every
    # row agrees with the one-vector unrank
    R = np.array([[5, 0, 53], [17, 1, 2]])
    U = unrank_rows(R, m)
    assert U.shape == (2, 3, 3) and np.array_equal(rank_rows(U, m), R)
    assert [tuple(r) for r in U.reshape(-1, 3).tolist()] == \
        [unrank(int(r), m) for r in R.ravel()]
    assert unrank_rows(np.zeros(2, dtype=np.int64), ()).shape == (2, 0)


@pytest.mark.parametrize("m", [(3, 3, 3), (2, 3, 4), (9, 3), (2, 2, 2), (),
                               (300, 2)])
def test_add_index_table_adds_vectors(m):
    V = vector_table(m)
    want = rank_rows(V[:, None] + V[None, :], m)
    got = add_index_table(m)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_add_index_table_peak_stays_near_its_result():
    # the digit corrections run in place under a one-byte carry mask, so
    # the traced peak at |C| = 2187 stays under twice the 36.5 MiB table
    # (the sum and one int64 carry array per digit traced 109.5 MiB)
    tracemalloc.start()
    try:
        T = add_index_table((3,) * 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T[1, 2] == 0 and T[2186, 1] == 2184  # each digit wraps alone
    assert peak < 2 * T.nbytes, (peak, T.nbytes)


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
    assert verify_coded_extension(L).ok
    arr = L.table_array(max_order=L.order)
    rng = np.random.default_rng(1)
    for i, j in rng.integers(0, L.order, size=(200, 2)):
        a, b = L.element_at(int(i)), L.element_at(int(j))
        assert arr[i, j] == L.index(L.mul(a, b))


def test_dimension_zero_module_with_z_of_order_256():
    # the table is one zero entry at k = 0, but |Z| = 256 does not fit the
    # uint8 table, so no reduction may run in it (one raised OverflowError)
    L = build_module_extension(module_new(2, (), 256, (), {}, {}))
    assert L.theta_table().tolist() == [[0]]
    assert L.theta_table().dtype == np.uint8
    assert verify_coded_extension(L).ok


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


def test_float64_bound_comes_from_the_data():
    # the quadratic terms are float products in the dtype exact_float
    # picks from the data's bounds: float32 while every partial sum stays
    # below 2^24, float64 below 2^53
    k = 3
    X, A = np.zeros((k, k), dtype=np.int64), np.zeros((k, k, k), dtype=np.int64)
    LevelSumLoop(2, (2,) * k, 2 ** 48, (1,) * k, X, A)
    with pytest.raises(ValueError, match="2\\^53"):
        LevelSumLoop(2, (2,) * k, 2 ** 52, (1,) * k, X, A)
    G = build(code_to_cvs(builtin_golay24()), validate=False)
    assert G.theta_dtype == np.uint8
    # Parker's forms and quadratic terms run in float32
    assert G.forms._X.dtype == np.float32
    assert G._quad_w.dtype == np.float32


class FlatLoop(LevelSumLoop):
    """A level-sum loop of bare data, whose laws are the forms of that data."""

    def __init__(self, *data):
        super().__init__(*data)
        self.data = data

    @property
    def forms(self) -> Forms:
        return Forms(*self.data)


@pytest.mark.parametrize("zmod, dtype", [(1864136, np.float32),
                                         (1864137, np.float64)])
def test_theta_table_at_the_float32_bound(zmod, dtype, monkeypatch):
    # k = 8 over F_2 with alpha_123 = 1 the only alpha value: S(u) = (2 u_2
    # u_3, -2 u_1 u_3, 0, ...) mod |Z| is at most |Z| - 2, so the bound of
    # the S GEMM, |Z| + 8 max S max w, is 9 |Z| - 16: just below 2^24 at
    # |Z| = 1864136 and just above it at 1864137.  The isotope's B w has
    # entries -w_j up to |Z| - 1, so its GEMM bound is 9 |Z| - 8.  Both
    # tables must equal the int64 product of the level-sum features
    bounds = []

    def recorded(bound, what):
        fl = exact_float(bound, what)
        if what == "theta table":
            bounds.append((bound, fl))
        return fl

    monkeypatch.setattr(loops, "exact_float", recorded)
    k = 8
    rng = np.random.default_rng(zmod)
    alpha = [1] + [0] * (len(triple_list(k)) - 1)
    X, A = signed_forms(k, zmod, rng.integers(0, zmod, len(pair_list(k)))
                        .tolist(), alpha)
    L = FlatLoop(2, (2,) * k, zmod, rng.integers(0, zmod, k).tolist(), X, A)
    I = kappa_isotope(L, (1, 1) + (0,) * (k - 2))
    V = vector_table(L.moduli)
    for M in (L, I):
        P, Q = features(M, V)
        assert np.array_equal(M.theta_table(), P @ Q.T % zmod)
    assert bounds == [(9 * zmod - 16, dtype), (9 * zmod - 8, np.float64)]


def _row_dtype_case(L, dtype):
    return pytest.param(L, dtype, id=repr(L))


@pytest.mark.parametrize("L, dtype", [
    *(_row_dtype_case(build(random_cvs(p, 3, 0), validate=False), np.int8)
      for p in (2, 3, 5)),
    _row_dtype_case(build_module_extension(module_new(
        2, (4, 2), 2, (1, 1), {(0, 1): 1}, {})), np.int8),
    # 2 (q - 1) = 120 and 132: the last int8 slot order and the first int16
    _row_dtype_case(build(random_cvs(61, 2, 0), validate=False), np.int8),
    _row_dtype_case(build(random_cvs(67, 2, 0), validate=False), np.int16),
    _row_dtype_case(build(cvs_new(3, 0)), np.int8),
    _row_dtype_case(build_module_extension(module_new(
        2, (256, 2), 256, (255, 129), {(0, 1): 128}, {})), np.int16)])
def test_rows_sample_draws_what_the_array_bound_draws(L, dtype):
    # equal moduli are drawn with a scalar bound and every draw is cast to
    # the narrowest signed dtype that holds a sum of two slot entries
    # (int8 at dimension 0 too, where np.min_scalar_type(0) is uint8); the
    # values, and so every sampled verdict and witness, must be the int64
    # draws of the array bound
    assert L.row_dtype == dtype
    for seed in range(4):
        z, U = _rows_sample(L, np.random.default_rng(seed), 500)
        want_z, want_U = rows_sample_int64(L, np.random.default_rng(seed), 500)
        assert z.dtype == np.int64 and U.dtype == dtype
        assert U.shape == (500, L.k)
        assert np.array_equal(z, want_z) and np.array_equal(U, want_U)
