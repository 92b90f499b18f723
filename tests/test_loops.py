import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeloops import loops
from codeloops.codes import builtin_golay24, code_to_cvs
from codeloops.cvs import (Forms, adjoint_translate, cvs_new, octonion_cvs,
                           pair_list, random_cvs, triple_list, validate_axioms)
from codeloops.loops import (DEFAULT_VERIFY_BUDGET, CentralExtensionLoop,
                             CodedLoop, CodedLoopElement, LevelSumLoop,
                             SdcpLoop, _assoc_tables, _comm_table, _rows_inv,
                             _rows_mul, _rows_sample, _rows_theta, build,
                             emit_cayley_csv, kappa_isotope, moufang_sampled,
                             parse_cayley_csv, restricted_cvs,
                             semidirect_central_product,
                             verify_coded_extension)
from codeloops.modular import fp_vector
from codeloops.modules import build_module_extension, module_new
from codeloops.tables import vector_table
from codeloops.words import eval_word, parse_word

from oracles import (center_vectors, gemm_theta_table,
                     moufang_sampled_four_identities, mul_recursive,
                     rows_inv_int64, rows_mul_int64, rows_sample_int64,
                     xor_theta_table)


def all_elements(L):
    return [L.element_at(i) for i in range(L.order)]


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_checks_refuse_fewer_than_one_sample(samples):
    C = octonion_cvs()
    L = build(C)
    for call in (lambda: validate_axioms(C, samples=samples),
                 lambda: verify_coded_extension(L, samples=samples),
                 lambda: moufang_sampled(L, samples)):
        with pytest.raises(ValueError, match="must be >= 1"):
            call()


def test_dim1_sigma1_p3_is_cyclic_9():
    L = build(cvs_new(3, 1, [1], None, None))
    assert L.order == 9
    g = L.generator(0)
    assert L.element_order(g) == 9


def test_dim1_sigma1_p2_is_cyclic_4():
    L = build(cvs_new(2, 1, [1], None, None))
    assert L.order == 4
    assert L.element_order(L.generator(0)) == 4


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dim0_is_cyclic_of_order_p(p):
    # no basis vectors: C = {0} and the loop is its central subgroup Z
    L = build(cvs_new(p, 0))
    assert L.order == p and L.moduli == ()
    assert L.element_order(L.central_generator()) == p
    for budget in (DEFAULT_VERIFY_BUDGET, 0):
        rep = verify_coded_extension(L, budget=budget, samples=50)
        assert rep.ok, rep.lines()
    assert moufang_sampled(L, 50) == (True, None)
    T = L.table_array()
    assert np.array_equal(T, (np.arange(p)[:, None] + np.arange(p)) % p)


def test_dim1_sigma0_is_elementary():
    L = build(cvs_new(3, 1, None, None, None))
    orders = sorted(L.element_order(a) for a in all_elements(L))
    assert orders == [1, 3, 3, 3, 3, 3, 3, 3, 3]


def test_mul_recursive_agrees_octonion():
    L = build(octonion_cvs())
    els = all_elements(L)
    for a in els:
        for b in els:
            want = L.mul(a, b)
            assert mul_recursive(L, a, b, "general") == want
            assert mul_recursive(L, a, b, "p2") == want


def test_mul_recursive_agrees_p3():
    C = cvs_new(3, 2, [1, 2], {(0, 1): 1}, None)
    L = build(C)
    els = all_elements(L)
    for a in els:
        for b in els:
            want = L.mul(a, b)
            assert mul_recursive(L, a, b, "general") == want
            assert mul_recursive(L, a, b, "p3") == want


def test_mul_recursive_agrees_p5():
    C = cvs_new(5, 2, [1, 0], {(0, 1): 3}, None)
    L = build(C)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = L.element_at(int(rng.integers(L.order)))
        b = L.element_at(int(rng.integers(L.order)))
        want = L.mul(a, b)
        assert mul_recursive(L, a, b, "general") == want
        assert mul_recursive(L, a, b, "big") == want


def test_mul_recursive_unknown_flavor():
    L = build(cvs_new(2, 1, [1], None, None))
    a = L.generator(0)
    with pytest.raises(ValueError):
        mul_recursive(L, a, a, "bogus")


def test_verify_extension_exhaustive():
    for C in (octonion_cvs(),
              cvs_new(3, 2, [1, 0], {(0, 1): 2}, None),
              cvs_new(5, 2, None, {(0, 1): 1}, None)):
        rep = verify_coded_extension(build(C))
        assert rep.ok, [str(c) for c in rep.checks]
        assert all(c.mode == "exhaustive" for c in rep.checks)


def _alpha_flipped(C, triple):
    """C with alpha on one basis triple moved by 1."""
    alpha = dict(zip(triple_list(C.k), C.alpha_flat))
    alpha[triple] = (alpha[triple] + 1) % C.p
    return cvs_new(C.p, C.k, C.sigma_basis, dict(zip(pair_list(C.k),
                                                     C.chi_flat)), alpha)


# verdicts and witnesses (as coordinate tuples per check) recorded from the
# exhaustive verifier before the associator check became one capped-chunk
# branch: the first failing (u, w, t) in rank order
EXHAUSTIVE_VERDICTS = [
    (octonion_cvs(), None, {}),
    (random_cvs(2, 7, 5), None, {}),
    (random_cvs(3, 5, 1), None, {}),
    (random_cvs(3, 4, 2), (0, 2, 3),
     {"CEassociate": ((0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0))}),
    (random_cvs(3, 5, 1), (1, 2, 4),
     {"CEassociate": ((0, 0, 0, 0, 1), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0))}),
    (random_cvs(2, 6, 3), (0, 1, 5),
     {"CEpower": ((1, 1, 0, 0, 0, 1),),
      "CEcommute": ((0, 0, 0, 0, 0, 1), (1, 1, 0, 0, 0, 0)),
      "CEassociate": ((0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0),
                      (1, 0, 0, 0, 0, 0))}),
]


@pytest.mark.parametrize("C, flip, failures", EXHAUSTIVE_VERDICTS)
def test_exhaustive_verdicts_and_witnesses(C, flip, failures):
    L = build(C, validate=False)
    if flip is not None:  # the loop of C checked against C with alpha moved
        L.cvs = _alpha_flipped(C, flip)
    rep = verify_coded_extension(L)
    assert all(c.mode == "exhaustive" for c in rep.checks)
    got = {c.name: c.witness
           for c in rep.checks if not c.ok}
    assert got == failures
    assert rep.ok == (not failures)


def test_associator_chunk_memory_at_729():
    # |C| = 729: each chunk holds at most 2^21 (u, w, t) entries, so the
    # first chunk and its expected alpha block stay far below the 1.9 GB
    # that 64 rows of u with row copies per triple once took
    C = random_cvs(3, 6, 0)
    L = build(C, validate=False)
    L.theta_table()
    V = vector_table(L.moduli)
    tracemalloc.start()
    try:
        sl, az = next(_assoc_tables(L))
        want = C.forms.alpha_block(V[sl], V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert az.size <= 1 << 21
    assert np.array_equal(az, want)
    assert peak < 128 * 2 ** 20, peak


def _scan_oracle(L):
    """z-parts of every commutator [u, w] and associator [u, w, t] of the
    vector lifts, from element products alone; the vector parts must
    vanish.  Products read the theta table once it is built."""
    L.theta_table()
    els = [L.element_at(i) for i in range(L.csize)]
    zero = (0,) * L.k
    comm = np.zeros((L.csize,) * 2, dtype=np.int64)
    assoc = np.zeros((L.csize,) * 3, dtype=np.int64)
    for (i, a), (j, b) in itertools.product(enumerate(els), repeat=2):
        c = L.commutator(a, b)
        assert c.v == zero
        comm[i, j] = c.z
        for l, d in enumerate(els):
            c = L.associator(a, b, d)
            assert c.v == zero
            assoc[i, j, l] = c.z
    return comm, assoc


class _CocycleLoop(CentralExtensionLoop):
    """The central extension by a given theta table."""

    def __init__(self, zmod, moduli, T):
        super().__init__(zmod, moduli)
        self._T = T

    def _build_theta_table(self):
        return self._T


def _random_cocycle_loop():
    # a random theta, zero on the identity: a loop without the inverse
    # property, so theta(-s, s) != theta(s, -s) and the left division term
    # D of the bulk scans is nonzero (it vanishes on every Moufang loop)
    T = np.random.default_rng(8).integers(0, 5, size=(27, 27))
    T[0] = T[:, 0] = 0
    L = _CocycleLoop(5, (3, 9), T)
    neg = [L.rank(tuple(-x % m for x, m in zip(L.unrank(s), L.moduli)))
           for s in range(27)]
    assert any(T[neg[s], s] != T[s, neg[s]] for s in range(27))
    return L


def _scan_loop(name):
    C = random_cvs(3, 3, 0)  # sigma, chi and alpha all nonzero
    M = module_new(3, (9, 3), 3, (1, 0), {(0, 1): 1}, {})
    return {"cocycle": _random_cocycle_loop,
            "octonion": lambda: build(octonion_cvs()),
            "cvs333": lambda: build(C),
            "isotope100": lambda: kappa_isotope(build(C), (1, 0, 0)),
            "isotope212": lambda: kappa_isotope(build(C), (2, 1, 2)),
            "module93": lambda: build_module_extension(M),
            "sdcp333": lambda: basis_gluing((3, 3, 0), 1)}[name]()


@pytest.mark.parametrize("name", ["cocycle", "octonion", "cvs333",
                                  "isotope100", "isotope212", "module93",
                                  "sdcp333"])
def test_bulk_scans_match_element_products(name, monkeypatch):
    # _comm_table and every _assoc_tables chunk, entry by entry, against
    # L.commutator and L.associator on element objects; the chunks are
    # taken whole, one u row each, and 5 rows each (5 divides neither 8
    # nor 27)
    L = _scan_loop(name)
    comm, assoc = _scan_oracle(L)
    assert np.array_equal(_comm_table(L), comm)
    n = L.csize
    for rows in (None, 1, 5):
        if rows is not None:
            monkeypatch.setattr(loops, "_ASSOC_ENTRIES", rows * n * n)
        got = list(_assoc_tables(L))
        assert [sl.start for sl, _ in got] == list(
            range(0, n, rows or n))
        assert np.array_equal(np.concatenate([z for _, z in got]), assoc)


def test_inverses_and_powers(oct_loop):
    L = oct_loop
    e = L.identity
    for a in all_elements(L):
        assert L.mul(a, L.inv(a)) == e
        assert L.mul(L.inv(a), a) == e
        assert L.pow(a, 4) == e  # exponent of the octonion loop
        assert L.pow(a, -1) == L.inv(a)


@pytest.mark.parametrize("L", [
    build(octonion_cvs()), build(random_cvs(3, 3, 0)),
    build_module_extension(module_new(2, (4, 2), 2, (1, 0), {(0, 1): 1}, {}))])
def test_pow_reduces_the_exponent_exactly(L):
    # a^n against |n| plain products (of a^-1 when n < 0), for every element
    # and every n in [-20, 20]: |Z| lcm(moduli) is 4, 9 and 8 here
    for a in all_elements(L):
        for n in range(-20, 21):
            b, acc = (L.inv(a) if n < 0 else a), L.identity
            for _ in range(abs(n)):
                acc = L.mul(b, acc)
            assert L.pow(a, n) == acc, (a, n)


def test_element_refuses_a_vector_part_of_the_wrong_length(oct_loop):
    # the length is checked before reducing, so no coordinate is dropped
    for v in ((1, 0, 1, 1, 1), (1, 0, 1, 1), (1, 0)):
        with pytest.raises(ValueError, match="wrong dimension"):
            oct_loop.element(0, v)
    assert oct_loop.element(3, (1, 2, 3)).v == (1, 0, 1)


def test_element_orders_octonion(oct_loop):
    orders = sorted(oct_loop.element_order(a) for a in all_elements(oct_loop))
    assert orders == [1, 2] + [4] * 14


def test_moufang_sampled_ok(oct_loop, cml81_loop):
    for L in (oct_loop, cml81_loop):
        ok, wit = moufang_sampled(L, 4000, seed=1)
        assert ok, wit


def test_kappa_of_the_wrong_length_is_refused(oct_loop):
    with pytest.raises(ValueError):
        kappa_isotope(oct_loop, (1, 0))


def test_kappa_zero_is_identity(oct_loop):
    iso = kappa_isotope(oct_loop, fp_vector([0, 0, 0], 2))
    assert np.array_equal(iso.theta_values(), oct_loop.theta_values())


def test_kappa_isotope_is_coded_extension_of_translate():
    # the recorded CVS of the isotope is adt_{2k} = adt_{-k} for p = 3, and
    # the isotope passes the extension laws against it exhaustively
    C = cvs_new(3, 3, [1, 0, 0], {(0, 1): 1}, {(0, 1, 2): 1})
    L = build(C)
    for kv in itertools.product(range(3), repeat=3):
        iso = kappa_isotope(L, kv)
        negk = fp_vector([(-c) % 3 for c in kv], 3)
        want = adjoint_translate(C, negk)
        assert iso.cvs.chi_flat == want.chi_flat
        rep = verify_coded_extension(iso)
        assert rep.ok, (kv, [str(c) for c in rep.checks])


@pytest.mark.parametrize("C", [octonion_cvs(), random_cvs(3, 3, 1),
                               random_cvs(3, 4, 2), random_cvs(2, 5, 1)],
                         ids=["oct", "r331", "r342", "r251"])
def test_isotope_forms_are_the_translate_forms(C):
    # oracle for the X + 2B rule: the isotope's forms, evaluated over all
    # of V, equal the forms of adt_{2k}(C) built by adjoint_translate
    L = build(C)
    V = vector_table(L.moduli)
    for kv in itertools.product(range(C.p), repeat=C.k):
        F = kappa_isotope(L, kv).forms
        W = adjoint_translate(C, fp_vector([2 * c for c in kv], C.p)).forms
        assert np.array_equal(F.sigma(V), W.sigma(V)), kv
        assert np.array_equal(F.chi_table(V, V), W.chi_table(V, V)), kv
        assert np.array_equal(F.alpha_block(V, V), W.alpha_block(V, V)), kv


def test_kappa_isotope_p2_realizes_base_data(oct_loop):
    # over F_2 the bilinear shift cancels in every law (2 alpha = 0), so the
    # isotope is a coded extension of the original CVS, not of adt_{-k}
    C = oct_loop.cvs
    for kv in itertools.product(range(2), repeat=3):
        iso = kappa_isotope(oct_loop, kv)
        assert iso.cvs.chi_flat == C.chi_flat
        assert iso.cvs.sigma_basis == C.sigma_basis
        rep = verify_coded_extension(iso)
        assert rep.ok, (kv, [str(c) for c in rep.checks])


def test_kappa_isotope_preserves_associators(cml81_loop):
    # associator values are alpha for both the loop and any isotope
    L = cml81_loop
    iso = kappa_isotope(L, (1, 2, 0))
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = (L.element_at(int(i))
                   for i in rng.integers(0, L.order, size=3))
        assert iso.associator(a, b, c) == L.associator(a, b, c)


def octonion_gluing():
    """The octonion CVS glued from three one-dimensional pieces, the
    first two glued first."""
    amb = octonion_cvs()
    e1, e2, e3 = (fp_vector(v, 2) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    P1 = build(cvs_new(2, 1, [1], None, None))
    P12 = semidirect_central_product(P1, P1, amb, [e1], [e2])
    return semidirect_central_product(P12, P1, amb, [e1, e2], [e3])


def basis_gluing(args, kd):
    """random_cvs(*args) glued from its restrictions to the first kd and
    the remaining basis vectors."""
    C = random_cvs(*args)
    basis = [fp_vector([int(i == j) for j in range(C.k)], C.p)
             for i in range(C.k)]
    D, E = basis[:kd], basis[kd:]
    return semidirect_central_product(build(restricted_cvs(C, D)),
                                      build(restricted_cvs(C, E)), C, D, E)


def sdcp_theta_oracle(S, U, W):
    """The per-pair gluing formula, literally, for rows of pairs: each
    factor's cocycle on its own part (nested gluings recurse), plus

      z0 = chi(E1, D2) + alpha(D1, E1 - D2, E2) + 2 alpha(D1, E1, D2)
           - 2 alpha(E1, D2, E2)

    from the ambient forms, where D1, E1 (of u) and D2, E2 (of w) are the
    images of the d and e parts under the embeddings."""
    def factor(L, U, W):
        return (sdcp_theta_oracle(L, U, W) if isinstance(L, SdcpLoop)
                else L.theta_rows(U, W))

    p, kd, F = S.zmod, S.Dext.k, S.ambient.forms
    ED, EE = np.array(S.embedD), np.array(S.embedE)
    D1, E1 = U[:, :kd] @ ED % p, U[:, kd:] @ EE % p
    D2, E2 = W[:, :kd] @ ED % p, W[:, kd:] @ EE % p
    z0 = (F.chi(E1, D2) + F.alpha(D1, (E1 - D2) % p, E2)
          + 2 * F.alpha(D1, E1, D2) - 2 * F.alpha(E1, D2, E2))
    return (factor(S.Dext, U[:, :kd], W[:, :kd])
            + factor(S.Eext, U[:, kd:], W[:, kd:]) + z0) % p


def test_sdcp_glues_to_octonion():
    assert np.array_equal(octonion_gluing().theta_values(),
                          build(octonion_cvs()).theta_values())


@pytest.mark.parametrize("args,kd", [
    (None, None), ((3, 4, 1), 2), ((2, 5, 1), 2), ((2, 5, 1), 3),
    ((3, 5, 2), 2), ((2, 8, 0), 4)])
def test_sdcp_theta_matches_per_pair_oracle(args, kd):
    # every pair of C x C, up to |C| = 256: the bulk theta_rows on the
    # restricted CVS's forms and the chunked theta table both equal the
    # per-pair formula on the ambient forms
    S = octonion_gluing() if args is None else basis_gluing(args, kd)
    V = vector_table(S.moduli)
    U, W = np.repeat(V, len(V), axis=0), np.tile(V, (len(V), 1))
    want = sdcp_theta_oracle(S, U, W)
    assert np.array_equal(S.theta_rows(U, W), want)
    assert np.array_equal(S.theta_values().astype(np.int64).ravel(), want)


@pytest.mark.parametrize("args,kd", [((3, 4, 1), 2), ((2, 5, 1), 2)])
def test_sdcp_gluing_verifies(args, kd):
    # glue the restrictions of C to the first kd and the remaining basis
    # vectors; with an E factor of dimension >= 2 the glued theta table
    # differs from build(C)'s, so this covers more than the octonion test.
    # The verifier takes p from the CVS being verified.
    C = random_cvs(*args)
    S = basis_gluing(args, kd)
    assert not np.array_equal(S.theta_values(), build(C).theta_values())
    rep = verify_coded_extension(S)
    assert rep.ok and {c.mode for c in rep.checks} == {"exhaustive"}
    rep = verify_coded_extension(S, budget=1, samples=300)
    assert rep.ok and {c.mode for c in rep.checks} == {"sampled"}


def test_sdcp_gluing_at_256_verifies():
    # random_cvs(2, 8, 0) glued 4 + 4: |C| = 256, the largest exhaustive
    # case above, in both verifier modes
    S = basis_gluing((2, 8, 0), 4)
    rep = verify_coded_extension(S)
    assert rep.ok and {c.mode for c in rep.checks} == {"exhaustive"}
    rep = verify_coded_extension(S, budget=1, samples=3000)
    assert rep.ok and {c.mode for c in rep.checks} == {"sampled"}


def _twin_loop(name):
    C = random_cvs(3, 5, 0)
    M = module_new(3, (9, 3, 3), 3, (1, 2, 0), {(0, 1): 1}, {(0, 1, 2): 1})
    W = module_new(2, (2, 4), 256, (255, 129), {(0, 1): 128}, {})
    W2 = module_new(2, (256, 2), 256, (255, 129), {(0, 1): 128}, {})
    return {"golay": lambda: build(code_to_cvs(builtin_golay24())),
            "cvs350": lambda: build(C, validate=False),
            "isotope": lambda: kappa_isotope(build(C, validate=False),
                                             (1, 0, 2, 1, 0)),
            "module933": lambda: build_module_extension(M),
            "sdcp350": lambda: basis_gluing((3, 5, 0), 2),
            "module24z256": lambda: build_module_extension(W),
            "module2562z256": lambda: build_module_extension(W2)}[name]()


def _twins(name, monkeypatch, make=_twin_loop):
    """A table-free loop and a twin that holds its theta table; the twin's
    theta_rows raises, so its products must read the table."""
    free, held = make(name), make(name)
    held.theta_table()
    assert free._theta_table is None

    def kernel(U, W):
        raise AssertionError("the feature kernel ran on a loop with a table")

    monkeypatch.setattr(held, "theta_rows", kernel)
    return free, held


TWINS = ["golay", "cvs350", "isotope", "module933", "sdcp350"]


def test_table_free_row_products_run_in_bounded_blocks():
    # without a theta table, theta on 20,000 row pairs at k = 20 runs the
    # kernel on blocks of _BLOCK_ENTRIES // row_width rows, k^2 = 400 here:
    # all at once, the 400-wide quadratic features traced 76 MiB
    L = build(random_cvs(2, 20, 0), validate=False)
    rng = np.random.default_rng(0)
    U, W = (rng.integers(0, 2, size=(20000, 20)) for _ in range(2))
    tracemalloc.start()
    try:
        got = _rows_theta(L, U, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak
    assert np.array_equal(got, L.theta_rows(U, W))
    assert _rows_theta(L, U[:0], W[:0]).shape == (0,)


@pytest.mark.parametrize("make, width", [
    (lambda: build(random_cvs(2, 20, 0), validate=False), 400),
    # alpha = 0: no quadratic feature, so Phi and Psi are 2 k wide
    (lambda: build(cvs_new(2, 70, (1,) + (0,) * 69), validate=False), 140),
    # one carry feature per digit of the order-256 slot
    (lambda: build_module_extension(module_new(
        2, (256, 2), 256, (255, 129), {(0, 1): 128}, {})), 258),
    # k + 2 k carries + k for S, then the appended (u, B w)
    (lambda: kappa_isotope(build(random_cvs(3, 3, 0), validate=False),
                           (1, 0, 2)), 12 + 3)])
def test_table_free_row_blocks_follow_the_feature_width(make, width,
                                                        monkeypatch):
    # blocks of _BLOCK_ENTRIES // row_width rows, not // k^2: the dim-70
    # alpha-free CVS once ran the kernel on blocks of 53 rows
    L = make()
    assert L.row_width == width
    rng = np.random.default_rng(0)
    U, W = (rng.integers(0, np.asarray(L.moduli), size=(5000, L.k))
            .astype(L.row_dtype) for _ in range(2))
    want = L.theta_rows(U, W)
    blocks = []
    kernel = L.theta_rows
    monkeypatch.setattr(L, "theta_rows",
                        lambda U, W: blocks.append(len(U)) or kernel(U, W))
    assert np.array_equal(_rows_theta(L, U, W), want)
    step = loops._BLOCK_ENTRIES // width
    assert blocks == [min(step, 5000 - lo) for lo in range(0, 5000, step)]


@pytest.mark.parametrize("name", TWINS)
def test_sampled_verdicts_do_not_depend_on_the_table(name, monkeypatch):
    # the same seeded samples through theta_rows and through the table:
    # identical names, modes, verdicts and witnesses
    free, held = _twins(name, monkeypatch)
    rep, rep_held = (verify_coded_extension(L, budget=0, samples=2000)
                     for L in (free, held))
    assert rep == rep_held and rep.ok, rep.lines()
    assert rep.checks[-1].mode == "sampled"
    assert moufang_sampled(free, 2000) == moufang_sampled(held, 2000) \
        == (True, None)


@pytest.mark.parametrize("flip, failing", [("chi", "CEcommute"),
                                           ("alpha", "CEassociate")])
def test_sampled_negative_controls_do_not_depend_on_the_table(
        flip, failing, monkeypatch):
    # the loop of C checked against C with one chi or one alpha value moved
    C = random_cvs(3, 5, 0)
    if flip == "chi":
        chi = dict(zip(pair_list(C.k), C.chi_flat))
        chi[(1, 3)] = (chi[(1, 3)] + 1) % C.p
        bad = cvs_new(C.p, C.k, C.sigma_basis, chi,
                      dict(zip(triple_list(C.k), C.alpha_flat)))
    else:
        bad = _alpha_flipped(C, (0, 2, 4))
    free, held = _twins("cvs350", monkeypatch)
    free.cvs = held.cvs = bad
    rep, rep_held = (verify_coded_extension(L, budget=0, samples=2000)
                     for L in (free, held))
    assert rep == rep_held
    assert [c.name for c in rep.failures()] == [failing]


def _alpha_moved(p, k, seed, t):
    """The level-sum loop of random_cvs(p, k, seed) with alpha moved on the
    one ordered triple t: the tensor is no longer alternating.  Its laws
    are checked against the forms of the CVS."""
    C = random_cvs(p, k, seed)
    A = C.forms.A.copy()
    A[t] = (A[t] + 1) % p
    L = LevelSumLoop(p, (p,) * k, p, C.sigma_basis, C.forms.X, A)
    L.cvs = C
    return L


def test_sampled_moufang_witness_does_not_depend_on_the_table(monkeypatch):
    # alpha moved on one ordered triple only: the loop is not Moufang
    free, held = (_alpha_moved(3, 5, 0, (0, 2, 4)) for _ in range(2))
    held.theta_table()
    ok, wit = moufang_sampled(free, 2000)
    assert not ok and wit is not None
    assert moufang_sampled(held, 2000) == (ok, wit)


def _moufang_oracle_loop(name):
    C = cvs_new(3, 3, None, None, {(0, 1, 2): 1})
    golay = lambda: build(code_to_cvs(builtin_golay24()), validate=False)
    return {"oct16": lambda: build(octonion_cvs()),
            "cml81": lambda: build(C),
            "golay_isotope": lambda: kappa_isotope(golay(), (1,) + (0,) * 11),
            "module933": lambda: _twin_loop("module933"),
            "sdcp350": lambda: _twin_loop("sdcp350"),
            "alpha_p2": lambda: _alpha_moved(2, 6, 3, (0, 1, 5)),
            "alpha_p3": lambda: _alpha_moved(3, 5, 0, (0, 2, 4)),
            "cocycle": _random_cocycle_loop}[name]()


NOT_MOUFANG = ["alpha_p2", "alpha_p3", "cocycle"]


@pytest.mark.parametrize("name", ["oct16", "cml81", "golay_isotope",
                                  "module933", "sdcp350"] + NOT_MOUFANG)
def test_sampled_moufang_matches_four_identity_oracle(name):
    # in a loop ((dg)e)g = d(g(eg)) implies the other three Moufang
    # identities, so on the same seeded triples the one-identity check
    # and the four-identity oracle give one verdict.  On 20,000 triples
    # the negative controls fail identities 1-4 at rates of 0.19, 0.28,
    # 0.29, 0.28 (alpha_p2), 0.50, 0.50, 0.53, 0.53 (alpha_p3) and 0.77,
    # 0.77, 0.75, 0.74 (cocycle)
    L = _moufang_oracle_loop(name)
    if name == "cocycle":
        L.theta_table()  # its theta is the table it was given
    ok, wit = moufang_sampled(L, 2000)
    want_ok, want_wit = moufang_sampled_four_identities(L, 2000)
    assert ok == want_ok == (name not in NOT_MOUFANG)
    if ok:
        assert wit is None
    else:
        one, g, d, e = wit
        assert one == 1 and wit == want_wit
        mul = L.mul
        assert mul(mul(mul(d, g), e), g) != mul(d, mul(g, mul(e, g)))


@pytest.mark.parametrize("name", TWINS + ["module24z256"])
def test_row_products_through_the_table_are_the_kernel(name, monkeypatch):
    # random reduced rows; |Z| = 256 stores theta as uint8, so the
    # gathered values must be widened before the central parts are added
    free, held = _twins(name, monkeypatch)
    rng = np.random.default_rng(3)
    a, b = (_rows_sample(free, rng, 1000) for _ in range(2))
    mods = np.array(free.moduli)
    z, U = _rows_mul(held, a, b)
    assert np.array_equal(z, (a[0] + b[0] + free.theta_rows(a[1], b[1]))
                          % free.zmod)
    assert np.array_equal(U, (a[1] + b[1]) % mods)
    z, N = _rows_inv(held, a)
    assert np.array_equal(N, -a[1] % mods)
    assert np.array_equal(z, (-a[0] - free.theta_rows(a[1], N)) % free.zmod)


@pytest.mark.parametrize("name", TWINS + ["module24z256", "module2562z256"])
def test_narrow_row_products_are_the_int64_products(name, monkeypatch):
    # rows in row_dtype (int16 for the order-256 slot, int8 otherwise) and
    # theta in theta_dtype (uint8 at |Z| = 256): the same z values and
    # vector parts as on int64 rows, with and without the table
    for L in _twins(name, monkeypatch):
        rng = np.random.default_rng(5)
        a, b, c = (_rows_sample(L, rng, 1000) for _ in range(3))
        assert a[1].dtype == L.row_dtype == (
            np.int16 if name == "module2562z256" else np.int8)

        def products(mul, inv):  # a product, an inverse and an associator
            return [mul(a, b), inv(a),
                    mul(inv(mul(a, mul(b, c))), mul(mul(a, b), c))]

        narrow = products(lambda x, y: _rows_mul(L, x, y),
                          lambda x: _rows_inv(L, x))
        wide = products(lambda x, y: rows_mul_int64(L, x, y),
                        lambda x: rows_inv_int64(L, x))
        for (z, U), (wz, wU) in zip(narrow, wide):
            assert z.dtype == np.int64 and U.dtype == L.row_dtype
            assert np.array_equal(z, wz) and np.array_equal(U, wU)


def _checked_negative_control(name):
    """A loop of NOT_MOUFANG with forms to check its laws against: the
    CVS for a moved alpha, zero forms for the random cocycle."""
    L = _moufang_oracle_loop(name)
    if name == "cocycle":
        L.theta_table()
        k = L.k
        L.cvs = SimpleNamespace(forms=Forms(
            L.zmod, L.moduli, L.zmod, (0,) * k, np.zeros((k, k), dtype=int),
            np.zeros((k, k, k), dtype=int)))
    return L


@pytest.mark.parametrize("name", NOT_MOUFANG)
def test_narrow_sampled_checks_are_the_int64_checks(name, monkeypatch):
    # the same seeded samples, multiplied on narrow rows and on int64 rows:
    # identical sampled reports and Moufang witnesses
    L = _checked_negative_control(name)
    assert _rows_sample(L, np.random.default_rng(0), 1)[1].dtype == np.int8
    narrow = (verify_coded_extension(L, budget=0, samples=2000),
              moufang_sampled(L, 2000))
    monkeypatch.setattr(loops, "_rows_sample", rows_sample_int64)
    monkeypatch.setattr(loops, "_rows_mul", rows_mul_int64)
    monkeypatch.setattr(loops, "_rows_inv", rows_inv_int64)
    wide = (verify_coded_extension(L, budget=0, samples=2000),
            moufang_sampled(L, 2000))
    assert narrow == wide
    rep, (ok, wit) = narrow
    assert rep.checks[-1].mode == "sampled" and not rep.ok
    assert not ok and wit is not None


def _packed_loop(name):
    """One loop of each kind with |Z| = 2, whose theta table holds one bit
    per entry: CVSs with |C| < 8 (one padded byte per row) and Golay's,
    a coded module with a slot of order 4, an isotope and an SDCP loop."""
    return {"dim0": lambda: build(cvs_new(2, 0)),
            "dim1": lambda: build(random_cvs(2, 1, 1)),
            "dim2": lambda: build(random_cvs(2, 2, 0)),
            "golay": lambda: build(code_to_cvs(builtin_golay24()),
                                   validate=False),
            "module422": lambda: build_module_extension(module_new(
                2, (4, 2, 2), 2, (1, 0, 1), {(0, 1): 1, (0, 2): 1}, {})),
            "isotope": lambda: kappa_isotope(
                build(random_cvs(2, 5, 1), validate=False), (1, 0, 1, 1, 0)),
            "sdcp": lambda: basis_gluing((2, 5, 1), 2)}[name]()


PACKED = ["dim0", "dim1", "dim2", "golay", "module422", "isotope", "sdcp"]


@pytest.mark.parametrize("name", PACKED)
def test_packed_theta_table_holds_the_values(name):
    # n x ceil(n/8) bytes in np.packbits order along w, zero padding
    # included; unpacked, the values of the feature GEMM (the per-pair
    # gluing formula for SDCP loops, which have no feature maps) and, for
    # level-sum loops, of the one-byte-per-entry slot-by-slot XOR build
    L = _packed_loop(name)
    n = L.csize
    T = L.theta_table()
    assert T.dtype == L.theta_dtype == np.uint8
    assert T.shape == (n, -(-n // 8))
    vals = L.theta_values()
    assert vals.dtype == np.uint8 and vals.shape == (n, n)
    assert np.array_equal(np.packbits(vals, axis=1), T)
    if isinstance(L, SdcpLoop):
        V = vector_table(L.moduli)
        want = sdcp_theta_oracle(L, np.repeat(V, n, axis=0),
                                 np.tile(V, (n, 1))).reshape(n, n)
    else:
        want = gemm_theta_table(L)
    assert np.array_equal(vals, want)
    if isinstance(L, LevelSumLoop):
        assert np.array_equal(vals, xor_theta_table(L))


@pytest.mark.parametrize("name", PACKED)
def test_packed_table_reads_are_the_kernel(name, monkeypatch):
    # row gathers, single products and words read bits of the packed
    # table; they must give the table-free kernel's values
    free, held = _twins(name, monkeypatch, _packed_loop)
    rng = np.random.default_rng(4)
    a, b = (_rows_sample(free, rng, 2000) for _ in range(2))
    got = _rows_theta(held, a[1], b[1])
    assert got.dtype == np.uint8
    assert np.array_equal(got, free.theta_rows(a[1], b[1]))
    for u, w in zip(a[1][:300].tolist(), b[1][:300].tolist()):
        assert held._theta(tuple(u), tuple(w)) == free._theta(tuple(u),
                                                               tuple(w))
    gens = ["g%d" % (i + 1) for i in range(free.k)] or ["z"]
    for _ in range(40):
        x, y, t = (gens[i] for i in rng.integers(0, len(gens), 3))
        for text in ("((%s*%s)*%s)^-5" % (x, y, t), "[%s,%s,%s]" % (x, y, t),
                     "[%s*%s,%s]^3" % (x, t, y)):
            tree = parse_word(text)
            assert eval_word(tree, held) == eval_word(tree, free), text


def test_golay_theta_table_build_stays_within_4_mib():
    # one bit per entry: Golay's table is 2 MiB, and its build traced a
    # 3.4 MiB peak; one byte per entry took 16 MiB and peaked at 16.9 MiB
    L = build(code_to_cvs(builtin_golay24()), validate=False)
    tracemalloc.start()
    try:
        T = L.theta_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.nbytes == 2 * 2 ** 20
    assert peak <= 4 * 2 ** 20, peak


@pytest.mark.parametrize("i", [3, -1, 7])
def test_generator_outside_the_basis_is_refused(oct_loop, i):
    # it returned the identity for every i outside [0, k)
    with pytest.raises(ValueError, match="k = 3"):
        oct_loop.generator(i)


def test_sampled_golay_checks_stay_within_memory_bounds():
    # Golay with its theta table, 10^5 samples.  Traced peaks: 21.7 MiB for
    # the sampled verify and 17.2 MiB for moufang_sampled; on int64 rows
    # they were 89.7 and 69.2 MiB
    L = build(code_to_cvs(builtin_golay24()), validate=False)
    L.theta_table()
    for check, bound in (
            (lambda: verify_coded_extension(L, samples=10 ** 5).ok, 32),
            (lambda: moufang_sampled(L, 10 ** 5)[0], 26)):
        tracemalloc.start()
        try:
            ok = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and peak < bound * 2 ** 20, peak


def test_sdcp_rejects_dependent_embedding():
    amb = octonion_cvs()
    e1 = fp_vector([1, 0, 0], 2)
    one = cvs_new(2, 1, [1], None, None)
    P1 = build(one)
    with pytest.raises(ValueError):
        semidirect_central_product(P1, P1, amb, [e1], [e1])


def test_sdcp_rejects_wrong_restriction():
    # embedding e1 for a sigma=0 piece contradicts sigma(e1) = 1 in the
    # octonion ambient
    amb = octonion_cvs()
    e1, e2 = fp_vector([1, 0, 0], 2), fp_vector([0, 1, 0], 2)
    zero = cvs_new(2, 1, None, None, None)
    one = cvs_new(2, 1, [1], None, None)
    with pytest.raises(ValueError):
        semidirect_central_product(build(zero), build(one), amb, [e1], [e2])


def test_center_vectors_octonion(oct_loop):
    assert center_vectors(oct_loop) == [(0, 0, 0)]


def test_center_vectors_with_radical():
    C = cvs_new(3, 2, None, None, None)  # abelian, everything central
    L = build(C)
    assert len(center_vectors(L)) == 9


def test_cayley_csv_round_trip(oct_loop):
    text = emit_cayley_csv(oct_loop)
    arr, meta = parse_cayley_csv(text)
    assert meta == {"n": 16, "p": 2, "k": 3}
    assert np.array_equal(arr, oct_loop.table_array())


def test_cayley_csv_header_errors():
    with pytest.raises(ValueError):
        parse_cayley_csv("")
    with pytest.raises(ValueError):
        parse_cayley_csv("n=4,p=2\n0,1\n1,0\n")  # missing k
    with pytest.raises(ValueError):
        parse_cayley_csv("n=2,p=2,k=0\n0,1\n1,2\n")  # entry out of range


def test_table_budget_enforced():
    C = random_cvs(2, 12, 0)  # order 8192 > default budget
    L = CodedLoop(C)
    with pytest.raises(ValueError):
        L.table_array(max_order=4096)


@given(st.integers(0, 30), st.integers(0, 2 ** 20))
@settings(max_examples=60, deadline=None)
def test_mul_inverse_cancels(seed, pick):
    C = random_cvs(3, 2, seed)
    L = build(C, validate=False)
    a = L.element_at(pick % L.order)
    b = L.element_at((pick * 7 + 3) % L.order)
    # (ab)/b = a via inverses: Moufang loops have the inverse property
    ab = L.mul(a, b)
    assert L.mul(ab, L.inv(b)) == a
    assert L.mul(L.inv(a), ab) == b
