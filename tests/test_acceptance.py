"""Acceptance battery: one test and one PASS/FAIL line per criterion.

The lines land in the "acceptance criteria" section of the terminal summary
(see conftest).  Where a criterion carries a runtime budget the elapsed time
is part of the verdict.
"""

import time
from itertools import product

import numpy as np

from codeloops import (LoopTable, adjoint_translate, build,
                       build_module_extension, brute_force_isomorphic,
                       builtin_golay24, builtin_hamming734, center, classify,
                       class2_associator_identities, code_to_cvs, cvs_new,
                       cvs_to_code, fp_vector, is_doubly_even, kappa_isotope,
                       loop_report, mk_law_holds, module_new, moufang_sampled,
                       nilpotency_class, octonion_cvs, random_cvs,
                       validate_axioms, verify_coded_extension)
from codeloops.analysis import derived_subloops
from codeloops.codes import codeword_weights
from codeloops.cvs import pair_list, triple_list
from codeloops.tables import vector_table

import conftest


class criterion:
    """Times a block, records one line, and fails the test if not ok."""

    def __init__(self, num, label, limit=None):
        self.num = num
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.ok = None
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, etype, evalue, tb):
        secs = time.perf_counter() - self.t0
        ok = bool(self.ok) and etype is None
        if self.limit is not None and secs >= self.limit:
            ok = False
        stamp = ("%.2fs" % secs if self.limit is None
                 else "%.2fs / limit %gs" % (secs, self.limit))
        line = "%2d %-58s %s (%s)" % (self.num, self.label,
                                      "PASS" if ok else "FAIL", stamp)
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        if etype is None and not ok:
            raise AssertionError("criterion %d failed: %s"
                                 % (self.num, self.label))
        return False


def test_criterion_01_octonion_reconstruction():
    with criterion(1, "octonion loop rebuilt from the Hamming code",
                   limit=1.0) as c:
        V = code_to_cvs(builtin_hamming734())
        L = build(V)
        T = LoopTable(L.table_array())
        rep = loop_report(T)  # is_moufang here scans all 16^3 triples
        zmem = set(center(T).members)
        outside = [int(o) for i, o in enumerate(T.element_orders)
                   if i not in zmem]
        c.ok = (rep["order"] == 16 and rep["moufang"] and not rep["assoc"]
                and rep["Z"] == rep["N"] == rep["frattini"] == 2
                and rep["extraspecial"]
                and len(outside) == 14 and set(outside) == {4})


def test_criterion_02_length_67_code():
    with criterion(2, "length-67 code from the octonion data, round trip",
                   limit=1.0) as c:
        V = octonion_cvs()
        code = cvs_to_code(V)
        c.ok = code.length == 67 and code_to_cvs(code) == V


def test_criterion_03_round_trip_at_scale():
    with criterion(3, "code/CVS round trip on 100 seeded F_2 inputs",
                   limit=10.0) as c:
        ok = True
        count = 0
        for k in range(1, 6):
            for seed in range(20):
                V = random_cvs(2, k, seed)
                ok &= code_to_cvs(cvs_to_code(V)) == V
                rep = validate_axioms(V)
                ok &= rep.ok and all(ch.mode == "exhaustive"
                                     for ch in rep.checks)
                count += 1
        c.ok = ok and count == 100


def test_criterion_04_parker_loop():
    with criterion(4, "Parker loop of the Golay code self-verifies",
                   limit=60.0) as c:
        G = builtin_golay24()
        counts = np.bincount(codeword_weights(G), minlength=25)
        dist = {w: int(n) for w, n in enumerate(counts) if n}
        ok = (G.length == 24 and G.dim == 12 and is_doubly_even(G)
              and dist == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1})
        V = code_to_cvs(G)
        L = build(V)
        ok &= L.order == 8192
        rep = verify_coded_extension(L, samples=100000, seed=0)
        ok &= rep.ok
        mok, wit = moufang_sampled(L, 100000, seed=0)
        ok &= mok and wit is None
        # exhibit a nontrivial associator on basis generators
        pos = next(i for i, v in enumerate(V.alpha_flat) if v)
        i, j, l = triple_list(V.k)[pos]
        a = L.associator(L.generator(i), L.generator(j), L.generator(l))
        c.ok = ok and a != L.identity and a.z == 1


def test_criterion_05_dim3_classification():
    with criterion(5, "dim-3 F_3 exponent-3 nonassociative: 2 classes, "
                      "1 isotopy class", limit=30.0) as c:
        res = classify(3, 3, 3, nonassoc=True)
        c.ok = (res.n_iso == 2 and res.n_isotopy == 1
                and sum(k.size for k in res.iso_classes) == res.n_states)


def test_criterion_06_dim4_classification():
    with criterion(6, "dim-4 F_3 exponent-3 nonassociative: 4 classes, "
                      "2 isotopy classes", limit=600.0) as c:
        res = classify(3, 4, 3, nonassoc=True)
        invs = [k.invariants for k in res.iso_classes]
        trivial = [i for i, v in enumerate(invs) if v["chi_trivial"]]
        nondeg = [i for i, v in enumerate(invs) if v["rad_chi_dim"] == 0]
        rad2_in = [i for i, v in enumerate(invs)
                   if v["rad_chi_dim"] == 2 and v["rad_alpha_in_rad_chi"]]
        rad2_out = [i for i, v in enumerate(invs)
                    if v["rad_chi_dim"] == 2 and not v["rad_alpha_in_rad_chi"]]
        types_ok = [len(g) for g in (trivial, nondeg, rad2_in, rad2_out)] \
            == [1, 1, 1, 1]
        groups = [set(g) for g in res.isotopy_classes]
        merge_ok = ({trivial[0], rad2_in[0]} in groups
                    and {nondeg[0], rad2_out[0]} in groups)
        c.ok = (res.n_iso == 4 and res.n_isotopy == 2 and types_ok
                and merge_ok
                and sum(k.size for k in res.iso_classes) == res.n_states)


def _corpus_tables():
    """Class-2 corpus: (name, p, LoopTable) over both primes."""
    out = []
    out.append(("octonion16", 2, LoopTable(build(octonion_cvs()).table_array())))
    sfm = build(cvs_new(2, 4, [1, 0, 0, 0], {(0, 1): 1}, {(0, 1, 2): 1}))
    out.append(("sfm32", 2, LoopTable(sfm.table_array())))
    out.append(("rand64", 2, LoopTable(build(random_cvs(2, 5, 1)).table_array())))
    cml = build(cvs_new(3, 3, None, None, {(0, 1, 2): 1}))
    out.append(("cml81", 3, LoopTable(cml.table_array())))
    g27 = build(cvs_new(3, 2, [1, 0], {(0, 1): 1}, None))
    out.append(("grp27exp9", 3, LoopTable(g27.table_array())))
    M = module_new(3, (9, 3, 3), 3, (1, 2, 0), {(0, 1): 1}, {(0, 1, 2): 1})
    out.append(("module243", 3, LoopTable(build_module_extension(M).table_array())))
    return out


def test_criterion_07_exponent_of_lstar():
    with criterion(7, "exp(L*) divides 6 on the corpus, divides p per prime;"
                      " p=5 is associative") as c:
        ok = True
        for name, p, T in _corpus_tables():
            ok &= nilpotency_class(T) == 2
            _, ls = derived_subloops(T)
            mem = np.array(sorted(ls.members), dtype=np.int64)
            exp = int(np.lcm.reduce(T.element_orders[mem]))
            ok &= 6 % exp == 0
            ok &= p % exp == 0  # the per-prime refinement (exp | p)
        # p = 5: alpha cannot be nonzero, and a k = 3 build of order 625
        # is associative: the cocycle identity holds on 10^6 seeded triples
        try:
            cvs_new(5, 3, None, None, {(0, 1, 2): 1})
            ok = False
        except ValueError:
            pass
        V = cvs_new(5, 3, [1, 2, 3], {(0, 1): 1, (0, 2): 2, (1, 2): 3}, None)
        ok &= not any(V.alpha_flat)
        L = build(V)
        ok &= L.order == 625
        T5 = L.theta_table().astype(np.int64)
        rng = np.random.default_rng(0)
        wts = np.array([25, 5, 1])
        U, Vv, W = (rng.integers(0, 5, size=(10 ** 6, 3)) for _ in range(3))
        lhs = (T5[U @ wts, Vv @ wts] + T5[((U + Vv) % 5) @ wts, W @ wts]) % 5
        rhs = (T5[Vv @ wts, W @ wts] + T5[U @ wts, ((Vv + W) % 5) @ wts]) % 5
        c.ok = ok and bool((lhs == rhs).all())


def test_criterion_08_mk_laws(cml81_table):
    with criterion(8, "M_k-laws on the order-81 commutative loop: "
                      "exactly k = 1 and 4") as c:
        got = [k for k in range(1, 7) if mk_law_holds(cml81_table, k)]
        c.ok = got == [1, 4]


def test_criterion_09_isotopes_match_adjoint_translates():
    with criterion(9, "dim-3 F_3 isotopes: laws exhaustive on all 2187x27,"
                      " sampled isomorphism") as c:
        vecs = [tuple(r) for r in vector_table((3, 3, 3)).tolist()]
        pairs = pair_list(3)
        ok = True
        checked = 0
        for sig in vecs:
            for chi in vecs:  # chi_flat also has three slots in dim 3
                chid = {pr: v for pr, v in zip(pairs, chi) if v}
                for a in range(3):
                    V = cvs_new(3, 3, list(sig), chid,
                                {(0, 1, 2): a} if a else None)
                    L = build(V, validate=False)
                    for kv in vecs:
                        iso = kappa_isotope(L, kv)
                        # checks powers, commutators and associators of the
                        # isotope against adt_{-k}(V), all 27^2/27^3 tuples
                        if not verify_coded_extension(iso).ok:
                            ok = False
                        checked += 1
        ok &= checked == 2187 * 27

        # brute-force isomorphism leg on a stratified sample of the space
        rng = np.random.default_rng(9)

        def draw(zero, width):
            if zero:
                return (0,) * width
            while True:
                v = tuple(int(x) for x in rng.integers(0, 3, width))
                if any(v):
                    return v

        sample = [((0, 0, 0), (0, 0, 0), 1)]  # the canonical nonassoc rep
        for szero, czero, azero in product((True, False), repeat=3):
            for _ in range(3):
                alpha = 0 if azero else int(rng.integers(1, 3))
                sample.append((draw(szero, 3), draw(czero, 3), alpha))
        for sig, chi, a in sample:
            chid = {pr: v for pr, v in zip(pairs, chi) if v}
            V = cvs_new(3, 3, list(sig), chid, {(0, 1, 2): a} if a else None)
            L = build(V, validate=False)
            for kv in vecs:
                iso = kappa_isotope(L, kv)
                negk = fp_vector([(-x) % 3 for x in kv], 3)
                Ladt = build(adjoint_translate(V, negk), validate=False)
                f = brute_force_isomorphic(LoopTable(iso.table_array()),
                                           LoopTable(Ladt.table_array()))
                if f is None:
                    ok = False
        c.ok = ok


def test_criterion_10_g_loops(oct_loop, sfm32_loop):
    with criterion(10, "octonion and 32-element loops are isomorphic to "
                       "every isotope") as c:
        ok = True
        for L in (oct_loop, sfm32_loop):
            T0 = LoopTable(L.table_array())
            for kv in vector_table(L.moduli).tolist():
                iso = kappa_isotope(L, tuple(int(x) for x in kv))
                f = brute_force_isomorphic(LoopTable(iso.table_array()), T0)
                ok &= f is not None
        c.ok = ok


def test_criterion_11_identity_battery():
    with criterion(11, "class-2 identity battery, exhaustive on corpus "
                       "loops up to order 256") as c:
        tables = [T for name, p, T in _corpus_tables() if T.n <= 256]
        for extra in (cvs_new(2, 1, [1], None, None),      # C_4
                      cvs_new(3, 1, [1], None, None),      # C_9
                      cvs_new(2, 3, None, None, None)):    # elementary 2^4
            tables.append(LoopTable(build(extra).table_array()))
        ok = len(tables) == 9  # all six corpus loops qualify, plus three
        for T in tables:
            rep = class2_associator_identities(T)
            ok &= rep.ok and all(ch.mode == "exhaustive" for ch in rep.checks)
        c.ok = ok


def test_criterion_12_coded_modules():
    with criterion(12, "50 seeded modules over Z4xZ2 and Z8xZ2 verify "
                       "exhaustively") as c:
        ok = True
        count = 0
        for orders in ((4, 2), (8, 2)):
            for seed in range(25):
                rng = np.random.default_rng(1000 * orders[0] + seed)
                z = tuple(int(x) for x in rng.integers(0, 2, size=2))
                ch = int(rng.integers(0, 2))
                M = module_new(2, orders, 2, z,
                               {(0, 1): ch} if ch else {}, {})
                L = build_module_extension(M)
                rep = verify_coded_extension(L)
                ok &= rep.ok and all(k.mode == "exhaustive"
                                     for k in rep.checks)
                for i in (0, 1):
                    got = L.pow(L.generator(i), orders[i])
                    ok &= got == L.element(z[i], (0, 0))
                count += 1
        c.ok = ok and count == 50
