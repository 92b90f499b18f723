import numpy as np
import pytest

from codeloops import analysis
from codeloops.analysis import (LoopTable, all_subloops, associator_table,
                                brute_force_isomorphic, center,
                                class2_associator_identities,
                                derived_subloops, frattini,
                                is_associative, is_moufang, loop_report,
                                mk_law_holds, moufang_center,
                                nilpotency_class, nucleus, quotient_table,
                                subloop_closure, torsion_components)
from codeloops.cvs import cvs_new, octonion_cvs, random_cvs
from codeloops.loops import build
from codeloops.modules import build_module_extension, module_new

from conftest import cyclic_blocks, intercalate_swap, steiner_table
from oracles import (associator_values_scan, moufang_four_identities,
                     nucleus_mask_three_gathers)


def cyclic_table(n):
    return np.add.outer(np.arange(n), np.arange(n)) % n


S3_TABLE = np.array([
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 5, 0, 4, 3, 1],
    [3, 4, 5, 0, 1, 2],
    [4, 3, 1, 2, 5, 0],
    [5, 2, 3, 1, 0, 4],
])


def test_loop_table_validation():
    LoopTable(cyclic_table(5))
    with pytest.raises(ValueError):
        LoopTable(np.zeros((3, 3), dtype=int))  # not Latin
    bad = cyclic_table(4)
    bad[1, 1] = 5
    with pytest.raises(ValueError):
        LoopTable(bad)  # out of range
    # Latin square without a two-sided identity (subtraction table)
    T = (np.subtract.outer(np.arange(4), np.arange(4))) % 4
    with pytest.raises(ValueError):
        LoopTable(T)


def test_loop_table_rejects_non_ip_loop():
    # a Latin square with identity where left and right inverses disagree
    T = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ])
    with pytest.raises(ValueError):
        LoopTable(T)


def test_octonion_report(oct_table):
    rep = loop_report(oct_table)
    assert rep == {
        "order": 16, "moufang": True, "assoc": False, "class": 2,
        "Z": 2, "N": 2, "C": 2, "Lprime": 2, "Lstar": 2, "expLstar": 2,
        "frattini": 2, "small_frattini": True, "extraspecial": True,
    }


def test_moufang_witness_on_steiner_loop():
    # the Steiner loop of AG(2, 3) (order 10) is an inverse-property loop,
    # so it passes the table checks, but it is not Moufang; the witness was
    # recorded from the int64 column-slice scan
    pts = [(x, y) for x in range(3) for y in range(3)]
    S = np.zeros((10, 10), dtype=np.int64)
    S[0], S[:, 0] = np.arange(10), np.arange(10)
    for i, a in enumerate(pts, 1):
        for j, b in enumerate(pts, 1):
            third = tuple((-a[t] - b[t]) % 3 for t in range(2))
            S[i, j] = 0 if i == j else 1 + pts.index(third)
    assert is_moufang(LoopTable(S)) == (False, (1, 1, 2, 4))


def test_mutant_table_fails(oct_table):
    mutant = intercalate_swap(oct_table.table)
    # still a Latin square, but no longer an inverse-property loop, so the
    # table check rejects it before any Moufang scan
    with pytest.raises(ValueError,
                       match="^left inverse property fails at element 1$"):
        LoopTable(mutant)


def test_group_tables_are_moufang():
    for n in (1, 2, 3, 4, 6, 8):
        ok, wit = is_moufang(LoopTable(cyclic_table(n)))
        assert ok and wit is None
        assert is_associative(LoopTable(cyclic_table(n)))


def test_octonion_is_not_associative(oct_table):
    assert not is_associative(oct_table)


def test_mk_law_on_cml81(cml81_table):
    hits = [k for k in range(1, 7) if mk_law_holds(cml81_table, k)]
    assert hits == [1, 4]


def test_mk_law_on_groups():
    C4 = LoopTable(cyclic_table(4))
    assert all(mk_law_holds(C4, k) for k in range(1, 7))


def test_centers_and_nuclei(oct_table):
    assert len(center(oct_table)) == 2
    assert len(nucleus(oct_table)) == 2
    assert len(moufang_center(oct_table)) == 2
    A = LoopTable(cyclic_table(6))
    assert len(center(A)) == 6 and len(nucleus(A)) == 6


def test_commutator_table_octonion(oct_table):
    K = oct_table.commutator_table
    z = sorted(center(oct_table).members)[1]
    assert set(np.unique(K)) <= {0, z}  # identity and the central z


def test_derived_subloops(oct_table):
    lp, ls = derived_subloops(oct_table)
    z = sorted(center(oct_table).members)[1]
    assert sorted(lp.members) == [0, z]
    assert sorted(ls.members) == [0, z]
    G = LoopTable(cyclic_table(9))
    lp, ls = derived_subloops(G)
    assert len(lp) == 1 and len(ls) == 1


def test_quotient_of_octonion_by_center(oct_table):
    Z = center(oct_table)
    Q, coset = quotient_table(oct_table, Z)
    assert Q.n == 8
    assert is_associative(Q)
    assert all(Q.power(a, 2) == Q.identity for a in range(8))


def test_quotient_rejects_non_normal():
    # in S_3 (as a loop table) a 2-element subgroup is not normal
    L = LoopTable(S3_TABLE)
    H = subloop_closure(L, [1])
    assert len(H) == 2
    with pytest.raises(ValueError):
        quotient_table(L, H)


def test_central_series_and_class(oct_table, cml81_table):
    assert nilpotency_class(oct_table) == 2
    assert nilpotency_class(cml81_table) == 2
    assert nilpotency_class(LoopTable(cyclic_table(8))) == 1
    assert nilpotency_class(LoopTable(np.zeros((1, 1), dtype=int))) == 0
    chain = oct_table.upper_central_series
    assert [len(z) for z in chain] == [2, 16]


def test_all_subloops_klein():
    K = build(cvs_new(2, 1, None, None, None))
    subs = all_subloops(LoopTable(K.table_array()))
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 4]


def test_frattini_examples(oct_table):
    assert sorted(frattini(oct_table).members) == sorted(center(oct_table).members)
    C9 = LoopTable(cyclic_table(9))
    assert len(frattini(C9)) == 3
    E8 = LoopTable(build(cvs_new(2, 2, None, None, None)).table_array())
    assert len(frattini(E8)) == 1


def test_frattini_on_cml81(cml81_table, monkeypatch):
    # a centrally nilpotent 3-loop: frattini uses the generation formula
    # alone and never builds the subloop lattice (the lattice cross-check
    # is test_frattini_formula_matches_lattice)
    def no_lattice(L):
        raise AssertionError("lattice built for a nilpotent p-loop")

    monkeypatch.setattr(analysis, "all_subloops", no_lattice)
    phi = frattini(LoopTable(cml81_table.table))
    assert len(phi) == 3


def _cvs_table(C):
    return build(C, validate=False).table_array()


TABLES = {
    "oct16": lambda: _cvs_table(octonion_cvs()),
    "sfm32": lambda: _cvs_table(
        cvs_new(2, 4, [1, 0, 0, 0], {(0, 1): 1}, {(0, 1, 2): 1})),
    "rand64": lambda: _cvs_table(random_cvs(2, 5, 1)),
    "cml81": lambda: _cvs_table(cvs_new(3, 3, None, None, {(0, 1, 2): 1})),
    "grp27exp9": lambda: _cvs_table(
        cvs_new(3, 2, [1, 0], {(0, 1): 1}, None)),
    "module243": lambda: build_module_extension(module_new(
        3, (9, 3, 3), 3, (1, 2, 0), {(0, 1): 1},
        {(0, 1, 2): 1})).table_array(),
    "cvs243": lambda: _cvs_table(random_cvs(3, 4, 2)),
    "E8": lambda: _cvs_table(cvs_new(2, 2, None, None, None)),
    # exponent 3: Phi = Z is made of commutators alone
    "heis27": lambda: _cvs_table(cvs_new(3, 2, None, {(0, 1): 1}, None)),
    "C6": lambda: cyclic_table(6),
    "C8": lambda: cyclic_table(8),
    "C9": lambda: cyclic_table(9),
    "C12": lambda: cyclic_table(12),
    "S3": lambda: S3_TABLE,
}

_REPORT_KEYS = ("moufang", "assoc", "class", "Z", "N", "C", "Lprime",
                "Lstar", "expLstar", "frattini", "small_frattini",
                "extraspecial")

# loop_report values (in _REPORT_KEYS order) and the sorted Frattini
# members, recorded when every loop of order <= 128 ran both the lattice
# and the generation formula and compared them.  S3, C6 and C12 are not
# nilpotent p-loops and still take the lattice.
PINNED = {
    "oct16": ((True, False, 2, 2, 2, 2, 2, 2, 2, 2, True, True), [0, 8]),
    "sfm32": ((True, False, 2, 4, 4, 4, 2, 2, 2, 2, True, False), [0, 16]),
    "rand64": ((True, False, 2, 2, 2, 2, 2, 2, 2, 2, True, True), [0, 32]),
    "cml81": ((True, False, 2, 3, 3, 81, 3, 3, 3, 3, True, True),
              [0, 27, 54]),
    "grp27exp9": ((True, True, 2, 3, 27, 3, 3, 1, 1, 3, True, True),
                  [0, 9, 18]),
    "module243": ((True, False, 2, 9, 9, 27, 3, 3, 3, 9, False, False),
                  [0, 27, 54, 81, 108, 135, 162, 189, 216]),
    "cvs243": ((True, False, 2, 9, 9, 27, 3, 3, 3, 3, True, False),
               [0, 81, 162]),
    "C6": ((True, True, 1, 6, 6, 6, 1, 1, 1, 1, False, False), [0]),
    "C8": ((True, True, 1, 8, 8, 8, 1, 1, 1, 4, False, False), [0, 2, 4, 6]),
    "C9": ((True, True, 1, 9, 9, 9, 1, 1, 1, 3, True, False), [0, 3, 6]),
    "C12": ((True, True, 1, 12, 12, 12, 1, 1, 1, 2, False, False), [0, 6]),
    "S3": ((True, True, None, 1, 6, 1, 3, 1, 1, 1, False, False), [0]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_and_frattini_pinned(name):
    arr = TABLES[name]()
    values, phi = PINNED[name]
    want = {"order": len(arr), **dict(zip(_REPORT_KEYS, values))}
    assert loop_report(LoopTable(arr)) == want
    assert sorted(frattini(LoopTable(arr)).members) == phi


@pytest.mark.parametrize("name", ["oct16", "sfm32", "rand64", "cml81",
                                  "grp27exp9", "heis27", "C8", "C9", "E8"])
def test_frattini_formula_matches_lattice(name):
    # the definition: Phi(L) is the intersection of the maximal subloops
    T = LoopTable(TABLES[name]())
    proper = [set(s) for s in all_subloops(T) if len(s) < T.n]
    maximal = [s for s in proper if not any(s < t for t in proper)]
    assert set(frattini(T).members) == set.intersection(*maximal)


def _ag23_blocks():
    # the lines of AG(2, 3): a + b + c = 0, points (x, y) at index 3x + y
    pts = [(x, y) for x in range(3) for y in range(3)]
    return sorted({tuple(sorted((i, j, pts.index(tuple(
        (-a[t] - b[t]) % 3 for t in range(2))))))
        for i, a in enumerate(pts) for j, b in enumerate(pts) if i != j})


STEINER = {
    "ag23": lambda: steiner_table(9, _ag23_blocks()),
    "sts13": lambda: steiner_table(
        13, cyclic_blocks(13, [[0, 1, 4], [0, 2, 7]])),
    "fano": lambda: steiner_table(7, cyclic_blocks(7, [[0, 1, 3]])),
}


@pytest.mark.parametrize("name", sorted(TABLES) + sorted(STEINER))
def test_moufang_scan_matches_four_identity_oracle(name):
    # in a loop one Moufang identity implies the other three, so the
    # one-identity scan and the four-identity oracle give one verdict
    L = LoopTable({**TABLES, **STEINER}[name]())
    ok, wit = is_moufang(L)
    want_ok, want_wit = moufang_four_identities(L)
    assert ok == want_ok
    if want_wit is not None and want_wit[0] == 1:
        assert wit == want_wit
    if not ok:
        # the witness fails ((dg)e)g = d(g(eg)) read off the table
        T = L.table
        one, g, d, e = wit
        assert one == 1 and T[T[T[d, g], e], g] != T[d, T[g, T[e, g]]]
    else:
        assert wit is None


@pytest.mark.parametrize("name", sorted(TABLES) + sorted(STEINER) + ["r512"])
def test_one_associator_scan_matches_oracles(name):
    # the nucleus and the associator values come from one scan of the
    # associators; a twin table whose caches hold the oracles' answers
    # must agree on them and on everything the report derives from them
    # (the report at order 512, 1 s a table, is left to the CLI tests)
    arr = ({**TABLES, **STEINER}[name]() if name != "r512"
           else _cvs_table(random_cvs(2, 8, 0)))
    L, O = LoopTable(arr), LoopTable(arr)
    O.nucleus_mask = nucleus_mask_three_gathers(O)
    O.associator_values = associator_values_scan(O)
    assert np.array_equal(L.nucleus_mask, O.nucleus_mask)
    assert np.array_equal(L.associator_values, O.associator_values)
    assert nucleus(L) == nucleus(O) and center(L) == center(O)
    assert is_associative(L) == is_associative(O)
    if name != "r512":
        assert loop_report(L) == loop_report(O)


def test_steiner_loop_witnesses():
    # STS(13) gives an IP loop that is not Moufang; the Fano plane gives
    # the elementary abelian group of order 8
    assert is_moufang(LoopTable(STEINER["sts13"]())) == (False, (1, 1, 2, 3))
    assert is_moufang(LoopTable(STEINER["fano"]())) == (True, None)


def test_report_scans_associators_once(cml81_table, monkeypatch):
    calls = []
    scan = analysis._associator_blocks
    monkeypatch.setattr(analysis, "_associator_blocks",
                        lambda L: calls.append(L) or scan(L))
    T = LoopTable(cml81_table.table)
    loop_report(T)
    # the nucleus and associator values of T share one scan; the upper
    # central series takes the nucleus of L/Z(L), of order 27, from its own
    assert calls[0] is T and [L.n for L in calls] == [81, 27]
    # associator_table shares the scan: (a(bc)) A[a,b,c] = (ab)c for all
    # triples, and its values are the cached ones
    A = associator_table(T).astype(np.int64)
    M = T.table.astype(np.int64)
    a, b, c = np.ix_(*(np.arange(T.n),) * 3)
    assert np.array_equal(M[M[a, M[b, c]], A], M[M[a, b], c])
    assert np.array_equal(np.unique(A), T.associator_values)


def test_associator_table_entry_bound():
    # the table holds n^3 <= 2^24 entries: order 256 is the largest built,
    # order 343 the smallest refused
    T = build(random_cvs(2, 7, 0)).to_table()
    A = associator_table(T)
    assert A.shape == (256, 256, 256)
    assert not (A[T.identity] != T.identity).any()
    with pytest.raises(ValueError, match="beyond associator table budget"):
        associator_table(build(cvs_new(7, 2)).to_table())


def test_torsion_components():
    C6 = LoopTable(cyclic_table(6))
    L2 = torsion_components(C6, 2)
    L3 = torsion_components(C6, 3)
    assert sorted(L2.members) == [0, 3]
    assert sorted(L3.members) == [0, 2, 4]
    assert len(torsion_components(C6, 5)) == 1


def test_brute_force_isomorphic_positive(oct_table):
    # relabel by a permutation: the relabeled table is isomorphic by
    # construction, and the search must find some isomorphism
    rng = np.random.default_rng(7)
    n = oct_table.n
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    T = np.asarray(oct_table.table)
    relabeled = np.empty_like(T)
    inv = np.argsort(perm)
    relabeled = perm[T[np.ix_(inv, inv)]]
    M = LoopTable(relabeled)
    got = brute_force_isomorphic(oct_table, M)
    assert got is not None
    # the returned map really is an isomorphism: f(xy) = f(x) f(y)
    f = np.array(got, dtype=np.int64)
    lhs = f[T]
    rhs = np.asarray(M.table)[f[:, None], f[None, :]]
    assert np.array_equal(lhs, rhs)


def test_brute_force_isomorphic_negative(oct_table):
    E16 = LoopTable(build(cvs_new(2, 3, None, None, None)).table_array())
    assert brute_force_isomorphic(oct_table, E16) is None
    C16 = LoopTable(cyclic_table(16))
    assert brute_force_isomorphic(oct_table, C16) is None


def test_brute_force_lexicographically_least(oct_table):
    # mapping a loop to itself: the least image sequence is the identity
    got = brute_force_isomorphic(oct_table, oct_table)
    assert list(got) == list(range(16))


def test_identity_battery(oct_table, cml81_table):
    for T in (oct_table, cml81_table):
        rep = class2_associator_identities(T)
        assert rep.ok, [str(c) for c in rep.checks if not c.ok]


def test_identity_battery_random_p2_build():
    C = random_cvs(2, 5, 4)  # order 64
    T = LoopTable(build(C, validate=False).table_array())
    rep = class2_associator_identities(T)
    assert rep.ok, [str(c) for c in rep.checks if not c.ok]
