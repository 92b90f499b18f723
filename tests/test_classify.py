"""Isomorphism and isotopy classification over small parameter ranges.

The dim-4 run lives in the acceptance tests.  Here we pin down the small
cases exactly, check the dim-3 partitions against brute-force orbits and
iso_up_to_scalar, and check the class data is usable.
"""

import functools
import importlib
import itertools

import numpy as np
import pytest

from codeloops import (brute_force_isomorphic, build, classify, cvs_new,
                       rep_to_cvs, LoopTable)
from codeloops.classify import (ClassifyResult, IsoClass, _image_ranks,
                                state_invariants, total_state_count)
from codeloops.cvs import (Cvs, adjoint_translate, iso_up_to_scalar,
                           pair_list, pullback_tables, triple_list)
from codeloops.modular import enumerate_invertible, fp_vector
from codeloops.tables import MAX_ENTRIES

# the package's classify attribute is the function, so fetch the module
classify_module = importlib.import_module("codeloops.classify")


def test_dim3_p3_nonassoc():
    res = classify(3, 3, 3, nonassoc=True)
    # sigma is identically zero at exponent p, so states are (chi, alpha)
    assert res.n_states == total_state_count(3, 3, 3, True) == 27 * 2
    assert res.n_iso == 2
    assert res.n_isotopy == 1
    assert sorted(c.size for c in res.iso_classes) == [2, 52]
    assert sum(c.size for c in res.iso_classes) == res.n_states
    # one isotopy class containing both isomorphism classes
    assert sorted(len(g) for g in res.isotopy_classes) == [2]


def test_dim3_p3_all():
    res = classify(3, 3, 3)
    assert res.n_states == 27 * 3
    assert sum(c.size for c in res.iso_classes) == res.n_states
    assert [c.size for c in res.iso_classes] == [1, 2, 26, 52]
    # the associative states (alpha = 0) are the symplectic-form classes:
    # chi of rank 0 and rank 2
    assoc = [c for c in res.iso_classes
             if c.invariants["rad_alpha_dim"] == 3]
    assert sorted(c.invariants["rad_chi_dim"] for c in assoc) == [1, 3]
    assert res.n_iso == 4
    assert res.n_isotopy == 3  # isotopy only merges the nonassociative pair
    merged = [g for g in res.isotopy_classes if len(g) == 2]
    assert len(merged) == 1


def test_dim2_p3():
    res = classify(3, 2, 3)
    # no alpha in dimension 2: chi zero or symplectic, never merged
    assert res.n_iso == 2 and res.n_isotopy == 2
    assert [c.size for c in res.iso_classes] == [1, 2]


def test_dim2_p5():
    res = classify(5, 2, 5)
    assert res.n_iso == 2 and res.n_isotopy == 2
    assert sum(c.size for c in res.iso_classes) == 5
    assert [c.size for c in res.iso_classes] == [1, 4]


def test_exponent9_dim1():
    # sigma ranges over Z/3 here: the split and nonsplit extensions
    res = classify(3, 1, 9)
    assert res.n_states == 3
    assert res.n_iso == 2
    assert sorted(c.size for c in res.iso_classes) == [1, 2]


def test_exponent9_dim2():
    # sigma zero/nonzero crossed with chi zero/nonzero
    res = classify(3, 2, 9)
    assert res.n_states == 3 ** 3
    assert res.n_iso == 4
    sizes = sorted(c.size for c in res.iso_classes)
    assert sizes == [1, 2, 8, 16] and sum(sizes) == 27


def test_invariants_and_reps_are_consistent():
    res = classify(3, 3, 3, nonassoc=True)
    for c in res.iso_classes:
        inv = state_invariants(c.rep, 3, 3)
        assert inv == c.invariants
        C = rep_to_cvs(c.rep, 3, 3)  # must pass cvs_new validation
        assert C.p == 3 and C.k == 3
    # reps of distinct classes build non-isomorphic loops
    L0 = LoopTable(build(rep_to_cvs(res.iso_classes[0].rep, 3, 3)).table_array())
    L1 = LoopTable(build(rep_to_cvs(res.iso_classes[1].rep, 3, 3)).table_array())
    assert brute_force_isomorphic(L0, L1) is None


def test_classify_error_paths():
    with pytest.raises(ValueError, match="odd p"):
        classify(2, 3, 2)
    with pytest.raises(ValueError, match="alpha"):
        classify(5, 3, 5, nonassoc=True)
    with pytest.raises(ValueError, match="exponent"):
        classify(3, 2, 27)
    for p in (4, 9, 1, 0, -3):
        with pytest.raises(ValueError, match="p must be prime"):
            classify(p, 2, p)
    with pytest.raises(ValueError, match="dimension must be >= 0"):
        classify(3, -1, 3)


def test_classify_refuses_huge_state_spaces_first(monkeypatch):
    # dim 5 at p = 3 has 3^20 states: its image ranks alone would take
    # hundreds of GB, so the refusal must come before any generator work
    def never(*args):
        raise AssertionError("classify did work before refusing")

    monkeypatch.setattr(classify_module, "_matrix", never)
    monkeypatch.setattr(classify_module, "_image_ranks", never)
    with pytest.raises(ValueError, match="3\\^20 states exceed"):
        classify(3, 5, 3)
    # the largest spaces classified today stay below the limit
    assert max(3 ** 14, 5 ** 10) < MAX_ENTRIES


@pytest.mark.parametrize("p, n", [(3, 4), (3, 8), (5, 3), (7, 2), (4099, 1)])
def test_image_ranks_match_an_integer_product(p, n):
    # random generators against an int64 matmul over every state; 3^8
    # spans two chunks, and (p - 1)^2 >= 2^24 at p = 4099 takes float64
    rng = np.random.default_rng(p + n)
    gens = [rng.integers(0, p, size=(n, n)).astype(np.float64)
            for _ in range(3)]
    states = np.array(list(itertools.product(range(p), repeat=n)),
                      dtype=np.int64)  # rank order
    w = p ** np.arange(n - 1, -1, -1)
    want = [(states @ g.astype(np.int64).T % p) @ w for g in gens]
    got = _image_ranks(gens, p, n, p ** n)
    assert got.dtype == np.int32 and np.array_equal(got, want)


@pytest.mark.parametrize("p,exponent", [(3, 3), (3, 9), (5, 25)])
def test_dim0_is_trivial(p, exponent):
    res = classify(p, 0, exponent)
    assert (res.n_states, res.n_iso, res.n_isotopy) == (1, 1, 1)
    assert res.iso_classes[0].rep == ((), (), ())
    assert res.iso_classes[0].size == 1
    assert res.isotopy_classes == ((0,),)


# -- brute-force oracle at dim 3 ---------------------------------------------
#
# The orbit of a state under GL(3, 3) x F_3^*, computed by pulling the state
# back along every one of the 11,232 invertible matrices with the row
# evaluators, and states packed sigma first, alpha last, as classify ranks
# them.  Isotopy classes are unions of the orbits of the 27 translates of a
# rep: a basis change conjugates adt_k to adt_{M^-1 k}, and a scalar
# commutes with it.

_K, _P = 3, 3


@functools.cache
def _gl33():
    """Every invertible M as an array R with R[m, i] = M e_i."""
    return np.array(list(enumerate_invertible(_K, _P))
                    ).transpose(0, 2, 1)


def _pack(tables):
    tables = np.atleast_2d(tables)
    return tables @ _P ** np.arange(tables.shape[1] - 1, -1, -1)


def _flat(state):
    return np.concatenate([np.asarray(t, dtype=np.int64) for t in state])


def _orbit(C):
    """Sorted packed states of the GL x F_p^* orbit of C."""
    R = _gl33()
    m = len(R)
    I, J = np.array(pair_list(_K)).T
    a, b, c = np.array(triple_list(_K)).T
    rows = lambda X: X.reshape(-1, _K)
    tables = np.concatenate([
        C.forms.sigma(rows(R)).reshape(m, -1),
        C.forms.chi(rows(R[:, I]), rows(R[:, J])).reshape(m, -1),
        C.forms.alpha(rows(R[:, a]), rows(R[:, b]),
                      rows(R[:, c])).reshape(m, -1)], axis=1)
    return np.unique(np.concatenate([_pack((s * tables) % _P)
                                     for s in range(1, _P)]))


@pytest.mark.parametrize("exponent,nonassoc", [(3, True), (9, False)])
def test_iso_classes_are_brute_force_orbits(exponent, nonassoc):
    res = classify(_P, _K, exponent, nonassoc=nonassoc)
    covered = set()
    for cls in res.iso_classes:
        orbit = _orbit(Cvs(_P, _K, *cls.rep))
        assert orbit[0] == _pack(_flat(cls.rep))[0]  # rep = smallest member
        assert len(orbit) == cls.size
        covered.update(orbit.tolist())
    assert len(covered) == res.n_states == sum(c.size
                                               for c in res.iso_classes)


@pytest.mark.parametrize("exponent,nonassoc", [(3, True), (9, False)])
def test_isotopy_classes_are_translate_orbits(exponent, nonassoc):
    res = classify(_P, _K, exponent, nonassoc=nonassoc)
    rep_index = {int(_pack(_flat(c.rep))[0]): i
                 for i, c in enumerate(res.iso_classes)}
    for grp, rep in zip(res.isotopy_classes, res.isotopy_reps):
        C = rep_to_cvs(rep, _P, _K)
        met = {rep_index[int(_orbit(adjoint_translate(
            C, fp_vector(kappa, _P)))[0])]
            for kappa in itertools.product(range(_P), repeat=_K)}
        assert met == set(grp)


@pytest.mark.parametrize("exponent,nonassoc", [(3, True), (9, False)])
def test_iso_up_to_scalar_maps_sample_states_to_reps(exponent, nonassoc):
    rng = np.random.default_rng(exponent)
    res = classify(_P, _K, exponent, nonassoc=nonassoc)
    for cls in res.iso_classes:
        rep = rep_to_cvs(cls.rep, _P, _K)
        M = _gl33()[rng.integers(len(_gl33()))]
        s = int(rng.integers(1, _P))
        state = Cvs(_P, _K, *(tuple((s * v) % _P for v in t)
                              for t in pullback_tables(rep, M)))
        iso = iso_up_to_scalar(rep, state)
        assert iso is not None
        got = pullback_tables(state, np.transpose(iso.matrix))
        assert _flat(got).tolist() == [
            (iso.scalar * v) % _P for v in _flat(cls.rep).tolist()]


def test_iso_up_to_scalar_separates_reps():
    # distinct classes of (3, 3, 9) whose radical invariants agree; about
    # 2 s each, since the search runs through all of GL(3, 3)
    res = classify(3, 3, 9)
    for i, j in ((0, 4), (1, 5)):
        a, b = res.iso_classes[i], res.iso_classes[j]
        assert a.invariants == b.invariants
        assert iso_up_to_scalar(rep_to_cvs(a.rep, 3, 3),
                                rep_to_cvs(b.rep, 3, 3)) is None


# (sigma, chi, alpha, size, rad_chi_dim, rad_alpha_dim, rad_alpha_in_rad_chi)
# of the (3, 3, 9) classes, recorded from a breadth-first orbit enumeration
# over the GL(3, 3) generators, the scalars and the translations
_PINNED_339 = (
    ((0, 0, 0), (0, 0, 0), (0,), 1, 3, 3, True),
    ((0, 0, 0), (0, 0, 0), (1,), 2, 3, 0, True),
    ((0, 0, 0), (0, 0, 1), (0,), 26, 1, 3, False),
    ((0, 0, 0), (0, 0, 1), (1,), 52, 1, 0, True),
    ((0, 0, 1), (0, 0, 0), (0,), 26, 3, 3, True),
    ((0, 0, 1), (0, 0, 0), (1,), 52, 3, 0, True),
    ((0, 0, 1), (0, 0, 1), (0,), 208, 1, 3, False),
    ((0, 0, 1), (0, 0, 1), (1,), 416, 1, 0, True),
    ((0, 0, 1), (1, 0, 0), (0,), 468, 1, 3, False),
    ((0, 0, 1), (1, 0, 0), (1,), 936, 1, 0, True),
)
_PINNED_339_ISOTOPY = {
    False: ((0,), (1, 3), (2,), (4,), (5, 7, 9), (6,), (8,)),
    True: ((0, 1), (2, 3, 4)),
}


@pytest.mark.parametrize("nonassoc", [False, True])
def test_dim3_exponent9_pinned(nonassoc):
    rows = [r for r in _PINNED_339 if any(r[2]) or not nonassoc]
    iso = tuple(IsoClass((sig, chi, alpha), size,
                         {"chi_trivial": not any(chi), "rad_chi_dim": rc,
                          "rad_alpha_dim": ra, "rad_alpha_in_rad_chi": inside})
                for sig, chi, alpha, size, rc, ra, inside in rows)
    groups = _PINNED_339_ISOTOPY[nonassoc]
    want = ClassifyResult(3, 3, 9, sum(r[3] for r in rows), iso, groups,
                          tuple(iso[g[0]].rep for g in groups))
    assert classify(3, 3, 9, nonassoc=nonassoc) == want
