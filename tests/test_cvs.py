import itertools
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeloops import cvs
from codeloops.codes import builtin_golay24, code_to_cvs
from codeloops.cvs import (Cvs, CvsIso, adjoint_translate, cvs_new, emit_cvs,
                           eval_alpha, eval_chi, eval_sigma, iso_up_to_scalar,
                           octonion_cvs, pair_list, parse_cvs, place_entries,
                           pullback_tables, rad_alpha, rad_chi, random_cvs,
                           scale_cvs, transform, triple_list, validate_axioms)
from codeloops.loops import restricted_cvs
from codeloops.modular import _rank_mod_p, fp_vector
from codeloops.modules import parse_module

from oracles import (all_vectors, chi_table, checked_adjoint_translate,
                     eval_chi_polarized, rad_alpha_exhaustive,
                     rad_chi_exhaustive, thirteen_identities, validate_thirteen)


def permute_basis(C: Cvs, perm: list) -> Cvs:
    """The CVS seen in the reordered basis e_i -> e_perm[i]."""
    # column i of M is the new basis vector e_perm[i]
    return transform(C, np.eye(C.k, dtype=np.int64)[:, list(perm)])


def vecs(p, k):
    return [fp_vector(v, p) for v in itertools.product(range(p), repeat=k)]


def test_octonion_sigma_is_one_off_zero():
    C = octonion_cvs()
    for v in vecs(2, 3):
        want = 1 if any(v) else 0
        assert eval_sigma(C, v) == want


def test_octonion_chi_row_of_full_vector():
    # chi(e1+e2+e3, d) = 1 for every d other than 0 and the vector itself
    # (chi is alternating, so chi(u, u) = 0)
    C = octonion_cvs()
    u = fp_vector([1, 1, 1], 2)
    for d in vecs(2, 3):
        want = 0 if d in ((0, 0, 0), (1, 1, 1)) else 1
        assert eval_chi(C, u, d) == want


def test_octonion_alpha_detects_independence():
    C = octonion_cvs()
    for c in vecs(2, 3):
        for d in vecs(2, 3):
            for e in vecs(2, 3):
                indep = _rank_mod_p([list(c), list(d), list(e)], 2) == 3
                assert eval_alpha(C, c, d, e) == (1 if indep else 0)


def test_octonion_radicals_trivial():
    C = octonion_cvs()
    assert rad_chi(C) == []
    assert rad_alpha(C) == []


def test_degenerate_radicals():
    # chi = 0 entirely: the radical is everything
    C = cvs_new(3, 2, None, None, None)
    assert len(rad_chi(C)) == 2
    # alpha pairing against a 1-dim radical over F_3
    D = cvs_new(3, 3, None, {(0, 1): 1}, {(0, 1, 2): 1})
    assert len(rad_alpha(D)) == 0
    assert rad_chi(D) == [(0, 0, 1)]


def _radical_corpus():
    """random_cvs(p, k, s) with |C| <= 256, each also with chi zeroed and
    with every third chi and every other alpha zeroed."""
    for p, kmax in ((2, 8), (3, 5), (5, 3), (7, 2)):
        for k in range(kmax + 1):
            for s in range(12):
                C = random_cvs(p, k, s)
                yield C
                yield Cvs(p, k, C.sigma_basis, (0,) * len(C.chi_flat),
                          C.alpha_flat)
                yield Cvs(p, k, C.sigma_basis,
                          tuple(v * (i % 3 != 0)
                                for i, v in enumerate(C.chi_flat)),
                          tuple(v * (i % 2 != 0)
                                for i, v in enumerate(C.alpha_flat)))


def test_radicals_match_exhaustive_evaluation():
    # the elimination against the forms evaluated on all of C^2 and C^3
    n = proper = 0
    for C in _radical_corpus():
        rc = rad_chi(C)
        assert rc == rad_chi_exhaustive(C), C
        assert rad_alpha(C) == rad_alpha_exhaustive(C), C
        n += 1
        proper += 0 < len(rc) < C.k
    # 104 radicals are proper and nonzero: p = 2 exercises the restriction
    # to rad alpha, not only the trivial cases
    assert (n, proper) == (792, 104)


def test_golay_radicals():
    # |C| = 4096 was beyond the exhaustive limits; both radicals are the
    # all-ones word of the Golay code
    C = code_to_cvs(builtin_golay24())
    want = [(1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)]
    assert rad_chi(C) == want
    assert rad_alpha(C) == want


def test_validator_accepts_octonion():
    rep = validate_axioms(octonion_cvs())
    assert rep.ok, [str(c) for c in rep.checks if not c.ok]
    # every check ran exhaustively at this size
    assert all(c.mode == "exhaustive" for c in rep.checks)


@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                        (5, 1), (5, 2)]),
       st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_validator_accepts_random_cvs(pk, seed):
    p, k = pk
    rep = validate_axioms(random_cvs(p, k, seed))
    assert rep.ok, [str(c) for c in rep.checks if not c.ok]


def test_validator_accepts_dim4_sample():
    for p, seed in ((2, 0), (2, 1), (3, 0)):
        rep = validate_axioms(random_cvs(p, 4, seed))
        assert rep.ok


def test_validator_flags_bad_alpha_for_big_p():
    # bypasses cvs_new on purpose: alpha of exponent 6 cannot be nonzero
    # mod 5, and the identity battery must notice (sampled mode is enough
    # and much cheaper at |C| = 125)
    C = Cvs(5, 3, (0, 0, 0), (0, 0, 0), (1,))
    rep = validate_axioms(C, budget=64, samples=4000)
    assert not rep.ok
    assert any(not c.ok for c in rep.checks)


# first failing tuples recorded from the unchunked validator: exhaustive on
# the tabulated path, then sampled on the tabulated and the row paths (the
# row-path witness recorded again when sigmapowerlin stopped drawing samples)
_BAD5 = Cvs(5, 3, (1, 2, 3), (1, 2, 3), (1,))
_WITNESSES = [
    (_BAD5, {}, ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
    (_BAD5, dict(budget=64, samples=3000, seed=5),
     ((3, 2, 4), (4, 2, 1), (3, 4, 4))),
    (Cvs(7, 3, (0, 0, 1), (0, 5, 0), (3,)), {},
     ((5, 6, 4), (1, 3, 5), (6, 3, 5))),
]


@pytest.mark.parametrize("C,kw,witness", _WITNESSES)
def test_validator_witness_is_first_failure(C, kw, witness):
    fails = validate_axioms(C, **kw).failures()
    assert [c.name for c in fails] == ["chimultilin"]
    assert fails[0].witness == witness


def test_validator_samples_rows_above_int64_ranks():
    # |C| = 5^28 > 2^63: ranks overflow int64, so the samples are drawn as
    # rows, and the witness is the first failing sampled triple of rows.
    # alpha != 0 at p = 5 breaks chimultilin wherever alpha(c,d,e) != 0
    k = 28
    C = Cvs(5, k, (0,) * k, (0,) * (k * (k - 1) // 2),
            (1,) + (0,) * (k * (k - 1) * (k - 2) // 6 - 1))
    rep = validate_axioms(C, samples=3000)
    assert [c.mode for c in rep.checks] == ["sampled"] * 9
    assert [c.name for c in rep.failures()] == ["chimultilin"]
    c, d, e = (np.array([v]) for v in rep.failures()[0].witness)
    assert c.shape == (1, k) and C.forms.alpha(c, d, e)[0] % 5 != 0


@pytest.mark.parametrize("C, kw", [
    (code_to_cvs(builtin_golay24()), dict(samples=3000)),
    (_BAD5, dict(budget=64, samples=3000, seed=5)),
    (Cvs(7, 3, (0, 0, 1), (0, 5, 0), (3,)), dict(budget=0, samples=3000)),
    # m c reaches 144 for digits m, c at p = 13: the rows are int16
    (random_cvs(13, 3, 0), dict(budget=0, samples=3000)),
    (Cvs(13, 3, (0, 0, 0), (1, 0, 0), (1,)), dict(budget=0, samples=3000)),
])
def test_validator_reports_on_narrow_rows_as_on_int64_rows(C, kw, monkeypatch):
    # sampled ranks are unranked into narrow signed rows; the same samples
    # on int64 rows give the same names, modes, verdicts and witnesses
    narrow = validate_axioms(C, **kw)
    assert "sampled" in {ch.mode for ch in narrow.checks}
    monkeypatch.setattr(cvs, "signed_dtype",
                        lambda bound: np.dtype(np.int64))
    assert validate_axioms(C, **kw) == narrow


def test_validator_chunks_do_not_change_reports(monkeypatch):
    # 7 * 27 * 27 + 5 tuples hold 7 first ranks of the 27^3 grid and 40 of
    # the 125^2 grid, and neither step divides its |C|
    runs = [(_BAD5, {}), (_BAD5, dict(budget=64, samples=3000, seed=5)),
            (random_cvs(3, 3, 1), {}), (_WITNESSES[2][0], {})]
    want = [validate_axioms(C, **kw).lines() for C, kw in runs]
    for chunk in (1000, 7 * 27 * 27 + 5):
        monkeypatch.setattr(cvs, "_CHECK_CHUNK", chunk)
        assert [validate_axioms(C, **kw).lines() for C, kw in runs] == want


_C5 = Cvs(5, 4, (1, 2, 3, 4), (1, 2, 3, 4, 0, 1), (1, 0, 2, 0))
_C5_WITNESS = "witness=((4, 1, 1, 1), (1, 0, 2, 1), (4, 3, 1, 4))"


@pytest.mark.parametrize("C,failing", [
    (random_cvs(2, 9, 1), None), (random_cvs(3, 6, 0), None),
    (_C5, "chimultilin")])
def test_validator_reports_above_the_arity3_grid(C, failing):
    # 256 < |C| <= 3^7: the identities of arity <= 2 run on the whole grid
    # and those of arity 3 on samples; reports recorded when this regime
    # ran on rows, not on tables
    names = ["unit (sigma(0), chi(c,0))", "unit (alpha(c,d,0))",
             "sigmalin", "chisymp", "chiskew", "chipowerlin", "chimultilin",
             "alphasymp", "alphaskew"]
    arity3 = {"chimultilin", "alphaskew"}
    want = ["%s: %s (%s)" % (name, "FAIL" if name == failing else "pass",
                             "sampled" if name in arity3 else "exhaustive")
            + (" " + _C5_WITNESS if name == failing else "")
            for name in names]
    assert validate_axioms(C).lines() == want


_LEFT_OUT = {"chi-polarization", "sigmapowerlin", "alphapowerlin",
             "alphamultilin"}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("tab", [True, False])
def test_nine_identities_are_the_oracles_thirteen_less_four(p, tab):
    C = random_cvs(p, 2, 0)
    nine = [name for name, _, _ in cvs._identities(C, tab)[1]]
    thirteen = [name for name, _, _ in thirteen_identities(C, tab)[1]]
    assert len(nine) == 9
    assert nine == [name for name in thirteen if name not in _LEFT_OUT]


def _assert_nine_decide_as_thirteen(C, **kw):
    """The nine identities fail whenever the 13 do, and each exhaustive
    check among them reports as the oracle's check of that name."""
    nine, full = validate_axioms(C, **kw), validate_thirteen(C, **kw)
    assert nine.ok == full.ok, (C, kw, full.lines())
    full_lines = {ch.name: str(ch) for ch in full.checks}
    for ch in nine.checks:
        if ch.mode == "exhaustive":
            assert str(ch) == full_lines[ch.name]
    return full.ok


def test_nine_identities_decide_as_thirteen():
    # valid CVSs with k <= 4 on both paths (budget 0 puts every check on
    # rows, sampled), then the invalid Cvs values above
    for p in (2, 3):
        for k in range(5):
            for seed in range(2):
                C = random_cvs(p, k, seed)
                assert _assert_nine_decide_as_thirteen(C)
                assert _assert_nine_decide_as_thirteen(C, budget=0)
    bad = [(C, kw) for C, kw, _ in _WITNESSES]
    bad += [(_C5, {}), (Cvs(5, 3, (0, 0, 0), (0, 0, 0), (1,)),
                        dict(budget=64, samples=4000))]
    for C, kw in bad:
        assert not _assert_nine_decide_as_thirteen(C, **kw)


def _fault(monkeypatch, method: str, hit, delta: int):
    """Patch Forms.method to add delta to the entries hit marks: hit takes
    the Forms object and the method's row arguments and returns a mask of
    the output's shape."""
    orig = getattr(cvs.Forms, method)
    monkeypatch.setattr(cvs.Forms, method, lambda F, *rows: (
        orig(F, *rows) + delta * hit(F, *rows)) % F.modulus)


def _is_row(R, v) -> np.ndarray:
    return np.all(np.asarray(R) == v, axis=1)


def test_nine_identities_catch_single_table_faults(monkeypatch):
    # one entry of the sigma table or of AB[c, d, m] = alpha(c, d, x_m)
    # off by delta: the nine fail exactly when the 13 do
    rng = np.random.default_rng(19)
    failed = tried = 0
    for p, k in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)):
        C = random_cvs(p, k, 1)
        V = all_vectors(C)
        n = len(V)
        faults = [("sigma", lambda F, R, t=t: _is_row(R, V[t]), delta)
                  for t in range(n) for delta in range(1, p)]
        for c, d, m in zip(rng.integers(0, n, 24), rng.integers(0, n, 24),
                           rng.integers(0, k, 24)):
            for c, d in ((c, d), (0, d), (c, c)):
                hit = lambda F, U, W, X, c=c, d=d, m=m: (
                    _is_row(U, V[c])[:, None, None]
                    & _is_row(W, V[d])[None, :, None]
                    & _is_row(X, np.eye(k, dtype=np.int64)[m])[None, None])
                faults.append(("alpha_block", hit, int(rng.integers(1, p))))
        for method, hit, delta in faults:
            with monkeypatch.context() as mp:
                _fault(mp, method, hit, delta)
                failed += not _assert_nine_decide_as_thirteen(
                    Cvs(p, k, C.sigma_basis, C.chi_flat, C.alpha_flat))
            tried += 1
    # every fault but one breaks an axiom: over F_2 at k = 1, a changed
    # sigma(x_1) is the sigma table of other basis data
    assert (failed, tried) == (611, 612)


@pytest.mark.parametrize("k", range(5))
def test_p2_adjoint_translates_pass_the_thirteen(k):
    # any F_2 basis data is a CVS, so adjoint_translate does not validate
    # its output; the oracle does, for every translate vector
    for seed in range(3):
        C = random_cvs(2, k, seed)
        for kv in itertools.product(range(2), repeat=k):
            checked_adjoint_translate(C, kv)


def test_exhaustive_validation_leaves_numpy_random_unloaded():
    # loading numpy.random costs about 6 MB of RSS; a validation whose
    # checks are all exhaustive draws no samples, so it must not load it
    src = os.path.dirname(os.path.dirname(cvs.__file__))
    code = ("import sys; from codeloops.cvs import random_cvs, "
            "validate_axioms; assert validate_axioms(random_cvs(3, 3, 0)).ok; "
            "print('numpy.random' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert res.stdout.strip() == "False"


def test_validator_arity3_scan_memory():
    # |C| = 256 is the largest size with an exhaustive arity-3 grid: 2^24
    # tuples, which held 3 GB when one identity gathered over all at once
    C = random_cvs(2, 8, 0)
    elem, identities = cvs._identities(C, True)
    checks = {name: check for name, _, check in identities}
    tracemalloc.start()
    try:
        res = cvs._scan("alphaskew", "exhaustive",
                        checks["alphaskew"], cvs._grid(256, 3), elem, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok
    assert peak < 192 * 2 ** 20, peak


def test_sampled_validation_builds_no_vector_table():
    # |C| = 2^20 is above the budget: the sampled ranks are unranked a
    # chunk at a time, where the table of all vectors alone is 168 MB
    C = random_cvs(2, 20, 0)
    tracemalloc.start()
    try:
        rep = validate_axioms(C, samples=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and {c.mode for c in rep.checks} == {"sampled"}
    assert peak < 32 * 2 ** 20, peak


def test_cvs_new_rejects_alpha_for_big_p():
    with pytest.raises(ValueError):
        cvs_new(5, 3, None, None, {(0, 1, 2): 1})


@given(st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_chi_closed_form_matches_polarization(seed):
    # p = 2 only: chi is defined by polarizing sigma; the O(k^3) closed
    # form must agree with the recursive expansion everywhere
    C = random_cvs(2, 3, seed)
    for c in vecs(2, 3):
        for d in vecs(2, 3):
            assert eval_chi(C, c, d) == eval_chi_polarized(C, c, d)


def test_chimultilin_relation():
    # chi(c+d, e) - chi(c,e) - chi(d,e) = 3 alpha(c,d,e): zero for p = 3,
    # alpha itself for p = 2
    for p, seed in ((2, 7), (3, 7)):
        C = random_cvs(p, 3, seed)
        F, V = C.forms, all_vectors(C)
        n = V.shape[0]
        Vc = np.repeat(np.repeat(V, n, axis=0), n, axis=0)
        Vd = np.tile(np.repeat(V, n, axis=0), (n, 1))
        Ve = np.tile(V, (n * n, 1))
        lhs = (F.chi((Vc + Vd) % p, Ve) - F.chi(Vc, Ve) - F.chi(Vd, Ve)) % p
        rhs = (3 * F.alpha(Vc, Vd, Ve)) % p
        assert np.array_equal(lhs, rhs)


def test_adjoint_translate_zero_is_identity():
    C = random_cvs(3, 3, 11)
    D = adjoint_translate(C, fp_vector([0, 0, 0], 3))
    assert (D.sigma_basis, D.chi_flat, D.alpha_flat) == \
        (C.sigma_basis, C.chi_flat, C.alpha_flat)


def test_adjoint_translate_is_additive():
    C = cvs_new(3, 3, [1, 2, 0], {(0, 2): 1}, {(0, 1, 2): 2})
    k1 = fp_vector([1, 0, 2], 3)
    k2 = fp_vector([0, 1, 1], 3)
    k12 = fp_vector([1, 1, 0], 3)
    D = adjoint_translate(adjoint_translate(C, k1), k2)
    E = adjoint_translate(C, k12)
    assert D.chi_flat == E.chi_flat
    assert D.sigma_basis == E.sigma_basis and D.alpha_flat == E.alpha_flat


def test_adjoint_translate_entry_shift():
    C = cvs_new(3, 3, None, None, {(0, 1, 2): 1})
    D = adjoint_translate(C, fp_vector([0, 1, 0], 3))
    # chi(e1, e3) picks up alpha(e1, e2, e3) = 1; other entries stay 0
    assert D.forms.X[0, 2] == 1
    assert D.forms.X[0, 1] == 0 and D.forms.X[1, 2] == 0


def test_transform_identity_and_composition():
    C = random_cvs(3, 3, 3)
    D = transform(C, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert (D.sigma_basis, D.chi_flat, D.alpha_flat) == \
        (C.sigma_basis, C.chi_flat, C.alpha_flat)


def _assert_iso(A, B, hit):
    """hit = (M, a) pulls B's basis tables back along M to a times A's."""
    M, a = hit.matrix, hit.scalar
    want = tuple(tuple(a * v % A.p for v in t)
                 for t in (A.sigma_basis, A.chi_flat, A.alpha_flat))
    assert pullback_tables(B, np.transpose(M)) == want


def test_iso_up_to_scalar_finds_permutation():
    C = octonion_cvs()
    D = permute_basis(C, [2, 0, 1])
    _assert_iso(C, D, iso_up_to_scalar(C, D))


def test_iso_up_to_scalar_finds_scaling():
    C = cvs_new(3, 2, [1, 0], {(0, 1): 1}, None)
    D = scale_cvs(C, 2)
    _assert_iso(C, D, iso_up_to_scalar(C, D))
    # different chi ranks can never be isomorphic
    E = cvs_new(3, 2, [1, 0], None, None)
    assert iso_up_to_scalar(C, E) is None


def test_iso_up_to_scalar_dim_zero():
    C = cvs_new(3, 0)
    assert iso_up_to_scalar(C, C) == CvsIso((), 1)


def test_pullbacks_at_dim_zero():
    # the empty basis pulls back to empty tables
    C = cvs_new(3, 0)
    assert pullback_tables(C, []) == ((), (), ())
    assert permute_basis(C, []) == C
    assert transform(C, ()) == C
    assert restricted_cvs(C, []) == C


def test_vectors_of_the_wrong_length_are_refused():
    C = random_cvs(3, 3, 1)
    good, short = (1, 0, 2), (1, 0)
    for call in (lambda: eval_sigma(C, short),
                 lambda: eval_chi(C, good, short),
                 lambda: eval_alpha(C, good, good, (1, 0, 2, 0)),
                 lambda: adjoint_translate(C, short)):
        with pytest.raises(ValueError):
            call()
    assert isinstance(eval_alpha(C, good, good, good), int)


def test_chi_table_antisymmetry():
    C = random_cvs(3, 3, 9)
    T = chi_table(C)
    assert np.array_equal(T, (-T.T) % 3)
    assert not np.diagonal(T).any()


@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_text_round_trip(p, k, seed):
    C = random_cvs(p, k, seed)
    D = parse_cvs(emit_cvs(C))
    assert (D.p, D.k, D.sigma_basis, D.chi_flat, D.alpha_flat) == \
        (C.p, C.k, C.sigma_basis, C.chi_flat, C.alpha_flat)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cvs("not a cvs file")
    with pytest.raises(ValueError):
        parse_cvs("cvs\np 4\ndim 2\n")  # p must be prime
    with pytest.raises(ValueError):
        parse_cvs("cvs\np 2\ndim 2\nchi 1 2 1\nchi 1 2 1\n")  # duplicate
    with pytest.raises(ValueError):
        parse_cvs("cvs\np 2\ndim 2\nchi 1 5 1\n")  # index out of range
    with pytest.raises(ValueError):
        parse_cvs("cvs\np 2\ndim 2\nalpha 1 1 2 1\n")  # repeated index


_MODULE = "module\np 2\norders 2 2\nzorder 2\n"


@pytest.mark.parametrize("parse, text, lineno, what", [
    # a scalar directive read twice: the last p used to win silently
    (parse_cvs, "cvs\np 5\ndim 2\nsigma 1 4\np 2\n", 5, "repeated 'p'"),
    (parse_cvs, "cvs\np 2\ndim 2\ndim 3\n", 4, "repeated 'dim'"),
    (parse_module, _MODULE + "p 3\n", 5, "repeated 'p'"),
    # the header must be the first content line, and only that
    (parse_module, "p 2\nmodule\norders 2\nzorder 2\n", 1, "header"),
    (parse_module, "module\np 2\nmodule\norders 2\nzorder 2\n", 3,
     "unknown directive 'module'"),
    (parse_cvs, "# comment\ncvs 2\np 2\ndim 1\n", 2, "header"),
    # argument counts, both ways
    (parse_module, _MODULE + "zi 1 2 7\n", 5, "'zi' takes 2 arguments"),
    (parse_module, _MODULE + "\nchi 1 2\n", 6, "'chi' takes 3 arguments"),
    (parse_cvs, "cvs\np 2\ndim 2\nchi 1 2\n", 4, "'chi' takes 3"),
    # indices are 1-based, strictly increasing and at most k
    (parse_module, _MODULE + "chi 0 1 1\n", 5, "index 0 out of range"),
    (parse_cvs, "cvs\np 2\ndim 2\nchi 2 1 1\n", 4, "strictly increasing"),
    (parse_cvs, "cvs\nchi 1 3 1\np 2\ndim 2\n", 2, "out of range 1..2"),
    (parse_module, _MODULE + "alpha 1 2 3 1\n", 5, "out of range 1..2"),
    (parse_cvs, "cvs\np 3\ndim 1\nsigma 1 3\n", 4, "value must be in"),
    (parse_module, _MODULE + "chi 1 2 1\nchi 1 2 0\n", 6,
     "duplicate chi entry"),
    (parse_cvs, "cvs\np 2\ndim x\n", 3, "non-integer"),
    (parse_cvs, "cvs\np 4\ndim 1\n", 2, "p must be prime"),
    # errors found after reading name the line of the item they are about
    (parse_cvs, "cvs\np 2\ndim 300\n", 3, "dimension 300 too large"),
    (parse_cvs, "cvs\np 5\ndim 3\n\nalpha 1 2 3 1\n", 5,
     "alpha must vanish for p > 3"),
    (parse_module, "module\np 2\norders 2 4\nzorder 4\nchi 1 2 1\n", 5,
     "condition (3) violated"),
    (parse_module, "module\np 3\norders 3 3 3\nzorder 9\nalpha 1 2 3 1\n",
     5, "violates 6*alpha = 0"),
    (parse_module, "module\np 4\norders 2\nzorder 2\n", 2,
     "p must be prime"),
    (parse_module, "module\np 3\norders 3 4\nzorder 3\n", 3,
     "basis order 4"),
    (parse_module, "module\np 3\norders 3\nzorder 6\n", 4, "Z order 6"),
])
def test_parsers_name_the_offending_line(parse, text, lineno, what):
    with pytest.raises(ValueError) as ei:
        parse(text)
    msg = str(ei.value)
    assert msg.startswith("line %d: " % lineno) and what in msg, msg


def test_shared_format_rules():
    # comments and blank lines anywhere, the header after them, entries
    # before p and dim (they are range-checked once everything is read)
    C = octonion_cvs()
    text = emit_cvs(C)
    body = text.split("\n", 3)[3]
    assert parse_cvs("# octonion\n\n" + text) == C
    assert parse_cvs("cvs  # header\n" + body + "p 2\ndim 3\n") == C
    with pytest.raises(ValueError, match="'p' line .*required"):
        parse_cvs("cvs\ndim 1\n")
    with pytest.raises(ValueError, match="empty input"):
        parse_cvs("# nothing\n\n")


def test_place_entries_follows_combinations_order():
    for k in range(6):
        for r, combos in ((1, [(i,) for i in range(k)]), (2, pair_list(k)),
                          (3, triple_list(k))):
            got = place_entries(k, r, {c: n + 1 for n, c in
                                       enumerate(combos)}, 1000, "x")
            assert got == tuple(range(1, len(combos) + 1))
    with pytest.raises(ValueError, match="chi key"):
        place_entries(3, 2, {(2, 1): 1}, 2, "chi")
    # the alpha tensor of a CVS holds k^3 entries: 256^3 is the last
    # dimension within MAX_ENTRIES
    assert len(place_entries(256, 3, {}, 2, "alpha")) == 2763520
    with pytest.raises(ValueError, match="dimension 257 too large"):
        cvs_new(2, 257)
    with pytest.raises(ValueError, match="dimension 300 too large"):
        parse_cvs("cvs\np 2\ndim 300\n")
    with pytest.raises(ValueError, match="^line 3: dimension 300 too large"):
        parse_module("module\np 2\norders%s\nzorder 2\n" % (" 2" * 300))


def test_random_cvs_at_dimension_50_is_fast():
    # placing the 19,600 alpha entries used to search a list per entry
    # (4.7 s); the placement is now arithmetic on the index tuple
    t = time.perf_counter()
    C = random_cvs(2, 50, 0)
    assert time.perf_counter() - t < 1.0
    assert parse_cvs(emit_cvs(C)) == C
