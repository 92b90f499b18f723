"""Coded modules: mixed-radix base groups, power maps, module extensions."""

import numpy as np
import pytest

from codeloops import (build, build_module_extension, cvs_new, emit_module,
                       eval_alpha, eval_chi, eval_sigma2, module_isotopy_check,
                       module_new, octonion_cvs, parse_module, sigma_q,
                       verify_coded_extension)
from codeloops.loops import KappaIsotope, kappa_isotope
from codeloops.cvs import as_rows
from codeloops.modules import CodedModule, _powers_agree, eval_chi_module
from codeloops.tables import vector_table


def eval_alpha_module(M: CodedModule, c, d, e) -> int:
    return int(M.forms.alpha(*as_rows(M.forms, c, d, e))[0])


# -- constructor validation -------------------------------------------------

def test_orders_of_zero_are_refused():
    # a power-of-p test that divides 0 by p forever would hang here
    with pytest.raises(ValueError, match="basis order 0 is not a positive "
                       "power of 3"):
        module_new(3, (0, 3), 3, (0, 0), {}, {})
    with pytest.raises(ValueError, match="Z order 0 is not a positive "
                       "power of 3"):
        module_new(3, (3,), 0, (0,), {}, {})
    L = build_module_extension(module_new(3, (3,), 3, (0,), {}, {}))
    with pytest.raises(ValueError, match="q must be a power of 3"):
        sigma_q(L, 0, (0,))


def test_module_new_rejects_bad_shapes():
    with pytest.raises(ValueError, match="prime"):
        module_new(4, (4,), 2, (0,), {}, {})
    with pytest.raises(ValueError, match="power of 2"):
        module_new(2, (6,), 2, (0,), {}, {})
    with pytest.raises(ValueError, match="Z order"):
        module_new(2, (4,), 6, (0,), {}, {})
    with pytest.raises(ValueError, match="one z value per basis slot"):
        module_new(2, (4, 2), 2, (0,), {}, {})


def test_module_new_clause_1_chi_diagonal():
    with pytest.raises(ValueError, match=r"condition \(1\)"):
        module_new(2, (2, 2), 2, (0, 0), {(1, 1): 1}, {})


def test_module_new_clause_2_ordered_keys():
    with pytest.raises(ValueError, match=r"condition \(2\)"):
        module_new(2, (2, 2), 2, (0, 0), {(1, 0): 1}, {})


def test_module_new_clause_3_chi_order():
    # chi(1,2) = 1 has additive order 4 in Z/4, but gcd(q_1, q_2) = 2
    with pytest.raises(ValueError, match=r"condition \(3\)"):
        module_new(2, (4, 2), 4, (0, 0), {(0, 1): 1}, {})
    # same chi value is fine once both orders are 4
    module_new(2, (4, 4), 4, (0, 0), {(0, 1): 1}, {})


def test_module_new_alpha_exponent_conditions():
    with pytest.raises(ValueError, match=r"2\*alpha = 0"):
        module_new(2, (2, 2, 2), 4, (0, 0, 0), {}, {(0, 1, 2): 1})
    with pytest.raises(ValueError, match=r"6\*alpha = 0"):
        module_new(3, (9, 9, 9), 9, (0, 0, 0), {}, {(0, 1, 2): 1})
    # 6*3 = 18 = 0 mod 9, so alpha = 3 is admissible over Z/9
    module_new(3, (9, 9, 9), 9, (0, 0, 0), {}, {(0, 1, 2): 3})
    # p > 3 forces alpha = 0 (via 6*alpha = 0, since gcd(6, 5^r) = 1)
    with pytest.raises(ValueError, match="alpha"):
        module_new(5, (5, 5, 5), 5, (0, 0, 0), {}, {(0, 1, 2): 1})


def test_module_new_alpha_key_order():
    with pytest.raises(ValueError, match="alpha key"):
        module_new(2, (2, 2, 2), 2, (0, 0, 0), {}, {(2, 1, 0): 1})


# -- cyclic groups from one slot ---------------------------------------------

def test_cyclic_27_from_order_9_slot():
    # C = C_9, Z = C_3, c^9 = z: the extension is cyclic of order 27
    M = module_new(3, (9,), 3, (1,), {}, {})
    L = build_module_extension(M)
    assert L.order == 27
    g = L.element(0, (1,))
    x = g
    order = 1
    while x != L.identity:
        x = L.mul(x, g)
        order += 1
    assert order == 27


def test_split_9_by_3_stays_exponent_9():
    # z trivial: C_9 x C_3 instead
    M = module_new(3, (9,), 3, (0,), {}, {})
    L = build_module_extension(M)
    g = L.element(0, (1,))
    assert L.pow(g, 9) == L.identity


# -- sigma on general vectors (p = 2) ----------------------------------------

def test_eval_sigma2_two_slot_example():
    # sigma(x1 + x2) = s1 + s2 + chi12
    M = module_new(2, (2, 2), 2, (0, 0), {(0, 1): 1}, {})
    assert eval_sigma2(M, (0, 0), (1, 1)) == 1
    assert eval_sigma2(M, (1, 1), (1, 1)) == 1
    assert eval_sigma2(M, (1, 0), (1, 1)) == 0


def test_eval_sigma2_polarization():
    M = module_new(2, (2, 2, 2), 2, (0, 0, 0),
                   {(0, 1): 1, (1, 2): 1}, {(0, 1, 2): 1})
    rng = np.random.default_rng(7)
    sig = (1, 0, 1)
    for _ in range(40):
        c = tuple(rng.integers(0, 2, size=3).tolist())
        d = tuple(rng.integers(0, 2, size=3).tolist())
        e = tuple((x + y) % 2 for x, y in zip(c, d))
        lhs = eval_sigma2(M, sig, e)
        rhs = (eval_sigma2(M, sig, c) + eval_sigma2(M, sig, d)
               + eval_chi_module(M, c, d)) % 2
        assert lhs == rhs


def test_eval_sigma2_requires_p2_and_exponent_2():
    M3 = module_new(3, (3,), 3, (0,), {}, {})
    with pytest.raises(ValueError, match="p = 2"):
        eval_sigma2(M3, (0,), (1,))
    M4 = module_new(2, (4,), 4, (0,), {}, {})
    with pytest.raises(ValueError, match="exponent 2"):
        eval_sigma2(M4, (0,), (1,))
    M = module_new(2, (2, 2), 2, (0, 0), {}, {})
    with pytest.raises(ValueError, match="per basis slot"):
        eval_sigma2(M, (0,), (1, 1))


# -- q-th power maps ----------------------------------------------------------

def test_sigma_q_on_c4_times_c2():
    M = module_new(2, (4, 2), 2, (1, 0), {(0, 1): 1}, {})
    L = build_module_extension(M)
    # c1^4 = z, c2^4 = 1
    assert sigma_q(L, 4, (1, 0)) == 1
    assert sigma_q(L, 4, (0, 1)) == 0
    # trivial on the subgroup C_2 = {squares and involutions}
    for c in [(0, 0), (2, 0), (0, 1), (2, 1)]:
        assert sigma_q(L, 4, c) == 0
    # linear for q = 4 > 2
    vecs = [(x, y) for x in range(4) for y in range(2)]
    for c in vecs:
        for d in vecs:
            e = ((c[0] + d[0]) % 4, (c[1] + d[1]) % 2)
            assert sigma_q(L, 4, e) == (
                sigma_q(L, 4, c) + sigma_q(L, 4, d)) % 2


def test_sigma_q_domain_errors():
    M = module_new(2, (4, 2), 2, (1, 0), {(0, 1): 1}, {})
    L = build_module_extension(M)
    with pytest.raises(ValueError, match="not in C_q"):
        sigma_q(L, 2, (1, 0))
    with pytest.raises(ValueError, match="power of 2"):
        sigma_q(L, 6, (0, 0))
    M4 = module_new(2, (4,), 4, (1,), {}, {})
    L4 = build_module_extension(M4)
    with pytest.raises(ValueError, match="exponent p"):
        sigma_q(L4, 4, (1,))


def test_vectors_of_the_wrong_length_are_refused():
    # too many or too few coordinates are refused, not truncated by a zip
    # or broadcast by numpy, and with the message a CVS of that dimension
    # gives
    M = module_new(3, (9, 3), 3, (1, 2), {(0, 1): 1}, {})
    L = build_module_extension(M)
    C = cvs_new(3, 2, (1, 2), {(0, 1): 1})
    good = (1, 0)
    for bad in ((1,), (1, 1, 1)):
        for module_call, cvs_call in (
                (lambda: eval_chi_module(M, bad, good),
                 lambda: eval_chi(C, bad, good)),
                (lambda: eval_chi_module(M, good, bad),
                 lambda: eval_chi(C, good, bad)),
                (lambda: eval_alpha_module(M, good, good, bad),
                 lambda: eval_alpha(C, good, good, bad))):
            with pytest.raises(ValueError) as module_err:
                module_call()
            with pytest.raises(ValueError) as cvs_err:
                cvs_call()
            assert str(module_err.value) == str(cvs_err.value)
            assert "need 2 coordinates" in str(module_err.value)
    M2 = module_new(2, (2, 2), 2, (0, 0), {(0, 1): 1}, {})
    for bad in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="need 2 coordinates"):
            eval_sigma2(M2, (1, 0), bad)
    with pytest.raises(ValueError, match="wrong dimension"):
        sigma_q(L, 3, (3, 0, 5))
    assert sigma_q(L, 3, (3, 0)) == 1


# -- extensions and their verification ---------------------------------------

def test_module_extension_matches_cvs_when_elementary():
    # orders all p and |Z| = p is exactly the vector-space case
    C = octonion_cvs()
    M = module_new(2, (2, 2, 2), 2, tuple(C.sigma_basis),
                   {(0, 1): 1, (0, 2): 1, (1, 2): 1}, {(0, 1, 2): 1})
    LM = build_module_extension(M)
    LC = build(C)
    assert np.array_equal(LM.theta_values(), LC.theta_values())


def test_verify_p2_mixed_radix():
    M = module_new(2, (4, 2), 2, (1, 0), {(0, 1): 1}, {})
    L = build_module_extension(M)
    assert L.order == 16
    rep = verify_coded_extension(L)
    assert rep.ok, [str(c) for c in rep.checks if not c.ok]
    g = L.generator(0)
    assert L.pow(g, 4) == L.element(1, (0, 0))


def test_verify_p3_with_alpha():
    M = module_new(3, (9, 3, 3), 3, (1, 2, 0), {(0, 1): 1}, {(0, 1, 2): 1})
    L = build_module_extension(M)
    assert L.order == 243
    rep = verify_coded_extension(L)
    assert rep.ok, [str(c) for c in rep.checks if not c.ok]
    # the slot of order 9 really needs 9 steps to hit its z value
    g = L.generator(0)
    assert L.pow(g, 9) == L.element(1, (0, 0, 0))
    assert L.pow(g, 3) != L.element(1, (0, 0, 0))


def test_verify_catches_wrong_z_value():
    M = module_new(2, (4, 2), 2, (1, 0), {(0, 1): 1}, {})
    L = build_module_extension(M)
    # freeze the true multiplication, then lie about the recorded z value
    L.theta_table()
    bad = module_new(2, (4, 2), 2, (0, 0), {(0, 1): 1}, {})
    L.module = bad
    rep = verify_coded_extension(L)
    assert not rep.ok
    assert any(c.name == "CEpower" and not c.ok for c in rep.checks)


def test_sampled_module_verification_above_the_table_limit():
    # |C| = 8192 > 4096: no theta table, so commutators and associators
    # run on sampled rows and CEpower on the basis powers
    M = module_new(2, (8, 8, 8, 8, 2), 4, (1, 2, 3, 0, 1),
                   {(0, 1): 1, (1, 2): 2, (0, 3): 3, (2, 4): 2},
                   {(0, 1, 2): 2, (1, 3, 4): 2})
    L = build_module_extension(M)
    with pytest.raises(ValueError, match="too large"):
        L.theta_table()
    rep = verify_coded_extension(L, samples=2000)
    assert rep.ok, [str(c) for c in rep.checks]
    assert [(c.name, c.mode) for c in rep.checks] == [
        ("CEpower", "exhaustive"), ("CEcommute", "sampled"),
        ("CEassociate", "sampled")]
    # negative controls: a wrong z value, then a wrong chi value
    L.module = module_new(2, M.orders, 4, (1, 2, 1, 0, 1),
                          {(0, 1): 1, (1, 2): 2, (0, 3): 3, (2, 4): 2},
                          {(0, 1, 2): 2, (1, 3, 4): 2})
    rep = verify_coded_extension(L, samples=2000)
    assert [c.name for c in rep.failures()] == ["CEpower"]
    assert rep.failures()[0].witness == ((0, 0, 1, 0, 0),)
    L.module = module_new(2, M.orders, 4, M.z_values,
                          {(0, 1): 1, (1, 2): 2, (0, 3): 1, (2, 4): 2},
                          {(0, 1, 2): 2, (1, 3, 4): 2})
    rep = verify_coded_extension(L, samples=2000)
    assert [c.name for c in rep.failures()] == ["CEcommute"]


# -- isotopes ----------------------------------------------------------------

ISOTOPY_MODULES = [
    module_new(3, (3, 3, 3), 3, (0, 1, 2), {(0, 1): 1}, {(0, 1, 2): 1}),
    module_new(3, (9, 3, 3), 3, (1, 2, 0), {(0, 1): 1}, {(0, 1, 2): 1}),
]


@pytest.mark.parametrize("M", ISOTOPY_MODULES, ids=["333", "933"])
def test_module_isotopes_verify(M):
    # every kappa-isotope of a module is checked against the module forms
    # with chi shifted by 2 alpha(c, kappa, d)
    L = build_module_extension(M)
    for kv in vector_table(L.moduli).tolist():
        rep = verify_coded_extension(kappa_isotope(L, kv))
        assert rep.ok, (kv, [str(c) for c in rep.checks])
        assert {c.mode for c in rep.checks} == {"exhaustive"}
    # negative control: alpha(x1, x2, x3) moved by 1 in the expected forms
    iso = kappa_isotope(L, (1, 2, 0))
    flipped = module_new(3, M.orders, 3, M.z_values, {(0, 1): 1},
                         {(0, 1, 2): 2}).forms
    iso.forms = flipped.chi_shifted(iso.forms.X - flipped.X)
    rep = verify_coded_extension(iso)
    bad = rep.failures()
    assert [c.name for c in bad] == ["CEassociate"]
    assert bad[0].witness is not None and len(bad[0].witness) == 3



def test_module_isotopy_check_p3():
    M = module_new(3, (3, 3, 3), 3, (0, 1, 2), {(0, 1): 1}, {(0, 1, 2): 1})
    rep = module_isotopy_check(M)
    assert rep.ok, [str(c) for c in rep.checks if not c.ok]
    assert len(rep.checks) == 28  # 27 kappas plus the kappa = 0 extra check


def test_module_isotopy_check_reads_the_verifier(monkeypatch):
    # with the chi shift taken out of the isotope forms, every kappa whose
    # shift is nonzero (here every kappa != 0) must fail its check
    monkeypatch.setattr(KappaIsotope, "forms",
                        property(lambda iso: iso.base.forms))
    rep = module_isotopy_check(ISOTOPY_MODULES[0])
    assert [c.name for c in rep.checks if c.ok] == [
        "kappa = 0 gives the original loop", "isotope laws at kappa=(0, 0, 0)"]
    assert len(rep.failures()) == 26


def test_powers_agree_walks_every_element():
    # the vectorised power walk of module_isotopy_check against the element
    # loop it replaced, on an isotope (equal powers) and on a loop whose
    # only difference is z_1 (unequal powers)
    M = ISOTOPY_MODULES[1]
    L = build_module_extension(M)
    other = build_module_extension(module_new(
        3, M.orders, 3, (2, 2, 0), {(0, 1): 1}, {(0, 1, 2): 1}))
    for loop, want in ((kappa_isotope(L, (1, 2, 1)), True), (other, False)):
        assert _powers_agree(L, loop, 27) is want
        agree = True
        for idx in range(L.order):
            a = L.element_at(idx)
            x = y = a
            for _ in range(27):
                x, y = loop.mul(a, x), L.mul(a, y)
                agree &= x == y
        assert agree is want


def test_module_isotopy_check_rejects_p2():
    M = module_new(2, (2, 2), 2, (0, 0), {(0, 1): 1}, {})
    with pytest.raises(ValueError, match="p = 3"):
        module_isotopy_check(M)


# -- text form ----------------------------------------------------------------

def test_emit_parse_round_trip():
    M = module_new(3, (9, 3, 3), 3, (1, 2, 0), {(0, 1): 1}, {(0, 1, 2): 1})
    text = emit_module(M)
    assert parse_module(text) == M
    assert "orders 9 3 3" in text
    # indices in the text form are 1-based
    assert "zi 1 1" in text and "chi 1 2 1" in text and "alpha 1 2 3 1" in text


def test_dimension_zero_module_round_trips():
    # its orders line carries no values
    M = module_new(3, (), 9, (), {}, {})
    text = emit_module(M)
    assert "orders \n" in text and parse_module(text) == M


def test_parse_module_errors():
    with pytest.raises(ValueError, match="header"):
        parse_module("p 2\norders 2\nzorder 2\n")
    with pytest.raises(ValueError, match="required"):
        parse_module("module\np 2\norders 2\n")
    with pytest.raises(ValueError, match="duplicate zi"):
        parse_module("module\np 2\norders 4\nzorder 2\nzi 1 1\nzi 1 0\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_module("module\np 2\norders 4\nzorder 2\nzi 3 1\n")
    with pytest.raises(ValueError, match="unknown directive"):
        parse_module("module\np 2\norders 2\nzorder 2\nsigma 1 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_module("module\np two\norders 2\nzorder 2\n")


def test_alpha_tensor_signs():
    M = module_new(3, (3, 3, 3), 3, (0, 0, 0), {}, {(0, 1, 2): 1})
    assert eval_alpha_module(M, (1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    # odd permutation of the arguments flips the sign mod 3
    assert eval_alpha_module(M, (0, 1, 0), (1, 0, 0), (0, 0, 1)) == 2
