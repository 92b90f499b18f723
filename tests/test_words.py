"""Word grammar, evaluation, and normal forms."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from codeloops import (WordSyntaxError, build, builtin_golay24, code_to_cvs,
                       cvs_new, eval_word, kappa_isotope, normal_form_string,
                       octonion_cvs, parse_word, random_cvs, render_element,
                       render_word)
from codeloops import loops
from codeloops.loops import CentralExtensionLoop
from codeloops.modules import build_module_extension, module_new
from codeloops.words import (MAX_NESTING, Assoc, CentralZ, Comm, Gen, Pow,
                             Prod, _eval)

from test_loops import _scan_loop


def test_parse_basic_shapes():
    assert parse_word("g1") == Gen(1)
    assert parse_word("z") == CentralZ()
    assert parse_word("g1*g2") == Prod(Gen(1), Gen(2))
    assert parse_word("(g1*g2)*g3") == Prod(Prod(Gen(1), Gen(2)), Gen(3))
    assert parse_word("g1*(g2*g3)") == Prod(Gen(1), Prod(Gen(2), Gen(3)))
    assert parse_word("g2^3") == Pow(Gen(2), 3)
    assert parse_word("g1^-1") == Pow(Gen(1), -1)
    assert parse_word("g1^2^3") == Pow(Pow(Gen(1), 2), 3)
    assert parse_word("[g1,g2]") == Comm(Gen(1), Gen(2))
    assert parse_word("[g1,g2,g3]") == Assoc(Gen(1), Gen(2), Gen(3))
    assert parse_word("[g1*g2,z]") == Comm(Prod(Gen(1), Gen(2)), CentralZ())
    assert parse_word(" g1 * g2 ") == Prod(Gen(1), Gen(2))


def test_unparenthesized_triple_product_rejected():
    with pytest.raises(WordSyntaxError) as ei:
        parse_word("g1*g2*g3")
    e = ei.value
    assert "association required" in str(e)
    assert e.pos == 5  # the second '*'
    assert e.caret_diagnostic() == "g1*g2*g3\n     ^"


def test_left_assoc_mode_folds():
    t = parse_word("g1*g2*g3", assoc="left")
    assert t == Prod(Prod(Gen(1), Gen(2)), Gen(3))
    with pytest.raises(ValueError, match="strict.*left"):
        parse_word("g1", assoc="right")


def test_parse_errors_and_positions():
    cases = [
        ("g", "generator needs an index", 0),
        ("q1", "unexpected character", 0),
        ("g1 g2", "trailing input", 3),
        ("[g1]", "brackets take 2 or 3", 0),
        ("[g1,g2,g3,g1]", "brackets take 2 or 3", 0),
        ("g1^z", "expected 'int'", 3),
        ("g1*", "expected a generator", 3),
        ("(g1*g2", "expected ')'", 6),
        ("", "expected a generator", 0),
        ("-", "bare '-'", 0),
    ]
    for text, msg, pos in cases:
        with pytest.raises(WordSyntaxError) as ei:
            parse_word(text)
        assert msg in str(ei.value), text
        assert ei.value.pos == pos, text[:12]
        lines = ei.value.caret_diagnostic().splitlines()
        assert lines[1].index("^") == pos


def test_octonion_normal_forms(oct_loop):
    L = oct_loop
    assert normal_form_string(parse_word("g1^2"), L) == "z"
    assert normal_form_string(parse_word("[g1,g2]"), L) == "z"
    assert normal_form_string(parse_word("[g1,g2,g3]"), L) == "z"
    assert normal_form_string(parse_word("[g1,g1]"), L) == "1"
    assert normal_form_string(parse_word("z^2"), L) == "1"
    assert normal_form_string(parse_word("g1*g2"), L) == "g1(g2)"
    assert normal_form_string(parse_word("z*g1"), L) == "z g1"
    assert normal_form_string(parse_word("(g1*g2)*(g1*g3)"), L) == "z g2(g3)"


def test_power_normal_form_p3(cml81_loop):
    L = cml81_loop
    assert normal_form_string(parse_word("g1^2"), L) == "g1^2"
    assert normal_form_string(parse_word("g1^3"), L) == "1"
    assert normal_form_string(parse_word("g1^-1"), L) == "g1^2"


def test_association_matters_in_cml81(cml81_loop):
    L = cml81_loop
    left = eval_word(parse_word("(g1*g2)*g3"), L)
    right = eval_word(parse_word("g1*(g2*g3)"), L)
    assert left.v == right.v
    assert left.z != right.z  # they differ by a power of z: the associator
    a = eval_word(parse_word("[g1,g2,g3]"), L)
    assert a.v == (0, 0, 0) and a.z != 0


def test_unbound_generator(oct_loop):
    with pytest.raises(ValueError, match="unbound generator g5"):
        eval_word(parse_word("g5"), oct_loop)
    with pytest.raises(ValueError, match="dimension 3"):
        eval_word(parse_word("[g1,g4]"), oct_loop)


def test_render_element_zero(oct_loop):
    assert render_element(oct_loop, oct_loop.identity) == "1"


_leaf = st.one_of(st.builds(Gen, st.integers(1, 3)), st.just(CentralZ()))
_tree = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.builds(Prod, inner, inner),
        st.builds(Pow, inner, st.integers(-4, 4)),
        st.builds(Comm, inner, inner),
        st.builds(Assoc, inner, inner, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=120, deadline=None)
@given(_tree)
def test_render_parse_round_trip(tree):
    assert parse_word(render_word(tree)) == tree


@settings(max_examples=40, deadline=None)
@given(_tree)
def test_eval_is_stable_under_render(tree):
    # evaluating the rendered text gives the same element as the tree
    L = build(cvs_new(3, 3, None, None, {(0, 1, 2): 1}), validate=False)
    assert eval_word(parse_word(render_word(tree)), L) == eval_word(tree, L)


def test_nesting_limit_is_a_syntax_error_at_its_position():
    # parsing recurses once per open bracket and evaluation once per tree
    # level, so both stop at MAX_NESTING; 600 levels used to overflow the
    # interpreter stack
    n = MAX_NESTING
    cases = [
        ("(" * 600 + "g1" + ")" * 600, n),  # the opening bracket past it
        ("[g2," * 600 + "g1" + "]" * 600, 4 * n),
        ("g1" + "^1" * 600, 2 * n),  # the '^' making level n + 1
    ]
    for text, pos in cases:
        with pytest.raises(WordSyntaxError, match="nested deeper than %d" % n
                           ) as ei:
            parse_word(text)
        assert ei.value.pos == pos, text[:12]
    with pytest.raises(WordSyntaxError) as ei:
        parse_word("*".join(["g1"] * 600), assoc="left")
    assert ei.value.pos == 2 + 3 * (n - 1)
    L = build(octonion_cvs())
    for text in ("(" * n + "g1" + ")" * n, "g1" + "^-1" * (n - 1),
                 "*".join(["g1"] * n)):
        tree = parse_word(text, assoc="left")
        assert eval_word(tree, L) == _eval(tree, L)


def _random_word(rng, k, leaves):
    """A tree shaped like the benchmark's words: products, commutators and
    associators over random generators, some raised to -1, 2 or 3."""
    if leaves == 1:
        tree = Gen(rng.randint(1, k)) if k else CentralZ()
    else:
        kind = rng.choice(("prod", "prod", "comm")
                          + (("assoc",) if leaves >= 3 else ()))
        if kind == "assoc":
            parts = [1, 1, 1]
            for _ in range(leaves - 3):
                parts[rng.randrange(3)] += 1
            tree = Assoc(*(_random_word(rng, k, n) for n in parts))
        else:
            a = rng.randint(1, leaves - 1)
            tree = (Prod if kind == "prod" else Comm)(
                _random_word(rng, k, a), _random_word(rng, k, leaves - a))
    r = rng.random()
    if r < 0.3:
        tree = Pow(tree, rng.choice((-1, 2, 3)))
    return tree


def _golay_with_table():
    L = build(code_to_cvs(builtin_golay24()), validate=False)
    L.theta_table()
    return L


def _cocycle_with_table():
    L = _scan_loop("cocycle")  # no feature maps: products read the table
    L.theta_table()
    return L


_C34 = random_cvs(3, 4, 0)
_WORD_LOOPS = {
    "golay": lambda: build(code_to_cvs(builtin_golay24()), validate=False),
    "golay_table": _golay_with_table,
    "cvs34": lambda: build(_C34),
    "isotope34": lambda: kappa_isotope(build(_C34), (1, 2, 0, 1)),
    "module9": lambda: build_module_extension(module_new(
        3, (9, 3, 3), 9, (1, 2, 0), {(0, 1): 3}, {(0, 1, 2): 6})),
    "module256": lambda: build_module_extension(module_new(
        2, (4, 4, 2), 256, (64, 3, 0), {(0, 1): 64, (1, 2): 128},
        {(0, 1, 2): 128})),
    "sdcp12": lambda: _scan_loop("sdcp333"),  # 1 + 2 dimensions
    "cocycle": _cocycle_with_table,  # no inverse property
    "dim0": lambda: build(cvs_new(3, 0)),
}


@pytest.mark.parametrize("name", sorted(_WORD_LOOPS))
def test_two_passes_match_the_per_product_recursion(name):
    # eval_word records every product and evaluates theta once; _eval on L
    # itself multiplies product by product and is the reference
    L = _WORD_LOOPS[name]()
    rng = random.Random(name)
    words = [_random_word(rng, L.k, rng.randint(1, 5)) for _ in range(150)]
    bases = [Gen(1), Prod(Gen(1), Gen(L.k)), Comm(Gen(L.k), Gen(1))] \
        if L.k else [CentralZ(), Prod(CentralZ(), CentralZ())]
    words += [Pow(b, n) for b in bases
              for n in list(range(-20, 21)) + [99999999999, -99999999999]]
    words += [parse_word(w) for w in ("z*z", "[z,z,z]", "z^-1", "[z,z]")]
    for tree in words:
        assert eval_word(tree, L) == _eval(tree, L), render_word(tree)


def test_dim0_words():
    L = _WORD_LOOPS["dim0"]()
    got = [normal_form_string(parse_word(w), L)
           for w in ("z*z", "[z,z,z]", "z^-1", "z^99999999999", "(z*z)^-7")]
    assert got == ["z^2", "1", "z^2", "1", "z"]


def test_a_word_makes_one_theta_call(monkeypatch):
    L = build(random_cvs(3, 4, 0))
    calls = []

    def counted(*args):
        calls.append(1)
        return rows_theta(*args)

    def refused(*args):
        raise AssertionError("single-product theta called")

    rows_theta = loops._rows_theta
    monkeypatch.setattr(loops, "_rows_theta", counted)
    monkeypatch.setattr(CentralExtensionLoop, "_theta", refused)
    for text, n in (("g1", 0), ("z", 0), ("g1*g2", 1), ("g3^-1", 1),
                    ("[(g1*g2)^-5,[g3,g4],g1^2]", 1),
                    ("[(g1*g2)^-99999999999,g3,g4]", 1)):
        calls.clear()
        eval_word(parse_word(text), L)
        assert len(calls) == n, text


def test_long_power_records_in_bounded_memory():
    # (g1*g2)^n expands to n mod (|Z| lcm(moduli)) = 65535 products here;
    # the recording is flushed every _RECORD_BLOCK of them, so the peak,
    # the kernel's 258 features per row of one block, does not grow with
    # n (held to the end, the 65535 rows peaked at 400 MiB)
    M = module_new(2, (256, 2), 256, (3, 1), {(0, 1): 128}, {})
    L, ref = build_module_extension(M), build_module_extension(M)
    ref.theta_table()  # a fast reference: per-product table lookups
    tree = parse_word("(g1*g2)^65535")
    eval_word(parse_word("(g1*g2)^5000"), L)  # warm-up: lazy imports
    tracemalloc.start()
    try:
        got = eval_word(tree, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _eval(tree, ref)
    assert peak < 16 * 2 ** 20, peak
