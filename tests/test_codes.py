import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeloops import codes
from codeloops.codes import (BinaryCode, builtin_golay24, builtin_hamming734,
                             code_to_cvs, codeword_weights, cvs_to_code,
                             emit_code, is_doubly_even, parse_code, weight)
from codeloops.cvs import octonion_cvs, random_cvs


def test_hamming_shape_and_weights():
    H = builtin_hamming734()
    assert (H.length, H.dim) == (7, 3)
    assert is_doubly_even(H)
    w = sorted(weight(c) for c in H.codewords())
    assert w == [0, 4, 4, 4, 4, 4, 4, 4]


def test_hamming_gives_octonion_cvs():
    C = code_to_cvs(builtin_hamming734())
    O = octonion_cvs()
    assert (C.p, C.k) == (O.p, O.k)
    assert C.sigma_basis == O.sigma_basis
    assert C.chi_flat == O.chi_flat
    assert C.alpha_flat == O.alpha_flat


def test_golay_parameters():
    G = builtin_golay24()
    assert (G.length, G.dim) == (24, 12)
    assert is_doubly_even(G)
    w = codeword_weights(G)
    dist = np.bincount(w, minlength=25)
    assert dist[0] == 1 and dist[24] == 1
    assert dist[8] == 759 and dist[16] == 759
    assert dist[12] == 2576
    assert int(dist.sum()) == 4096
    # minimum distance 8 = smallest nonzero weight
    assert sorted(set(np.flatnonzero(dist)))[1] == 8


@pytest.mark.parametrize("length", [0, 1, 24, 63, 64, 65, 67, 130])
def test_codeword_weights_are_the_popcounts_of_every_codeword(length):
    # 64-bit limbs: words longer than 64 bits span several
    rng = random.Random(length)
    gens = ()
    for _ in range(min(length, 7)):
        try:
            gens = BinaryCode(length, gens + (rng.getrandbits(length),)
                              ).generators
        except ValueError:  # dependent on the rows before it
            pass
    C = BinaryCode(length, gens)
    want = [weight(w) for w in C.codewords()]
    assert codeword_weights(C).tolist() == want


def test_doubly_even_cross_check_reads_every_codeword(monkeypatch):
    # the basis criterion is checked against the weights of all 2^dim
    # codewords; a disagreement is an internal error
    G = builtin_golay24()
    seen = []

    def weights(C):
        w = codeword_weights(C)
        seen.append(len(w))
        return w

    monkeypatch.setattr(codes, "codeword_weights", weights)
    assert is_doubly_even(G) and seen == [4096]
    monkeypatch.setattr(codes, "codeword_weights",
                        lambda C: np.append(codeword_weights(C), 2))
    with pytest.raises(AssertionError, match="disagrees"):
        is_doubly_even(G)


def test_doubly_even_rejects_odd_code():
    bad = BinaryCode(4, (0b0011,))  # weight 2
    assert not is_doubly_even(bad)
    with pytest.raises(ValueError):
        code_to_cvs(bad)


def test_octonion_code_length_67():
    code = cvs_to_code(octonion_cvs())
    assert code.length == 67
    assert is_doubly_even(code)
    back = code_to_cvs(code)
    O = octonion_cvs()
    assert (back.sigma_basis, back.chi_flat, back.alpha_flat) == \
        (O.sigma_basis, O.chi_flat, O.alpha_flat)


@given(st.integers(1, 5), st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_round_trip_random(k, seed):
    C = random_cvs(2, k, seed)
    code = cvs_to_code(C)
    assert is_doubly_even(code)
    back = code_to_cvs(code)
    assert (back.sigma_basis, back.chi_flat, back.alpha_flat) == \
        (C.sigma_basis, C.chi_flat, C.alpha_flat)


def test_cvs_to_code_needs_p2():
    with pytest.raises(ValueError):
        cvs_to_code(random_cvs(3, 2, 0))


def test_code_text_round_trip():
    for code in (builtin_hamming734(), builtin_golay24()):
        back = parse_code(emit_code(code))
        assert back.length == code.length
        assert back.generators == code.generators


def test_parse_code_errors():
    with pytest.raises(ValueError):
        parse_code("code\n10\n1\n")  # ragged rows
    with pytest.raises(ValueError):
        parse_code("code\n11\n11\n")  # dependent rows
    with pytest.raises(ValueError):
        parse_code("nope\n11\n")
    with pytest.raises(ValueError):
        parse_code("code\n12\n")  # not binary
    # a row is one 0/1 word; the header may follow comments
    with pytest.raises(ValueError,
                       match="line 3, column 3: invalid character ' '"):
        parse_code("# two rows\ncode\n11 00\n")
    with pytest.raises(ValueError, match="no generator rows"):
        parse_code("code\n# none\n")
    assert parse_code("# c\ncode\n1111  # row 1\n").generators == (15,)


def test_dependent_generators_rejected():
    with pytest.raises(ValueError):
        BinaryCode(3, (0b101, 0b011, 0b110))
