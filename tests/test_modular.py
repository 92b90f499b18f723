import pytest

from codeloops.modular import (_rank_mod_p, basis_vector,
                               enumerate_invertible, fp_vector)


def count_invertible(k: int, p: int) -> int:
    """|GL(k,p)| by the standard product formula."""
    n = 1
    for i in range(k):
        n *= p ** k - p ** i
    return n


def test_vector_basics():
    assert fp_vector([1, 5, -1], 3) == (1, 2, 2)
    assert fp_vector((4, -1, 5), 3) == (1, 2, 2)
    assert basis_vector(1, 3, 5) == (0, 1, 0)


def test_enumerate_invertible_counts():
    assert count_invertible(2, 2) == 6
    assert count_invertible(2, 3) == 48
    assert count_invertible(3, 2) == 168
    got = list(enumerate_invertible(2, 3))
    assert len(got) == 48
    # all distinct row tuples of full rank, in row-major lexicographic order
    assert len(set(got)) == 48 and got == sorted(got)
    assert all(_rank_mod_p([list(r) for r in M], 3) == 2 for M in got)


def test_enumerate_invertible_cap():
    with pytest.raises(ValueError, match="exceeds the limit k <= 4 for p=3"):
        list(enumerate_invertible(5, 3))
