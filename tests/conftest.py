import numpy as np
import pytest

from codeloops.analysis import LoopTable
from codeloops.codes import builtin_hamming734, code_to_cvs
from codeloops.cvs import cvs_new, octonion_cvs
from codeloops.loops import build

# one line per acceptance criterion, printed in the terminal summary so the
# PASS/FAIL report survives pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def oct_cvs():
    return octonion_cvs()


@pytest.fixture(scope="session")
def oct_loop(oct_cvs):
    return build(oct_cvs)


@pytest.fixture(scope="session")
def oct_table(oct_loop):
    return LoopTable(oct_loop.table_array())


@pytest.fixture(scope="session")
def cml81_loop():
    # chi = 0, alpha(e1,e2,e3) = 1 over F_3: the commutative Moufang loop
    # of order 81 and exponent 3
    C = cvs_new(3, 3, None, None, {(0, 1, 2): 1})
    return build(C)


@pytest.fixture(scope="session")
def cml81_table(cml81_loop):
    return LoopTable(cml81_loop.table_array())


@pytest.fixture(scope="session")
def sfm32_loop():
    # a 32-element small Frattini Moufang 2-loop: nontrivial sigma, chi, alpha
    C = cvs_new(2, 4, [1, 0, 0, 0], {(0, 1): 1}, {(0, 1, 2): 1})
    return build(C)


@pytest.fixture(scope="session")
def hamming_cvs():
    return code_to_cvs(builtin_hamming734())


def intercalate_swap(table):
    """Swap a 2x2 Latin subsquare away from the identity row/column; the
    result is still a Latin square but (generically) no longer the same
    loop.  Returns a copy."""
    T = np.array(table, copy=True)
    n = T.shape[0]
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                for c2 in range(c1 + 1, n):
                    if T[r1, c1] == T[r2, c2] and T[r1, c2] == T[r2, c1] \
                            and T[r1, c1] != T[r1, c2]:
                        T[r1, c1], T[r1, c2] = T[r1, c2], T[r1, c1]
                        T[r2, c1], T[r2, c2] = T[r2, c2], T[r2, c1]
                        return T
    raise AssertionError("no intercalate found")


def steiner_table(v, blocks):
    """Cayley table of the Steiner loop of a Steiner triple system on the
    points 0..v-1: the identity at index 0 and point i at index i + 1;
    x*x is the identity and x*y the third point of the block through x
    and y."""
    S = np.zeros((v + 1, v + 1), dtype=np.int64)
    S[0], S[:, 0] = np.arange(v + 1), np.arange(v + 1)
    for block in blocks:
        for x in block:
            for y in block:
                if x != y:
                    S[x + 1, y + 1] = sum(block) - x - y + 1
    return S


def cyclic_blocks(v, base_blocks):
    """Every translate mod v of each base block."""
    return [[(b + t) % v for b in base] for base in base_blocks
            for t in range(v)]
