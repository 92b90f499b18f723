"""End-to-end CLI checks through click's test runner."""

import numpy as np
import pytest
from click.testing import CliRunner

from codeloops import (build, emit_cayley_csv, emit_cvs, octonion_cvs,
                       parse_cayley_csv, random_cvs)
from codeloops.cli import main

from conftest import intercalate_swap

GOLDEN_REPORT = """\
order=16
moufang=true
assoc=false
class=2
Z=2
N=2
C=2
Lprime=2
Lstar=2
expLstar=2
frattini=2
small_frattini=true
extraspecial=true
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def oct_cvs_file(tmp_path):
    f = tmp_path / "oct.cvs"
    f.write_text(emit_cvs(octonion_cvs()))
    return str(f)


def _run(runner, args, code=0):
    res = runner.invoke(main, args)
    assert res.exit_code == code, (args, res.output, res.stderr)
    return res


def test_full_chain_hamming_to_report(runner, tmp_path):
    code = str(tmp_path / "h.code")
    cvs = str(tmp_path / "h.cvs")
    csv = str(tmp_path / "h.csv")
    _run(runner, ["builtin", "hamming", "--as-code", "-o", code])
    _run(runner, ["code2cvs", code, "-o", cvs])
    _run(runner, ["build", cvs, "--table", csv])
    res = _run(runner, ["verify-loop", csv])
    body = res.output.split("\n", 1)[1]  # drop the echo line
    assert body == GOLDEN_REPORT


def test_chain_is_deterministic(runner, tmp_path):
    outs = []
    for tag in ("a", "b"):
        code = str(tmp_path / ("%s.code" % tag))
        cvs = str(tmp_path / ("%s.cvs" % tag))
        _run(runner, ["builtin", "hamming", "--as-code", "-o", code])
        _run(runner, ["code2cvs", code, "-o", cvs])
        outs.append(open(code).read() + open(cvs).read())
    assert outs[0] == outs[1]


def test_verify_cvs_octonion(runner, oct_cvs_file):
    res = _run(runner, ["verify-cvs", oct_cvs_file])
    assert "axioms=true" in res.output
    assert "extraspecial=true" in res.output


def test_cvs2code_round_trip(runner, tmp_path, oct_cvs_file):
    code = str(tmp_path / "oct.code")
    back = str(tmp_path / "back.cvs")
    res = _run(runner, ["cvs2code", oct_cvs_file, "-o", code])
    assert "length=67" in res.output and "dim=3" in res.output
    _run(runner, ["code2cvs", code, "-o", back])
    assert open(back).read() == open(oct_cvs_file).read()


def test_eval_words(runner, oct_cvs_file):
    res = _run(runner, ["eval", oct_cvs_file,
                        "--expr", "[g1,g2,g3]",
                        "--expr", "g1^2",
                        "--expr", "(g1*g2)*g3"])
    assert res.output == "z\nz\ng1(g2(g3))\n"


def test_eval_left_assoc_flag(runner, oct_cvs_file):
    res = _run(runner, ["eval", oct_cvs_file, "--assoc", "left",
                        "--expr", "g1*g2*g3"])
    assert res.output == "g1(g2(g3))\n"


def test_eval_syntax_error_diagnostic(runner, oct_cvs_file):
    res = runner.invoke(main, ["eval", oct_cvs_file, "--expr", "g1*g2*g3"])
    assert res.exit_code == 2
    assert "association required" in res.stderr
    assert "     ^" in res.stderr
    assert res.stdout == ""


def test_eval_on_table_source(runner, tmp_path, oct_cvs_file):
    csv = str(tmp_path / "oct.csv")
    _run(runner, ["build", oct_cvs_file, "--table", csv])
    res = _run(runner, ["eval", csv, "--expr", "[g1,g2,g3]"])
    assert res.output == "z\n"


def test_isotope_kappa_zero_is_identity(runner, tmp_path, oct_cvs_file):
    out = str(tmp_path / "k0.cvs")
    _run(runner, ["isotope", oct_cvs_file, "--kappa", "0", "-o", out])
    assert open(out).read() == open(oct_cvs_file).read()


def test_isotope_dimension_mismatch(runner, oct_cvs_file):
    res = runner.invoke(main, ["isotope", oct_cvs_file, "--kappa", "1,0"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["isotope", oct_cvs_file, "--kappa", "1,q,0"])
    assert res.exit_code == 2


def test_classify_cli(runner):
    res = _run(runner, ["classify", "--p", "3", "--dim", "3",
                        "--exponent", "3", "--nonassoc"])
    lines = res.output.splitlines()
    assert "states=54" in lines
    assert "iso_classes=2" in lines
    assert "isotopy_classes=1" in lines
    assert any(l.startswith("class1 size=2 ") for l in lines)
    assert any(l.startswith("class2 size=52 ") for l in lines)
    assert "isotopy1 classes=1,2" in lines


def test_classify_cli_rejects_p2(runner):
    res = runner.invoke(main, ["classify", "--p", "2", "--dim", "3",
                               "--exponent", "2"])
    assert res.exit_code == 2


def test_verify_loop_rejects_mutant(runner, tmp_path, oct_cvs_file):
    csv = str(tmp_path / "oct.csv")
    _run(runner, ["build", oct_cvs_file, "--table", csv])
    arr, meta = parse_cayley_csv(open(csv).read())
    mutant = intercalate_swap(np.array(arr))
    lines = ["n=%d,p=%d,k=%d" % (meta["n"], meta["p"], meta["k"])]
    lines += [",".join(str(int(x)) for x in row) for row in mutant]
    bad = str(tmp_path / "bad.csv")
    open(bad, "w").write("\n".join(lines) + "\n")
    res = runner.invoke(main, ["verify-loop", bad])
    assert res.exit_code == 1
    assert "loop=false" in res.output or "moufang=false" in res.output


def test_verify_loop_parse_error(runner, tmp_path):
    f = tmp_path / "junk.csv"
    f.write_text("this is not a table\n")
    res = runner.invoke(main, ["verify-loop", str(f)])
    assert res.exit_code == 2


def test_verify_loop_over_scan_budget(runner, tmp_path):
    # the order-1024 table that `build --table` writes for this CVS is above
    # the Moufang scan budget of 512; verify-loop must refuse it with exit 2
    # and name the budget.  The table is written through the library, which
    # skips the axiom validation that `build` runs at |C| = 512.
    csv = tmp_path / "r9.csv"
    csv.write_text(emit_cayley_csv(build(random_cvs(2, 9, 1), validate=False)))
    res = runner.invoke(main, ["verify-loop", str(csv)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "beyond Moufang scan budget 512" in res.stderr
    assert res.stdout == ""


def test_builtin_golay(runner):
    res = _run(runner, ["builtin", "golay", "--as-code"])
    rows = [l for l in res.output.splitlines() if set(l) <= {"0", "1"} and l]
    assert len(rows) == 12
    assert all(len(r) == 24 for r in rows)


def test_builtin_flag_errors(runner):
    assert runner.invoke(main, ["builtin", "golay"]).exit_code == 2
    assert runner.invoke(
        main, ["builtin", "golay", "--as-cvs", "--as-code"]).exit_code == 2
    assert runner.invoke(main, ["builtin", "fano", "--as-code"]).exit_code == 2


def test_build_max_order_guard(runner, tmp_path, oct_cvs_file):
    out = str(tmp_path / "t.csv")
    res = runner.invoke(main, ["build", oct_cvs_file, "--table", out,
                               "--max-order", "8"])
    assert res.exit_code == 2
    assert "refusing" in res.stderr


def test_code2cvs_rejects_bad_code(runner, tmp_path):
    f = tmp_path / "bad.code"
    f.write_text("code\n1100\n")  # weight 2: not doubly even
    res = runner.invoke(main, ["code2cvs", str(f)])
    assert res.exit_code == 1
    f2 = tmp_path / "junk.code"
    f2.write_text("code\n11a0\n")
    assert runner.invoke(main, ["code2cvs", str(f2)]).exit_code == 2
