"""End-to-end CLI checks through click's test runner."""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from codeloops import (build, emit_cayley_csv, emit_cvs, octonion_cvs,
                       parse_cayley_csv, random_cvs)
from codeloops import cli
from codeloops.cli import _TableWordContext, main

from conftest import cyclic_blocks, intercalate_swap, steiner_table

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


def test_verify_cvs_prints_the_verifier_mode(runner, tmp_path):
    # order 4913 is above the full-report order 512, but |C| = 289 is within
    # the extension-law verifier's exhaustive budget of 729
    f = tmp_path / "r17.cvs"
    f.write_text(emit_cvs(random_cvs(17, 2, 0)))
    res = _run(runner, ["verify-cvs", str(f), "--samples", "500"])
    lines = res.output.splitlines()
    assert lines[4:10] == [
        "order=4913",
        "# order above 512: exhaustive law and sampled Moufang checks",
        "mode=exhaustive", "samples=500", "seed=0", "extension_laws=true"]
    assert lines[-1] == "moufang=true"


def test_verify_cvs_scan_bound_boundary(runner, tmp_path, monkeypatch):
    # order 512 is the largest given the full table report; order 729 is
    # the smallest above it and prints the verifier's mode lines instead.
    # The report itself (3 s at order 512) is stubbed: only the branch
    # taken is under test.
    small, big = tmp_path / "r512.cvs", tmp_path / "r729.cvs"
    small.write_text(emit_cvs(random_cvs(2, 8, 0)))
    big.write_text(emit_cvs(random_cvs(3, 5, 0)))
    monkeypatch.setattr(cli, "loop_report",
                        lambda T: {"order": T.n, "moufang": True})
    lines = _run(runner, ["verify-cvs", str(small)]).output.splitlines()
    assert lines[4:] == ["order=512", "moufang=true"]
    lines = _run(runner, ["verify-cvs", str(big), "--samples", "500"]
                 ).output.splitlines()
    assert lines[4:10] == [
        "order=729",
        "# order above 512: exhaustive law and sampled Moufang checks",
        "mode=exhaustive", "samples=500", "seed=0", "extension_laws=true"]


GOLAY_SAMPLED = """\
p=2
dim=12
axioms=true
order=8192
# order above 512: sampled checks
mode=sampled
samples=2000
seed=0
extension_laws=true
moufang=true
"""


def test_verify_cvs_golay_sampled(runner, tmp_path):
    # |C| = 4096: the sampled checks read the theta table verify-cvs builds
    cvs = str(tmp_path / "g.cvs")
    _run(runner, ["builtin", "golay", "--as-cvs", "-o", cvs])
    res = _run(runner, ["verify-cvs", cvs, "--samples", "2000"])
    body = res.output.split("\n", 1)[1]  # drop the echo line
    assert body == GOLAY_SAMPLED


def test_verify_cvs_above_int64_ranks(runner, tmp_path):
    # |C| = 2^70 exceeds the int64 ranks the validator draws its samples
    # as: it draws them as rows instead, digit by digit (this raised
    # "high is out of bounds for int64" before)
    f = tmp_path / "d70.cvs"
    f.write_text("cvs\np 2\ndim 70\nsigma 1 1\n")
    res = _run(runner, ["verify-cvs", str(f), "--samples", "500"])
    lines = res.output.splitlines()
    assert lines[3:5] == ["axioms=true", "order=%d" % 2 ** 71]
    assert lines[-2:] == ["extension_laws=true", "moufang=true"]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_cvs_rejects_fewer_than_one_sample(runner, oct_cvs_file,
                                                  samples):
    # zero samples would check nothing yet print the laws as true
    res = runner.invoke(main, ["verify-cvs", str(oct_cvs_file),
                               "--samples", samples])
    assert res.exit_code == 2
    assert "--samples" in res.output and "Traceback" not in res.output


def test_verify_cvs_and_build_dim0(runner, tmp_path):
    # dimension 0: the loop is Z, cyclic of order p
    f = tmp_path / "d0.cvs"
    f.write_text("cvs\np 3\ndim 0\n")
    lines = _run(runner, ["verify-cvs", str(f)]).output.splitlines()
    assert lines[1:5] == ["p=3", "dim=0", "axioms=true", "order=3"]
    assert "moufang=true" in lines and "assoc=true" in lines
    csv = str(tmp_path / "d0.csv")
    res = _run(runner, ["build", str(f), "--table", csv])
    assert res.output.splitlines()[0] == "order=3"
    assert open(csv).read() == "n=3,p=3,k=0\n0,1,2\n1,2,0\n2,0,1\n"


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


@pytest.mark.parametrize("header", ["n=2,p=0,k=1", "n=2,p=2,k=-1"])
def test_eval_rejects_a_bad_table_header(runner, tmp_path, header):
    # the cyclic group of order 2 under a header whose p or k makes no
    # vector space: p = 0 used to divide by zero, k = -1 to evaluate
    # against a float |C|
    f = tmp_path / "bad.csv"
    f.write_text(header + "\n0,1\n1,0\n")
    res = _run(runner, ["eval", str(f), "--expr", "z"], code=2)
    assert "p >= 2 and k >= 0" in res.stderr
    assert res.stdout == "" and "Traceback" not in res.output


@pytest.mark.parametrize("command", [["verify-loop"],
                                     ["eval", "--expr", "z"]])
def test_table_commands_refuse_an_empty_table(runner, tmp_path, command):
    # n = 0 with no rows used to parse, and verify-loop then reported
    # loop=false with exit 1
    f = tmp_path / "empty.csv"
    f.write_text("n=0,p=2,k=0\n")
    res = _run(runner, command[:1] + [str(f)] + command[1:], code=2)
    assert "n must be >= 1" in res.stderr
    assert res.stdout == "" and "Traceback" not in res.output


def test_table_powers_reduce_the_exponent_exactly():
    # the table context's a^n against |n| table lookups (from the inverse
    # when n < 0), for every element and every n in [-20, 20]
    for C in (octonion_cvs(), random_cvs(3, 3, 0)):
        ctx = _TableWordContext(*parse_cayley_csv(emit_cayley_csv(build(C))))
        T, inv, e = ctx.tbl.table, ctx.tbl.inverse, ctx.tbl.identity
        for i in range(ctx.tbl.n):
            a = ctx._decode(i)
            for n in range(-20, 21):
                b, acc = (int(inv[i]) if n < 0 else i), e
                for _ in range(abs(n)):
                    acc = int(T[b, acc])
                assert ctx.pow(a, n) == ctx._decode(acc), (i, n)


def test_eval_huge_exponent_is_fast(runner, tmp_path):
    cvs, csv = str(tmp_path / "h.cvs"), str(tmp_path / "h.csv")
    _run(runner, ["builtin", "hamming", "--as-cvs", "-o", cvs])
    _run(runner, ["build", cvs, "--table", csv])
    for source in (cvs, csv):
        t = time.perf_counter()
        res = _run(runner, ["eval", source, "--expr", "g1^-99999999999"])
        assert time.perf_counter() - t < 1.0
        assert res.output == "g1\n"


# recorded with the product-by-product evaluator
GOLAY_WORDS = {
    "[g1,g2,g5]": "z",
    "[(g1*g2)^-99999999999,g3,g12]": "z",
    "[g4,g9^-1,g11*g2]": "z",
    "(g5*(g7*g9))^-1": "g5(g7(g9))",
    "(g3*(g2*g1))^-21": "g1(g2(g3))",
    "((g1*g2)*(g3*g4))*((g5*g6)*(g7*g8))": "g1(g2(g3(g4(g5(g6(g7(g8)))))))",
    "(g8*g1)*g4": "z g1(g4(g8))",
    "(g1*g4)^-1": "z g1(g4)",
}
HAMMING_WORDS = {
    "[g1,g2,g3]": "z",
    "(g1*g2)*g3": "g1(g2(g3))",
    "g1*(g2*g3)": "z g1(g2(g3))",
    "((g1*g2)^-1*[g2,g3])^7": "z g1(g2)",
    "g3^-99999999999": "g3",
    "[(g1*g2)^-99999999999,g3,g1]": "z",
}


def _eval_output(runner, source, words):
    args = ["eval", source]
    for w in words:
        args += ["--expr", w]
    return _run(runner, args).output


def test_eval_golay_words(runner, tmp_path):
    src = str(tmp_path / "g.cvs")
    _run(runner, ["builtin", "golay", "--as-cvs", "-o", src])
    assert _eval_output(runner, src, GOLAY_WORDS) == "".join(
        v + "\n" for v in GOLAY_WORDS.values())


def test_eval_hamming_words_on_cvs_and_table(runner, tmp_path):
    cvs, csv = str(tmp_path / "h.cvs"), str(tmp_path / "h.csv")
    _run(runner, ["builtin", "hamming", "--as-cvs", "-o", cvs])
    _run(runner, ["build", cvs, "--table", csv])
    want = "".join(v + "\n" for v in HAMMING_WORDS.values())
    for source in (cvs, csv):
        assert _eval_output(runner, source, HAMMING_WORDS) == want


def test_eval_on_a_dim0_cvs(runner, tmp_path):
    f = tmp_path / "d0.cvs"
    f.write_text("cvs\np 3\ndim 0\n")
    words = ["z*z", "[z,z,z]", "z^-1", "z^99999999999", "(z*z)^-7"]
    assert _eval_output(runner, str(f), words) == "z^2\n1\nz^2\n1\nz\n"


def test_eval_refuses_a_deeply_nested_word(runner, tmp_path):
    # a word nested 600 deep used to end in a RecursionError traceback
    cvs, csv = str(tmp_path / "h.cvs"), str(tmp_path / "h.csv")
    _run(runner, ["builtin", "hamming", "--as-cvs", "-o", cvs])
    _run(runner, ["build", cvs, "--table", csv])
    word = "(" * 600 + "g1" + ")" * 600
    for source in (cvs, csv):
        res = _run(runner, ["eval", source, "--expr", word], code=2)
        assert res.stderr.startswith(
            "error: word nested deeper than 100 levels (at position 100)")
        assert res.stdout == "" and "Traceback" not in res.output


def test_build_table_into_missing_directory(runner, tmp_path, oct_cvs_file):
    out = str(tmp_path / "nodir" / "x.csv")
    res = _run(runner, ["build", oct_cvs_file, "--table", out], code=2)
    assert res.stderr.startswith("error: ") and "nodir" in res.stderr
    assert "Traceback" not in res.output


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


@pytest.mark.parametrize("p", ["4", "9", "1", "0"])
def test_classify_cli_rejects_nonprime_p(runner, p):
    res = runner.invoke(main, ["classify", "--p", p, "--dim", "2",
                               "--exponent", p])
    assert res.exit_code == 2
    assert "p must be prime" in res.output
    assert "states=" not in res.output


def test_classify_cli_refuses_huge_state_space(runner):
    res = runner.invoke(main, ["classify", "--p", "3", "--dim", "5",
                               "--exponent", "3"])
    assert res.exit_code == 2
    assert "3^20 states exceed the classification limit" in res.output
    assert "states=" not in res.output


def test_classify_cli_dim0(runner):
    res = _run(runner, ["classify", "--p", "3", "--dim", "0",
                        "--exponent", "3"])
    lines = res.output.splitlines()
    assert lines[1:4] == ["states=1", "iso_classes=1", "isotopy_classes=1"]


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
    # the swap breaks the inverse property, so the table check fails first
    assert "loop=false" in res.output
    assert "witness=left inverse property fails at element 1" in res.output


def test_verify_loop_reports_a_non_moufang_loop(runner, tmp_path):
    # the Steiner loop of the cyclic STS(13) is an IP loop of order 14 that
    # is not Moufang: the table check passes and the Moufang scan fails
    S = steiner_table(13, cyclic_blocks(13, [[0, 1, 4], [0, 2, 7]]))
    csv = tmp_path / "sts13.csv"
    csv.write_text("n=14,p=0,k=0\n"
                   + "".join(",".join(map(str, r)) + "\n" for r in S))
    res = runner.invoke(main, ["verify-loop", str(csv)])
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert "moufang=false" in lines
    assert "witness=(1, 1, 2, 3)" in lines


def test_verify_loop_parse_error(runner, tmp_path):
    f = tmp_path / "junk.csv"
    f.write_text("this is not a table\n")
    res = runner.invoke(main, ["verify-loop", str(f)])
    assert res.exit_code == 2


def test_verify_loop_names_the_line_of_a_non_integer_entry(runner, tmp_path):
    # every other parse error names its line; this one printed int()'s
    # "invalid literal for int() with base 10: 'x'"
    f = tmp_path / "x.csv"
    f.write_text("n=2,p=2,k=0\n0,1\n1,x\n")
    res = runner.invoke(main, ["verify-loop", str(f)])
    assert res.exit_code == 2
    assert "line 3: non-integer entry in '1,x'" in res.stderr
    assert "invalid literal" not in res.stderr


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


def test_verify_loop_without_frattini_algorithm(runner, tmp_path):
    # the cyclic group of order 130 is Moufang of class 1, but its order is
    # above the lattice bound 128 and not a prime power: no Frattini
    # algorithm applies, and verify-loop must say so with exit 2
    n = 130
    rows = np.add.outer(np.arange(n), np.arange(n)) % n
    csv = tmp_path / "c130.csv"
    csv.write_text("n=%d,p=0,k=0\n" % n
                   + "".join(",".join(map(str, r)) + "\n" for r in rows))
    res = runner.invoke(main, ["verify-loop", str(csv)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: no Frattini algorithm applies")
    assert "moufang=" not in res.stdout


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


def test_build_refuses_tables_above_the_budget(runner, tmp_path):
    # order 16807 lies between the table budget 8192 and --max-order: the
    # refusal comes before any table is built, and no file is written
    f, out = tmp_path / "r.cvs", tmp_path / "r.csv"
    f.write_text(emit_cvs(random_cvs(7, 4, 0)))
    res = _run(runner, ["build", str(f), "--table", str(out),
                        "--max-order", "20000"], code=2)
    assert "8192" in res.stderr and "refusing" in res.stderr
    assert "Traceback" not in res.output and not out.exists()


def test_verify_cvs_rejects_a_repeated_directive(runner, tmp_path):
    f = tmp_path / "dup.cvs"
    f.write_text("cvs\np 5\ndim 2\nsigma 1 4\np 2\n")
    res = _run(runner, ["verify-cvs", str(f)], code=2)
    assert res.stderr == "error: line 5: repeated 'p' (first on line 2)\n"
    f.write_text("cvs\np 2\ndim 300\n")
    res = _run(runner, ["verify-cvs", str(f)], code=2)
    assert "dimension 300 too large" in res.stderr


def test_eval_reads_a_cvs_after_comments(runner, tmp_path, oct_cvs_file):
    # the source kind comes from the first content line, as the parsers
    # see it
    f = tmp_path / "commented.cvs"
    f.write_text("# octonion\n\n" + open(oct_cvs_file).read())
    args = ["--expr", "[g1,g2,g3]", "--expr", "(g1*g2)*g3"]
    want = _run(runner, ["eval", oct_cvs_file] + args).output
    assert _run(runner, ["eval", str(f)] + args).output == want == \
        "z\ng1(g2(g3))\n"


def test_table_commands_read_a_table_after_comments(runner, tmp_path,
                                                   oct_cvs_file):
    # the Cayley CSV takes comments and blank lines as the other formats
    # do: a first line '# t' used to fail as a bad header
    plain, commented = tmp_path / "a" / "t.csv", tmp_path / "b" / "t.csv"
    plain.parent.mkdir()
    commented.parent.mkdir()
    _run(runner, ["build", oct_cvs_file, "--table", str(plain)])
    commented.write_text("# t\n\n" + plain.read_text())
    outs = []
    for args in (["verify-loop"], ["eval", "--expr", "[g1,g2,g3]"]):
        want = _run(runner, args[:1] + [str(plain)] + args[1:]).output
        got = _run(runner, args[:1] + [str(commented)] + args[1:]).output
        assert got.replace(str(commented), str(plain)) == want
        outs.append(want)
    assert "moufang=true" in outs[0] and outs[1] == "z\n"


def test_code2cvs_rejects_bad_code(runner, tmp_path):
    f = tmp_path / "bad.code"
    f.write_text("code\n1100\n")  # weight 2: not doubly even
    res = runner.invoke(main, ["code2cvs", str(f)])
    assert res.exit_code == 1
    f2 = tmp_path / "junk.code"
    f2.write_text("code\n11a0\n")
    assert runner.invoke(main, ["code2cvs", str(f2)]).exit_code == 2
