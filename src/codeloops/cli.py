"""Command-line surface.

Exit codes: 0 = success/verified, 1 = a property failed (witness printed),
2 = usage or parse error.  Machine-readable output is key=value, one per
line; comment lines start with '# '.  All output is deterministic for
fixed inputs and flags.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from .analysis import MOUFANG_SCAN_MAX, LoopTable, loop_report
from .classify import classify as classify_states
from .classify import rep_to_cvs
from .codes import (builtin_golay24, builtin_hamming734, code_to_cvs,
                    cvs_to_code, emit_code, parse_code)
from .cvs import adjoint_translate, emit_cvs, parse_cvs, validate_axioms
from .loops import (CodedLoopElement, build, emit_cayley_csv,
                    moufang_sampled, parse_cayley_csv,
                    verify_coded_extension)
from .modular import fp_vector
from .tables import rank_of, unrank
from .words import WordSyntaxError, eval_word, parse_word, render_element

FULL_REPORT_MAX = 512  # largest order given the exhaustive table treatment


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return str(v)


def _echo_pairs(pairs):
    for key, val in pairs:
        click.echo("%s=%s" % (key, _fmt(val)))


def _read(path):
    with open(path, "r") as fh:
        return fh.read()


def _write_out(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
        click.echo("# wrote %s" % output)
    else:
        sys.stdout.write(text)


def _load_cvs(path):
    try:
        return parse_cvs(_read(path))
    except (ValueError, OSError) as e:
        click.echo("error: %s" % e, err=True)
        sys.exit(2)


@click.group()
def main():
    """Construct, verify, convert and classify coded vector spaces and
    the Moufang loops built from them."""


@main.command("verify-cvs")
@click.argument("cvsfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--samples", default=100000, show_default=True,
              help="random tuples when the loop is too big for tables")
@click.option("--seed", default=0, show_default=True)
def verify_cvs(cvsfile, samples, seed):
    """Validate the axioms of a CVS file, then verify its coded extension."""
    C = _load_cvs(cvsfile)
    click.echo("# verify-cvs %s" % cvsfile)
    _echo_pairs([("p", C.p), ("dim", C.k)])
    rep = validate_axioms(C)
    if not rep.ok:
        bad = [c for c in rep.checks if not c.ok]
        _echo_pairs([("axioms", False), ("check", bad[0].name)])
        if bad[0].witness is not None:
            click.echo("witness=%s" % (bad[0].witness,))
        sys.exit(1)
    _echo_pairs([("axioms", True)])
    L = build(C, validate=False)  # the axioms were just validated
    _echo_pairs([("order", L.order)])
    if L.order <= FULL_REPORT_MAX:
        report = loop_report(L.to_table())
        wit = report.pop("moufang_witness", None)
        _echo_pairs([(k, v) for k, v in report.items() if k != "order"])
        if wit is not None:
            click.echo("moufang_witness=%s" % (wit,))
            sys.exit(1)
    else:
        click.echo("# order above %d: sampled checks" % FULL_REPORT_MAX)
        _echo_pairs([("mode", "sampled"), ("samples", samples),
                     ("seed", seed)])
        vrep = verify_coded_extension(L, samples=samples, seed=seed)
        _echo_pairs([("extension_laws", vrep.ok)])
        if not vrep.ok:
            bad = [c for c in vrep.checks if not c.ok][0]
            click.echo("check=%s" % bad.name)
            sys.exit(1)
        mok, mwit = moufang_sampled(L, samples, seed=seed)
        _echo_pairs([("moufang", mok)])
        if not mok:
            click.echo("witness=%s" % (mwit,))
            sys.exit(1)


@main.command("verify-loop")
@click.argument("table", type=click.Path(exists=True, dir_okay=False))
def verify_loop(table):
    """Check a Cayley-table CSV: loop axioms, Moufang, and the class-2
    structure report."""
    try:
        arr, meta = parse_cayley_csv(_read(table))
    except (ValueError, OSError) as e:
        click.echo("error: %s" % e, err=True)
        sys.exit(2)
    if arr.shape[0] > MOUFANG_SCAN_MAX:
        click.echo("error: order %d beyond Moufang scan budget %d"
                   % (arr.shape[0], MOUFANG_SCAN_MAX), err=True)
        sys.exit(2)
    click.echo("# verify-loop %s" % table)
    try:
        L = LoopTable(arr)
    except ValueError as e:
        _echo_pairs([("loop", False)])
        click.echo("witness=%s" % e)
        sys.exit(1)
    report = loop_report(L)
    wit = report.pop("moufang_witness", None)
    _echo_pairs(report.items())
    if wit is not None:
        click.echo("witness=%s" % (wit,))
    if not report["moufang"]:
        sys.exit(1)


@main.command("build")
@click.argument("cvsfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--table", "table_out", type=click.Path(dir_okay=False),
              help="write the Cayley table CSV here")
@click.option("--max-order", default=8192, show_default=True)
def build_cmd(cvsfile, table_out, max_order):
    """Build the coded extension of a CVS; optionally write its table."""
    C = _load_cvs(cvsfile)
    L = build(C)
    _echo_pairs([("order", L.order)])
    if table_out:
        if L.order > max_order:
            raise click.UsageError(
                "order %d exceeds --max-order %d; refusing to write a table"
                % (L.order, max_order))
        _write_out(emit_cayley_csv(L), table_out)


@main.command()
@click.argument("codefile", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def code2cvs(codefile, output):
    """Convert a doubly even binary code into its CVS."""
    try:
        code = parse_code(_read(codefile))
    except (ValueError, OSError) as e:
        click.echo("error: %s" % e, err=True)
        sys.exit(2)
    try:
        C = code_to_cvs(code)
    except ValueError as e:
        click.echo("error: %s" % e, err=True)
        sys.exit(1)
    _write_out(emit_cvs(C), output)


@main.command()
@click.argument("cvsfile", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def cvs2code(cvsfile, output):
    """Convert a CVS over F_2 into a doubly even code realizing it."""
    C = _load_cvs(cvsfile)
    try:
        code = cvs_to_code(C)
    except ValueError as e:
        click.echo("error: %s" % e, err=True)
        sys.exit(1)
    _echo_pairs([("length", code.length), ("dim", code.dim)])
    _write_out(emit_code(code), output)


@main.command()
@click.argument("cvsfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--kappa", required=True,
              help="comma-separated coordinates of k, or 0 for the zero vector")
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def isotope(cvsfile, kappa, output):
    """Write the adjoint translate adt_k of a CVS (kappa-isotope data)."""
    C = _load_cvs(cvsfile)
    parts = [s.strip() for s in kappa.split(",")]
    try:
        coords = [int(s) for s in parts]
    except ValueError:
        raise click.UsageError("--kappa expects integers, got %r" % kappa)
    if coords == [0]:
        coords = [0] * C.k
    if len(coords) != C.k:
        raise click.UsageError("--kappa needs %d coordinates, got %d"
                               % (C.k, len(coords)))
    kvec = fp_vector([c % C.p for c in coords], C.p)
    _write_out(emit_cvs(adjoint_translate(C, kvec)), output)


@main.command("classify")
@click.option("--p", "p", required=True, type=int)
@click.option("--dim", required=True, type=int)
@click.option("--exponent", required=True, type=int)
@click.option("--nonassoc", is_flag=True,
              help="only CVSs with nontrivial alpha")
@click.option("--full", is_flag=True,
              help="disable the fixed-alpha seed pruning (cross-check mode)")
def classify_cmd(p, dim, exponent, nonassoc, full):
    """Count isomorphism and isotopy classes and print representatives."""
    try:
        res = classify_states(p, dim, exponent, nonassoc=nonassoc,
                              prune=not full)
    except ValueError as e:
        raise click.UsageError(str(e))
    click.echo("# classify p=%d dim=%d exponent=%d nonassoc=%s"
               % (p, dim, exponent, _fmt(nonassoc)))
    _echo_pairs([("states", res.n_states),
                 ("iso_classes", res.n_iso),
                 ("isotopy_classes", res.n_isotopy)])
    for i, ic in enumerate(res.iso_classes, start=1):
        sig, chi, alpha = ic.rep
        inv = ic.invariants
        click.echo("class%d size=%d sigma=%s chi=%s alpha=%s rad_chi=%d "
                   "rad_alpha=%d rad_alpha_in_rad_chi=%s"
                   % (i, ic.size,
                      ",".join(map(str, sig)) or "-",
                      ",".join(map(str, chi)) or "-",
                      ",".join(map(str, alpha)) or "-",
                      inv["rad_chi_dim"], inv["rad_alpha_dim"],
                      _fmt(inv["rad_alpha_in_rad_chi"])))
    for i, grp in enumerate(res.isotopy_classes, start=1):
        click.echo("isotopy%d classes=%s"
                   % (i, ",".join(str(g + 1) for g in grp)))


class _TableWordContext:
    """Adapter so word evaluation runs against a Cayley-table CSV.  The
    table's indexing convention (z major, mixed-radix vector minor, first
    coordinate most significant) pins down generators and the center."""

    def __init__(self, arr, meta):
        self.tbl = LoopTable(arr)
        self.k = meta["k"]
        p = meta["p"]
        self.p = p
        self.csize = p ** self.k
        if meta["n"] % self.csize:
            raise ValueError("table order %d is not a multiple of %d^%d"
                             % (meta["n"], p, self.k))
        self.zmod = meta["n"] // self.csize
        self.moduli = (p,) * self.k

    def _idx(self, a):
        return (a.z % self.zmod) * self.csize + rank_of(a.v, self.moduli)

    def _decode(self, idx):
        return CodedLoopElement(idx // self.csize,
                                unrank(idx % self.csize, self.moduli))

    def generator(self, i):
        v = [0] * self.k
        v[i] = 1
        return CodedLoopElement(0, tuple(v))

    def central_generator(self):
        return CodedLoopElement(1 % self.zmod, (0,) * self.k)

    def mul(self, a, b):
        return self._decode(int(self.tbl.table[self._idx(a), self._idx(b)]))

    def pow(self, a, n):
        return self._decode(self.tbl.power(self._idx(a), n))

    def commutator(self, a, b):
        T, ld = self.tbl.table, self.tbl.ldiv
        i, j = self._idx(a), self._idx(b)
        return self._decode(int(ld[T[j, i], T[i, j]]))

    def associator(self, a, b, c):
        T, ld = self.tbl.table, self.tbl.ldiv
        i, j, l = self._idx(a), self._idx(b), self._idx(c)
        return self._decode(int(ld[T[i, T[j, l]], T[T[i, j], l]]))


@main.command("eval")
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@click.option("--expr", "exprs", multiple=True, required=True,
              help="word to evaluate; repeat for several")
@click.option("--assoc", type=click.Choice(["strict", "left"]),
              default="strict", show_default=True,
              help="left folds unparenthesized products left-to-right")
def eval_cmd(source, exprs, assoc):
    """Evaluate words in the loop given by a CVS file or a table CSV and
    print one normal form per line."""
    text = _read(source)
    first = text.lstrip().splitlines()[0] if text.strip() else ""
    try:
        if first.startswith("cvs"):
            L = build(parse_cvs(text))
        else:
            arr, meta = parse_cayley_csv(text)
            L = _TableWordContext(arr, meta)
    except ValueError as e:
        click.echo("error: %s" % e, err=True)
        sys.exit(2)
    for expr in exprs:
        try:
            tree = parse_word(expr, assoc=assoc)
        except WordSyntaxError as e:
            click.echo("error: %s" % e, err=True)
            click.echo(e.caret_diagnostic(), err=True)
            sys.exit(2)
        try:
            val = eval_word(tree, L)
        except ValueError as e:
            click.echo("error: %s" % e, err=True)
            sys.exit(2)
        click.echo(render_element(L, val))


@main.command()
@click.argument("name", type=click.Choice(["hamming", "golay"]))
@click.option("--as-cvs", "as_cvs", is_flag=True)
@click.option("--as-code", "as_code", is_flag=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False))
def builtin(name, as_cvs, as_code, output):
    """Emit a built-in code (or its CVS): the [7,3,4] simplex-complement
    Hamming generator or the extended Golay [24,12,8]."""
    if as_cvs == as_code:
        raise click.UsageError("choose exactly one of --as-cvs / --as-code")
    code = builtin_hamming734() if name == "hamming" else builtin_golay24()
    if as_code:
        _write_out(emit_code(code), output)
    else:
        _write_out(emit_cvs(code_to_cvs(code)), output)


if __name__ == "__main__":
    main()
