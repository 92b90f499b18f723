"""The benchmark's workloads, its probe suite and its CLI agreement check.

Each workload has ``setup(seed, scale)``, which makes the inputs and
warms up, ``expect(st)``, which fixes the expected verdicts,
``run_pass(st, tr, tally)``, which runs the fixed op list once, checks
every verdict and returns the pass's ``Laps``, ``verify_seconds(st, med)``,
which reads the headline verdict's time off the laps' medians, and
``cli_check(st, tr, tally, tmp)``,
which runs the matching ``codeloops`` command once through click's
CliRunner and compares its ``key=value`` lines with the library path.
The library only ever sees the generated inputs, never the seed.

Spans are opened only here, around calls into one module's public
functions, and are named ``<module>.<function>``.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

import numpy as np

import codeloops as cl
from codeloops.analysis import derived_subloops
from codeloops.codes import codeword_weights
from codeloops.cvs import pair_list, triple_list
from codeloops.loops import DEFAULT_VERIFY_BUDGET
from codeloops.tables import add_index_table, vector_table

pc = time.perf_counter


class Tally:
    """Ops attempted and ops whose verdict differed from the expected one
    or that raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, what, fn, *args):
        self.attempted += 1
        try:
            ok = bool(fn(*args))
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            print("verdict mismatch: %s" % what, file=sys.stderr)
        return ok


class Laps(dict):
    """Seconds per named step of one pass, timed back to back, so that the
    steps add up to the pass.  Steps named ``op.*`` are the workload's ops."""

    def __init__(self):
        super().__init__()
        self._t = pc()

    def lap(self, name):
        """Close the step that ran since the last lap, as ``name``."""
        now = pc()
        self[name] = now - self._t
        self._t = now


def _all(checks: dict) -> bool:
    bad = [k for k, v in checks.items() if not v]
    if bad:
        print("failed checks: %s" % ", ".join(bad), file=sys.stderr)
    return not bad


# add_index_table calls made inside one library call, as read from
# loops.py: an exhaustive verify_coded_extension builds the table three
# times (powers, _comm_table, _assoc_tables), a sampled one once;
# moufang_sampled and table_array once each.
def _verify_add_calls(L) -> int:
    return 3 if L.csize <= DEFAULT_VERIFY_BUDGET else 1


def _count_verify(tr, L, rep):
    tr.count("loops.verify_coded_extension.calls")
    tr.count("loops.verify_coded_extension.exhaustive_checks",
             sum(c.mode == "exhaustive" for c in rep.checks))
    tr.count("tables.add_index_table.calls", _verify_add_calls(L))


def _count_validate(tr, rep):
    tr.count("cvs.validate_axioms.calls")
    tr.count("cvs.validate_axioms.sampled_checks",
             sum(c.mode == "sampled" for c in rep.checks))


def _golay(tr):
    with tr.span("codes.golay"):
        G = cl.builtin_golay24()
        weights = codeword_weights(G)
        even = cl.is_doubly_even(G)
        V = cl.code_to_cvs(G)
    dist = {w: int(n) for w, n in enumerate(np.bincount(weights, minlength=25))
            if n}
    return dist, even, V


# -- CLI helpers ---------------------------------------------------------------

def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return str(v)


def _kv(output: str) -> dict:
    """The key=value verdict lines of a command's stdout."""
    out = {}
    for line in output.splitlines():
        key, sep, val = line.partition("=")
        if sep and not line.startswith("#") and " " not in key:
            out[key] = val
    return out


def _report_kv(pairs) -> dict:
    return {k: _fmt(v) for k, v in pairs if k != "moufang_witness"}


def _invoke(tr, command, args):
    from click.testing import CliRunner
    from codeloops.cli import main

    with tr.span("cli." + command):
        return CliRunner().invoke(main, [command] + list(args))


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _read(path):
    with open(path) as fh:
        return fh.read()


def _verify_cvs_library(C) -> dict:
    """What verify-cvs prints for a CVS of order <= 512, by the library."""
    rep = cl.validate_axioms(C)
    L = cl.build(C)
    report = cl.loop_report(L.to_table())
    pairs = [("p", C.p), ("dim", C.k), ("axioms", rep.ok), ("order", L.order)]
    pairs += [(k, v) for k, v in report.items() if k != "order"]
    return _report_kv(pairs)


# -- parker --------------------------------------------------------------------

GOLAY_WEIGHTS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def random_word(rng: random.Random, gens: random.Random, k: int,
                leaves: int) -> str:
    """A word over g1..gk with explicit brackets: products, inverses,
    powers, commutators and associators.  ``rng`` draws the shape and
    ``gens`` the generators."""
    if leaves == 1:
        g = "g%d" % gens.randint(1, k)
        r = rng.random()
        if r < 0.15:
            return g + "^-1"
        if r < 0.3:
            return g + "^%d" % rng.choice((2, 3))
        return g
    kinds = ("prod", "prod", "comm") + (("assoc",) if leaves >= 3 else ())
    kind = rng.choice(kinds)
    if kind == "assoc":
        parts = [1, 1, 1]
        for _ in range(leaves - 3):
            parts[rng.randrange(3)] += 1
        s = "[%s,%s,%s]" % tuple(random_word(rng, gens, k, n)
                                 for n in parts)
    else:
        a = rng.randint(1, leaves - 1)
        fmt = "[%s,%s]" if kind == "comm" else "(%s*%s)"
        s = fmt % (random_word(rng, gens, k, a),
                   random_word(rng, gens, k, leaves - a))
    r = rng.random()
    if r < 0.1:
        s += "^-1"
    elif r < 0.2:
        s += "^2"
    return s


class Parker:
    """verify-cvs on the Golay CVS, then words on a table-free loop."""

    SIZES = {"full": dict(words=100, validate_samples=1000, samples=10000),
             "tiny": dict(words=4, validate_samples=200, samples=1000)}
    CLI_WORDS = 8

    def setup(self, seed, scale):
        sz = self.SIZES[scale]
        V = cl.code_to_cvs(cl.builtin_golay24())
        # The shapes are the same for every seed, so every seed evaluates
        # the same number of products; the seed picks the generators.
        shapes, gens = random.Random(0), random.Random(seed)
        words = [random_word(shapes, gens, V.k, shapes.randint(2, 4))
                 for _ in range(sz["words"])]
        cl.eval_word(cl.parse_word(words[0]), cl.build(V))  # warm-up
        triple = next((t, a) for t, a in zip(triple_list(V.k), V.alpha_flat)
                      if a)
        return SimpleNamespace(seed=seed, V=V, words=words, expected=None,
                               triple=triple, sizes=sz)

    def expect(self, st):
        """Independent theta path: the same words on a table-backed copy."""
        ref = cl.build(st.V)
        ref.theta_table()
        st.expected = [cl.normal_form_string(cl.parse_word(w), ref)
                       for w in st.words]

    def describe(self, st):
        return {"code": "golay24", "loop_order": 2 * st.V.size,
                "validate_samples": st.sizes["validate_samples"],
                "samples": st.sizes["samples"], "words": len(st.words),
                "ops_per_pass": 2 + len(st.words),
                "op": "one word evaluation (parse + eval + render)",
                "verify_s": "axioms, build, theta table, laws, Moufang"}

    def run_pass(self, st, tr, tally):
        laps = Laps()
        tr.op = "golay"
        tally.op("golay code", self._code, st, tr)
        laps.lap("golay")
        tr.op = "verify"
        tally.op("parker verify path", self._verify, st, tr, laps)
        with tr.span("loops.build"):
            L = cl.build(st.V)  # fresh: no theta table, products per pair
        laps.lap("build")
        for i, (w, exp) in enumerate(zip(st.words, st.expected)):
            tr.op = "word%d" % i
            tally.op("word %s" % w, self._word, tr, L, w, exp)
            laps.lap("op.word%d" % i)
        return laps

    def verify_seconds(self, st, med):
        return sum(v for k, v in med.items() if k.startswith("verify."))

    def _code(self, st, tr):
        dist, even, V = _golay(tr)
        return _all({"weights": dist == GOLAY_WEIGHTS, "doubly_even": even,
                     "cvs": V == st.V})

    def _verify(self, st, tr, laps):
        sz = st.sizes
        with tr.span("cvs.validate_axioms"):
            rep = cl.validate_axioms(st.V, samples=sz["validate_samples"],
                                     seed=st.seed)
        _count_validate(tr, rep)
        laps.lap("verify.validate_axioms")
        with tr.span("loops.build"):
            L = cl.build(st.V)
        with tr.span("loops.theta_table"):
            T = L.theta_table()
        tr.count("loops.theta_table.bytes", T.nbytes)
        laps.lap("verify.theta_table")
        with tr.span("loops.verify_coded_extension"):
            vrep = cl.verify_coded_extension(L, samples=sz["samples"],
                                             seed=st.seed)
        _count_verify(tr, L, vrep)
        laps.lap("verify.verify_coded_extension")
        with tr.span("loops.moufang_sampled"):
            mok, _ = cl.moufang_sampled(L, sz["samples"], seed=st.seed)
        tr.count("tables.add_index_table.calls")
        laps.lap("verify.moufang_sampled")
        (i, j, l), a = st.triple
        with tr.span("loops.associator"):
            assoc = L.associator(L.generator(i), L.generator(j),
                                 L.generator(l))
        laps.lap("verify.associator")
        return _all({"axioms": rep.ok, "order": L.order == 8192,
                     "extension_laws": vrep.ok, "moufang": mok,
                     "associator": assoc == cl.CodedLoopElement(a, (0,) * L.k)})

    def _word(self, tr, L, w, exp):
        with tr.span("words.parse_word"):
            tree = cl.parse_word(w)
        with tr.span("words.eval_word"):
            el = cl.eval_word(tree, L)
        tr.count("words.eval_word.calls")
        return cl.render_element(L, el) == exp

    def cli_check(self, st, tr, tally, tmp):
        golay = _write(os.path.join(tmp, "golay.cvs"), cl.emit_cvs(st.V))
        words = st.words[:self.CLI_WORDS]
        args = [golay]
        for w in words:
            args += ["--expr", w]
        res = _invoke(tr, "eval", args)
        tally.op("cli eval golay.cvs", lambda: res.exit_code == 0
                 and res.output.splitlines() == st.expected[:len(words)])
        # verify-cvs on the Golay CVS takes over 16 s (axioms on 20000
        # samples, not settable from the CLI); the Hamming CVS takes the
        # same command through its table branch
        H = cl.code_to_cvs(cl.builtin_hamming734())
        path = _write(os.path.join(tmp, "hamming.cvs"), cl.emit_cvs(H))
        res = _invoke(tr, "verify-cvs", [path])
        tally.op("cli verify-cvs hamming.cvs", lambda: res.exit_code == 0
                 and _kv(res.output) == _verify_cvs_library(H))


# -- isotopes ------------------------------------------------------------------

class Isotopes:
    """Every kappa-isotope of seeded dim-3 F_3 bases, verified exhaustively."""

    SIZES = {"full": dict(bases=24), "tiny": dict(bases=2)}
    CLI_KAPPA = (1, 1, 0)

    def setup(self, seed, scale):
        n = self.SIZES[scale]["bases"]
        rng = random.Random(seed)
        vecs = [tuple(r) for r in vector_table((3, 3, 3)).tolist()]
        bases = []
        # The 2187 states are 729 (sigma, chi) pairs times 3 alphas.  Bases
        # take alpha = 1 and 2 in turn: with alpha = 0 every isotope is the
        # base loop itself (the bilinear shift vanishes) and verifies about
        # a quarter faster, which splits the op latencies into two clusters
        # and leaves the median op between them.
        for i, s in enumerate(rng.sample(range(27 * 27), n)):
            sig, chi, a = vecs[s // 27], vecs[s % 27], 1 + i % 2
            chid = {pr: v for pr, v in zip(pair_list(3), chi) if v}
            bases.append(cl.cvs_new(3, 3, list(sig), chid,
                                    {(0, 1, 2): a} if a else None))
        L = cl.build(bases[0], validate=False)  # warm-up
        cl.verify_coded_extension(cl.kappa_isotope(L, vecs[1]))
        return SimpleNamespace(seed=seed, bases=bases, kappas=vecs)

    def expect(self, st):
        """Every verification is ok: nothing to precompute."""

    def describe(self, st):
        return {"bases": len(st.bases), "kappas": len(st.kappas),
                "loop_order": 81,
                "ops_per_pass": len(st.bases) * len(st.kappas),
                "op": "one isotope: kappa_isotope + exhaustive verify",
                "verify_s": "median over bases of one base's 27 isotopes"}

    def run_pass(self, st, tr, tally):
        laps = Laps()
        for b, V in enumerate(st.bases):
            tr.op = "base%d" % b
            with tr.span("loops.build"):
                L = cl.build(V, validate=False)
            laps.lap("base%d.build" % b)
            for kv in st.kappas:
                tr.op = "base%d/kappa%d%d%d" % ((b,) + kv)
                tally.op("isotope %s of base %d" % (kv, b), self._isotope,
                         tr, L, kv)
                laps.lap(self._op_name(b, kv))
        return laps

    @staticmethod
    def _op_name(b, kv):
        return "op.base%d/kappa%d%d%d" % ((b,) + kv)

    def verify_seconds(self, st, med):
        """Median over bases of one base's build and its 27 isotopes."""
        return statistics.median(
            med["base%d.build" % b]
            + sum(med[self._op_name(b, kv)] for kv in st.kappas)
            for b in range(len(st.bases)))

    def _isotope(self, tr, L, kv):
        with tr.span("loops.kappa_isotope"):
            iso = cl.kappa_isotope(L, kv)
        with tr.span("loops.verify_coded_extension"):
            rep = cl.verify_coded_extension(iso)
        _count_verify(tr, iso, rep)
        return rep.ok

    def cli_check(self, st, tr, tally, tmp):
        V = st.bases[0]
        base = _write(os.path.join(tmp, "base.cvs"), cl.emit_cvs(V))
        out = os.path.join(tmp, "iso.cvs")
        res = _invoke(tr, "isotope", [base, "--kappa",
                                      ",".join(map(str, self.CLI_KAPPA)),
                                      "-o", out])
        A = cl.adjoint_translate(V, cl.fp_vector(self.CLI_KAPPA, 3))
        tally.op("cli isotope", lambda: res.exit_code == 0
                 and _read(out) == cl.emit_cvs(A))
        res = _invoke(tr, "verify-cvs", [out])
        tally.op("cli verify-cvs iso.cvs", lambda: res.exit_code == 0
                 and _kv(res.output) == _verify_cvs_library(A))


WORKLOADS = {"parker": Parker(), "isotopes": Isotopes()}


# -- probe suite ---------------------------------------------------------------

class Probes:
    """Small fixed calls into every measured layer, run once per traced
    pass on every workload, so each per-layer metric is measured on each
    workload.  Several are the probes the per-layer list names:
    mul on the table-free Parker loop, add_index_table at (2,)^12 and
    (3,)^3, and one analysis function per fresh LoopTable of cml81."""

    MUL_PAIRS = 16

    def __init__(self):
        self.oct = cl.octonion_cvs()
        self.golay = cl.code_to_cvs(cl.builtin_golay24())
        self.cml81 = cl.build(cl.cvs_new(3, 3, None, None,
                                         {(0, 1, 2): 1})).table_array()
        self.module = cl.module_new(3, (9, 3), 3, (1, 2), {(0, 1): 1}, {})
        rng = np.random.default_rng(0)
        V = vector_table((2,) * 12)
        self.pairs = [(cl.CodedLoopElement(int(z1), tuple(V[a].tolist())),
                       cl.CodedLoopElement(int(z2), tuple(V[b].tolist())))
                      for z1, z2, a, b in rng.integers(
                          0, [2, 2, 4096, 4096], size=(self.MUL_PAIRS, 4))]

    def run(self, tr):
        tr.op = "probes"
        checks = {}
        checks["golay"] = _golay(tr)[0] == GOLAY_WEIGHTS
        with tr.span("cvs.validate_axioms"):
            rep = cl.validate_axioms(self.oct)
        _count_validate(tr, rep)
        with tr.span("loops.build"):
            L = cl.build(self.oct)
        with tr.span("loops.theta_table"):
            tr.count("loops.theta_table.bytes", L.theta_table().nbytes)
        with tr.span("loops.verify_coded_extension"):
            vrep = cl.verify_coded_extension(L)
        _count_verify(tr, L, vrep)
        with tr.span("loops.moufang_sampled"):
            checks["moufang"] = cl.moufang_sampled(L, 1000)[0]
        tr.count("tables.add_index_table.calls")
        with tr.span("loops.kappa_isotope"):
            cl.kappa_isotope(L, (1, 0, 1))
        with tr.span("loops.table_array"):
            arr = L.table_array()
        tr.count("tables.add_index_table.calls")
        with tr.span("loops.emit_cayley_csv"):
            text = cl.emit_cayley_csv(L)
        tr.count("tables.add_index_table.calls")
        tr.count("loops.emit_cayley_csv.bytes", len(text))
        with tr.span("loops.parse_cayley_csv"):
            checks["csv"] = np.array_equal(cl.parse_cayley_csv(text)[0], arr)
        tr.count("loops.parse_cayley_csv.bytes", len(text))
        with tr.span("loops.build"):
            G = cl.build(self.golay)
        with tr.span("loops.mul_notable"):
            for a, b in self.pairs:
                G.mul(a, b)
        tr.count("loops.mul_notable.calls", len(self.pairs))
        with tr.span("tables.add_index_table.k12p2"):
            add_index_table((2,) * 12)
        with tr.span("tables.add_index_table.k3p3"):
            add_index_table((3,) * 3)
        with tr.span("words.parse_word"):
            tree = cl.parse_word("[(g1*g2)^2,g3^-1,g1]")
        with tr.span("words.eval_word"):
            cl.eval_word(tree, L)
        tr.count("words.eval_word.calls")
        for fn in (cl.is_moufang, cl.nilpotency_class, cl.center, cl.nucleus,
                   derived_subloops, cl.frattini):
            with tr.span("analysis.LoopTable"):
                T = cl.LoopTable(self.cml81)
            with tr.span("analysis." + fn.__name__):
                fn(T)
        with tr.span("analysis.LoopTable"):
            T = cl.LoopTable(arr)
        with tr.span("analysis.loop_report"):
            checks["report"] = cl.loop_report(T)["moufang"]
        with tr.span("modules.build_module_extension"):
            M = cl.build_module_extension(self.module)
        with tr.span("modules.table_array"):
            M.table_array()
        tr.count("tables.add_index_table.calls")
        with tr.span("classify.classify"):
            res = cl.classify(3, 3, 9)
        tr.count("classify.states", res.n_states)
        checks["classify"] = ((res.n_states, res.n_iso, res.n_isotopy)
                              == (2187, 10, 7))
        checks["verify"] = rep.ok and vrep.ok
        return _all(checks)
