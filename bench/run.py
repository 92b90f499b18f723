"""Benchmark for codeloops: one workload per process.

    python3 bench/run.py --workload parker --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout; it imports ``codeloops`` from that
checkout's ``src/`` and nothing else.  Workloads (see NOTES.md):
parker and isotopes.  Each is a closed loop with one
caller in one process, one op after another.

The run times the import of numpy and codeloops in ``SETUP_REPEATS``
fresh interpreters, sets up ``SETUP_REPEATS`` times, computes
the expected verdicts once, runs passes over the workload's fixed op
list while another pass is expected to end nearer to ``--seconds``
than stopping now would (at least ``MIN_PASSES``),
then runs the CLI agreement check once, untimed.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced passes with traced ones (each
followed by the probe suite), prints the per-layer metrics and writes
the spans to ``bench/out/trace-<workload>-seed<seed>.json``.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
MIN_PASSES = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, codeloops; "
                "print(time.perf_counter() - t)")

pc = time.perf_counter


def _limit_blas():
    """One BLAS thread, like the one caller; must run before numpy loads.
    On a shared machine of a few cores a second thread measures the
    scheduler more than the program."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _import_seconds() -> float:
    """Time to import numpy and codeloops in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout)


def _untraced(W, st, tally, seconds, null):
    """Passes until the run is nearest ``seconds`` long; returns their Laps.

    Rounding the pass count to nearest, not down, keeps workloads whose
    passes take a large share of ``seconds`` near the same run length."""
    walls, laps = [], []
    start = pc()
    while (len(walls) < MIN_PASSES
           or pc() - start + median(walls) / 2 <= seconds):
        t = pc()
        laps.append(W.run_pass(st, null, tally))
        walls.append(pc() - t)
    return laps


def _end_to_end(W, st, laps):
    """Each step's median over passes, then pass-level figures from those.

    A slow spell of a shared machine lasts a few seconds, so it slows a
    few steps of a pass, not the same step in most passes: the median
    step drops it, where the median pass would keep its share of it."""
    med = {k: median(p[k] for p in laps if k in p)
           for k in dict.fromkeys(k for p in laps for k in p)}
    ops = [v * 1e3 for k, v in med.items() if k.startswith("op.")]
    deciles = quantiles(ops, n=10, method="inclusive")
    return {"wall_s": sum(med.values()), "verify_s": W.verify_seconds(st, med),
            "op_p50_ms": deciles[4], "op_p90_ms": deciles[8]}, len(ops)


def _traced(W, st, tally, seconds, null, probes):
    """Untraced and traced passes, alternating; returns the untraced wall
    times and one Tracer per traced pass."""
    walls, tracers, pairs = [], [], []
    start = pc()
    while not pairs or pc() - start + median(pairs) / 2 <= seconds:
        t = pc()
        W.run_pass(st, null, tally)
        walls.append(pc() - t)
        tr = Tracer()
        with tr.span("bench.pass"):
            W.run_pass(st, tr, tally)
        with tr.span("bench.probes"):
            tally.op("probe suite", probes.run, tr)
        tracers.append(tr)
        pairs.append(pc() - t)
    return walls, tracers


def _layer_metrics(names, tracers, cli_tr, walls):
    rows = []
    for tr in tracers:
        row = dict(tr.totals())
        row.update(tr.counts)
        row["loops.mul_notable.ms"] = (row["loops.mul_notable.s"] * 1e3
                                       / row["loops.mul_notable.calls"])
        row["classify.states_per_s"] = (row["classify.states"]
                                        / row["classify.classify.s"])
        rows.append(row)
    out = {}
    for name in names:
        if name == "cli.check.s":
            out[name] = cli_tr.totals()["cli.self_s"]
        elif name == "bench.trace_overhead_s":
            out[name] = (median([r["bench.pass.s"] for r in rows])
                         - median(walls))
        else:
            out[name] = median([r[name] for r in rows])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["parker", "isotopes"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="tiny: the smoke test's small inputs")
    args = ap.parse_args(argv)

    if not (SRC / "codeloops" / "__init__.py").is_file():
        print("error: no codeloops sources at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    _limit_blas()
    sys.path.insert(0, str(SRC))

    import numpy as np

    import codeloops
    if Path(codeloops.__file__).resolve().parent != SRC / "codeloops":
        print("error: imported codeloops from %s, not %s"
              % (codeloops.__file__, SRC), file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Probes, Tally

    W = WORKLOADS[args.workload]
    import_s = median(_import_seconds() for _ in range(SETUP_REPEATS))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = pc()
        st = W.setup(args.seed, args.scale)
        setup_times.append(pc() - t)
    setup_s = import_s + median(setup_times)
    t = pc()
    W.expect(st)
    expect_s = pc() - t

    tally, null = Tally(), NullTracer()
    if args.trace:
        probes = Probes()
        walls, tracers = _traced(W, st, tally, args.seconds, null, probes)
        npasses = "%d untraced + %d traced" % (len(walls), len(tracers))
    else:
        laps = _untraced(W, st, tally, args.seconds, null)
        npasses = "%d (%s s)" % (len(laps), "/".join(
            "%.3f" % sum(p.values()) for p in laps))

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    cli_tr = Tracer()
    try:
        W.cli_check(st, cli_tr, tally, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = _layer_metrics(names, tracers, cli_tr, walls)
        trace_path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "passes": [tr.records() for tr in tracers],
            "counts": [dict(tr.counts) for tr in tracers],
            "cli": cli_tr.records()}))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, nops = _end_to_end(W, st, laps)
        values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)

    print("# workload=%s seed=%d scale=%s seconds=%g trace=%d"
          % (args.workload, args.seed, args.scale, args.seconds, args.trace))
    print("# python=%s numpy=%s blas_threads=%s nproc=%d load=closed loop, "
          "1 caller, 1 process" % (sys.version.split()[0], np.__version__,
                                   os.environ["OPENBLAS_NUM_THREADS"], nproc))
    print("# inputs: %s" % json.dumps(W.describe(st)))
    print("# passes=%s setup: import_s=%.4f repeats=%s; expected verdicts "
          "%.4f s" % (npasses, import_s, ["%.4f" % x for x in setup_times],
                      expect_s))
    if not args.trace:
        print("# op latency: percentiles over %d ops of each op's median "
              "over %d passes" % (nops, len(laps)))
    print("# cli: %s" % ", ".join("%s %.4f s" % (r["name"], r["end"] - r["start"])
                                  for r in cli_tr.records()))
    print("# fail_frac=%.6g (%d of %d ops)"
          % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    for name in names:
        print("# %s = %.6g %s" % (name, values[name], units[name]))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
