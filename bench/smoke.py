"""Smoke test for the benchmark: every workload at tiny size, both modes.

    python3 bench/smoke.py

For each workload and each of --trace 0 and --trace 1 it checks that the
run exits 0, that the last line of stdout is the result object carrying
exactly the metrics BENCHMARK.json names for that mode, each a finite
number, and that no op failed (fail_frac = 0).  It also checks that the
benchmark refuses to run, with a non-zero exit and no result, in a
directory that holds only BENCHMARK.json and bench/.  Exits 1 on the
first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["parker", "isotopes"]
TIMEOUT = 180


def _run(cwd, workload, trace, scale="tiny"):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           "1", "--seconds", "1", "--trace", str(trace), "--scale", scale]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT)


def _check_run(spec, workload, trace):
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(res)
    want = spec["per_layer" if trace else "end_to_end"]
    if set(res["metrics"]) != {m["name"] for m in want}:
        return "metrics differ from BENCHMARK.json"
    for m in want:
        got = res["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            return "bad metric %s: %r" % (m["name"], got)
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        return "fail_frac %d/%d" % (res["failed"], res["attempted"])
    return None


def _check_bare():
    """Only BENCHMARK.json and bench/: no sources, so no result."""
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "isotopes", 0, scale="full")
    finally:
        shutil.rmtree(bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return "ran without sources (exit %d)" % proc.returncode
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    checks = [("%s trace=%d" % (w, t), _check_run, (spec, w, t))
              for w in WORKLOADS for t in (0, 1)]
    checks.append(("bare directory", _check_bare, ()))
    for name, fn, args in checks:
        err = fn(*args)
        print("%-20s %s" % (name, "ok" if err is None else "FAIL " + err),
              flush=True)
        if err is not None:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
