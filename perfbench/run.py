"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program under test is the
hilbcomp package in src/.  Each workload is one single-process client in a
closed loop: it sends its next op only after the previous one has finished
and its answer has been checked.

With --trace 0: set-up runs SETUP_REPEATS times, each in a fresh interpreter
that imports hilbcomp and generates and serialises the inputs (the median
is setup_s, and the repeats must print identical inputs); then a fresh
interpreter runs the timed loop for --seconds.  Every time metric is scaled
to the speed of a host on which reference.chunk() takes reference.REF_S,
from the chunk timings around each op and each set-up (see reference.py);
the unscaled figures go to stderr.  With --trace 1: one round of
inputs runs untraced and then traced, each in a fresh interpreter; the traced
pass gives the per-layer metrics and the wall-time difference gives the
tracing overhead.  A traced run covers one fixed round, not --seconds, so its
counts repeat exactly for a seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Any wrong answer makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import REF_S

# the keys of workloads.PLANS, repeated here because this file imports no
# hilbcomp code, so it can refuse to run where src/ is missing
WORKLOADS = ("classify_moved", "tangent_moved", "limit_probe_moved")
SETUP_REPEATS = 5
TIME_BUDGET_S = 170.0  # one invocation must end within 180 s, workers included

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("coeff_bits_max"):
        return "bits"
    if name.endswith("attempt_yield"):
        return "ratio"
    if name.endswith("calls_per_op"):
        return "calls/op"
    return "count"


class _Runner:
    def __init__(self):
        self.deadline = perf_counter() + TIME_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def worker(self, *args, stdin=None):
        """Run worker.py in a fresh interpreter; return (stdout, wall seconds)."""
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            input=stdin,
            capture_output=True,
            text=True,
            env=self.env,
            cwd=HERE,
            timeout=max(1.0, self.deadline - t0),
        )
        wall = perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
        return proc.stdout, proc.stderr, wall


def _timed(runner, workload, seed, seconds):
    inputs = None
    setup = []
    setup_raw = []
    for _ in range(SETUP_REPEATS):
        out, err, wall = runner.worker("setup", workload, str(seed))
        if inputs is not None and out != inputs:
            raise RuntimeError("set-up generated different inputs for one seed")
        inputs = out
        refs = [w for w, _cpu in json.loads(err.strip().splitlines()[-1])["reference_s"]]
        work = wall - sum(refs)
        setup.append(work * REF_S / statistics.fmean(refs))
        setup_raw.append(work)
    out, _, _ = runner.worker("timed", workload, str(seconds), stdin=inputs)
    res = json.loads(out)
    ops, lat, cpu, refs = res["ops"], res["latencies_s"], res["cpu_times_s"], res["reference_s"]
    # op i ran between reference rows i and i + 1
    scale_wall = [2 * REF_S / (a[0] + b[0]) for a, b in zip(refs, refs[1:])]
    scale_cpu = [2 * REF_S / (a[1] + b[1]) for a, b in zip(refs, refs[1:])]
    scaled_lat = [t * k for t, k in zip(lat, scale_wall)]
    scaled_cpu = [t * k for t, k in zip(cpu, scale_cpu)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": ((ops - res["failed"]) / sum(scaled_lat), "1/s"),
        "op_p50_ms": (statistics.median(scaled_lat) * 1000.0, "ms"),
        "cpu_ms_per_op": (sum(scaled_cpu) * 1000.0 / ops, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    unscaled = {
        "setup_s": statistics.median(setup_raw),
        "ops_per_s": (ops - res["failed"]) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "cpu_ms_per_op": sum(cpu) * 1000.0 / ops,
        "reference_ms": statistics.median(w for w, _cpu in refs) * 1000.0,
    }
    print(f"unscaled: {json.dumps(unscaled)}", file=sys.stderr)
    return res, metrics


def _traced(runner, workload, seed):
    inputs = runner.worker("setup", workload, str(seed))[0]
    plain = json.loads(runner.worker("pass", workload, "0", stdin=inputs)[0])
    traced = json.loads(runner.worker("pass", workload, "1", stdin=inputs)[0])
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    res = {
        "ops": plain["ops"] + traced["ops"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
    }
    return res, {name: (value, _layer_unit(name)) for name, value in layers.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hilbcomp" / "__init__.py").is_file():
        print(f"error: no hilbcomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    runner = _Runner()
    try:
        if args.trace:
            res, metrics = _traced(runner, args.workload, args.seed)
        else:
            res, metrics = _timed(runner, args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in res["failures"]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["ops"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
