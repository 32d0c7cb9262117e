"""One benchmark process; run.py starts a fresh interpreter for each role,
so hilbcomp's process-global caches start empty every time.

    worker.py setup <workload> <seed>      print the inputs as JSON
    worker.py timed <workload> <seconds>   closed loop over the inputs on
                                           stdin until <seconds> have passed
    worker.py pass <workload> <0|1>        the first round of inputs once,
                                           traced when the last argument is 1

`timed` and `pass` print one JSON line with the op count, failures, per-op
wall and CPU times, the loop's wall time and the peak RSS; a traced
pass adds the per-layer summary.  `timed` also times the reference chunk
before the first op and after every op, and `setup` times it before and
after generating, so run.py can scale each time to the reference speed.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

import reference
import workloads
from spans import Tracer


def _cpu_s():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _loop(workload, items, *, seconds=None, tracer=None, calibrate=False):
    """Run ops in order, one at a time, each starting after the previous one
    is checked; stop after len(items) ops, or once `seconds` have passed.
    With `calibrate`, the reference chunk is timed before the first op and
    after every op, so op i lies between reference rows i and i + 1."""
    latencies = []
    cpu_times = []
    refs = []
    failures = []
    start = perf_counter()
    if calibrate:
        refs.append(reference.measure())
    index = 0
    while True:
        item = items[index % len(items)]
        c0 = _cpu_s()
        t0 = perf_counter()
        try:
            if tracer is None:
                result = workloads.run_op(workload, item)
            else:
                result = tracer.run_op(workloads.run_op, workload, item)
            error = None
        except Exception as exc:  # a raised op counts as failed; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        latencies.append(t1 - t0)
        cpu_times.append(_cpu_s() - c0)
        if calibrate:
            refs.append(reference.measure())
        if error is None:
            error = workloads.check(workload, item, result)
        if error is not None:
            failures.append(f"op {index} (n={item['n']}, {item['kind']}): {error}")
        index += 1
        if (seconds is None and index == len(items)) or (seconds is not None and t1 - start >= seconds):
            break
    return {
        "ops": index,
        "failed": len(failures),
        "failures": failures[:5],
        "latencies_s": latencies,
        "cpu_times_s": cpu_times,
        "reference_s": refs,
        "wall_s": perf_counter() - start,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(argv):
    role, workload = argv[0], argv[1]
    if role == "setup":
        before = reference.measure()
        inputs = workloads.make_inputs(workload, int(argv[2]))
        # on stderr, so that stdout holds only the inputs
        print(json.dumps({"reference_s": [before, reference.measure()]}), file=sys.stderr)
        print(json.dumps(inputs))
        return 0
    items = json.loads(sys.stdin.read())
    if role == "timed":
        out = _loop(workload, items, seconds=float(argv[2]), calibrate=True)
    elif role == "pass":
        items = items[: len(workloads.PLANS[workload][1])]
        tracer = Tracer() if argv[2] == "1" else None
        if tracer is not None:
            tracer.install()
        out = _loop(workload, items, tracer=tracer)
        if tracer is not None:
            out["layers"] = tracer.summary()
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
