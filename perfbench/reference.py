"""A fixed chunk of pure-Python work that times the host, not the program.

The benchmark shares a virtual machine with other tenants, and their load
slows every process on it by up to 2x, switching within seconds.  A timed
run therefore measures `chunk()` right before and right after every op and
scales the op's time by REF_S / (mean of the two chunk times): the time the
op would take on a host where one chunk takes REF_S.  Set-up is scaled the
same way.

The chunk imports nothing from hilbcomp, so a change to the program leaves
it unchanged.  It does what the program spends its time on: products of
sparse polynomials held as dicts from exponent tuples to Fraction
coefficients.
"""

from __future__ import annotations

import time
from fractions import Fraction

# one chunk's time on a quiet 2-vCPU 2.1 GHz Xeon VM
REF_S = 0.028


def _polys():
    return [
        {(i % 7, (i * s) % 5, (i + s) % 6, i % 3): Fraction(i - s, s + 1) for i in range(40)}
        for s in range(5)
    ]


def chunk():
    """The fixed work; returns the number of terms of the accumulated sum."""
    polys = _polys()
    acc = {}
    for p in polys:
        for k, v in p.items():
            for k2, v2 in polys[0].items():
                key = tuple(x + y for x, y in zip(k, k2))
                acc[key] = acc.get(key, 0) + v * v2
    return len(acc)


def measure():
    """(wall seconds, CPU seconds) of one chunk."""
    w0, c0 = time.perf_counter(), time.process_time()
    chunk()
    return time.perf_counter() - w0, time.process_time() - c0
