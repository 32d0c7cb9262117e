"""Spans and counts recorded from outside hilbcomp, at its public functions.

`Tracer.install()` replaces each listed function at every hilbcomp module
binding that holds it (several modules import them by name, so patching the
defining module alone would miss calls).  Each call becomes a span: name,
start, end, parent span and op id, kept in memory until `summary()` folds
them into per-layer totals.
A span's self time is its duration minus the durations of its child spans;
calls are strictly nested because the workloads are single-threaded.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute) of every wrapped function; the span name is
# "<module>.<attribute>" except for buchberger, which is split by order kind.
# classify.classify is wrapped only to read SchemeType.retries.
FUNCTIONS = (
    ("rings", "parse"),
    ("groebner", "buchberger"),
    ("groebner", "GroebnerBasis.reduce"),
    ("groebner", "syzygies"),
    ("groebner", "eliminate_generators"),
    ("ideals", "intersect"),
    ("ideals", "quotient"),
    ("ideals", "saturate"),
    ("hilbert", "hilbert_series"),
    ("linalg", "rank"),
    ("linalg", "nullspace"),
    ("linalg", "invert"),
    ("tangent", "hom_degree_zero"),
    ("tangent", "minimal_generators"),
    ("classify", "classify"),
    ("classify", "equidimensional_hull"),
    ("classify", "generic_slice_reduced"),
    ("flat_limit", "limit_ideal"),
    ("flat_limit", "fiber"),
    ("flat_limit", "flatness_probe"),
)

# spans reported with .calls / .total_s / .self_s; "op" is one whole
# benchmark op, so its self time is the time spent outside every layer
REPORTED_SPANS = (
    "op",
    "rings.parse",
    "groebner.buchberger.grevlex",
    "groebner.buchberger.block",
    "groebner.GroebnerBasis.reduce",
    "groebner.syzygies",
    "groebner.eliminate_generators",
    "ideals.intersect",
    "ideals.quotient",
    "ideals.saturate",
    "hilbert.hilbert_series",
    "linalg.rank",
    "linalg.nullspace",
    "linalg.invert",
    "tangent.hom_degree_zero",
    "tangent.minimal_generators",
    "classify.equidimensional_hull",
    "classify.generic_slice_reduced",
    "flat_limit.limit_ideal",
    "flat_limit.fiber",
    "flat_limit.flatness_probe",
)

COUNTS = (
    "groebner.buchberger.transform_calls",
    "groebner.buchberger.output_elements",
    "groebner.buchberger.coeff_bits_max",
    "ideals.saturate.iterations",
    "linalg.rank.cells",
    "tangent.system_cells",
    "classify.retries",
)


def _buchberger_name(args, kwargs):
    order = kwargs.get("order", args[1] if len(args) > 1 else None)
    if order is None:
        order = next(iter(args[0])).ring.order
    return f"groebner.buchberger.{order.kind}"


def _coeff_bits(basis):
    bits = 0
    for g in basis.elements:
        for _, c in g.terms:
            bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        # one row per span: [name, start, end, parent row or -1, op id, child time]
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.counts = dict.fromkeys(COUNTS, 0)

    # ----- span bookkeeping -------------------------------------------
    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op_id, 0.0])
        self.stack.append(len(self.spans) - 1)
        return parent

    def _close(self):
        row = self.spans[self.stack.pop()]
        row[2] = perf_counter()
        if row[3] >= 0:
            self.spans[row[3]][5] += row[2] - row[1]

    def run_op(self, fn, *args):
        """Run one benchmark op under an "op" span."""
        self.op_id += 1
        self._open("op")
        try:
            return fn(*args)
        finally:
            self._close()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _buchberger_name(args, kwargs) if name == "groebner.buchberger" else name
            parent = self._open(span)
            if name == "ideals.quotient" and parent >= 0 and self.spans[parent][0] == "ideals.saturate":
                self.counts["ideals.saturate.iterations"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name, args, kwargs, result):
        c = self.counts
        if name == "groebner.buchberger":
            if kwargs.get("transform", True):
                c["groebner.buchberger.transform_calls"] += 1
            c["groebner.buchberger.output_elements"] += len(result.elements)
            c["groebner.buchberger.coeff_bits_max"] = max(
                c["groebner.buchberger.coeff_bits_max"], _coeff_bits(result)
            )
        elif name == "linalg.rank":
            rows = args[0]
            c["linalg.rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)
        elif name == "tangent.hom_degree_zero":
            c["tangent.system_cells"] += result.system_rows * result.system_cols
        elif name == "classify.classify":
            c["classify.retries"] += result.retries

    # ----- installation -------------------------------------------------
    def install(self):
        """Wrap every listed function at every hilbcomp binding of it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "hilbcomp" or k.startswith("hilbcomp.")]
        for modname, attr in FUNCTIONS:
            owner = sys.modules[f"hilbcomp.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(f"{modname}.{attr}", cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)

    # ----- results -------------------------------------------------------
    def summary(self):
        """Per-layer totals over every recorded span, plus the counts."""
        out = {}
        for name in REPORTED_SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for name, start, end, _parent, _op, child in self.spans:
            if f"{name}.calls" not in out:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child
        out.update(self.counts)
        # both ratios read 0 on a workload that makes no such call
        classified = sum(1 for row in self.spans if row[0] == "classify.classify")
        retries = out["classify.retries"]
        out["classify.attempt_yield"] = classified / (classified + retries) if classified else 0.0
        # the op count is fixed by the workload's round, so it is not reported
        ops = out.pop("op.calls")
        out["flat_limit.limit_ideal.calls_per_op"] = (
            out["flat_limit.limit_ideal.calls"] / ops if ops else 0.0
        )
        return out
