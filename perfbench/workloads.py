"""The three workloads: seeded inputs, the op each input drives, and the
oracle that checks the op's answer without calling the function under test.

Every input is ideal text moved by its own seeded invertible integer matrix,
so the timed op parses it with `loads_ideal` exactly as `hilbcomp <cmd> file`
does, and no Groebner basis built while generating carries into the timing.
Inputs are laid out in rounds; one round holds every (size, type) pair of
the workload.
"""

from __future__ import annotations

import hilbcomp
from hilbcomp import fixtures
from hilbcomp.ideals import random_invertible_matrix

# expected flat limit of each family: a normal-form type, or the presentation
# row of the planar-double ideal for the substitution family
LIMIT_OF = {"embedded": "III", "double": "II", "quadric_union": "III", "substitution": None}


# (rounds generated per seed, one round of (n, type or family) pairs).  In
# every round the sizes alternate, so a run that stops inside a round still
# sees a balanced mix.  III/IV ops cost a quarter of I/II ops, so with equal
# counts per type the op median would sit in the gap between two cost
# clusters and jump from run to run; classify_moved therefore holds types I
# and II in P^5 three times, which puts the median inside that cluster.  A
# run longer than all rounds cycles back to the first input.
PLANS = {
    "classify_moved": (
        8,
        [(5, "I"), (6, "III"), (5, "II"), (6, "I"), (5, "I"), (5, "III"),
         (5, "II"), (6, "II"), (5, "I"), (6, "IV"), (5, "II"), (5, "IV")],
    ),
    "tangent_moved": (24, [(5, "I"), (5, "III"), (5, "II"), (5, "IV")]),
    "limit_probe_moved": (
        4,
        [(4, "embedded"), (5, "double"), (6, "quadric_union"), (4, "substitution"),
         (5, "embedded"), (6, "double"), (4, "quadric_union"), (5, "substitution"),
         (6, "embedded"), (4, "double"), (5, "quadric_union"), (6, "substitution")],
    ),
}


def _matrix(workload, seed, index, n):
    return random_invertible_matrix(hilbcomp.PolyRing(n + 1), f"perfbench:{workload}:{seed}:{index}")


def make_inputs(workload, seed):
    """Deterministic input list for (workload, seed), as JSON-ready dicts."""
    rounds, pairs = PLANS[workload]
    out = []
    for index in range(rounds * len(pairs)):
        n, kind = pairs[index % len(pairs)]
        M = _matrix(workload, seed, index, n)
        item = {"n": n, "kind": kind}
        if workload == "limit_probe_moved":
            fam = fixtures.get(f"family_{kind}_limit_n{n}").payload
            moved = hilbcomp.random_linear_change(fam.total_ideal, None, matrix=M)
            want = LIMIT_OF[kind]
            if want is None:
                base = hilbcomp.Ideal(hilbcomp.PolyRing(n + 1), fixtures.lambda_generators(n))
            else:
                base = hilbcomp.normal_form_ideal(n, want)
            limit = hilbcomp.random_linear_change(base, None, matrix=M)
            item["limit"] = [str(g) for g in limit.canonical_generators()]
            item["hilbert_polynomial"] = str(hilbcomp.pair_hilbert_polynomial(n))
        else:
            moved = hilbcomp.random_linear_change(hilbcomp.normal_form_ideal(n, kind), None, matrix=M)
            if workload == "tangent_moved":
                # coordinate-invariant: 4n-4 for types I/II, 8n-12 for III/IV
                item["dimension"] = 4 * n - 4 if kind in ("I", "II") else 8 * n - 12
            else:
                item["classify_seed"] = seed * 1000 + index
        item["text"] = hilbcomp.dumps_ideal(moved)
        out.append(item)
    return out


def run_op(workload, item):
    """The timed op: parse the input text, then the workload's pipeline.

    Functions are looked up on the package at call time so that the tracer's
    wrappers, once installed, are the ones called.
    """
    ideal = hilbcomp.loads_ideal(item["text"])
    if workload == "classify_moved":
        return hilbcomp.classify(ideal, seed=item["classify_seed"])
    if workload == "tangent_moved":
        return hilbcomp.hom_degree_zero(ideal)
    fam = hilbcomp.Family(ideal)
    return hilbcomp.limit_ideal(fam), hilbcomp.flatness_probe(fam)


def check(workload, item, result):
    """None when the answer is right, else a one-line description."""
    if workload == "classify_moved":
        if result.label != item["kind"]:
            return f"label {result.label}, want {item['kind']}"
    elif workload == "tangent_moved":
        if result.dimension != item["dimension"]:
            return f"dimension {result.dimension}, want {item['dimension']}"
    else:
        limit, probe = result
        if not probe.flat:
            return "flatness probe reports not flat"
        if str(probe.limit_polynomial) != item["hilbert_polynomial"]:
            return f"limit Hilbert polynomial {probe.limit_polynomial}, want {item['hilbert_polynomial']}"
        if [str(g) for g in limit.generators] != item["limit"]:
            return "limit differs from the moved expected limit"
    return None
