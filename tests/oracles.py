"""Brute-force oracles and invariant checks that the test suites compare against."""

from fractions import Fraction

from hilbcomp import linalg
from hilbcomp.errors import RingMismatchError
from hilbcomp.rings import monomials_of_degree


def validate_canonical(p):
    """Assert the canonical-form invariants of a polynomial."""
    key = p.ring.sort_key()
    seen = set()
    prev = None
    for m, c in p.terms:
        assert c != 0, "zero coefficient stored"
        assert isinstance(c, Fraction)
        assert len(m) == p.ring.width
        assert all(isinstance(e, int) and e >= 0 for e in m)
        assert m not in seen, "duplicate monomial"
        seen.add(m)
        k = key(m)
        if prev is not None:
            assert k < prev, "terms not strictly descending"
        prev = k
    return True


def convert_by_name(p, target):
    """Reinterpret p in target by matching variable names; variables absent
    from the target must not occur, extra target variables get exponent zero."""
    src = p.ring
    names = {target.var_name(j): j for j in range(target.width)}
    mapping = [names.get(src.var_name(i)) for i in range(src.width)]
    acc = {}
    for m, c in p.terms:
        out = [0] * target.width
        for i, e in enumerate(m):
            if e == 0:
                continue
            if mapping[i] is None:
                raise RingMismatchError(
                    f"variable {src.var_name(i)} does not exist in target ring"
                )
            out[mapping[i]] = e
        acc[tuple(out)] = acc.get(tuple(out), 0) + c
    return target.from_dict(acc)


def hilbert_function_by_count(I, d):
    """dim (S/I)_d by counting degree-d monomials outside the initial ideal."""
    return len(I.groebner_basis().standard_monomials(d))


def graded_piece_quotient(I, J, d):
    """Brute-force {f of degree d : f.J inside I} as a monomial-coefficient
    nullspace; an independent oracle for quotient computations."""
    ring = I.ring
    gb = I.groebner_basis()
    monos = monomials_of_degree(ring.width, d)
    rows = []
    for g in J.generators:
        cols = []
        targets = {}
        for m in monos:
            prod = gb.reduce(g * ring.from_dict({m: Fraction(1)}))
            col = {}
            for mono, c in prod.terms:
                targets.setdefault(mono, len(targets))
                col[targets[mono]] = c
            cols.append(col)
        height = len(targets)
        for rix in range(height):
            rows.append([cols[cix].get(rix, Fraction(0)) for cix in range(len(monos))])
    if not rows:
        return [tuple(int(i == j) for j in range(len(monos))) for i in range(len(monos))], monos
    return linalg.nullspace(rows, len(monos)), monos
