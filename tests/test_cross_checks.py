"""Independent-oracle cross checks against a third-party implementation
and brute-force counting.  These guard the engine itself, not the
domain-specific layers."""

import random
from fractions import Fraction

import pytest

from hilbcomp.groebner import buchberger
from hilbcomp.hilbert import hilbert_series
from hilbcomp.ideals import Ideal, eliminate, intersect
from hilbcomp.rings import GREVLEX, LEX, PolyRing, monomials_of_degree

from oracles import from_sympy_poly, monic, sympy_eliminate, sympy_grevlex, to_sympy

sympy = pytest.importorskip("sympy")


def _random_polys(ring, rng, count, max_terms=4, max_deg=3):
    out = []
    while len(out) < count:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            d = rng.randint(1, max_deg)
            mono = rng.choice(monomials_of_degree(ring.width, d))
            terms[mono] = Fraction(rng.randint(-4, 4))
        p = ring.from_dict(terms)
        if not p.is_zero():
            out.append(p)
    return out


@pytest.mark.parametrize("order_name", ["grevlex", "lex"])
def test_reduced_bases_match_reference_implementation(order_name):
    rng = random.Random(2024)
    ring = PolyRing(4)
    gens_syms = sympy.symbols("x0 x1 x2 x3")
    order = GREVLEX if order_name == "grevlex" else LEX
    for trial in range(12):
        polys = _random_polys(ring, rng, rng.randint(2, 4))
        mine = buchberger(polys, order, transform=False)
        theirs = sympy.groebner(
            [to_sympy(p, gens_syms) for p in polys],
            *gens_syms,
            order=order_name,
            domain="QQ",
        )
        converted = sorted(
            (from_sympy_poly(p, ring.with_order(order)) for p in theirs.polys),
            key=lambda q: ring.with_order(order).sort_key()(q.lead_monomial()),
            reverse=True,
        )
        assert [g.terms for g in mine.elements] == [monic(g).terms for g in converted], (
            order_name,
            trial,
            [str(p) for p in polys],
        )


def test_series_coefficients_match_direct_count_on_random_monomial_ideals():
    rng = random.Random(99)
    ring = PolyRing(4)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 5)):
            d = rng.randint(1, 4)
            gens.append(ring.from_dict({rng.choice(monomials_of_degree(4, d)): 1}))
        ideal = Ideal(ring, gens)
        data = hilbert_series(ideal)
        lead = [g.lead_monomial() for g in gens]
        for d in range(7):
            count = sum(
                1
                for m in monomials_of_degree(4, d)
                if not any(all(a <= b for a, b in zip(g, m)) for g in lead)
            )
            assert data.series_coefficient(d) == count, (gens, d)


@pytest.mark.parametrize("front", [[1], [1, 3], [3], [2, 3]])
def test_eliminate_matches_sympy_elimination(front):
    # a lex basis with the front variables first eliminates them; its
    # front-free members generate the elimination ideal, whose reduced
    # grevlex basis must be the basis `eliminate` seeds
    rng = random.Random(f"eliminate:{front}")
    ring = PolyRing(4)
    syms = sympy.symbols("x0 x1 x2 x3")
    for trial in range(6):
        polys = _random_polys(ring, rng, 3, max_terms=3, max_deg=2)
        got = eliminate(Ideal(ring, polys), front)
        elim = sympy_eliminate([to_sympy(p, syms) for p in polys], [syms[i] for i in front], syms)
        want = sympy_grevlex(elim, syms, ring)
        assert [g.terms for g in got.generators] == [g.terms for g in want], (front, trial)
        assert got.groebner_basis().elements == got.generators


def test_intersect_matches_sympy_elimination():
    # I meet J is the t-free part of t*I + (1 - t)*J, t eliminated by lex
    rng = random.Random("intersect")
    ring = PolyRing(4)
    syms = sympy.symbols("x0 x1 x2 x3")
    t = sympy.Symbol("t")
    for trial in range(8):
        I = _random_polys(ring, rng, rng.randint(1, 2), max_terms=3, max_deg=2)
        J = _random_polys(ring, rng, rng.randint(1, 2), max_terms=3, max_deg=2)
        got = intersect(Ideal(ring, I), Ideal(ring, J))
        exprs = [t * to_sympy(p, syms) for p in I] + [(1 - t) * to_sympy(p, syms) for p in J]
        want = sympy_grevlex(sympy_eliminate(exprs, [t], (t, *syms)), syms, ring)
        assert [g.terms for g in got.generators] == [g.terms for g in want], trial
        assert got.groebner_basis().elements == got.generators
