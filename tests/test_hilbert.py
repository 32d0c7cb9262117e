import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from hilbcomp import groebner, linalg
from hilbcomp.classify import normal_form_ideal
from hilbcomp.errors import HomogeneityError
from hilbcomp.hilbert import (
    UNIPOLY_ZERO,
    HilbertData,
    UniPoly,
    _numerator,
    binomial_polynomial,
    double_structure_hilbert_count,
    hilbert_function,
    hilbert_series,
    pair_hilbert_polynomial,
)
from hilbcomp.groebner import buchberger, seeded_basis
from hilbcomp.ideals import (
    Ideal,
    _with_seeded_gb,
    intersect,
    irrelevant_ideal,
    random_linear_change,
)
from hilbcomp.rings import LEX, PolyRing, monomials_of_degree, parse

from oracles import hilbert_function_by_count

R = PolyRing(4)


def I(*texts, ring=R):
    return Ideal(ring, [parse(t, ring) for t in texts])


def test_unipoly_formatting_and_evaluation():
    p = UniPoly([2, 2])
    assert str(p) == "2*m + 2"
    assert p(5) == 12
    q = UniPoly([1, 3, 1])
    assert str(q) == "m^2 + 3*m + 1"
    assert str(UniPoly([])) == "0"
    assert str(UniPoly([Fraction(-1, 2), 0, 1])) == "m^2 - 1/2"


def test_binomial_polynomial_matches_comb():
    for a in range(5):
        p = binomial_polynomial(a)
        for m in range(8):
            assert p(m) == comb(m + a, a)
    assert binomial_polynomial(-1) == UNIPOLY_ZERO
    # with an offset: C(m - j + a, a)
    p = binomial_polynomial(2, offset=3)
    for m in range(3, 9):
        assert p(m) == comb(m - 3 + 2, 2)


def test_full_ring_series():
    data = hilbert_series(Ideal(R, []))
    assert data.hilbert_polynomial == binomial_polynomial(3)
    assert data.dimension == 3 and data.degree == 1
    assert data.series_numerator == (1,)


def test_pair_ideal_hilbert_polynomial():
    data = hilbert_series(I("x0*x2", "x0*x3", "x1*x2", "x1*x3"))
    assert str(data.hilbert_polynomial) == "2*m + 2"
    assert data.hilbert_polynomial == pair_hilbert_polynomial(3)
    assert data.dimension == 1
    assert data.degree == 2


def test_double_structure_hilbert_polynomial():
    data = hilbert_series(I("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2"))
    assert data.hilbert_polynomial == pair_hilbert_polynomial(3)


def test_irrelevant_square_has_no_linear_forms_removed():
    m = irrelevant_ideal(R)
    m2 = Ideal(R, [a * b for a in m.generators for b in m.generators])
    assert hilbert_function(m2, 1) == 4


def test_type_iv_quadric_count_via_rank():
    gens = [parse(t, R) for t in ("x0^2", "x0*x1", "x1^2", "x0*x2 - x1*x2")]
    monos = monomials_of_degree(4, 2)
    rows = [[dict(g.terms).get(m, 0) for m in monos] for g in gens]
    assert linalg.rank(rows) == 4  # four independent quadrics
    assert hilbert_function(Ideal(R, gens), 2) == len(monos) - 4 == 6


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_double_structure_function_matches_closed_form(n, k):
    ring = PolyRing(n + 1)
    x0, x1, x2, x3 = (ring.x(i) for i in range(4))
    ideal = Ideal(ring, [x0**2, x0 * x1, x1**2, x0 * x3**k - x1 * x2**k])
    for m in range(k + 1, k + 6):
        assert hilbert_function(ideal, m) == double_structure_hilbert_count(n, k, m)
    matches = hilbert_series(ideal).hilbert_polynomial == pair_hilbert_polynomial(n)
    assert matches == (k == 1)


def test_reference_polynomial_small_cases():
    assert str(pair_hilbert_polynomial(3)) == "2*m + 2"
    # evaluate the closed form by hand at n=4: (m+2)(m+1) - 1
    assert str(pair_hilbert_polynomial(4)) == "m^2 + 3*m + 1"
    # n=5: 2*C(m+3,3) - C(m+1,1), cross-checked against the engine
    p5 = pair_hilbert_polynomial(5)
    for m in range(8):
        assert p5(m) == 2 * comb(m + 3, 3) - (m + 1)
    R6 = PolyRing(6)
    pair = intersect(
        Ideal(R6, [R6.x(0), R6.x(1)]), Ideal(R6, [R6.x(2), R6.x(3)])
    )
    assert hilbert_series(pair).hilbert_polynomial == p5
    with pytest.raises(ValueError):
        pair_hilbert_polynomial(2)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_normal_forms_have_reference_polynomial(n, label):
    data = hilbert_series(normal_form_ideal(n, label))
    assert data.hilbert_polynomial == pair_hilbert_polynomial(n)


@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_order_independence_of_series(label):
    ideal = normal_form_ideal(3, label)
    grev = hilbert_series(ideal)
    lex_gb = buchberger(list(ideal.generators), LEX)
    lex_leads = Ideal(R, [R.from_dict({g.lead_monomial(): 1}) for g in lex_gb.elements])
    lexd = hilbert_series(lex_leads)
    assert lexd.hilbert_polynomial == grev.hilbert_polynomial
    assert lexd.reduced_numerator == grev.reduced_numerator
    assert lexd.denominator_power == grev.denominator_power


@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_function_agrees_with_series_coefficients(label):
    ideal = normal_form_ideal(3, label)
    data = hilbert_series(ideal)
    for d in range(9):
        want = data.series_coefficient(d)
        assert hilbert_function_by_count(ideal, d) == want
        assert hilbert_function(ideal, d) == want
        if d >= data.agreement_bound:
            assert data.hilbert_polynomial(d) == hilbert_function(ideal, d)


def test_agreement_bound_is_tight_for_pair_ideal():
    data = hilbert_series(I("x0*x2", "x0*x3", "x1*x2", "x1*x3"))
    b = data.agreement_bound
    assert data.hilbert_polynomial(b) == hilbert_function(
        I("x0*x2", "x0*x3", "x1*x2", "x1*x3"), b
    )
    if b > 0:
        assert data.hilbert_polynomial(b - 1) != data.series_coefficient(b - 1)


def test_zero_dimensional_and_empty_quotients():
    # a point in P^3
    pt = I("x0", "x1", "x2")
    data = hilbert_series(pt)
    assert data.dimension == 0
    assert data.degree == 1
    assert data.hilbert_polynomial == UniPoly([1])
    # the whole irrelevant ideal: empty projective scheme
    data2 = hilbert_series(irrelevant_ideal(R))
    assert data2.dimension == -1
    assert data2.hilbert_polynomial == UNIPOLY_ZERO


def test_rejects_inhomogeneous_input():
    with pytest.raises(HomogeneityError):
        hilbert_series(I("x0^2 - x1"))
    with pytest.raises(HomogeneityError):
        hilbert_function(I("x0^2 - x1"), 2)


def test_rejects_parameter_rings():
    Rt = PolyRing(3, has_param=True)
    with pytest.raises(ValueError):
        hilbert_series(Ideal(Rt, [Rt.x(0)]))


def test_numerator_cache_is_bounded():
    bound = _numerator.cache_info().maxsize
    assert bound is not None
    for d in range(1, bound + 10):
        assert _numerator(((d,),)).coeffs == (1,) + (0,) * (d - 1) + (-1,)
    assert _numerator.cache_info().currsize <= bound


def _random_homogeneous_ideal(rng):
    """Two to four random homogeneous forms of degree 2 or 3 in x0..x3."""
    gens = []
    for _ in range(rng.randint(2, 4)):
        monos = monomials_of_degree(4, rng.choice((2, 3)))
        p = R.from_dict({m: rng.randint(-3, 3) for m in rng.sample(monos, 3)})
        if not p.is_zero():
            gens.append(p)
    return Ideal(R, gens)


def _hilbert_cases():
    rng = random.Random("minimal-leads")
    yield from (_random_homogeneous_ideal(rng) for _ in range(12))
    for n in (3, 4, 5, 6):
        for k, label in enumerate(("I", "II", "III", "IV")):
            yield random_linear_change(normal_form_ideal(n, label), seed=10 * n + k)


def test_series_from_minimal_leads_equals_the_reduced_basis_series(monkeypatch):
    # the Hilbert data of a fresh ideal comes from the leads of Buchberger's
    # minimal basis, with no interreduction; every field equals the data of
    # the same ideal seeded with its reduced basis
    reductions = []
    real = groebner._interreduced
    monkeypatch.setattr(
        groebner, "_interreduced", lambda *a: reductions.append(a) or real(*a)
    )
    for ideal in _hilbert_cases():
        got = hilbert_series(ideal)
        assert reductions == [] and "elements" not in vars(ideal.groebner_basis())
        gb = ideal.groebner_basis()
        reduced = seeded_basis(gb.ring, [dict(e.terms()) for e in gb._entries])
        seeded = _with_seeded_gb(ideal.ring, reduced)
        want = hilbert_series(seeded)
        for f in dataclasses.fields(HilbertData):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        reductions.clear()


def test_hilbert_data_is_shared_per_width_and_numerator():
    # every field is derived from (width, numerator), so equal numerators
    # share one object, among the 128 most recently used
    from hilbcomp.hilbert import hilbert_data

    first = hilbert_data(4, (1, 0, -2, 1))
    assert hilbert_data(4, (1, 0, -2, 1)) is first
    other = hilbert_data(5, (1, 0, -2, 1))
    assert other.num_vars == 5 and other.dimension == first.dimension + 1
    assert hilbert_data.cache_info().maxsize == 128
    for k in range(300):
        hilbert_data(4, (1, -k))
    assert hilbert_data.cache_info().currsize == 128
    # a numerator pushed out of the cache is derived again, to an equal object
    again = hilbert_data(4, (1, 0, -2, 1))
    assert again is not first and again == first
