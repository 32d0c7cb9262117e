import random
from fractions import Fraction

import pytest

from hilbcomp import fixtures, groebner, ideals, linalg
from hilbcomp.errors import CertificateError, HomogeneityError, RingMismatchError
from hilbcomp.hilbert import hilbert_series, pair_hilbert_polynomial
from hilbcomp.classify import (
    _colon_data,
    _complete_intersection,
    _generic_element,
    _link,
    normal_form_ideal,
)
from hilbcomp.ideals import (
    Ideal,
    colon_by_series,
    dumps_ideal,
    eliminate,
    intersect,
    irrelevant_ideal,
    loads_ideal,
    quotient,
    quotient_by_element,
    random_invertible_matrix,
    random_linear_change,
    saturate,
)
from hilbcomp.groebner import buchberger
from hilbcomp.rings import GREVLEX, LEX, PolyRing, monomials_of_degree, parse

from oracles import (
    contains_ideal,
    essential_form_by_rref,
    graded_piece_quotient,
    ideal_product,
    quotient_by_division,
    saturate_by_quotients,
    sympy_eliminate,
    sympy_grevlex,
    to_sympy,
)

R = PolyRing(4)
X = [R.x(i) for i in range(4)]
Rt = PolyRing(4, has_param=True)


def I(*texts, ring=R):
    return Ideal(ring, [parse(t, ring) for t in texts])


def test_intersect_two_disjoint_planes():
    assert intersect(I("x0", "x1"), I("x2", "x3")) == I("x0*x2", "x0*x3", "x1*x2", "x1*x3")


def test_intersect_with_square_of_point_ideal():
    m2 = ideal_product(irrelevant_ideal(PolyRing(3)), irrelevant_ideal(PolyRing(3)))
    R3 = PolyRing(3)
    left = Ideal(R3, [parse("x0", R3), parse("x1*x2", R3)])
    got = intersect(left, m2)
    assert got == Ideal(R3, [parse(t, R3) for t in ("x0^2", "x0*x1", "x0*x2", "x1*x2")])


def test_intersect_double_structure_with_point_square():
    R3 = PolyRing(3)
    m2 = ideal_product(irrelevant_ideal(R3), irrelevant_ideal(R3))
    left = Ideal(R3, [parse("x0 - x1", R3), parse("x0^2", R3)])
    got = intersect(left, m2)
    want = Ideal(R3, [parse(t, R3) for t in ("x0^2", "x0*x1", "x1^2", "x0*x2 - x1*x2")])
    assert got == want


def test_quotient_principal():
    assert quotient(I("x0^2"), I("x0")) == I("x0")


def test_quotient_pair_by_first_plane():
    got = quotient(I("x0*x2", "x0*x3", "x1*x2", "x1*x3"), I("x0", "x1"))
    assert got == I("x2", "x3")


def test_quotient_matches_graded_brute_force():
    from hilbcomp.hilbert import hilbert_function

    A = I("x0*x2", "x0*x3", "x1*x2", "x1*x3")
    B = I("x0", "x1")
    Q = quotient(A, B)
    for d in (1, 2, 3):
        basis, monos = graded_piece_quotient(A, B, d)
        # every brute-force solution lies in the computed quotient ...
        for vec in basis:
            f = R.from_dict({m: c for m, c in zip(monos, vec)})
            assert Q.contains(f)
        # ... and the graded dimensions agree, so the pieces coincide
        dim_quotient_piece = len(monos) - hilbert_function(Q, d)
        assert len(basis) == dim_quotient_piece


def _assert_matches_division_oracle(A, g):
    """quotient_by_element(A, g) has the oracle's reduced generators, and its
    seeded basis is the one a fresh Buchberger run builds."""
    got = quotient_by_element(A, g)
    want = quotient_by_division(A, g)
    assert got.generators == want.generators
    assert got.groebner_basis().elements == Ideal(A.ring, got.generators).groebner_basis().elements
    return got


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_quotient_by_element_matches_the_division_oracle_on_moved_forms(n, label):
    # the colons ci : h of both links of the equidimensional hull
    moved = random_linear_change(normal_form_ideal(n, label), seed=n + 70)
    rng = random.Random(f"colon-oracle:{n}:{label}")
    ci, _ = _complete_intersection(moved, rng)
    _assert_matches_division_oracle(ci, _generic_element(moved, rng))
    linked = _link(ci, moved, rng)
    _assert_matches_division_oracle(ci, _generic_element(linked, rng))


def _random_polys(ring, rng, count, degrees=(1, 2)):
    monos = [m for d in degrees for m in monomials_of_degree(ring.width, d)]
    out = []
    while len(out) < count:
        p = ring.from_dict({rng.choice(monos): rng.randint(-4, 4) for _ in range(3)})
        if not p.is_zero():
            out.append(p)
    return out


def test_quotient_by_element_matches_the_division_oracle_on_random_ideals():
    rng = random.Random("colon-oracle:random")
    for _ in range(12):
        A = Ideal(R, _random_polys(R, rng, 2))
        (g,) = _random_polys(R, rng, 1)
        _assert_matches_division_oracle(A, g)
        # a g inside A gives the unit ideal
        unit = _assert_matches_division_oracle(A, A.generators[0] * g)
        assert unit.generators == (R.one,)


def test_quotient_by_element_in_a_lex_ring():
    lex = R.with_order(LEX)
    A = Ideal(lex, [parse(t, lex) for t in ("x0*x2", "x0*x3", "x1*x2", "x1*x3", "x1^2 - x0*x3")])
    for text in ("x0 + x1", "x2*x3 - x0^2", "x1"):
        got = _assert_matches_division_oracle(A, parse(text, lex))
        assert all(q.ring == lex for q in got.generators)


def test_quotient_by_element_of_the_zero_ideal():
    # K = 0 meet (g) = 0, so 0 : g == 0
    got = quotient_by_element(Ideal(R, []), parse("x0 + x1", R))
    assert got.is_zero() and got == quotient_by_division(Ideal(R, []), parse("x0 + x1", R))
    with pytest.raises(ZeroDivisionError):
        quotient_by_element(I("x0"), parse("x0 - x0", R))


def _assert_colon_by_series_matches(A, g, monkeypatch):
    """colon_by_series(A, g, data), with data read off the exact sequence of
    multiplication by g, carries data and runs no Buchberger, and its
    generators are those of quotient_by_element and of the division oracle,
    term for term."""
    data = _colon_data(A, g)
    with monkeypatch.context() as m:
        m.setattr(ideals, "buchberger", None)
        m.setattr(groebner, "buchberger", None)
        got = colon_by_series(A, g, data)
    assert got._hilbert_cache is data
    text = [str(q) for q in got.generators]
    assert text == [str(q) for q in quotient_by_element(A, g).generators]
    assert text == [str(q) for q in quotient_by_division(A, g).generators]
    return got


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_colon_by_series_matches_both_routes_on_moved_forms(n, label, monkeypatch):
    # the colons ci : h of both links of the equidimensional hull
    moved = random_linear_change(normal_form_ideal(n, label), seed=n + 110)
    rng = random.Random(f"colon-series:{n}:{label}")
    ci, _ = _complete_intersection(moved, rng)
    linked = _assert_colon_by_series_matches(ci, _generic_element(moved, rng), monkeypatch)
    _assert_colon_by_series_matches(ci, _generic_element(linked, rng), monkeypatch)


def _moved_pair(texts, g, seed):
    """The ideal of the texts and the form g under one random change of
    coordinates."""
    M = random_invertible_matrix(R, seed)
    A = random_linear_change(I(*texts), None, matrix=M)
    (moved,) = random_linear_change(I(g), None, matrix=M).generators
    return A, moved


def _random_colons():
    """(A, g) pairs in four variables: random products of linear forms
    against zero-divisors, nonzerodivisors and linear forms, a moved III/IV
    link whose colon is a linear form plus a quadric, and a g inside A."""
    rng = random.Random("colon-series:random")
    cases = []
    for _ in range(6):
        l = _random_polys(R, rng, 4, degrees=(1,))
        (q,) = _random_polys(R, rng, 1, degrees=(2,))
        A = Ideal(R, [l[0] * l[1], l[2] * l[3]])
        cases += [(A, l[0] * l[2]), (A, q), (A, l[0]), (Ideal(R, [*A.generators, q * l[0]]), l[1])]
    # (x0^2, x1*x2) : x0 == (x0, x1*x2)
    cases.append(_moved_pair(("x0^2", "x1*x2"), "x0", seed=3))
    cases.append(_moved_pair(("x0^2", "x0*x1", "x1^2"), "x0*x2 - x1*x2", seed=4))
    A = cases[0][0]
    cases.append((A, A.generators[0] * X[3]))
    return cases


def test_colon_by_series_matches_both_routes_on_random_ideals(monkeypatch):
    degrees = set()
    for A, g in _random_colons():
        got = _assert_colon_by_series_matches(A, g, monkeypatch)
        degrees.add(tuple(sorted({q.total_degree() for q in got.generators})))
    # a unit colon, and colons with generators in two degrees
    assert (0,) in degrees and (1, 2) in degrees


def test_colon_rows_span_each_graded_piece():
    for A, g in _random_colons():
        gb = A.groebner_basis()
        pk = groebner._ring_packing(gb.ring)
        for e in range(4):
            rows = groebner.colon_rows(gb, g, e)
            basis, monos = graded_piece_quotient(A, I(str(g)), e)
            column = {m: k for k, m in enumerate(monos)}
            dense = []
            for lead, row in rows.items():
                # each row leads at its key, and its terms descend
                assert list(row) == sorted(row, reverse=True) and pk.unpack(max(row)) == lead
                vec = [0] * len(monos)
                for m, c in row.items():
                    vec[column[pk.unpack(m)]] = c
                dense.append(vec)
            assert len(rows) == len(basis) == linalg.rank(dense + [list(v) for v in basis])


def test_colon_by_series_refuses_data_that_is_not_the_colons(monkeypatch):
    ci, h = _ci_and_element(4, "III")
    assert quotient_by_element(ci, h) != ci
    # ci's own series: the first degree it reads has the wrong size
    with pytest.raises(CertificateError, match="contradicts its series"):
        colon_by_series(ci, h, hilbert_series(ci))
    # a cap below the colon's generator degrees leaves the certificate open
    data = _colon_data(ci, h)
    monkeypatch.setattr(ideals, "gotzmann_number", lambda hp: 0)
    assert data.agreement_bound < 2
    with pytest.raises(CertificateError, match="do not close its series by degree"):
        colon_by_series(ci, h, data)


def test_colon_by_series_input_validation():
    data = _colon_data(I("x0*x2", "x1*x3"), parse("x0*x3", R))
    with pytest.raises(ZeroDivisionError):
        colon_by_series(I("x0*x2", "x1*x3"), R.zero, data)
    with pytest.raises(HomogeneityError):
        colon_by_series(I("x0*x2", "x1*x3"), parse("x0*x3 + x1", R), data)


def test_quotient_by_unit_ideal_is_identity():
    A = I("x0*x2", "x0*x3", "x1*x2", "x1*x3")
    assert quotient(A, Ideal(R, [R.one])) == A


def test_saturate_clears_parameter():
    J = Ideal(Rt, [parse("t*x0", Rt), parse("t*x1", Rt)])
    assert saturate(J, Ideal(Rt, [Rt.t])) == Ideal(Rt, [Rt.x(0), Rt.x(1)])


def test_type_three_ideal_is_already_saturated():
    A = I("x0^2", "x0*x1", "x0*x2", "x1*x2")
    assert saturate(A, irrelevant_ideal(R)) == A


def test_saturation_by_a_nonvanishing_coordinate():
    # V(x0^2, x0*x1) lies in {x0 = 0}: saturating by x1 leaves (x0),
    # saturating by x0 exhausts everything
    assert saturate(I("x0^2", "x0*x1"), I("x1")) == I("x0")
    assert saturate(I("x0^2", "x0*x1"), I("x0")) == Ideal(R, [R.one])


def _spy_principal(monkeypatch):
    """Record the g of every principal saturation I : g^oo that saturate runs."""
    calls = []
    original = ideals._saturate_principal
    monkeypatch.setattr(
        ideals, "_saturate_principal", lambda B, g: calls.append(g) or original(B, g)
    )
    return calls


def test_saturation_meets_the_principal_saturations_when_the_last_variable_divides_a_lead(
    monkeypatch,
):
    # x2 divides the lead of x0*x2, so x2 may be a zerodivisor mod (x0*x2)
    # and the meet of the principal saturations by x0, x1, x2 decides; the
    # ideal is already saturated, as the quotient loop confirms
    R3 = PolyRing(3)
    A = Ideal(R3, [parse("x0*x2", R3)])
    assert any(m[-1] for m in A.groebner_basis().lead_monomials())
    principal = _spy_principal(monkeypatch)
    m = irrelevant_ideal(R3)
    assert saturate(A, m) == A
    assert principal == list(m.generators)
    assert A == saturate_by_quotients(A, m)


def test_saturation_by_the_zero_ideal_is_refused():
    with pytest.raises(ValueError):
        saturate(I("x0*x1"), Ideal(R, []))


def test_saturation_by_an_m_primary_ideal_matches_m(monkeypatch):
    # (x0)*m moved into general coordinates saturates to the moved (x0)
    R3 = PolyRing(3)
    m = irrelevant_ideal(R3)
    A = random_linear_change(ideal_product(Ideal(R3, [R3.x(0)]), m), seed=5)
    primary = Ideal(R3, [parse(t, R3) for t in ("x0^2", "x1", "x2^3")])
    principal = _spy_principal(monkeypatch)
    got = saturate(A, primary)
    assert principal == list(primary.generators)
    assert got == saturate(A, m) == random_linear_change(Ideal(R3, [R3.x(0)]), seed=5)
    assert got == saturate_by_quotients(A, primary)


def test_saturation_by_the_unit_ideal_is_identity():
    A = I("x0^2", "x0*x1", "x0*x2", "x1*x2")
    assert saturate(A, Ideal(R, [R.one])) == A
    fam = Ideal(Rt, [parse("t*x0", Rt), parse("x1^2", Rt)])
    assert saturate(fam, Ideal(Rt, [Rt.constant(3)])) == fam


@pytest.mark.parametrize(
    "texts, f",
    [
        (("x0^2*x1", "x0*x2^2", "x1^3*x3"), "x0"),
        (("x0^2", "x0*x1", "x0*x3 - x1*x2"), "x1 + x3"),
        (("x0*x2", "x0*x3", "x1*x2", "x1*x3"), "x0*x2"),
    ],
)
def test_principal_saturation_matches_the_quotient_loop(texts, f):
    A = I(*texts)
    J = I(f)
    assert saturate(A, J) == saturate_by_quotients(A, J)


def test_principal_saturation_with_a_parameter_matches_the_quotient_loop():
    A = Ideal(Rt, [parse(t, Rt) for t in
                   ("t*x0*x2 - t^2*x1*x3", "x0^2 - t*x0*x1", "t^2*x1^2", "x2*x3")])
    for f in ("t", "t*x0 + x1", "x3"):
        J = Ideal(Rt, [parse(f, Rt)])
        got = saturate(A, J)
        want = saturate_by_quotients(A, J)
        assert got == want
        assert [str(g) for g in got.generators] == [str(g) for g in want.generators]


def test_saturation_idempotent_and_chain():
    A = I("x0^2", "x0*x1", "x0*x2", "x1*x2")
    J = I("x0", "x1")
    q = quotient(A, J)
    s = saturate(A, J)
    assert saturate(s, J) == s
    assert contains_ideal(s, q) and contains_ideal(q, A)


def test_quotient_membership_sampling():
    A = I("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2")
    J = I("x0", "x1")
    Q = quotient(A, J)
    rng = random.Random(31)
    gens = Q.generators
    for _ in range(20):
        f = sum((g.scale(rng.randint(-3, 3)) for g in gens), R.zero)
        for j in J.generators:
            assert A.contains(f * j)


def test_sum_and_product():
    assert ideal_product(I("x0"), I("x1")) == I("x0*x1")
    quadric = Ideal(Rt, [parse("x0", Rt), parse("x1*x2", Rt)])
    moving = Ideal(
        Rt, [parse("x1", Rt), parse("x2", Rt), parse("t*x3 + x0 - t*x0", Rt)]
    )
    prod = ideal_product(quadric, moving)
    assert len(prod.generators) == 6


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        intersect(I("x0"), Ideal(Rt, [Rt.x(0)]))


def test_random_linear_change_identity_matrix():
    A = I("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2")
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert random_linear_change(A, 0, matrix=ident) == A


def test_random_linear_change_permutation_relabels():
    A = I("x0*x2", "x0*x3", "x1*x2", "x1*x3")
    perm = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert random_linear_change(A, 0, matrix=perm) == A


def test_random_linear_change_rejects_singular_matrix():
    A = I("x0*x2", "x0*x3", "x1*x2", "x1*x3")
    singular = [[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError):
        random_linear_change(A, 0, matrix=singular)


def test_random_linear_change_rejects_a_matrix_of_the_wrong_shape():
    A = I("x0*x2", "x0*x3", "x1*x2", "x1*x3")
    wrong = (
        [[0, 1, 0, 0], [1, 0, 0, 0]],
        [[1, 0], [0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
    )
    for matrix in wrong:
        with pytest.raises(ValueError, match="4 by 4"):
            random_linear_change(A, 0, matrix=matrix)


def test_random_invertible_matrix_is_pinned():
    # the first draw for this seed is singular, so the pin also fixes the retry
    assert random_invertible_matrix(PolyRing(2), 3) == [[-2, 5], [2, 1]]


def test_random_linear_change_deterministic_and_invariant():
    A = I("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2")
    assert random_linear_change(A, 9) == random_linear_change(A, 9)
    assert random_linear_change(A, 9) != random_linear_change(A, 10)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_hilbert_polynomial_is_projective_invariant(n, label):
    base = normal_form_ideal(n, label)
    moved = random_linear_change(base, seed=n * 10 + len(label))
    assert hilbert_series(moved).hilbert_polynomial == pair_hilbert_polynomial(n)


def test_eliminate_ideal_level():
    J = Ideal(Rt, [parse("t*x0", Rt), parse("x1 - t*x1", Rt)])
    got = eliminate(J, [Rt.param_index])
    assert got.contains(parse("x0*x1", Rt))
    assert eliminate(J, []) == J


@pytest.mark.parametrize("order", [None, LEX])
@pytest.mark.parametrize("front", [[0], [3], [0, 1], [1, 3]])
def test_eliminate_seeds_the_canonical_basis(order, front):
    # in a grevlex and a lex ring, `eliminate` gives the reduced grevlex
    # basis of sympy's elimination ideal, in the ideal's ring, and seeds it
    import sympy

    ring = PolyRing(4) if order is None else PolyRing(4).with_order(order)
    texts = ("x1^2 - x0*x2", "x1*x2 - x0*x3", "x2^2 - x1*x3", "x0*x3 + x1^2 - x2^2 + x3")
    J = Ideal(ring, [parse(t, ring) for t in texts])
    got = eliminate(J, front)
    syms = sympy.symbols("x0 x1 x2 x3")
    elim = sympy_eliminate([to_sympy(g, syms) for g in J.generators], [syms[i] for i in front], syms)
    want = [g.convert(ring) for g in sympy_grevlex(elim, syms, PolyRing(4))]
    assert got.ring == ring
    assert [g.terms for g in got.generators] == [g.terms for g in want]
    fresh = Ideal(ring, got.generators).groebner_basis().elements
    assert [g.terms for g in got.groebner_basis().elements] == [g.terms for g in fresh]


def test_ideal_file_round_trip(tmp_path):
    A = I("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2")
    text = dumps_ideal(A)
    assert text.splitlines()[0] == "ring n=3 param=0"
    assert loads_ideal(text) == A
    fam = Ideal(Rt, [parse("t*x0*x3 - x1*x2", Rt)])
    text2 = dumps_ideal(fam)
    assert text2.splitlines()[0] == "ring n=3 param=1"
    assert loads_ideal(text2) == fam


def test_ideal_file_rejects_bad_header():
    with pytest.raises(ValueError):
        loads_ideal("ring n=x param=0\nx0")
    with pytest.raises(ValueError):
        loads_ideal("x0\nx1")
    with pytest.raises(ValueError):
        loads_ideal("")


def test_zero_and_unit_edge_cases():
    Z = Ideal(R, [])
    assert Z.is_zero()
    assert intersect(Z, I("x0")) == Z
    assert quotient(Z, I("x0")) == Z
    with pytest.raises(ValueError):
        quotient(I("x0"), Z)


def test_cached_basis_generates_the_same_ideal():
    A = I("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2")
    gb = A.groebner_basis()
    # mutual normal forms: generators reduce to zero against the basis,
    # and every basis element lies in the ideal of the generators
    for g in A.generators:
        assert gb.reduce(g).is_zero()


def test_irrelevant_ideal_is_shared_and_its_basis_built_once(monkeypatch):
    ring = PolyRing(6)
    ideals.irrelevant_ideal.cache_clear()
    builds = []
    real = ideals.buchberger

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ideals, "buchberger", counting)
    first = irrelevant_ideal(ring)
    assert irrelevant_ideal(ring) is first
    for _ in range(3):
        irrelevant_ideal(ring).groebner_basis()
    assert len(builds) == 1
    assert irrelevant_ideal(PolyRing(5)) is not first


def _ci_and_element(n, label):
    moved = random_linear_change(normal_form_ideal(n, label), seed=n + 90)
    rng = random.Random(f"extend:{n}:{label}")
    ci, _ = _complete_intersection(moved, rng)
    return ci, _generic_element(moved, rng)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_extended_basis_equals_a_fresh_run(n, label):
    # ci + (h) on ci's minimal basis against buchberger of ci's generators
    # plus h; also for h inside ci, as a multiple and as a generator
    ci, h = _ci_and_element(n, label)
    f1, f2 = ci.generators
    x = ci.ring.variables()
    for extra in (h, f1 * x[0] + f2 * x[1], f2):
        got = ideals._with_element(ci, extra).groebner_basis()
        fresh = buchberger([f1, f2] + ([] if extra == f2 else [extra]), transform=False)
        assert got.lead_monomials() == fresh.lead_monomials()
        assert got.elements == fresh.elements


def test_colon_data_pairs_nothing_inside_ci(monkeypatch):
    # the S-pairs of ci's own basis reduce to zero already: the basis of
    # ci + (h) forms only pairs that involve h or an element added after it
    ci, h = _ci_and_element(5, "III")
    old = {id(e) for e in ci.groebner_basis()._minimal}
    pairs = []
    real = groebner._int_spoly
    monkeypatch.setattr(
        groebner, "_int_spoly", lambda e1, e2, *a: pairs.append((e1, e2)) or real(e1, e2, *a)
    )
    _colon_data(ci, h)
    assert pairs
    assert not any(id(e1) in old and id(e2) in old for e1, e2 in pairs)


@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_quotient_by_element_interreduces_only_u_free_entries(label, monkeypatch):
    # one interreduction, in I's ring, of the quotients of the u-free
    # minimal entries restricted there; the block basis is never reduced
    ci, h = _ci_and_element(5, label)
    calls, blocks = [], []
    real, real_buchberger = groebner._interreduced, groebner.buchberger
    monkeypatch.setattr(
        groebner,
        "_interreduced",
        lambda kept, ring, *a: calls.append((kept, ring)) or real(kept, ring, *a),
    )
    monkeypatch.setattr(
        groebner, "buchberger", lambda *a, **k: blocks.append(real_buchberger(*a, **k)) or blocks[-1]
    )
    got = quotient_by_element(ci, h)
    ((kept, ring),) = calls
    (block,) = blocks
    assert ring == ci.ring.with_order(GREVLEX) and kept
    assert all(len(e.lead) == ring.width for e in kept)
    # u leads the block order, so a u-free lead makes the whole entry u-free
    u = block.ring.aux_index(block.ring.num_aux - 1)
    assert block.ring.num_aux == 1 and len(kept) == sum(e.lead[u] == 0 for e in block._minimal)
    assert "_entries" not in vars(block)
    monkeypatch.undo()
    assert got.generators == quotient_by_division(ci, h).generators


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_essential_form_matches_the_rref_route(label, n):
    # integer partials and the pivots of their span give the essential
    # variables, the restricted quadrics and the columns that the Fraction
    # rows 2Q and their rref give: on a moved normal form, and on its
    # quadrics with denominators (scaled by 1/2 and 3/4 in turn, and a term
    # 1/2*x0*x1 - 3/4*x2^2 added to the first)
    moved = random_linear_change(normal_form_ideal(n, label), seed=f"essential:{n}:{label}")
    ring = moved.ring
    gens = list(moved.generators)
    scaled = [g.scale(Fraction(1, 2) if i % 2 else Fraction(3, 4)) for i, g in enumerate(gens)]
    scaled[0] = scaled[0] + parse("1/2*x0*x1 - 3/4*x2^2", ring)
    for quadrics in (gens, scaled):
        got, columns, _ = ideals.essential_form(ring, quadrics)
        want, want_columns = essential_form_by_rref(ring, quadrics)
        assert columns == want_columns
        assert got.ring == want.ring
        assert got.generators == want.generators
    assert ideals.essential_form(ring, gens)[0].ring == PolyRing(4)


def _family_essential_cases():
    """(name, family generators, dimension of the span of their partials):
    the moved degeneration families in P^4..P^7 (the substitution family
    lives in x0, x1, x2), a pair of planes in P^6 whose second plane's
    vertex moves with t, so that its span needs five variables, and a moved
    P^6 family that needs all seven."""
    cases = []
    spans = {"embedded": 4, "double": 4, "quadric_union": 4, "substitution": 3}
    for n in (4, 5, 6, 7):
        for name, k in spans.items():
            total = getattr(fixtures, f"family_{name}_limit")(n).total_ideal
            moved = random_linear_change(total, seed=f"essential-family:{n}:{name}")
            cases.append((f"{name}-n{n}", moved, k))
    ring = PolyRing(7, has_param=True)
    moving = Ideal(ring, ["x0*x2 + t*x0*x4", "x0*x3", "x1*x2 + t*x1*x4", "x1*x3"])
    cases.append(("moving-vertex", random_linear_change(moving, seed=11), 5))
    full = Ideal(ring, ["x0*x1", "x2*x3 + t*x4*x5", "x6^2 - t^2*x0*x2"])
    cases.append(("all-variables", random_linear_change(full, seed=12), 7))
    return cases


@pytest.mark.parametrize(
    "name,total,k", _family_essential_cases(), ids=[c[0] for c in _family_essential_cases()]
)
def test_essential_form_of_a_family_maps_back_by_its_forms(name, total, k):
    # over QQ[t] the partials are taken in x only and t rides along: each
    # generator of I' with ell_i substituted for y_i gives back the family
    # generator it came from, and each ell_i with i below the span's
    # dimension is x_(p_i) plus later free variables (its rref row)
    ring = total.ring
    small, columns, ells = ideals.essential_form(ring, total.generators)
    m = max(4, k)
    assert small.ring == (ring if m >= ring.num_vars else PolyRing(m, has_param=True))
    assert len(ells) == small.ring.num_vars and sorted(columns) == list(range(ring.num_vars))
    x = [ring.x(j) for j in range(ring.num_vars)]
    images = {
        i: sum((a * xj for a, xj in zip(row, x) if a), ring.zero) for i, row in enumerate(ells)
    }
    for f, g in zip(total.generators, small.generators, strict=True):
        assert g.convert(ring).substitute(images) == f, (name, str(f))
    free = set(columns[k:])
    for i, row in enumerate(ells[:k]):
        p = columns[i]
        assert row[p] == 1 and not any(row[:p])
        assert all(j in free for j, a in enumerate(row) if a and j != p)
    for i, row in enumerate(ells[k:], k):
        assert list(row) == [int(j == columns[i]) for j in range(ring.num_vars)]
