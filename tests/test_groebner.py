import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hilbcomp import fixtures, linalg, loads_ideal, normal_form_ideal, random_linear_change
from hilbcomp.errors import HomogeneityError, KernelError, MonomialOverflowError
from hilbcomp.groebner import (
    _MASK,
    GroebnerBasis,
    _add_product,
    _int_terms,
    _monomial_index,
    _pack_row,
    _packing,
    _poly,
    _row_coordinates,
    buchberger,
    eliminate_generators,
    exact_divide,
    interreduce,
    syzygies,
)
from hilbcomp.rings import (
    GREVLEX,
    LEX,
    PolyRing,
    Polynomial,
    _divides,
    _mono_mul,
    elimination_order,
    monomials_of_degree,
    parse,
)

from oracles import (
    densify,
    reduce_by_tuples,
    reduced_basis_by_tuples,
    row_coordinates_by_products,
    syzygy_verify_by_polynomials,
    transform_certificate,
    validate_canonical,
)


R4 = PolyRing(4)
X = [R4.x(i) for i in range(4)]


def quads(*texts, ring=R4):
    return [parse(t, ring) for t in texts]


def test_monomial_generators_are_their_own_basis():
    gens = quads("x0*x2", "x0*x3", "x1*x2", "x1*x3")
    gb = buchberger(gens)
    assert sorted(str(g) for g in gb.elements) == sorted(str(g) for g in gens)
    assert gb.spair_certificate()


def test_linear_generators_reduce_to_coordinates():
    gb = buchberger([X[0] + X[1], X[0] - X[1]])
    assert {str(g) for g in gb.elements} == {"x0", "x1"}


def test_member_reduces_to_zero():
    gb = buchberger(quads("x0*x2", "x0*x3", "x1*x2", "x1*x3"))
    assert gb.reduce(X[0] * X[2]).is_zero()


def test_outside_variable_untouched():
    R6 = PolyRing(5)
    gens = [R6.x(0) * R6.x(2), R6.x(0) * R6.x(3), R6.x(1) * R6.x(2), R6.x(1) * R6.x(3)]
    gb = buchberger(gens)
    f = R6.x(4) ** 2
    assert gb.reduce(f) == f


def test_hand_division_oracle():
    # x0*x1*x2 = x2 * (x0*x1), so the normal form vanishes
    gb = buchberger(quads("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2"))
    assert gb.reduce(X[0] * X[1] * X[2]).is_zero()


def test_reduction_is_exact():
    gb = buchberger(quads("x0^2 - x1*x2", "x1*x3 - x2^2"))
    f = parse("x0^3*x3 + 5*x2^3 - 1/7*x0*x1", R4)
    r, q = gb.reduce(f, want_quotients=True)
    rebuilt = r
    for qi, gi in zip(q, gb.elements):
        rebuilt = rebuilt + qi * gi
    assert rebuilt == f
    lead_monos = gb.lead_monomials()
    for mono, _ in r.terms:
        assert not any(all(a <= b for a, b in zip(lm, mono)) for lm in lead_monos)


def test_reduction_of_a_lex_polynomial_against_a_grevlex_basis():
    gb = buchberger(quads("x0^2 - x1*x2", "x1*x3 - x2^2", "2*x0*x3 - 3/5*x1^2"))
    lex_ring = R4.with_order(LEX)
    f = parse("x0^3*x3 + 5*x2^3 - 1/7*x0*x1 + x1^2*x3^2 + x0*x2*x3", lex_ring)
    r, q = gb.reduce(f, want_quotients=True)
    assert r.ring == lex_ring
    validate_canonical(r)
    # the two orders list this remainder's terms differently
    assert r.terms != r.convert(R4).terms
    rebuilt = r.convert(R4)
    for qi, gi in zip(q, gb.elements):
        validate_canonical(qi)
        rebuilt = rebuilt + qi * gi
    assert rebuilt == f.convert(R4)
    assert r == gb.reduce(f.convert(R4)).convert(lex_ring)


def test_membership_iff_zero_normal_form():
    gens = quads("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2")
    gb = buchberger(gens)
    rng = random.Random(23)
    monos = monomials_of_degree(4, 2)
    for _ in range(40):
        g = gens[rng.randrange(len(gens))]
        m = R4.from_dict({rng.choice(monos): Fraction(rng.randint(1, 5))})
        c = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        member = g * m * c
        assert gb.reduce(member).is_zero()
        outsider = member + R4.x(3) ** (member.total_degree())
        assert not gb.reduce(outsider).is_zero()


def test_determinism_under_schedule_permutation():
    idealgens = [
        quads("x0*x2", "x0*x3", "x1*x2", "x1*x3"),
        quads("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2"),
        quads("x0^2", "x0*x1", "x0*x2", "x1*x2"),
        quads("x0^2 - x1*x3", "x0*x1 - x2^2", "x1^2 + x0*x3"),
    ]
    for gens in idealgens:
        base = buchberger(gens, transform=False)
        fingerprint = tuple(g.terms for g in base.elements)
        for seed in range(1, 8):
            other = buchberger(gens, transform=False, seed=seed)
            assert tuple(g.terms for g in other.elements) == fingerprint


CI_QUADRICS = ("x0^2 - x1*x2", "x1*x3 - x2^2", "x0*x3 + x1^2")


def test_transform_certificate():
    # the transform depends on the schedule, so every seeded one is checked;
    # in lex the three quadrics grow to ten elements through S-pairs
    for gens, order in (
        (quads("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2"), GREVLEX),
        (quads(*CI_QUADRICS), GREVLEX),
        (quads(*CI_QUADRICS), LEX),
        (quads("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"), elimination_order((0,))),
        ([X[0] + X[1], X[0] - X[1]], GREVLEX),
    ):
        for seed in (None, 1, 2, 3, 4, 5):
            gb = buchberger(gens, order, transform=True, seed=seed)
            assert transform_certificate(gb), seed
            assert gb.spair_certificate(), seed


LAZY_CASES = (
    ("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2"),
    CI_QUADRICS,
    ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"),
)


@pytest.mark.parametrize(
    "order", [GREVLEX, LEX, elimination_order((0,))], ids=["grevlex", "lex", "block"]
)
@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("texts", LAZY_CASES)
def test_lazily_reduced_basis_equals_an_eager_reading(order, seed, texts):
    # buchberger returns its minimal entries unreduced; the elements and
    # transform built on first read, after the leads were read and the
    # basis was extended, equal those of a run read at once, and the
    # elements equal the tuple-division reduction of the minimal entries
    gens = quads(*texts)
    eager = buchberger(gens, order, transform=True, seed=seed)
    elements, transform = eager.elements, eager.transform
    lazy = buchberger(gens, order, transform=True, seed=seed)
    untracked = buchberger(gens, order, transform=False, seed=seed)
    assert lazy.lead_monomials() == tuple(g.lead_monomial() for g in elements)
    buchberger(gens + [X[3] ** 2], order, transform=False, basis=untracked)
    assert "elements" not in vars(lazy) and "elements" not in vars(untracked)
    minimal = [_poly(lazy.ring, e.terms()) for e in lazy._minimal]
    assert reduced_basis_by_tuples(minimal) == elements
    assert lazy.elements == elements and lazy.transform == transform
    assert untracked.elements == elements and untracked.transform is None
    assert transform_certificate(lazy)


def test_a_given_basis_must_be_of_the_first_generators():
    gens = quads(*CI_QUADRICS)
    gb = buchberger(gens[:2], transform=False)
    extended = buchberger(gens, transform=False, basis=gb)
    assert extended.elements == buchberger(gens, transform=False).elements
    for bad in (
        lambda: buchberger(gens[1:], transform=False, basis=gb),
        lambda: buchberger(gens, LEX, transform=False, basis=gb),
        lambda: buchberger(gens, transform=True, basis=gb),
    ):
        with pytest.raises(ValueError):
            bad()


def test_spair_certificate_rejects_a_generating_set_that_is_not_a_basis():
    # the three quadrics are a grevlex basis but not a lex one
    gens = quads(*CI_QUADRICS)
    assert buchberger(gens).spair_certificate()
    lex_gens = tuple(g.convert(R4.with_order(LEX)) for g in gens)
    assert not GroebnerBasis(R4.with_order(LEX), lex_gens, lex_gens).spair_certificate()


def test_transform_certificate_rejects_a_perturbed_entry():
    gb = buchberger(quads(*CI_QUADRICS), LEX, transform=True)
    assert transform_certificate(gb)
    for i, j in ((0, 0), (4, 2), (9, 1)):
        rows = [list(row) for row in gb.transform]
        rows[i][j] = rows[i][j] + gb.ring.x(3) ** rows[i][j].total_degree()
        bad = dataclasses.replace(gb, transform=tuple(map(tuple, rows)))
        assert not transform_certificate(bad), (i, j)
    assert not transform_certificate(dataclasses.replace(gb, transform=None))


def test_buchberger_rejects_bad_input():
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(ValueError):
        buchberger([R4.zero])


def test_eliminate_parameter_product():
    Rt = PolyRing(2, has_param=True)
    a0, a1, t = Rt.x(0), Rt.x(1), Rt.t
    got = eliminate_generators([t * a0, (Rt.one - t) * a1], [Rt.param_index])
    # hand elimination: substituting t = 0 and t = 1 shows any t-free member
    # lies in (x0) meet (x1) = (x0*x1), and x1*(t*x0) + x0*(1-t)*x1 hits it
    assert len(got) == 1 and got[0] == a0 * a1


def test_eliminate_equal_parameters():
    Rt = PolyRing(2, has_param=True)
    a0, a1, t = Rt.x(0), Rt.x(1), Rt.t
    got = eliminate_generators([a0 - t, a1 - t], [Rt.param_index])
    assert len(got) == 1 and got[0] == a0 - a1


def test_eliminate_empty_front_is_identity():
    gens = quads("x0*x2", "x1*x3")
    assert eliminate_generators(gens, []) == gens


def test_exact_divide():
    assert exact_divide(X[0] ** 2 * X[1] + X[0] * X[1] ** 2, X[0] * X[1]) == X[0] + X[1]
    f = parse("2/3*x0^2*x2 - 4*x0*x1*x2", R4)
    g = parse("2*x0*x2", R4)
    assert exact_divide(f, g) * g == f
    assert exact_divide(X[0] * X[1], -X[0]) == -X[1]
    with pytest.raises(ValueError):
        exact_divide(X[0] ** 2 + X[1], X[0])
    with pytest.raises(ZeroDivisionError):
        exact_divide(X[0], X[0] - X[0])
    assert exact_divide(X[0] - X[0], X[1]).is_zero()


def brute_force_syzygies(gens, shift):
    """All syzygy rows of total shift `shift` by monomial linear algebra."""
    ring = gens[0].ring
    layout = []
    for g in gens:
        layout.append(monomials_of_degree(ring.width, shift - g.total_degree()))
    cols = sum(len(b) for b in layout)
    target_index = {}
    rows_by_target = {}
    col = 0
    columns = []
    for g, basis in zip(gens, layout):
        for m in basis:
            prod = g * ring.from_dict({m: Fraction(1)})
            vec = {}
            for mono, c in prod.terms:
                target_index.setdefault(mono, len(target_index))
                vec[target_index[mono]] = c
            columns.append(vec)
            col += 1
    matrix = [
        [columns[c].get(r, Fraction(0)) for c in range(cols)]
        for r in range(len(target_index))
    ]
    null = linalg.nullspace(matrix, cols) if matrix else []
    out = []
    for vec in null:
        row = []
        k = 0
        for basis in layout:
            acc = {}
            for m in basis:
                if vec[k]:
                    acc[m] = vec[k]
                k += 1
            row.append(ring.from_dict(acc))
        out.append(tuple(row))
    return out


def test_koszul_syzygy():
    module = syzygies([X[0], X[1]])
    assert module.verify()
    assert module.shifts == (2,)
    assert module.contains((X[1], -X[0]))


def test_pair_ideal_syzygies_match_brute_force():
    gens = quads("x0*x2", "x0*x3", "x1*x2", "x1*x3")
    module = syzygies(gens)
    assert module.verify()
    # the expected linear relation is in the computed module
    assert module.contains((X[3], -X[2], R4.zero, R4.zero))
    # degree-3 agreement with the brute-force solver, both directions
    brute = brute_force_syzygies(gens, 3)
    assert len(brute) == 4
    for row in brute:
        assert module.contains(row)
    computed_deg3 = [r for r, s in zip(module.generators, module.shifts) if s == 3]
    assert len(computed_deg3) == 4
    # completeness one degree up
    for row in brute_force_syzygies(gens, 4):
        assert module.contains(row)


def test_contains_rejects_inhomogeneous_entries():
    # the row combines the generators to x0*x2, not to zero; judged by the
    # top-degree part of its entries alone it would look like a syzygy
    gens = quads("x0*x2", "x0*x3", "x1*x2", "x1*x3")
    module = syzygies(gens)
    z = R4.zero
    row = (X[1] + R4.one, z, -X[0], z)
    assert sum((a * g for a, g in zip(row, gens)), z) == parse("x0*x2", R4)
    with pytest.raises(HomogeneityError):
        module.contains(row)


def test_presentation_row_syzygies_contain_matrix_columns():
    gens = quads("x0*x1", "x0*x2", "x0^2", "x1^2")
    module = syzygies(gens)
    assert module.verify()
    z = R4.zero
    columns = [
        (X[1], z, z, -X[0]),
        (X[2], -X[1], z, z),
        (X[0], z, -X[1], z),
        (z, X[0], -X[2], z),
    ]
    for col in columns:
        assert module.contains(col)


def test_syzygies_of_complete_intersection_are_koszul():
    f, g = parse("x0^2 - x1*x2", R4), parse("x2^2 - x0*x3", R4)
    module = syzygies([f, g])
    assert module.verify()
    assert module.contains((g, -f))
    # nothing below the Koszul shift
    assert min(module.shifts) == 4


def test_syzygies_require_homogeneous_input():
    with pytest.raises(HomogeneityError):
        syzygies([X[0] + R4.one])


def test_syzygy_completeness_on_a_transformed_ideal():
    from hilbcomp.classify import normal_form_ideal
    from hilbcomp.ideals import random_linear_change

    moved = random_linear_change(normal_form_ideal(3, "IV"), seed=6)
    gens = list(moved.generators)
    module = syzygies(gens)
    assert module.verify()
    for shift in (3, 4):
        for row in brute_force_syzygies(gens, shift):
            assert module.contains(row), shift


PACKING_ORDERS = [LEX, GREVLEX, elimination_order([0]), elimination_order([2, 4])]


@pytest.mark.parametrize("width", [1, 3, 6, 9])
@pytest.mark.parametrize("order", PACKING_ORDERS, ids=["lex", "grevlex", "block0", "block24"])
def test_packed_monomials_agree_with_exponent_tuples(order, width):
    pk = _packing(order, width)
    key = PolyRing(width).with_order(order).sort_key()
    rng = random.Random(f"packing:{order}:{width}")
    big = _MASK // (2 * width)   # a product of two such monomials still fits

    def mono():
        return tuple(rng.choice((0, 0, 1, 2, rng.randint(0, 9), rng.randint(0, big)))
                     for _ in range(width))

    monos = [mono() for _ in range(60)]
    monos += [(0,) * width, (_MASK,) + (0,) * (width - 1), (0,) * (width - 1) + (_MASK,)]
    packed = [pk.pack(m) for m in monos]
    for m, p in zip(monos, packed):
        assert pk.unpack(p) == m
        assert p & pk.guards == 0
    for _ in range(400):
        i, j = rng.randrange(len(monos)), rng.randrange(len(monos))
        a, b, pa, pb = monos[i], monos[j], packed[i], packed[j]
        assert (pa < pb) == (key(a) < key(b))
        assert (pa == pb) == (a == b)
        assert pk.divides(pa, pb) == _divides(a, b)
        if max(a) <= big and max(b) <= big:
            assert pa + pb - pk.base == pk.pack(_mono_mul(a, b))
        if _divides(a, b):
            assert pb - pa + pk.base == pk.pack(tuple(y - x for x, y in zip(a, b)))

    # one field pushed past its width: by packing, and by a product
    past = (_MASK + 1,) + (0,) * (width - 1)
    with pytest.raises(MonomialOverflowError):
        pk.pack(past)
    with pytest.raises(MonomialOverflowError):
        pk.pack((-1,) + (0,) * (width - 1))
    top = pk.pack((_MASK,) + (0,) * (width - 1))
    one = pk.pack((1,) + (0,) * (width - 1))
    assert (top + one - pk.base) & pk.guards
    if width > 1 and order.kind == "grevlex":
        # each exponent fits, the total degree does not
        with pytest.raises(MonomialOverflowError):
            pk.pack((_MASK, 1) + (0,) * (width - 2))


def _random_poly(ring, rng, degrees=(1, 2, 3), terms=6):
    monos = [m for d in degrees for m in monomials_of_degree(ring.width, d)]
    return ring.from_dict({
        rng.choice(monos): Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(terms)
    })


@pytest.mark.parametrize(
    "order", [GREVLEX, LEX, elimination_order([0, 2])], ids=["grevlex", "lex", "block"]
)
def test_reduction_agrees_with_the_tuple_oracle_on_moved_normal_forms(order):
    rng = random.Random(f"tuple-oracle:{order.kind}")
    for n in range(3, 7):
        for kind in ("I", "II", "III", "IV"):
            I = random_linear_change(normal_form_ideal(n, kind), rng.randrange(10**6))
            ring = I.ring.with_order(order)
            gens = [g.convert(ring) for g in I.generators]
            gb = buchberger(gens, order, transform=False)
            f = _random_poly(ring, rng)
            for g in gens[:2]:
                f = f + g * _random_poly(ring, rng, degrees=(0, 1), terms=3)
            r, q = gb.reduce(f, want_quotients=True)
            r0, q0 = reduce_by_tuples(f, gb.elements)
            assert r == r0 and q == q0
            assert not r.is_zero() and any(not p.is_zero() for p in q)

            g = gens[rng.randrange(len(gens))]
            h = _random_poly(ring, rng)
            rem, (quot,) = reduce_by_tuples(g * h, [g])
            assert rem.is_zero() and quot == h
            assert exact_divide(g * h, g) == quot


def test_exponents_past_the_field_width_raise_a_typed_error():
    ring = PolyRing(2)
    x0, x1 = ring.x(0), ring.x(1)
    assert issubclass(MonomialOverflowError, KernelError)
    # on the way in
    with pytest.raises(MonomialOverflowError):
        buchberger([x0 ** (_MASK + 1) - x1, x0 * x1])
    # inside the reduction: x0^2 -> x0*x1^MASK -> x1^(2*MASK) under lex
    lex = ring.with_order(LEX)
    g = x0.convert(lex) - x1.convert(lex) ** _MASK
    with pytest.raises(MonomialOverflowError):
        buchberger([g, x0.convert(lex) ** 2])
    # in a packed product built outside the division
    pk = _packing(GREVLEX, 2)
    big, _ = _int_terms(x1 ** _MASK, pk)
    with pytest.raises(MonomialOverflowError):
        _add_product({}, {pk.pack((0, 1)): 1}, big, pk)
    # the largest exponent a field holds still computes exactly
    gb = buchberger([x0 ** _MASK - x1, x0 * x1], LEX, transform=False)
    assert [str(p) for p in gb.elements] == [f"x0^{_MASK} - x1", "x0*x1", "x1^2"]


_SYZYGY_CASES = [
    (f"{label}-P{n}", lambda n=n, label=label: random_linear_change(
        normal_form_ideal(n, label), seed=7 * n + len(label)).generators)
    for n in (3, 4, 5)
    for label in ("I", "II", "III", "IV")
] + [(f"lambda-n{n}", lambda n=n: fixtures.lambda_generators(n)) for n in (3, 4, 5)]


@pytest.mark.parametrize("name,build", _SYZYGY_CASES, ids=[c[0] for c in _SYZYGY_CASES])
def test_packed_syzygy_check_agrees_with_polynomial_oracle(name, build):
    module = syzygies(list(build()))
    ring, target = module.ring, module.target
    degrees = tuple(f.total_degree() for f in target)
    pk = _packing(ring.order, ring.width)
    assert module.verify() and syzygy_verify_by_polynomials(module)
    for row, shift in zip(module.generators, module.shifts):
        # the published rows are primitive integer rows, so packing keeps them
        packed = _pack_row(row, pk)
        want = row_coordinates_by_products(ring, target, row, shift)
        got = _row_coordinates(ring, degrees, packed, shift)
        assert densify(got, len(want)) == want
        for m in monomials_of_degree(ring.width, 1):
            want = row_coordinates_by_products(ring, target, row, shift + 1, m)
            got = _row_coordinates(ring, degrees, packed, shift + 1, pk.pack(m))
            assert densify(got, len(want)) == want

    rng = random.Random(f"syzygy-perturb:{name}")
    i = rng.randrange(len(module.generators))
    row, shift = module.generators[i], module.shifts[i]
    j = rng.choice([j for j, s in enumerate(row) if s])
    mono = rng.choice(monomials_of_degree(ring.width, shift - target[j].total_degree()))
    for entry in (row[j].scale(2), row[j] + ring.from_dict({mono: 1})):
        bad_row = row[:j] + (entry,) + row[j + 1:]
        bad = dataclasses.replace(
            module, generators=module.generators[:i] + (bad_row,) + module.generators[i + 1:]
        )
        assert not bad.verify()
        assert not syzygy_verify_by_polynomials(bad)
        want = row_coordinates_by_products(ring, target, bad_row, shift)
        got = _row_coordinates(ring, degrees, _pack_row(bad_row, pk), shift)
        assert densify(got, len(want)) == want


@pytest.mark.parametrize("name", ["moved_IV_n4", "random_grevlex_3"])
def test_syzygies_certify_the_rows_they_publish(name, monkeypatch):
    # the lifted rows are pruned while packed and only the kept ones become
    # Polynomials; verify() reads those published rows, so a coefficient
    # changed on the way out is caught, not hidden by the packed lift
    from hilbcomp import groebner

    data = Path(__file__).parent / "data"
    gens = list(loads_ideal((data / f"{name}.ideal").read_text()).generators)
    real = groebner._row_polys
    published = []
    monkeypatch.setattr(
        groebner, "_row_polys", lambda ring, row: published.append(row) or real(ring, row)
    )
    module = syzygies(gens)
    assert len(published) == len(module.generators)

    def corrupted(ring, row):
        # doubles one coefficient of the first published row
        polys = real(ring, row)
        published.append(row)
        if len(published) > 1:
            return polys
        j = next(j for j, p in enumerate(polys) if p)
        (m, c), *rest = polys[j].terms
        return polys[:j] + (Polynomial(ring, ((m, 2 * c), *rest)),) + polys[j + 1:]

    published.clear()
    monkeypatch.setattr(groebner, "_row_polys", corrupted)
    with pytest.raises(AssertionError, match="inexact relation"):
        syzygies(gens)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_moved_syzygy_rows_are_byte_identical_to_the_golden_files(label, n):
    # moved_<label>_n<n>.ideal is the normal form after a seeded coordinate
    # change; the .syzygies.txt beside it holds str() of every row of
    # syzygies(...), one row per line, as generated before the syzygy
    # dedupe and the second ring map were removed, and is never
    # regenerated to make a change pass
    data = Path(__file__).parent / "data"
    ideal = loads_ideal((data / f"moved_{label}_n{n}.ideal").read_text())
    rows = syzygies(list(ideal.generators)).generators
    text = "".join(" ; ".join(map(str, row)) + "\n" for row in rows)
    assert text.encode() == (data / f"moved_{label}_n{n}.syzygies.txt").read_bytes()


def _rows_text(rows):
    return "".join(" ; ".join(map(str, row)) + "\n" for row in rows)


def test_lex_syzygies_are_byte_identical_to_the_golden_file():
    # the three quadrics of quadrics_lex.transform.txt, whose basis is built
    # by S-pair reductions, so the Schreyer lift goes through a transform of
    # non-constant rows; the golden was written before the lift became an
    # integer computation and is never regenerated to make a change pass
    ring = PolyRing(4, order=LEX)
    rows = syzygies(quads(*CI_QUADRICS, ring=ring)).generators
    data = Path(__file__).parent / "data"
    assert _rows_text(rows).encode() == (data / "quadrics_lex.syzygies.txt").read_bytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_random_grevlex_syzygies_are_byte_identical_to_the_golden_files(k):
    # random_grevlex_<k>.ideal holds seeded random homogeneous generators in
    # four variables with rational coefficients; their grevlex bases take
    # S-pair reductions (transform rows of positive degree) and the
    # .syzygies.txt beside each was written before the lift became an
    # integer computation
    data = Path(__file__).parent / "data"
    ideal = loads_ideal((data / f"random_grevlex_{k}.ideal").read_text())
    rows = syzygies(list(ideal.generators)).generators
    assert _rows_text(rows).encode() == (data / f"random_grevlex_{k}.syzygies.txt").read_bytes()


def _transform_text(gb):
    return "".join(" ; ".join(map(str, row)) + "\n" for row in gb.transform)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_moved_transforms_are_byte_identical_to_the_golden_files(label, n):
    # moved_<label>_n<n>.transform.txt holds str() of every row of the
    # transform that buchberger records, one row per line, as generated
    # before the pair bookkeeping was folded into one record per pair; it
    # is never regenerated to make a change pass.  These inputs are already
    # grevlex bases up to interreduction, so the rows are constants.
    data = Path(__file__).parent / "data"
    ideal = loads_ideal((data / f"moved_{label}_n{n}.ideal").read_text())
    gb = buchberger(list(ideal.generators), transform=True)
    assert _transform_text(gb).encode() == (data / f"moved_{label}_n{n}.transform.txt").read_bytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_random_grevlex_transforms_are_byte_identical_to_the_golden_files(k):
    # rational generators whose bases grow by S-pair reductions (3-4
    # generators to 6-11 elements, rows up to degree five), so the rows
    # carry fractions and pass through the content division of each new
    # element; the .transform.txt beside each was written before the
    # transform was tracked in packed dicts and is never regenerated
    data = Path(__file__).parent / "data"
    ideal = loads_ideal((data / f"random_grevlex_{k}.ideal").read_text())
    gb = buchberger(list(ideal.generators), transform=True)
    assert _transform_text(gb).encode() == (data / f"random_grevlex_{k}.transform.txt").read_bytes()


@pytest.mark.parametrize("name", ["moved_I_n5", "random_grevlex_2"])
def test_buchberger_tracks_the_transform_without_polynomial_arithmetic(name, monkeypatch):
    # the transform stays in packed dicts inside the engine: no Polynomial
    # product, sum, scaling or from_dict is made during the call
    data = Path(__file__).parent / "data"
    gens = list(loads_ideal((data / f"{name}.ideal").read_text()).generators)
    calls = []
    for cls, attr in [
        (Polynomial, "__mul__"),
        (Polynomial, "__add__"),
        (Polynomial, "scale"),
        (PolyRing, "from_dict"),
    ]:
        def counted(*args, _orig=getattr(cls, attr), _attr=attr, **kwargs):
            calls.append(_attr)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)
    gb = buchberger(gens, transform=True)
    assert calls == []
    monkeypatch.undo()
    assert transform_certificate(gb)


def test_lex_transform_through_s_pairs_is_byte_identical_to_the_golden_file():
    # the same pin on an input whose transform is built by S-pair reductions
    # (three quadrics grow to ten lex elements, rows up to degree six)
    gb = buchberger(quads(*CI_QUADRICS), LEX, transform=True)
    data = Path(__file__).parent / "data"
    assert _transform_text(gb).encode() == (data / "quadrics_lex.transform.txt").read_bytes()


def test_monomial_index_cache_is_bounded():
    bound = _monomial_index.cache_info().maxsize
    assert bound is not None
    for d in range(bound + 10):
        _monomial_index(GREVLEX, 1, d)
    assert _monomial_index.cache_info().currsize <= bound


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_interreduce_turns_any_groebner_basis_into_the_reduced_one(k):
    # the reduced basis, rescaled, with a multiple of a lower element added
    # to each tail and padded with multiples of its elements, is still a
    # Groebner basis; interreduce drops the redundant leads and reduces the
    # tails back to the reduced basis itself
    data = Path(__file__).parent / "data"
    ideal = loads_ideal((data / f"random_grevlex_{k}.ideal").read_text())
    elements = buchberger(list(ideal.generators), transform=False).elements
    key = ideal.ring.sort_key()
    x = ideal.ring.variables()
    padded = [elements[0] * x[1], elements[-1] * x[2] * Fraction(5)]
    perturbed = 0
    for g in elements:
        lower = [
            h * v for h in elements for v in x
            if h.total_degree() + 1 == g.total_degree()
            and key((h * v).lead_monomial()) < key(g.lead_monomial())
        ]
        padded.append(g * Fraction(-3, 7) + (lower[0] if lower else 0))
        perturbed += bool(lower)
    assert perturbed
    random.Random(k).shuffle(padded)
    assert interreduce(padded) == elements
