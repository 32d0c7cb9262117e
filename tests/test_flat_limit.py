from fractions import Fraction

import pytest

from hilbcomp import fixtures, flat_limit, hilbert, ideals
from hilbcomp.classify import normal_form_ideal
from hilbcomp.errors import HomogeneityError, RingMismatchError
from hilbcomp.flat_limit import (
    SAMPLE_POINTS,
    Family,
    _special_fiber,
    _specialize,
    fiber,
    flatness_probe,
    limit_ideal,
)
from hilbcomp.groebner import buchberger
from hilbcomp.hilbert import hilbert_series, pair_hilbert_polynomial
from hilbcomp.ideals import (
    Ideal,
    ideal_product,
    intersect,
    irrelevant_ideal,
    random_linear_change,
    saturate,
)
from hilbcomp.rings import PolyRing, parse

from oracles import (
    contains_ideal,
    fiber_polynomials_by_specialization,
    pencil_planar_double,
    saturate_by_quotients,
    specialize_by_substitution,
)

FAMILIES = ("embedded", "double", "quadric_union", "substitution")

Rt = PolyRing(4, has_param=True)
R = PolyRing(4)


def tparse(*texts):
    return [parse(t, Rt) for t in texts]


def test_family_requires_parameter_ring():
    with pytest.raises(ValueError):
        Family(Ideal(R, [R.x(0)]))


def test_family_requires_x_homogeneous_generators():
    with pytest.raises(HomogeneityError):
        Family(Ideal(Rt, tparse("x0 + x1^2")))
    # inhomogeneous in t alone is fine: t carries x-degree zero
    Family(Ideal(Rt, tparse("x0 + t*x1", "t*x2 - x3")))


def test_limit_of_pair_moving_into_a_hyperplane():
    fam = fixtures.get("family_embedded_limit_n3").payload
    assert limit_ideal(fam) == Ideal(R, [parse(t, R) for t in
                                         ("x0^2", "x0*x1", "x0*x2", "x1*x2")])


def test_limit_of_pair_collapsing_to_double_structure():
    fam = fixtures.get("family_double_limit_n3").payload
    assert limit_ideal(fam) == Ideal(R, [parse(t, R) for t in
                                         ("x0^2", "x0*x1", "x1^2", "x0*x3 - x1*x2")])


def test_limit_of_quadric_union_family():
    fam = fixtures.get("family_quadric_union_limit_n3").payload
    assert limit_ideal(fam) == normal_form_ideal(3, "III")


def quadric_union_product(n):
    """Product-presentation variant of the quadric-union family (the
    6-generator form); agrees with the union only for n = 3."""
    a, b = fixtures.quadric_union_factors(n)
    return Family(ideal_product(a, b))


def test_quadric_union_product_presentation_agrees_only_at_n3():
    prod3 = quadric_union_product(3)
    assert limit_ideal(prod3) == normal_form_ideal(3, "III")
    assert flatness_probe(prod3).flat
    # from n=4 on the product picks up an embedded point where the two
    # pieces meet, so its fibers leave the reference Hilbert polynomial
    prod4 = quadric_union_product(4)
    hp = hilbert_series(fiber(prod4, 1)).hilbert_polynomial
    assert hp != pair_hilbert_polynomial(4)
    assert hp == pair_hilbert_polynomial(4) + 1
    good4 = fixtures.get("family_quadric_union_limit_n4").payload
    assert limit_ideal(good4) == normal_form_ideal(4, "III")


def test_limit_of_substitution_family_is_presentation_ideal():
    fam = fixtures.get("family_substitution_limit_n3").payload
    got = limit_ideal(fam)
    assert got == Ideal(R, fixtures.lambda_generators(3))
    # same underlying scheme type as the planar-double normal form
    from hilbcomp.classify import classify

    assert classify(got, seed=2).label == "IV"


def test_limits_are_saturated():
    for name in ("embedded", "double", "quadric_union", "substitution"):
        fam = fixtures.get(f"family_{name}_limit_n3").payload
        lim = limit_ideal(fam)
        assert saturate(lim, irrelevant_ideal(R)) == lim


def test_fiber_at_one_is_the_unshifted_pair():
    fam = fixtures.get("family_embedded_limit_n3").payload
    got = fiber(fam, 1)
    want = intersect(
        Ideal(R, [R.x(0), R.x(1)]),
        Ideal(R, [R.x(0) + R.x(3), R.x(2)]),
    )
    assert got == want


def test_pencil_fibers():
    pencil = pencil_planar_double(3)
    at1 = fiber(pencil, 1)
    assert at1 == normal_form_ideal(3, "II")
    at0 = fiber(pencil, 0)
    assert at0 == Ideal(R, [parse(t, R) for t in ("x0^2", "x0*x1", "x1^2", "x1*x2")])
    assert hilbert_series(at0).hilbert_polynomial == pair_hilbert_polynomial(3)
    # mirrored chart covers the other end of the pencil
    mirror = pencil_planar_double(3, mirror=True)
    other_end = limit_ideal(mirror)
    assert hilbert_series(other_end).hilbert_polynomial == pair_hilbert_polynomial(3)


def test_flatness_probe_passes_for_the_degeneration_families():
    for name in ("embedded", "double", "quadric_union", "substitution"):
        fam = fixtures.get(f"family_{name}_limit_n3").payload
        report = flatness_probe(fam)
        assert report.flat, (name, report)
        assert report.limit_polynomial == pair_hilbert_polynomial(3)
        assert report.sample_points == (Fraction(1), Fraction(2), Fraction(1, 3))
        assert report.sample_polynomials == tuple(
            hilbert_series(fiber(fam, t0)).hilbert_polynomial for t0 in report.sample_points
        ), name


def test_flatness_probe_pencil_and_chart_note():
    pencil = pencil_planar_double(3)
    report = flatness_probe(pencil, samples=4)
    assert report.flat
    assert "chart" in report.to_json()


def test_flatness_probe_detects_constructed_jump():
    # the fiber at t=1 drops a generator, so sampled fibers disagree
    bad = Family(Ideal(Rt, tparse("x0 - t*x0", "x1")))
    report = flatness_probe(bad)
    assert not report.flat
    assert Fraction(1) in report.mismatched_points
    assert report.sample_polynomials == tuple(
        hilbert_series(fiber(bad, t0)).hilbert_polynomial for t0 in report.sample_points
    )


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("moved", [False, True])
def test_flatness_probe_matches_the_specialization_oracle(n, moved):
    # the fibers read off the block basis against one basis per sample point
    for k, name in enumerate(FAMILIES):
        fam = fixtures.get(f"family_{name}_limit_n{n}").payload
        if moved:
            fam = Family(random_linear_change(fam.total_ideal, seed=400 * n + k))
        for samples in (3, 8):
            report = flatness_probe(fam, samples=samples)
            assert report.flat, (name, samples)
            assert report.sample_polynomials == fiber_polynomials_by_specialization(
                fam, SAMPLE_POINTS[:samples]
            ), (name, samples)


def test_flatness_probe_specializes_only_where_a_leading_coefficient_vanishes(monkeypatch):
    # the block basis is itself: the lead x0 of (t - 1)*x0 + x1 has leading
    # coefficient t - 1, so t = 1 is a candidate; its fiber (x1, x2) is a
    # line like every other fiber, so the family is flat
    fam = Family(Ideal(Rt, tparse("t*x0 - x0 + x1", "x2")))
    points = []
    original = flat_limit._specialize
    monkeypatch.setattr(
        flat_limit, "_specialize", lambda I, t0: points.append(t0) or original(I, t0)
    )
    report = flatness_probe(fam)
    assert report.flat
    assert points == [Fraction(1)]
    assert report.sample_polynomials == fiber_polynomials_by_specialization(
        fam, report.sample_points
    )


def test_constructed_jump_is_specialized_at_one_and_not_flat(monkeypatch):
    # the minimal block basis of (x0 - t*x0, x1) leads with x0, of leading
    # coefficient 1 - t: t = 1 is the one candidate, and its fiber (x1)
    # has a larger Hilbert polynomial than the limit (x0, x1)
    bad = Family(Ideal(Rt, tparse("x0 - t*x0", "x1")))
    points = []
    original = flat_limit._specialize
    monkeypatch.setattr(
        flat_limit, "_specialize", lambda I, t0: points.append(t0) or original(I, t0)
    )
    report = flatness_probe(bad)
    assert points == [Fraction(1)]
    assert not report.flat and report.mismatched_points == (Fraction(1),)


@pytest.mark.parametrize("name", FAMILIES)
def test_limit_and_probe_read_their_bases_unreduced(name, monkeypatch):
    # the special fiber and the sample fibers read the packed minimal
    # entries of their Buchberger runs; neither basis is ever reduced
    total = fixtures.get(f"family_{name}_limit_n5").payload.total_ideal
    fam = Family(random_linear_change(total, seed=7))
    bases = []
    original = flat_limit.buchberger
    monkeypatch.setattr(
        flat_limit, "buchberger", lambda *a, **k: bases.append(original(*a, **k)) or bases[-1]
    )
    assert flatness_probe(fam).flat
    assert [gb.ring.order.kind for gb in bases] == ["grevlex", "block"]
    assert not any("elements" in vars(gb) for gb in bases)


def test_probe_argument_validation():
    fam = fixtures.get("family_embedded_limit_n3").payload
    with pytest.raises(ValueError):
        flatness_probe(fam, samples=1)


def test_limit_rejects_empty_family():
    with pytest.raises(ValueError):
        limit_ideal(Family(Ideal(Rt, [])))


def test_limit_is_built_once_per_family(monkeypatch):
    # the probe reuses the limit its caller built and saturates no fiber:
    # the one limit computation builds one homogenized grevlex basis and
    # makes the one saturation by the irrelevant ideal, and the probe builds
    # exactly one block-order basis of the family
    kinds, saturations = [], []
    original_buchberger, original_saturate = flat_limit.buchberger, flat_limit.saturate

    def counting_buchberger(*a, **k):
        kinds.append((a[1] if len(a) > 1 else k["order"]).kind)
        return original_buchberger(*a, **k)

    monkeypatch.setattr(flat_limit, "buchberger", counting_buchberger)
    monkeypatch.setattr(
        flat_limit, "saturate", lambda I, J: saturations.append(1) or original_saturate(I, J)
    )
    fam = fixtures.get("family_double_limit_n4").payload
    assert limit_ideal(fam) is limit_ideal(fam)
    assert kinds == ["grevlex"]
    assert flatness_probe(fam).flat
    assert kinds == ["grevlex", "block"]
    assert len(saturations) == 1
    # an equal family built afresh computes its own limit, equal to the first
    again = fixtures.get("family_double_limit_n4").payload
    assert again == fam and limit_ideal(again) == limit_ideal(fam)
    assert kinds == ["grevlex", "block", "grevlex"]
    # errors are not kept: the empty family raises on every call
    empty = Family(Ideal(Rt, []))
    for _ in range(2):
        with pytest.raises(ValueError):
            limit_ideal(empty)


SPECIAL_FIBER_CASES = (
    [(name, n, moved) for n in (3, 4, 5, 6) for name in FAMILIES for moved in (False, True)]
    + [(chart, 3, False) for chart in ("pencil_planar_double", "pencil_planar_double_mirror")]
    + [("jump", 3, False), ("t_powers", 3, False)]
)


def special_fiber_case(name, n, moved):
    if name == "jump":  # not flat: the fiber at t = 1 drops x0
        return Ideal(Rt, tparse("x0 - t*x0", "x1"))
    if name == "t_powers":  # a t^2 term and a generator divisible by t
        return Ideal(Rt, tparse("t*x0^2", "t^2*x1*x2 + x0*x1", "x2*x3 - t*x0*x3"))
    if name in FAMILIES:
        total = fixtures.get(f"family_{name}_limit_n{n}").payload.total_ideal
        return random_linear_change(total, seed=300 * n + FAMILIES.index(name)) if moved else total
    return pencil_planar_double(n, mirror=name.endswith("mirror")).total_ideal


@pytest.mark.parametrize("name,n,moved", SPECIAL_FIBER_CASES)
def test_special_fiber_matches_the_elimination_oracle(name, n, moved):
    # Bayer's t-saturation of the homogenized basis against the quotient
    # loop's t-saturation specialized at t = 0, as reduced grevlex bases
    total = special_fiber_case(name, n, moved)
    got = _special_fiber(total)
    want = _specialize(saturate_by_quotients(total, Ideal(total.ring, [total.ring.t])), 0)
    assert got.ring == want.ring
    seeded = [g.terms for g in got.groebner_basis().elements]
    assert seeded == [g.terms for g in want.groebner_basis().elements]
    # the seeded basis is the one Buchberger builds from the generators
    assert seeded == [g.terms for g in buchberger(got.generators, transform=False).elements]


def test_limit_rejects_auxiliary_variables():
    ring = Rt.with_aux(1)
    with pytest.raises(RingMismatchError):
        limit_ideal(Family(Ideal(ring, [ring.x(0) + ring.t * ring.x(1)])))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("moved", [False, True])
def test_specialize_matches_substitution_oracle(n, moved):
    points = (0, 1, 2, Fraction(1, 3), Fraction(-5, 7))
    for k, name in enumerate(FAMILIES):
        total = fixtures.get(f"family_{name}_limit_n{n}").payload.total_ideal
        if moved:
            total = random_linear_change(total, seed=200 * n + k)
        for t0 in points:
            got = _specialize(total, t0)
            want = specialize_by_substitution(total, t0)
            assert got.ring == want.ring
            assert [g.terms for g in got.generators] == [g.terms for g in want.generators], (name, t0)


def test_specialize_rejects_auxiliary_variables():
    ring = Rt.with_aux(1)
    with pytest.raises(RingMismatchError):
        _specialize(Ideal(ring, [ring.x(0) + ring.t * ring.x(1)]), 1)


@pytest.mark.parametrize("n", [4, 5])
def test_families_scale_with_ambient_dimension(n):
    base = PolyRing(n + 1)
    for name, label in (
        ("embedded", "III"),
        ("double", "II"),
        ("quadric_union", "III"),
    ):
        fam = fixtures.get(f"family_{name}_limit_n{n}").payload
        assert limit_ideal(fam) == normal_form_ideal(n, label)
    fam = fixtures.get(f"family_substitution_limit_n{n}").payload
    assert limit_ideal(fam) == Ideal(base, fixtures.lambda_generators(n))


def test_naive_fiber_is_contained_in_the_limit():
    # substituting t = 0 before saturating out t can only give a smaller
    # ideal: the t-flat closure contains the naive specialization
    for name in ("embedded", "double", "quadric_union", "substitution"):
        fam = fixtures.get(f"family_{name}_limit_n3").payload
        naive = fiber(fam, 0)
        limit = limit_ideal(fam)
        assert contains_ideal(limit, naive), name
    pencil = pencil_planar_double(3)
    assert contains_ideal(limit_ideal(pencil), fiber(pencil, 0))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("moved", [False, True])
def test_saturation_by_m_matches_the_quotient_loop_on_every_fiber(n, moved, monkeypatch):
    # the grevlex read-off must agree with the quotient loop on the special
    # fiber and on sample fibers; in moved coordinates x_n is general for
    # every fiber, so the Hilbert-polynomial check accepts without the
    # principal meet
    cases = []
    for k, name in enumerate(("embedded", "double", "quadric_union", "substitution")):
        total = fixtures.get(f"family_{name}_limit_n{n}").payload.total_ideal
        if moved:
            total = random_linear_change(total, seed=100 * n + k)
        ring = total.ring
        special = _specialize(saturate_by_quotients(total, Ideal(ring, [ring.t])), 0)
        m = irrelevant_ideal(special.ring)
        for X in [special] + [_specialize(total, t0) for t0 in SAMPLE_POINTS[:2]]:
            cases.append((X, m, saturate_by_quotients(X, m)))
    principal_calls = []
    original = ideals._saturate_principal
    monkeypatch.setattr(
        ideals, "_saturate_principal", lambda A, g: principal_calls.append(g) or original(A, g)
    )
    for X, m, want in cases:
        got = saturate(X, m)
        assert [str(g) for g in got.generators] == [str(g) for g in want.generators]
    if moved:
        assert not principal_calls


@pytest.mark.parametrize("torsion", [False, True])
def test_flatness_probe_computes_each_series_once(torsion, monkeypatch):
    # the limit keeps the Hilbert data its saturation computed.  When x_n
    # divides no lead of the special fiber's basis (the fixture), the limit
    # is that fiber and no series is compared, so the probe computes one
    # series for the limit and one for the x-leads of its block basis, which
    # serves every sample point where no leading coefficient vanishes; the
    # x-leads are read as a monomial ideal, with no basis of their own.  When
    # the special fiber x0 * m has m-torsion, the saturation certifies the
    # candidate (x0) against the fiber, and the limit is that candidate with
    # its series
    computed = []
    leads = []
    original = hilbert._initial_monomials
    original_data = flat_limit.hilbert_data
    for samples in (3, 8):
        if torsion:
            fam = Family(Ideal(Rt, tparse("x0^2 + t*x0*x1", "x0*x1", "x0*x2", "x0*x3")))
        else:
            fam = fixtures.get("family_embedded_limit_n3").payload
        hilbert_series(irrelevant_ideal(fam.base_ring()))
        special = _special_fiber(fam.total_ideal)
        assert torsion == any(g.lead_monomial()[-1] for g in special.groebner_basis().elements)
        computed.clear()
        leads.clear()
        monkeypatch.setattr(
            hilbert, "_initial_monomials", lambda I: computed.append(I) or original(I)
        )
        monkeypatch.setattr(
            flat_limit, "hilbert_data", lambda *a: leads.append(a) or original_data(*a)
        )
        report = flatness_probe(fam, samples=samples)
        monkeypatch.undo()
        assert report.flat
        assert len(report.sample_points) == samples
        assert len(computed) == (2 if torsion else 1)
        assert len(leads) == 1
        if torsion:
            assert limit_ideal(fam) == Ideal(R, [R.x(0)])
