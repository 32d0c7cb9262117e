import dataclasses
import importlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

from hilbcomp import fixtures, groebner, ideals
from hilbcomp.classify import (
    _colon_data,
    _complete_intersection,
    _essential_quadrics,
    _generic_element,
    _link,
    classify,
    equidimensional_hull,
    generic_slice_reduced,
    normal_form_ideal,
)
from hilbcomp.errors import ClassificationError, RetriesExhaustedError
from hilbcomp.flat_limit import limit_ideal
from hilbcomp.hilbert import HilbertData, hilbert_data, hilbert_series, pair_hilbert_polynomial
from hilbcomp.ideals import (
    Ideal,
    dumps_ideal,
    intersect,
    irrelevant_ideal,
    load_ideal,
    random_invertible_matrix,
    random_linear_change,
    saturate,
)
from hilbcomp.rings import PolyRing, parse
from hilbcomp.tangent import hom_degree_zero

from oracles import (
    contains_ideal,
    essential_form_by_substitution,
    hull_by_quotients,
    quotient_by_division,
    reducedness_by_components,
)

# the package exports the classify function under the module's name
classify_module = importlib.import_module("hilbcomp.classify")

R = PolyRing(4)

DATA = Path(__file__).parent / "data"
CLASSIFY_GOLDEN = DATA / "classify_moved.json"


def I(*texts, ring=R):
    return Ideal(ring, [parse(t, ring) for t in texts])


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_normal_forms_classify_as_themselves(n, label):
    result = classify(normal_form_ideal(n, label), seed=13)
    assert result.label == label


def test_evidence_table():
    assert classify(normal_form_ideal(3, "I")).evidence == (False, True)
    assert classify(normal_form_ideal(3, "II")).evidence == (False, False)
    assert classify(normal_form_ideal(3, "III")).evidence == (True, True)
    assert classify(normal_form_ideal(3, "IV")).evidence == (True, False)


def test_hull_of_embedded_pair():
    hull = equidimensional_hull(normal_form_ideal(3, "III"), seed=5)
    assert hull == I("x0", "x1*x2")


def test_hull_of_planar_double():
    hull = equidimensional_hull(normal_form_ideal(3, "IV"), seed=5)
    assert hull == I("x0 - x1", "x0^2")


def test_hull_of_unmixed_ideals_is_identity():
    for label in ("I", "II"):
        base = normal_form_ideal(3, label)
        assert equidimensional_hull(base, seed=5) == base


def test_hull_idempotent_and_contains():
    for label in ("I", "II", "III", "IV"):
        base = normal_form_ideal(4, label)
        hull = equidimensional_hull(base, seed=3)
        assert contains_ideal(hull, base)
        assert equidimensional_hull(hull, seed=4) == hull
        assert (hull == base) == (label in ("I", "II"))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_linked_hull_equals_hull_by_quotients(n, label):
    for seed in (1, 2):
        moved = random_linear_change(normal_form_ideal(n, label), seed=10 * n + seed)
        ci, _ = _complete_intersection(moved, random.Random(f"hull:{seed}"))
        assert equidimensional_hull(moved, seed=seed) == hull_by_quotients(ci, moved)


def _count_colon_data(monkeypatch):
    """Record the element of every `_colon_data` call: one per drawn h."""
    drawn = []
    real = classify_module._colon_data

    def spy(ci, h):
        drawn.append(h)
        return real(ci, h)

    monkeypatch.setattr(classify_module, "_colon_data", spy)
    return drawn


def test_link_falls_back_when_the_degree_certificate_fails(monkeypatch):
    # the name predates the redraws, when two rejected draws fell back to a
    # colon by elimination.  Every element h of ci gives ci : h = (1):
    # dimension -1 and degree 0, never the linked degree e(ci) - e(ci) = 0
    # in dimension n - 2, so all five draws are rejected
    ci, _ = _complete_intersection(normal_form_ideal(4, "I"), random.Random("hull:0"))
    drawn = _count_colon_data(monkeypatch)
    with pytest.raises(RetriesExhaustedError, match="^no linking element found in 5 attempts$"):
        _link(ci, ci, random.Random(5))
    assert len(drawn) == 5


def test_link_rejects_a_colon_of_the_wrong_degree(monkeypatch):
    # the name predates the redraws.  ci = (x0*x2, x1*x3) is the four planes
    # (x0,x1), (x0,x3), (x1,x2), (x2,x3); J is the first and last, so ci : J
    # is the middle two, of degree 2.  h = x0*x3 lies in J but only off
    # (x1,x2), so ci : h is that one plane: dimension n - 2, degree 1, and
    # the gate must refuse it.  x0*x3 + x1*x2 lies off both middle planes
    ci = I("x0*x2", "x1*x3")
    J = I("x0*x2", "x0*x3", "x1*x2", "x1*x3")
    draws = iter(["x0*x3", "x0*x3 + x1*x2"])
    monkeypatch.setattr(classify_module, "_generic_element", lambda J, rng: parse(next(draws), R))
    drawn = _count_colon_data(monkeypatch)
    assert _link(ci, J, random.Random(0)) == intersect(I("x0", "x3"), I("x1", "x2"))
    assert [str(h) for h in drawn] == ["x0*x3", "x1*x2 + x0*x3"]
    monkeypatch.setattr(classify_module, "_generic_element", lambda J, rng: parse("x0*x3", R))
    with pytest.raises(RetriesExhaustedError):
        _link(ci, J, random.Random(0))


def _assert_same_data(got, want):
    for f in dataclasses.fields(HilbertData):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_colon_data_equals_the_series_of_the_computed_colon(n, label):
    # both links of the hull, each h against a colon built afresh
    moved = random_linear_change(normal_form_ideal(n, label), seed=n + 80)
    rng = random.Random(f"colon-data:{n}:{label}")
    ci, _ = _complete_intersection(moved, rng)
    J = moved
    for _ in range(2):
        h = _generic_element(J, rng)
        colon = quotient_by_division(ci, h)
        _assert_same_data(_colon_data(ci, h), hilbert_series(Ideal(ci.ring, colon.generators)))
        J = colon


def test_colon_data_of_a_unit_colon_and_of_zero_divisors():
    ci = I("x0*x2", "x1*x3")
    cases = [
        "3*x0*x2 - x1*x3",              # inside ci: the unit colon, series 0
        "x0*x3",                        # a zero-divisor: ci : h == (x1, x2)
        "x0*x2*x1 + x0^2*x3",           # a cubic zero-divisor
        "x0^2 + x1^2 + x2^2 + x3^2",    # a nonzerodivisor: ci : h == ci
    ]
    for text in cases:
        h = parse(text, R)
        _assert_same_data(_colon_data(ci, h), hilbert_series(quotient_by_division(ci, h)))
    assert _colon_data(ci, parse(cases[0], R)).dimension == -1
    assert _colon_data(ci, parse(cases[3], R)) == hilbert_series(ci)


def test_colon_data_refuses_an_inexact_division(monkeypatch):
    # the series of ci + (h) must agree with ci's below deg h; a numerator
    # that does not is refused by an explicit raise, which python -O keeps
    ci, h = I("x0*x2", "x1*x3"), parse("x0*x3", R)
    real = classify_module.hilbert_series
    fake = hilbert_data(4, (1, 1))
    monkeypatch.setattr(classify_module, "hilbert_series", lambda J: real(J) if J is ci else fake)
    with pytest.raises(AssertionError, match="^colon series not divisible by T\\^d$"):
        _colon_data(ci, h)


def test_an_accepted_colon_carries_its_derived_data():
    moved = random_linear_change(normal_form_ideal(4, "III"), seed=3)
    rng = random.Random("carried")
    ci, _ = _complete_intersection(moved, rng)
    linked = _link(ci, moved, rng)
    assert linked._hilbert_cache is not None
    _assert_same_data(linked._hilbert_cache, hilbert_series(Ideal(ci.ring, linked.generators)))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_quadric_input_data_equals_its_hilbert_series(n, label):
    for seed in (1, 2):
        moved = random_linear_change(normal_form_ideal(n, label), seed=seed + 90)
        reduced, data = _essential_quadrics(moved)
        assert reduced.ring == PolyRing(4)
        _assert_same_data(data, hilbert_series(Ideal(moved.ring, moved.generators)))


# the messages as the full-ring route gave them, with the data read off a
# basis in all n + 1 variables
WRONG_POLYNOMIAL_QUADRICS = [
    (6, ("x0*x1", "x2*x3"), 3, "2/3*m^3 + 2*m^2 + 7/3*m + 1"),
    (7, ("x0^2", "x0*x1", "x1^2"), 4, "1/8*m^4 + 11/12*m^3 + 19/8*m^2 + 31/12*m + 1"),
    (5, ("x0*x2", "x0*x3", "x1*x2"), 5, "3/2*m^2 + 5/2*m + 1"),
]


@pytest.mark.parametrize("nv, gens, seed, got", WRONG_POLYNOMIAL_QUADRICS)
def test_quadric_input_with_the_wrong_polynomial_keeps_its_message(nv, gens, seed, got):
    X = random_linear_change(I(*gens, ring=PolyRing(nv)), seed=seed)
    assert _essential_quadrics(X)[0].ring.num_vars < nv
    message = f"Hilbert polynomial mismatch: not a point of the pair component (got {got})"
    with pytest.raises(ClassificationError, match=f"^{re.escape(message)}$"):
        classify(X, seed=1)


def _spy_on_bases(monkeypatch):
    """Record (order kind, number of x variables) of every buchberger run."""
    runs = []
    real = groebner.buchberger

    def spy(gens, order=None, **kwargs):
        gens = list(gens)
        kind = (order or gens[0].ring.order).kind
        runs.append((kind, gens[0].ring.num_vars))
        return real(gens, order, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(ideals, "buchberger", spy)
    return runs


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_unmixed_inputs_run_one_elimination_and_no_full_ring_basis(monkeypatch, n, label):
    # the name predates the certified colons and the closed-form type-III
    # gate: the hull's links are read off normal forms and the gate's meet
    # is l*P + (q), so no op builds a block-order basis
    moved = random_linear_change(normal_form_ideal(n, label), seed=n + 30)
    runs = _spy_on_bases(monkeypatch)
    assert classify(moved, seed=n).label == label
    assert [r for r in runs if r[0] == "block"] == []
    # every basis lives on the four essential variables
    assert all(nv == 4 for _, nv in runs)


def test_moved_normal_forms_never_fall_back(monkeypatch):
    # the name predates the redraws, when a link could fall back to an
    # elimination: no classify op builds a block-order basis
    runs = _spy_on_bases(monkeypatch)
    for label in ("I", "II", "III", "IV"):
        for seed in range(3):
            moved = random_linear_change(normal_form_ideal(5, label), seed=seed)
            assert classify(moved, seed=seed).label == label
    assert runs and [r for r in runs if r[0] == "block"] == []


def test_a_link_that_once_fell_back_is_redrawn(monkeypatch):
    # the one elimination fallback in `hilbcomp verify --seed 7 --deep`:
    # both draws of the second link were rejected.  Its fourth draw is
    # accepted now, after one draw for the first link
    moved = random_linear_change(normal_form_ideal(4, "III"), seed=7021)
    drawn = _count_colon_data(monkeypatch)
    runs = _spy_on_bases(monkeypatch)
    assert classify(moved, seed=7022).label == "III"
    assert len(drawn) == 5
    assert [r for r in runs if r[0] == "block"] == []


# points whose planes are not defined over QQ: two skew lines conjugate
# over QQ(sqrt 2), and two lines of a plane meeting in an embedded point,
# conjugate over QQ(sqrt 2) and over QQ(i)
GALOIS_CONJUGATE = [
    (("x0^2 - 2*x1^2", "x0*x2 - 2*x1*x3", "x0*x3 - x1*x2", "x2^2 - 2*x3^2"), "I"),
    (("x0^2", "x0*x1", "x0*x2", "x1^2 - 2*x2^2"), "III"),
    (("x0^2", "x0*x1", "x0*x2", "x1^2 + x2^2"), "III"),
]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("gens, label", GALOIS_CONJUGATE)
def test_galois_conjugate_points_keep_their_labels(n, gens, label):
    ideal = I(*gens, ring=PolyRing(n + 1))
    for J in (ideal, random_linear_change(ideal, seed=n + 60)):
        assert classify(J, seed=n).label == label


def test_slice_reducedness_on_hulls():
    assert generic_slice_reduced(normal_form_ideal(3, "I"))
    assert not generic_slice_reduced(normal_form_ideal(3, "II"))
    hull4 = equidimensional_hull(normal_form_ideal(3, "IV"), seed=2)
    assert not generic_slice_reduced(hull4)
    hull3 = equidimensional_hull(normal_form_ideal(3, "III"), seed=2)
    assert generic_slice_reduced(hull3)


# the prime components of each normal form's hull: two planes for I and
# III, and the one plane that carries the double structure for II and IV
COMPONENTS = {
    "I": [("x0", "x1"), ("x2", "x3")],
    "II": [("x0", "x1")],
    "III": [("x0", "x1"), ("x0", "x2")],
    "IV": [("x0", "x1")],
}


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_jacobian_reducedness_matches_the_component_certificates(n, label):
    # the full-ring hull of a moved normal form, against its moved
    # components; the III and IV hulls hold a linear generator
    ring = PolyRing(n + 1)
    matrix = random_invertible_matrix(ring, f"reduced:{label}:{n}")
    moved = random_linear_change(normal_form_ideal(n, label), None, matrix=matrix)
    primes = [
        random_linear_change(I(*gens, ring=ring), None, matrix=matrix)
        for gens in COMPONENTS[label]
    ]
    hull = equidimensional_hull(moved, seed=n)
    has_linear = any(g.total_degree() == 1 for g in hull.canonical_generators())
    assert has_linear == (label in ("III", "IV"))
    reduced = reducedness_by_components(hull, primes)
    assert reduced == (label in ("I", "III"))
    assert generic_slice_reduced(hull) == reduced


def test_generic_slice_reduced_requires_an_unmixed_degree_two_ideal():
    with pytest.raises(ClassificationError, match="unmixed degree-two ideal"):
        generic_slice_reduced(I("x0", "x1"))
    with pytest.raises(ClassificationError, match="unmixed degree-two ideal"):
        generic_slice_reduced(I("x0*x1"))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_rejected_complete_intersection_counts_as_a_retry(n):
    # at seed 55 the first complete-intersection draw for the III normal
    # form is rejected; retries counts only such draws
    assert classify(normal_form_ideal(n, "III"), seed=55).retries == 1


def test_slice_is_robust_against_adversarial_seeds():
    # seeds whose random streams once collided with the substitution matrix
    for seed in range(12):
        base = normal_form_ideal(3, "I")
        moved = random_linear_change(base, seed=seed)
        assert classify(moved, seed=seed).label == "I"


@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_classification_invariant_under_coordinate_change(label):
    for n in (3, 4):
        base = normal_form_ideal(n, label)
        for seed in (0, 1, 2):
            moved = random_linear_change(base, seed=seed * 11 + n)
            result = classify(moved, seed=seed)
            assert result.label == label, (n, label, seed)


def test_degeneration_diagram():
    for name, label in (
        ("embedded", "III"),
        ("double", "II"),
        ("quadric_union", "III"),
        ("substitution", "IV"),
    ):
        fam = fixtures.get(f"family_{name}_limit_n3").payload
        assert classify(limit_ideal(fam), seed=7).label == label


def test_wrong_hilbert_polynomial_is_an_error():
    with pytest.raises(ClassificationError):
        classify(I("x0", "x1"))  # a single plane
    with pytest.raises(ClassificationError):
        classify(I("x0*x1"))  # a quadric hypersurface


def test_other_component_points_surface_as_errors():
    # a degenerate quadric union a separate codimension-three subspace has
    # the reference Hilbert polynomial but its residual part is a component,
    # not an embedded structure: classify must refuse, not guess
    Rt = PolyRing(4, has_param=True)
    fam = fixtures.get("family_quadric_union_limit_n3").payload
    from hilbcomp.flat_limit import fiber

    other_point = fiber(fam, 1)
    data = hilbert_series(other_point)
    from hilbcomp.hilbert import pair_hilbert_polynomial

    assert data.hilbert_polynomial == pair_hilbert_polynomial(3)
    with pytest.raises(ClassificationError):
        classify(other_point, seed=1)


PLANE_CONIC_WITH_POINT = ("x0*x1 - x2^2", "x0*x3", "x2*x3", "x3^2")


def test_plane_conic_with_an_embedded_point_is_refused():
    # saturated with the reference Hilbert polynomial; its hull, a smooth
    # conic in the plane x3 = 0, has degree two, its square lies in I and
    # its generic slice is two reduced points: only the rank of the conic
    # shows that the support is not two lines
    X = I(*PLANE_CONIC_WITH_POINT)
    assert hilbert_series(X).hilbert_polynomial == pair_hilbert_polynomial(3)
    hull = equidimensional_hull(X, seed=0)
    assert hull == I("x3", "x0*x1 - x2^2")
    # an irreducible hull with a linear generator: its own one component
    assert reducedness_by_components(hull, [hull]) and generic_slice_reduced(hull)
    with pytest.raises(ClassificationError, match="not in the four-type table: .* rank 3"):
        classify(X)


def test_moved_plane_conic_with_an_embedded_point_is_refused(monkeypatch):
    # the cone over it in P^5, refused in its four essential variables
    X = random_linear_change(I(*PLANE_CONIC_WITH_POINT, ring=PolyRing(6)), seed=3)
    seen = _spy_on_hull(monkeypatch)
    with pytest.raises(ClassificationError, match="not in the four-type table: .* rank 3"):
        classify(X, seed=3)
    assert [J.ring for J in seen] == [PolyRing(4)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_embedded_point_off_the_meeting_point_is_refused(n):
    # two lines of the plane x3 = 0 meeting at [1:0:0:0], and an embedded
    # point at [0:1:0:0] on one of them, pointing out of the plane: a point
    # of the other component only, with its tangent dimension 7n - 10 where
    # every type-III point has 8n - 12.  Its hull squared lies in I, and the
    # hull is two reduced lines, so only the meeting point tells it from III
    X = random_linear_change(I("x3^2", "x2*x3", "x1*x2", "x0*x3", ring=PolyRing(n + 1)), seed=n)
    assert hom_degree_zero(X).dimension == 7 * n - 10
    message = (
        "not in the four-type table: the embedded structure does not sit "
        "where the two components meet"
    )
    with pytest.raises(ClassificationError, match=f"^{re.escape(message)}$"):
        classify(X, seed=1)


def _ideal_in_p5_with_a_linear_form():
    """x5 plus x4^2 times the ideal of a plane, a skew line and a point of
    the hyperplane x5 = 0: the reference Hilbert polynomial of P^5."""
    R6 = PolyRing(6)
    plane = I("x2", "x3", "x5", ring=R6)
    line = I("x0", "x1", "x4", "x5", ring=R6)
    point = I("x0 - x4", "x1 - x4", "x2 - x4", "x3 - x4", "x5", ring=R6)
    K = intersect(intersect(plane, line), point)
    return Ideal(R6, [parse("x5", R6)] + [parse("x4^2", R6) * g for g in K.generators])


def test_ideal_with_a_linear_form_is_refused_before_any_draw(monkeypatch):
    # no point of the component holds a linear form, so the refusal is
    # fixed and comes before any complete intersection is drawn
    fixed_point = I("x3", "x2^3", "x1*x2^2")
    X = _ideal_in_p5_with_a_linear_form()
    cases = [
        (fixed_point, 3),
        (random_linear_change(fixed_point, seed=5), 3),
        (X, 5),
        (random_linear_change(X, seed=5), 5),
    ]
    monkeypatch.setattr(
        classify_module, "_complete_intersection",
        lambda *a: pytest.fail("a complete intersection was drawn"),
    )
    for J, n in cases:
        data = hilbert_series(J)
        assert data.hilbert_polynomial == pair_hilbert_polynomial(n)
        assert data.series_coefficient(1) == n
        with pytest.raises(ClassificationError, match="not in the four-type table: .* linear form"):
            classify(J, seed=1)


def _quadric_surface_union_line():
    """A smooth quadric surface in the hyperplane x0 = 0 of P^4 union a line
    that meets it in one reduced point: the reference Hilbert polynomial,
    and quadrics in all five variables."""
    R5 = PolyRing(5)
    q = Ideal(R5, [parse("x0", R5), parse("x1*x2 - x3*x4", R5)])
    line = Ideal(R5, [parse(t, R5) for t in ("x1 - x0", "x2 - x0", "x4")])
    return intersect(q, line)


FIVE_VARIABLES = "not in the four-type table: the quadrics need 5 essential variables, more than 4"


@pytest.mark.parametrize(
    "make, message",
    [
        (_ideal_in_p5_with_a_linear_form, "linear form"),
        (_quadric_surface_union_line, FIVE_VARIABLES),
    ],
    ids=["linear-form", "five-essential-variables"],
)
def test_cli_refuses_an_ideal_with_a_linear_form(tmp_path, capsys, make, message):
    from hilbcomp.cli import run_subcommand

    path = tmp_path / "refused.ideal"
    path.write_text(dumps_ideal(random_linear_change(make(), seed=2)))
    assert run_subcommand(["classify", str(path)]) == 1
    assert message in capsys.readouterr().err


def _spy_on_hull(monkeypatch):
    """Record the ideal every equidimensional_hull call receives."""
    seen = []
    real = classify_module.equidimensional_hull

    def spy(J, seed=0, stats=None):
        seen.append(J)
        return real(J, seed=seed, stats=stats)

    monkeypatch.setattr(classify_module, "equidimensional_hull", spy)
    return seen


def _count_gates(monkeypatch):
    """Record the ideal of every Hilbert series classify itself reads: the
    gate that the quadrics generate I, then the series of the hull."""
    calls = []
    real = classify_module.hilbert_series

    def spy(J):
        if sys._getframe(1).f_code is classify_module.classify.__code__:
            calls.append(J)
        return real(J)

    monkeypatch.setattr(classify_module, "hilbert_series", spy)
    return calls


def test_smooth_quadric_union_plane_also_refused(monkeypatch):
    # same component, smooth quadric this time; the line meets the quadric
    # surface in a single reduced point, so the Hilbert polynomial matches
    X = _quadric_surface_union_line()
    assert hilbert_series(X).hilbert_polynomial == pair_hilbert_polynomial(4)
    # its quadrics involve all five variables, in P^4 and as a cone in P^5:
    # no point of the component needs more than four, so both are refused
    # before any hull or gate is computed
    R6 = PolyRing(6)
    cone = Ideal(R6, [g.convert(R6) for g in X.generators])
    seen = _spy_on_hull(monkeypatch)
    gates = _count_gates(monkeypatch)
    for J in (X, cone, random_linear_change(cone, seed=3)):
        with pytest.raises(ClassificationError, match=f"^{re.escape(FIVE_VARIABLES)}$"):
            classify(J, seed=3)
    assert seen == [] and gates == []


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_moved_forms_are_classified_on_four_variables(monkeypatch, n):
    seen = _spy_on_hull(monkeypatch)
    moved = {
        label: random_linear_change(normal_form_ideal(n, label), seed=n + 20)
        for label in ("I", "II", "III", "IV")
    }
    for label, ideal in moved.items():
        assert classify(ideal, seed=n).label == label
    assert [J.ring for J in seen] == [PolyRing(4)] * 4
    if n == 3:
        # P^3 itself: the hull gets the input's ideal, on its own generators
        assert all(got == want for got, want in zip(seen, moved.values()))


@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_cone_evidence_matches_the_full_ring(label):
    for seed in (0, 1):
        moved = random_linear_change(normal_form_ideal(5, label), seed=seed + 40)
        hull = equidimensional_hull(moved, seed=seed)
        evidence = (hull != moved, generic_slice_reduced(hull))
        assert classify(moved, seed=seed).evidence == evidence


def test_ideal_not_generated_by_its_quadrics_is_refused(monkeypatch):
    # the pair of planes (x0, x1) and (x2, x3) in P^4 with x1*x3 cut back to
    # its cubic multiples: the same Hilbert polynomial, and three quadrics
    # in four variables that do not generate it.  It is not saturated, so
    # it is no point of the component: its saturation is the pair of planes
    R5 = PolyRing(5)
    cubics = [f"x1*x3*x{i}" for i in range(5)]
    X = random_linear_change(I("x0*x2", "x0*x3", "x1*x2", *cubics, ring=R5), seed=4)
    pair = random_linear_change(I("x0*x2", "x0*x3", "x1*x2", "x1*x3", ring=R5), seed=4)
    assert saturate(X, irrelevant_ideal(R5)) == pair != X
    data = hilbert_series(X)
    assert data.hilbert_polynomial == pair_hilbert_polynomial(4)
    reduced = essential_form_by_substitution(X)
    assert reduced.ring == PolyRing(4)
    assert hilbert_series(reduced).series_numerator != data.series_numerator
    seen = _spy_on_hull(monkeypatch)
    gates = _count_gates(monkeypatch)
    message = "not in the four-type table: the ideal is not generated by its quadrics"
    with pytest.raises(ClassificationError, match=f"^{re.escape(message)}$"):
        classify(X, seed=2)
    # the one gate ran on the four-variable ideal, and no hull was computed
    assert [J.ring for J in gates] == [PolyRing(4)] and seen == []


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_essential_form_equals_the_change_of_coordinates(n, label):
    # the given quadrics, and the degree-two basis of the same ideal given
    # with a cubic generator
    for seed in (1, 2):
        moved = random_linear_change(normal_form_ideal(n, label), seed=seed + 60)
        cubic = moved.generators[0] * moved.ring.x(n)
        for J in (moved, Ideal(moved.ring, moved.generators + (cubic,))):
            got, data = _essential_quadrics(J)
            want = essential_form_by_substitution(J)
            assert got.ring == want.ring == PolyRing(4)
            assert got.generators == want.generators
            _assert_same_data(data, hilbert_series(Ideal(J.ring, J.generators)))


@pytest.mark.parametrize(
    "name, label",
    [("embedded", "III"), ("double", "II"), ("quadric_union", "III"), ("substitution", "IV")],
)
def test_p3_fixture_written_in_p6_keeps_its_label(name, label):
    R7 = PolyRing(7)
    limit = limit_ideal(fixtures.get(f"family_{name}_limit_n3").payload)
    cone = Ideal(R7, [g.convert(R7) for g in limit.generators])
    assert classify(cone, seed=7).label == label
    assert classify(random_linear_change(cone, seed=5), seed=7).label == label


def test_scheme_type_json():
    result = classify(normal_form_ideal(3, "IV"), seed=1)
    payload = result.to_json()
    assert payload["label"] == "IV"
    assert payload["evidence"] == {"has_embedded": True, "generically_reduced": False}
    assert "retries" in payload


def test_normal_form_ideal_validation():
    with pytest.raises(ValueError):
        normal_form_ideal(2, "I")
    with pytest.raises(ValueError):
        normal_form_ideal(3, "V")


def test_random_draws_keep_their_order():
    # the expected values were computed before the random combinations went
    # through one helper; a draw taken in another order changes them, while
    # labels and hulls, being certified, would not show it
    rng = random.Random("draw-order")
    ci, attempt = _complete_intersection(normal_form_ideal(4, "II"), rng)
    assert attempt == 0
    assert [str(g) for g in ci.generators] == [
        "-3*x0^2 - 5*x0*x1 - x1^2 + 4*x1*x2 - 4*x0*x3",
        "-3*x0^2 + x0*x1 + 3*x1^2 - 2*x1*x2 + 2*x0*x3",
    ]
    J = Ideal(PolyRing(5), ["x0", "x1*x2"])
    assert str(_generic_element(J, rng)) == "12*x0^2 + 4*x0*x1 - x1*x2 + 20*x0*x3 + 16*x0*x4"


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_hull_matches_golden(n, label):
    # moved_<label>_n<n>.hull.txt holds str() of the hull's generators at
    # seeds 0..2, written before the colons were decided by Hilbert series
    moved = load_ideal(DATA / f"moved_{label}_n{n}.ideal")
    lines = []
    for seed in range(3):
        lines.append(f"# seed {seed}")
        lines.extend(str(g) for g in equidimensional_hull(moved, seed=seed).generators)
    text = "\n".join(lines) + "\n"
    assert text.encode() == (DATA / f"moved_{label}_n{n}.hull.txt").read_bytes()


def classify_payloads():
    """classify(...).to_json() of each type in P^3..P^7, moved and
    classified at seeds 1 and 8.  No entry takes a retry: retries counts
    only rejected complete-intersection draws."""
    out = {}
    for label in ("I", "II", "III", "IV"):
        for n in range(3, 8):
            for seed in (1, 8):
                moved = random_linear_change(normal_form_ideal(n, label), seed=seed)
                out[f"{label} n={n} seed={seed}"] = classify(moved, seed=seed).to_json()
    return out


def test_classify_json_matches_golden():
    # label, evidence and retries; the verify goldens do not show retries
    assert classify_payloads() == json.loads(CLASSIFY_GOLDEN.read_text())
