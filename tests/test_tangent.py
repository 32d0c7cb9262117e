import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hilbcomp import fixtures, linalg, loads_ideal, tangent
from hilbcomp.classify import normal_form_ideal
from hilbcomp.errors import HomogeneityError
from hilbcomp.groebner import _ring_packing, syzygies
from hilbcomp.hilbert import hilbert_function
from hilbcomp.ideals import Ideal, random_linear_change
from hilbcomp.rings import PolyRing, _mono_mul, monomials_of_degree, parse
from hilbcomp.tangent import explicit_basis_check, hom_degree_zero, minimal_generators

from oracles import (
    densify,
    minimal_generators_by_bases,
    satisfies_by_reduction,
    tangent_counts_by_polynomials,
    tangent_rows_by_polynomials,
)

R = PolyRing(4)


def test_line_in_p3_tangent_dimension():
    # hand oracle: images are two linear forms in x2, x3 (4 unknowns) and
    # the Koszul relation lands inside the ideal, so no constraints survive;
    # 4 = dim of the Grassmannian of lines
    report = hom_degree_zero(Ideal(R, [R.x(0), R.x(1)]))
    assert report.dimension == 4
    assert report.total_unknowns == 4
    assert report.constraint_rank == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_planar_double_point_dimension(n):
    report = hom_degree_zero(normal_form_ideal(n, "IV"))
    assert report.dimension == 8 * n - 12
    assert report.total_unknowns - report.constraint_rank == report.dimension


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("label,expected", [("I", lambda n: 4 * n - 4),
                                            ("II", lambda n: 4 * n - 4),
                                            ("III", lambda n: 8 * n - 12)])
def test_other_type_dimensions(n, label, expected):
    assert hom_degree_zero(normal_form_ideal(n, label)).dimension == expected(n)


def test_plane_conic_with_embedded_point():
    report = hom_degree_zero(fixtures.conic_plane_ideal())
    assert report.dimension == 7


def test_space_conic_reported_value():
    # the comparison hypothesis fails here (the degree-one piece of the
    # quotient has dimension 3 against 4 sections), so the module Hom is 10
    # while the sheaf-theoretic count is 11; hand derivation: 19 unknowns,
    # 9 independent relations from the single essential syzygy
    report = hom_degree_zero(fixtures.conic_space_ideal())
    assert report.dimension == 10
    assert report.total_unknowns == 19
    assert report.constraint_rank == 9
    assert report.dimension != 11  # reported against, not asserted equal


def test_minimal_generators_drops_redundant():
    gens = [R.x(0), R.x(1), R.x(0) + R.x(1)]
    kept = minimal_generators(Ideal(R, gens))
    assert len(kept) == 2
    # a non-minimal generating set changes nothing after minimalization
    padded = Ideal(R, list(normal_form_ideal(3, "IV").generators) + [
        parse("x0^2 + x0*x1", R)
    ])
    assert hom_degree_zero(padded).dimension == 12
    # minimality is only defined for graded ideals
    with pytest.raises(HomogeneityError):
        minimal_generators(Ideal(R, [parse("x0^2 + x1", R), R.x(2)]))


def test_independent_generators_build_one_span(monkeypatch):
    # one span per degree: four independent quadrics share one degree-2 span
    from hilbcomp import groebner

    calls = []
    real = groebner._degree_span
    monkeypatch.setattr(
        groebner, "_degree_span", lambda *args: calls.append(args[-1]) or real(*args)
    )
    quadrics = fixtures.lambda_generators(3)
    assert minimal_generators(Ideal(R, quadrics)) == quadrics
    assert calls == [2]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_minimal_generators_agree_with_basis_oracle(n):
    # padded moved normal forms: redundant elements of degrees 2 and 3 in
    # several positions, so the graded pruning must keep exactly the
    # generators the basis-membership oracle keeps
    S = PolyRing(n + 1)
    x = [S.x(i) for i in range(n + 1)]
    # exact tuples: of three quadrics any two of which span the same plane
    # the first goes, of a and 2a the first goes, and a cubic listed before
    # the quadrics it lies in goes
    a, b, c = x[0] * x[1], x[2] ** 2 - x[3] ** 2, x[1] * x[3]
    exact = [(list(p), p[1:]) for p in itertools.permutations((a, b, a + b))]
    exact += [([a, 2 * a], (2 * a,)), ([x[0] * a + x[2] * b, a, b, c], (a, b, c))]
    for gens, want in exact:
        ideal = Ideal(S, gens)
        assert minimal_generators(ideal) == minimal_generators_by_bases(ideal) == want, gens
    for k, label in enumerate(("I", "II", "III", "IV")):
        I = random_linear_change(normal_form_ideal(n, label), seed=300 * n + k)
        g = I.generators
        pads = [
            [g[0] + 2 * g[1]] + list(g),
            list(g[:2]) + [x[0] * g[0] - g[1] * x[n]] + list(g[2:]),
            list(g) + [x[1] ** 2 * x[2], x[1] * g[-1]],
            [g[-1]] + [Fraction(1, 3) * g[0] - g[-1]] + list(g),
        ]
        for gens in pads:
            ideal = Ideal(S, gens)
            assert minimal_generators(ideal) == minimal_generators_by_bases(ideal), (label, gens)


def test_hom_degree_zero_builds_one_basis(monkeypatch):
    # the reductions and the standard monomials read the basis that
    # syzygies built on the minimal generators: the reduced basis of I
    from hilbcomp import groebner, ideals

    calls = []
    real = groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(kwargs.get("transform", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(ideals, "buchberger", counting)
    I = random_linear_change(normal_form_ideal(4, "III"), seed=8)
    assert hom_degree_zero(I).dimension == 20
    assert calls == [True]
    calls.clear()
    images = [I.ring.zero] * len(I.generators)
    assert explicit_basis_check(I, images)
    assert calls == [True]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_hom_degree_zero_builds_no_polynomial_syzygy_row(label, n, monkeypatch):
    # the tangent table reads the module's packed rows; the reports are the
    # golden `hilbcomp --format json tangent` output
    from hilbcomp import groebner

    unpacked = []
    real = groebner._row_polys
    monkeypatch.setattr(
        groebner, "_row_polys", lambda ring, row: unpacked.append(row) or real(ring, row)
    )
    data = Path(__file__).parent / "data"
    report = hom_degree_zero(loads_ideal((data / f"moved_{label}_n{n}.ideal").read_text()))
    assert not unpacked
    golden = json.loads((data / f"moved_{label}_n{n}.tangent.json").read_text())
    assert report.to_json() == golden


def test_report_json_shape():
    report = hom_degree_zero(normal_form_ideal(3, "IV"))
    payload = report.to_json()
    assert payload["dimension"] == 12
    assert payload["system"]["cols"] == report.total_unknowns
    assert len(payload["unknowns"]) == len(payload["generator_degrees"]) == 4


@pytest.mark.parametrize("n", [3, 4])
def test_explicit_elements_satisfy_constraints(n):
    I = Ideal(PolyRing(n + 1), fixtures.lambda_generators(n))
    trivial = fixtures.tangent_trivial_elements(n)
    versal = fixtures.tangent_versal_elements(n)
    assert len(trivial) == 3 * n - 3
    assert len(versal) == 5 * (n - 2) + 1
    for name, images in trivial + versal:
        assert explicit_basis_check(I, images), name


@pytest.mark.parametrize("n", [3, 4])
def test_explicit_elements_form_a_basis(n):
    ring = PolyRing(n + 1)
    I = Ideal(ring, fixtures.lambda_generators(n))
    gb = I.groebner_basis()
    leads = [g.lead_monomial() for g in gb.elements]
    std = [
        m
        for m in monomials_of_degree(ring.width, 2)
        if not any(all(a <= b for a, b in zip(g, m)) for g in leads)
    ]
    index = {m: k for k, m in enumerate(std)}
    elements = (
        fixtures.tangent_trivial_elements(n)
        + fixtures.tangent_versal_elements(n)
    )
    rows = []
    for _, images in elements:
        row = [0] * (4 * len(std))
        for j, im in enumerate(images):
            for mono, c in gb.reduce(im).terms:
                row[j * len(std) + index[mono]] = c
        rows.append(row)
    assert len(rows) == 8 * n - 12
    assert linalg.rank(rows) == 8 * n - 12
    assert hom_degree_zero(I).dimension == 8 * n - 12


def test_constructed_violation_fails():
    I = Ideal(R, fixtures.lambda_generators(3))
    bad = (R.x(3) ** 2, R.zero, R.zero, R.zero)
    assert not explicit_basis_check(I, bad)
    # one bad assignment among good ones fails the whole check
    good = (R.zero,) * 4
    assert explicit_basis_check(I, good, good)
    assert not explicit_basis_check(I, good, bad)


def test_degree_mismatch_rejected():
    I = Ideal(R, fixtures.lambda_generators(3))
    with pytest.raises(ValueError):
        explicit_basis_check(I, (R.x(3), R.zero, R.zero, R.zero))
    # a term of lower degree is rejected too, not only a wrong top degree
    with pytest.raises(ValueError, match="degree mismatch"):
        explicit_basis_check(I, (R.x(3) ** 2 + R.x(2), R.zero, R.zero, R.zero))
    # every assignment needs one image per generator
    with pytest.raises(ValueError):
        explicit_basis_check(I, (R.zero,) * 4, (R.zero,) * 3)
    # no assignment at all is an error, not a vacuous pass
    with pytest.raises(ValueError):
        explicit_basis_check(I)


_EXPLICIT_CASES = [
    (f"lambda-n{n}", lambda n=n: Ideal(PolyRing(n + 1), fixtures.lambda_generators(n)))
    for n in (3, 4, 5)
] + [
    (f"moved-{label}-n{n}", lambda n=n, label=label: random_linear_change(
        normal_form_ideal(n, label), seed=400 * n + len(label)))
    for n in (3, 4)
    for label in ("I", "II", "III", "IV")
]


@pytest.mark.parametrize("name,build", _EXPLICIT_CASES, ids=[c[0] for c in _EXPLICIT_CASES])
def test_explicit_check_matches_reduction_oracle(name, build):
    # true cases are integer combinations of nullspace vectors of the
    # system's rows, mapped back to images; false cases add one random
    # standard quadric to one image
    I = build()
    ring = I.ring
    bases, rows = tangent._NormalFormTable(syzygies(list(I.generators))).system(0)
    width = sum(map(len, bases))
    null = linalg.nullspace([densify(row, width) for row in rows], width)
    rng = random.Random(f"explicit-check:{name}")

    def images_of(vector):
        it = iter(vector)
        return [ring.from_dict({m: next(it) for m in basis}) for basis in bases]

    outcomes = []
    for _ in range(3):
        coeffs = [rng.randint(-3, 3) for _ in null]
        good = images_of([sum(c * a for c, a in zip(coeffs, col)) for col in zip(*null)])
        j = rng.randrange(len(bases))
        bad = list(good)
        bad[j] += ring.from_dict({rng.choice(bases[j]): rng.choice((-2, -1, 1, 2))})
        for images in (good, bad):
            got = explicit_basis_check(I, images)
            assert got == satisfies_by_reduction(I, images)
            outcomes.append(got)
    assert outcomes[::2] == [True] * 3
    assert False in outcomes[1::2]


@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_dimension_invariant_under_coordinate_change(label):
    for n in (3, 4, 5):
        base = normal_form_ideal(n, label)
        want = hom_degree_zero(base).dimension
        for seed in (1, 2, 3):
            moved = random_linear_change(base, seed=seed * 5 + n)
            assert hom_degree_zero(moved).dimension == want


def test_generator_choice_consistency():
    # the pair ideal is its own reduced basis; presenting the ideal by its
    # basis elements or by the original generators gives the same dimension
    base = normal_form_ideal(4, "I")
    via_gens = hom_degree_zero(base).dimension
    via_basis = hom_degree_zero(Ideal(base.ring, base.canonical_generators())).dimension
    assert via_gens == via_basis == 12


def test_rejects_inhomogeneous_and_param_rings():
    with pytest.raises(HomogeneityError):
        hom_degree_zero(Ideal(R, [R.x(0) ** 2 + R.x(1)]))
    Rt = PolyRing(3, has_param=True)
    with pytest.raises(ValueError):
        hom_degree_zero(Ideal(Rt, [Rt.x(0)]))


def _mixed_degree_ideal():
    # minimal generators of degrees 1, 2 and 3, moved so that the basis and
    # the syzygies carry denominators
    x = [R.x(i) for i in range(4)]
    base = Ideal(R, [x[0], x[1] ** 2 - x[2] * x[3], x[1] * x[2] ** 2, x[2] ** 3])
    return random_linear_change(base, seed=41)


_ORACLE_CASES = [
    (f"{label}-P{n}", lambda n=n, label=label: random_linear_change(
        normal_form_ideal(n, label), seed=100 * n + ord(label[-1])))
    for n in (3, 4, 5)
    for label in ("I", "II", "III", "IV")
] + [
    ("conic_plane", fixtures.conic_plane_ideal),
    ("conic_space", fixtures.conic_space_ideal),
    ("mixed_degree", _mixed_degree_ideal),
]


@pytest.mark.parametrize("name,build", _ORACLE_CASES, ids=[c[0] for c in _ORACLE_CASES])
def test_integer_system_matches_polynomial_oracle(name, build):
    I = build()
    module = syzygies(list(minimal_generators(I)))
    bases, rows = tangent._NormalFormTable(module).system(0)
    rows = [densify(row, sum(map(len, bases))) for row in rows]
    degrees = [f.total_degree() for f in module.target]
    if name == "mixed_degree":
        assert len(set(degrees)) == 3
    blocks = tangent_rows_by_polynomials(I)
    assert len(rows) == sum(map(len, blocks))
    remaining = iter(rows)
    for block in blocks:
        # one positive rational multiple per syzygy block
        multiples = set()
        for want in block:
            got = next(remaining)
            assert all(isinstance(a, int) for a in got)
            lead = next(i for i, a in enumerate(want) if a)
            q = Fraction(got[lead]) / want[lead]
            assert q > 0
            assert got == [q * a for a in want]
            multiples.add(q)
        assert len(multiples) <= 1
    flat = [row for block in blocks for row in block]
    assert linalg.rank(rows) == linalg.rank(flat)


@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_each_product_monomial_is_reduced_once_per_call(label, monkeypatch):
    # the systems of all shifts share one normal-form table: every reduction
    # is of one monomial, none is repeated, and exactly the monomials u * m_k
    # of the products s_j * m_k are reduced (one product per syzygy entry
    # s_j and standard monomial m_k of each shift's unknown basis)
    I = loads_ideal((Path(__file__).parent / "data" / f"moved_{label}_n5.ideal").read_text())
    modules, reduced = [], []
    real_syzygies, real_reduce = tangent.syzygies, tangent._reduce_int

    def spy_syzygies(gens):
        modules.append(real_syzygies(gens))
        return modules[-1]

    def spy_reduce(work, *args, **kwargs):
        assert len(work) == 1 and set(work.values()) == {1}
        reduced.extend(work)
        return real_reduce(work, *args, **kwargs)

    monkeypatch.setattr(tangent, "syzygies", spy_syzygies)
    monkeypatch.setattr(tangent, "_reduce_int", spy_reduce)
    report = hom_degree_zero(I)
    (module,) = modules
    assert len(reduced) == len(set(reduced))

    gb = module.basis
    dropped = I.ring.num_vars - module.ring.num_vars
    assert dropped and report.generator_degrees == (2,) * len(module.target)
    products = set()
    for e in range(3):
        for row in module.generators:
            for s, f in zip(row, module.target):
                for m in gb.standard_monomials(f.total_degree() - e):
                    products.update(_mono_mul(u, m) for u, _ in s.terms)
    unpack = _ring_packing(module.ring).unpack
    assert {unpack(w) for w in reduced} == products
    assert len(reduced) == {"I": 29, "II": 29, "III": 26, "IV": 26}[label]


def _counts(report):
    return report.dimension, report.total_unknowns, report.constraint_rank


def _cubic_generator_ideal():
    # a quadric pair and a cubic minimal generator in P^4, moved
    S = PolyRing(5)
    return random_linear_change(Ideal(S, ["x0*x1", "x2*x3", "x0*x2*x4"]), seed=17)


def _sheared_quadrics(seed):
    """1-4 random quadrics in x_0..x_(k-1), k in 1..4, of P^4, moved by a
    shear (a unitriangular integer matrix) with its columns permuted."""
    rng = random.Random(f"tangent-oracle:{seed}")
    S = PolyRing(5)
    k = rng.randint(1, 4)
    monos = [m for m in monomials_of_degree(5, 2) if not any(m[k:])]
    quadrics = [
        S.from_dict({m: Fraction(rng.randint(-3, 3)) for m in rng.sample(monos, min(3, len(monos)))})
        for _ in range(rng.randint(1, 4))
    ]
    quadrics = [q for q in quadrics if not q.is_zero()] or [S.x(0) ** 2]
    shear = [[1 if i == j else rng.randint(-2, 2) if j > i and rng.random() < 0.4 else 0
              for j in range(5)] for i in range(5)]
    perm = rng.sample(range(5), 5)
    matrix = [[Fraction(row[perm[j]]) for j in range(5)] for row in shear]
    return random_linear_change(Ideal(S, quadrics), None, matrix=matrix)


_FULL_RING_CASES = [
    (f"moved-{label}-P{n}", lambda n=n, label=label: random_linear_change(
        normal_form_ideal(n, label), seed=200 * n + len(label)))
    for n in (3, 4, 5, 6)
    for label in ("I", "II", "III", "IV")
] + [
    (f"sheared-{seed}", lambda seed=seed: _sheared_quadrics(seed)) for seed in range(50)
] + [
    ("conic_plane", fixtures.conic_plane_ideal),
    ("conic_space", fixtures.conic_space_ideal),
    ("cubic_generator", _cubic_generator_ideal),
] + [
    # generators of other degrees than two in fewer variables than the ring's
    (f"moved-{name}-P{nv - 1}", lambda nv=nv, gens=gens, seed=seed: random_linear_change(
        Ideal(PolyRing(nv), gens), seed=seed))
    for seed, (name, nv, gens) in enumerate([
        ("x3,x2^3,x1x2^2", 5, ["x3", "x2^3", "x1*x2^2"]),
        ("x3,x2^3,x1x2^2", 6, ["x3", "x2^3", "x1*x2^2"]),
        ("x0,x1^2,x2^3", 6, ["x0", "x1^2", "x2^3"]),
        ("x0x1x2,x3^4", 6, ["x0*x1*x2", "x3^4"]),
        ("x0^2,x1^3,x0x1x2", 5, ["x0^2", "x1^3", "x0*x1*x2"]),
    ])
]


@pytest.mark.parametrize("name,build", _FULL_RING_CASES, ids=[c[0] for c in _FULL_RING_CASES])
def test_essential_variables_match_the_full_ring_oracle(name, build):
    # dimension, unknown count and rank of the block-diagonal system on the
    # essential variables against the Fraction system in all n + 1 variables
    I = build()
    assert _counts(hom_degree_zero(I)) == tangent_counts_by_polynomials(I)


def test_every_ideal_takes_its_essential_variables(monkeypatch):
    # minimal generators of any degree drop the variables they do not need,
    # none are dropped when the ring has no more variables than the essential
    # ones, and a redundant cubic does not stop the quadrics from dropping
    seen = []
    real = tangent.essential_form

    def spy(ring, forms):
        reduced, columns = real(ring, forms)
        seen.append(ring.num_vars - reduced.ring.num_vars)
        return reduced, columns

    monkeypatch.setattr(tangent, "essential_form", spy)
    hom_degree_zero(random_linear_change(Ideal(PolyRing(7), ["x3", "x2^3", "x1*x2^2"]), seed=5))
    assert seen == [3]
    for full in (
        fixtures.conic_plane_ideal(),
        fixtures.conic_space_ideal(),
        _cubic_generator_ideal(),
    ):
        hom_degree_zero(full)
    assert seen == [3, 0, 0, 0]
    S = PolyRing(6)
    padded = Ideal(S, ["x0*x1", "x2*x3", "x0*x1*x5"])
    assert hom_degree_zero(padded).dimension == hom_degree_zero(Ideal(S, ["x0*x1", "x2*x3"])).dimension
    assert seen == [3, 0, 0, 0, 2, 2]


def test_a_non_quadric_ideal_in_p30_is_solved_on_its_essential_variables():
    # three essential variables of thirty-one: the system is that of P^3 and
    # its copies, so it is fast, and its counts need no tangent code to check
    S = PolyRing(31)
    base = Ideal(S, ["x3", "x2^3", "x1*x2^2"])
    I = random_linear_change(base, seed=5)
    start = time.process_time()
    report = hom_degree_zero(I)
    assert time.process_time() - start < 10
    assert report.total_unknowns == sum(hilbert_function(I, d) for d in report.generator_degrees) == 9946
    assert report.dimension == hom_degree_zero(base).dimension == 550
