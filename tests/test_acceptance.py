"""Acceptance battery: one test per criterion, every comparison exact.

Each test prints a single pass line on success (visible with pytest -s);
a failure carries the offending values in the assertion message.
"""

from hilbcomp import fixtures, picard
from hilbcomp.classify import classify, normal_form_ideal
from hilbcomp.flat_limit import flatness_probe, limit_ideal
from hilbcomp.groebner import buchberger, syzygies
from hilbcomp.hilbert import (
    double_structure_hilbert_count,
    hilbert_function,
    hilbert_series,
    pair_hilbert_polynomial,
)
from hilbcomp.ideals import Ideal, random_linear_change
from hilbcomp.picard import (
    HN,
    WN,
    chamber_of,
    dimension_table,
    hn_lattice,
    is_fano,
    pairing,
    solve_relations,
    wn_lattice,
)
from hilbcomp.rings import LEX, PolyRing
from hilbcomp.tangent import explicit_basis_check, hom_degree_zero

TYPES = ("I", "II", "III", "IV")


def _ok(num, label):
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_hilbert_polynomials():
    for n in range(3, 9):
        want = pair_hilbert_polynomial(n)
        for label in TYPES:
            got = hilbert_series(normal_form_ideal(n, label)).hilbert_polynomial
            assert got == want, (n, label, str(got), str(want))
    assert str(pair_hilbert_polynomial(3)) == "2*m + 2"
    _ok(1, "Hilbert polynomials of the four normal forms, n=3..8")


def test_criterion_2_double_structure_family():
    for n in (3, 4, 5):
        for k in (1, 2, 3):
            ring = PolyRing(n + 1)
            x0, x1, x2, x3 = (ring.x(i) for i in range(4))
            ideal = Ideal(ring, [x0**2, x0 * x1, x1**2, x0 * x3**k - x1 * x2**k])
            for m in range(k + 1, k + 6):
                want = double_structure_hilbert_count(n, k, m)
                got = hilbert_function(ideal, m)
                assert got == want, (n, k, m, got, want)
            matches = (
                hilbert_series(ideal).hilbert_polynomial == pair_hilbert_polynomial(n)
            )
            assert matches == (k == 1), (n, k)
    _ok(2, "double-structure Hilbert counts, n=3..5, tie degree k=1..3")


def test_criterion_3_flat_limits():
    expectations = {
        "embedded": lambda n: normal_form_ideal(n, "III"),
        "double": lambda n: normal_form_ideal(n, "II"),
        "quadric_union": lambda n: normal_form_ideal(n, "III"),
        "substitution": lambda n: Ideal(
            PolyRing(n + 1), fixtures.lambda_generators(n)
        ),
    }
    frozen_gbs_n3 = {
        "embedded": ["x0^2", "x0*x1", "x0*x2", "x1*x2"],
        "double": ["x0^2", "x0*x1", "x1^2", "x1*x2 - x0*x3"],
        "quadric_union": ["x0^2", "x0*x1", "x0*x2", "x1*x2"],
        "substitution": ["x0^2", "x0*x1", "x1^2", "x0*x2"],
    }
    for n in (3, 4):
        for name, want in expectations.items():
            fam = fixtures.get(f"family_{name}_limit_n{n}").payload
            limit = limit_ideal(fam)
            assert limit == want(n), (n, name)
            if n == 3:
                got = [str(g) for g in limit.canonical_generators()]
                assert got == frozen_gbs_n3[name], (name, got)
            report = flatness_probe(fam)
            assert report.flat, (n, name, report.mismatched_points)
    _ok(3, "four degeneration families: exact limits and flatness probes")


def test_criterion_4_tangent_dimensions():
    for n in range(3, 7):
        for label, want in (
            ("I", 4 * n - 4),
            ("II", 4 * n - 4),
            ("III", 8 * n - 12),
            ("IV", 8 * n - 12),
        ):
            got = hom_degree_zero(normal_form_ideal(n, label)).dimension
            assert got == want, (n, label, got, want)
    assert hom_degree_zero(fixtures.conic_plane_ideal()).dimension == 7
    # the space conic is reported against the sheaf-theoretic count 11; the
    # module Hom computes 10 (the comparison hypothesis fails in degree one)
    space = hom_degree_zero(fixtures.conic_space_ideal())
    reported = {"computed": space.dimension, "agrees_with_11": space.dimension == 11}
    assert reported["computed"] == 10 and reported["agrees_with_11"] is False
    _ok(4, "tangent dimensions 8n-12 / 4n-4 (n=3..6), conic 7, space conic flagged")


def test_criterion_5_explicit_basis_elements():
    for n in (3, 4, 5):
        ideal = Ideal(PolyRing(n + 1), fixtures.lambda_generators(n))
        trivial = fixtures.tangent_trivial_elements(n)
        versal = fixtures.tangent_versal_elements(n)
        for name, images in trivial + versal:
            assert explicit_basis_check(ideal, images), (n, name)
        assert len(trivial) == 3 * n - 3
        assert len(versal) == 5 * (n - 2) + 1 == 5 * n - 9
        assert len(trivial) + len(versal) == 8 * n - 12
    _ok(5, "explicit tangent assignments and the count identity, n=3..5")


def test_criterion_6_classification_under_coordinate_changes():
    trials = 0
    for n in (3, 4, 5):
        for label in TYPES:
            base = normal_form_ideal(n, label)
            for seed in range(10):
                moved = random_linear_change(base, seed=seed * 131 + 7 * n)
                got = classify(moved, seed=seed)
                assert got.label == label, (n, label, seed, got)
                trials += 1
    assert trials == 120
    _ok(6, "classification: 120 random-coordinate trials, zero mislabels")


def test_criterion_7_lattice_relations():
    rep = solve_relations(hn_lattice(4))
    assert rep.unique
    assert rep.classes["N"].coords == (2, -2)
    assert rep.classes["E"].coords == (-1, 2)
    assert rep.derived[("B3", "F")] == 1
    assert rep.derived[("B2", "E")] == -1
    for (curve, divisor), value in picard.HN_STATED.items():
        assert pairing(rep.curve(curve), rep.classes[divisor]) == value
    repw = solve_relations(wn_lattice(4))
    assert repw.unique
    assert repw.classes["N'"].coords == (2, -2, 0)
    assert repw.classes["E'"].coords == (-1, 2, -1)
    for (curve, divisor), value in picard.WN_STATED.items():
        assert pairing(repw.curve(curve), repw.classes[divisor]) == value
    _ok(7, "divisor relations solved uniquely and consistent with every row")


def test_criterion_8_chambers_fano_dimensions():
    probes = (
        ((1, 1), "[F,M]", (), "H_n"),
        ((2, 1), "[F,M]", (), "H_n"),
        ((1, 0), "[F,M]", (), "Sym^2 G(n-2,n)"),
        ((0, 1), "[F,M]", (), "Theta_n"),
        ((0, 3), "[F,M]", (), "Theta_n"),
        ((3, -2), "(M,N]", ("II", "IV"), "Sym^2 G(n-2,n)"),
        ((4, -2), "(M,N]", ("II", "IV"), "Sym^2 G(n-2,n)"),
        ((2, -2), "(M,N]", ("II", "IV"), None),
        ((4, -4), "(M,N]", ("II", "IV"), None),
        ((-1, 3), "[E,F)", ("III", "IV"), "Psi_n (flip)"),
        ((-2, 5), "[E,F)", ("III", "IV"), "Psi_n (flip)"),
        ((-1, 2), "[E,F)", ("III", "IV"), "G(3,n)"),
    )
    assert len(probes) == 12
    lat = hn_lattice(5)
    for coords, chamber, locus, model in probes:
        rep = chamber_of(lat.divisor(coords), 5)
        assert (rep.chamber, rep.base_locus, rep.model) == (chamber, locus, model), coords
    for n in range(3, 9):
        assert is_fano(HN, n) == (n in (3, 4)), n
        assert is_fano(WN, n) is True, n
        dt = dimension_table(n)
        assert dt.loci == {
            "I": 4 * n - 4, "II": 4 * n - 5, "III": 3 * n - 2, "IV": 3 * n - 3
        }
        assert dt.other_component == 7 * n - 10
        assert dt.transverse_identity
    dt3 = dimension_table(3)
    assert (dt3.loci["I"], dt3.loci["II"], dt3.loci["III"], dt3.loci["IV"]) == (8, 7, 7, 6)
    assert dt3.other_component == 11
    _ok(8, "chamber table on 12 probes, Fano ranges, dimension identities n=3..8")


def test_criterion_9_engine_property_suites():
    # (a) basis determinism under 20 schedule permutations, 5 ideals
    gens_sets = [list(normal_form_ideal(4, label).generators) for label in TYPES]
    ring_t = PolyRing(4, has_param=True)
    xs = [ring_t.x(i) for i in range(4)]
    gens_sets.append(
        [xs[0] ** 2, xs[0] * xs[1], xs[1] ** 2, ring_t.t * xs[0] * xs[3] - xs[1] * xs[2]]
    )
    for gens in gens_sets:
        base = buchberger(gens, transform=False)
        fingerprint = tuple(g.terms for g in base.elements)
        for seed in range(1, 21):
            other = buchberger(gens, transform=False, seed=seed)
            assert tuple(g.terms for g in other.elements) == fingerprint, seed

    # (b) Hilbert data is independent of the monomial order used
    fixture_ideals = [normal_form_ideal(n, label) for n in (3, 4) for label in TYPES]
    fixture_ideals.append(fixtures.conic_plane_ideal())
    fixture_ideals.append(fixtures.conic_space_ideal())
    fixture_ideals.append(Ideal(PolyRing(4), fixtures.lambda_generators(3)))
    for ideal in fixture_ideals:
        grev = hilbert_series(ideal)
        lex_gb = buchberger(list(ideal.generators), LEX)
        ring = ideal.ring
        lex_initial = Ideal(
            ring, [ring.from_dict({g.lead_monomial(): 1}) for g in lex_gb.elements]
        )
        lexd = hilbert_series(lex_initial)
        assert lexd.hilbert_polynomial == grev.hilbert_polynomial
        assert lexd.reduced_numerator == grev.reduced_numerator

    # (c) syzygy exactness on every fixture generator set
    for ideal in fixture_ideals:
        module = syzygies(list(ideal.generators))
        assert module.verify()

    # (d) presentation matrices: all products vanish, columns generate
    lam = fixtures.lambda_generators(3)
    mu = fixtures.mu_matrix(3)
    nu = fixtures.nu_column(3)
    ring = lam[0].ring
    for j in range(4):
        assert sum((lam[i] * mu[i][j] for i in range(4)), ring.zero).is_zero()
    for i in range(4):
        assert sum((mu[i][j] * nu[j] for j in range(4)), ring.zero).is_zero()
    module = syzygies(list(lam))
    for j in range(4):
        assert module.contains(tuple(mu[i][j] for i in range(4)))
    _ok(9, "determinism, order independence, syzygy exactness, presentation data")
