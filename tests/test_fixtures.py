import pytest

from hilbcomp import fixtures
from hilbcomp.classify import normal_form_ideal
from hilbcomp.flat_limit import Family
from hilbcomp.groebner import syzygies


def test_normal_form_fixture_ids():
    fx = fixtures.get("ideal_type_I_n3")
    assert fx.payload == normal_form_ideal(3, "I")
    assert fx.note
    assert fixtures.get("ideal_type_IV_n6").payload == normal_form_ideal(6, "IV")


def test_unknown_id_raises():
    with pytest.raises(fixtures.UnknownFixtureError):
        fixtures.get("no_such_fixture")


def test_family_fixtures_are_families():
    for name in ("embedded", "double", "quadric_union", "substitution"):
        fx = fixtures.get(f"family_{name}_limit_n4")
        assert isinstance(fx.payload, Family)


def test_pairing_fixture_matches_module_table():
    from hilbcomp import picard

    assert fixtures.get("pairing_hn").payload == picard.HN_STATED
    assert fixtures.get("pairing_wn").payload == picard.WN_STATED


def test_presentation_products_vanish():
    lam = fixtures.get("lambda_generators_n3").payload
    mu = fixtures.get("mu_matrix").payload
    nu = fixtures.get("nu_column").payload
    ring = lam[0].ring
    for j in range(4):
        assert sum((lam[i] * mu[i][j] for i in range(4)), ring.zero).is_zero()
    for i in range(4):
        assert sum((mu[i][j] * nu[j] for j in range(4)), ring.zero).is_zero()


def test_mu_columns_generate_the_syzygies():
    lam = fixtures.get("lambda_generators_n3").payload
    mu = fixtures.get("mu_matrix").payload
    module = syzygies(list(lam))
    # each matrix column lies in the computed module ...
    for j in range(4):
        assert module.contains(tuple(mu[i][j] for i in range(4)))
    # ... and each computed generator lies in the column span, so the two
    # generating sets present the same module
    from hilbcomp.groebner import SyzygyModule, _pack_row, _ring_packing

    ring = lam[0].ring
    pk = _ring_packing(ring)
    columns = tuple(_pack_row([mu[i][j] for i in range(4)], pk) for j in range(4))
    column_module = SyzygyModule(ring, tuple(lam), columns)
    assert column_module.verify()
    for row in module.generators:
        assert column_module.contains(row)


def test_presentation_scales_with_n():
    lam5 = fixtures.lambda_generators(5)
    mu5 = fixtures.mu_matrix(5)
    ring = lam5[0].ring
    for j in range(4):
        assert sum((lam5[i] * mu5[i][j] for i in range(4)), ring.zero).is_zero()


def test_tangent_element_counts():
    for n in (3, 5, 7):
        trivial = fixtures.get(f"tangent_trivial_elements_n{n}").payload
        versal = fixtures.get(f"tangent_versal_elements_n{n}").payload
        assert len(trivial) == 3 * n - 3
        assert len(versal) == 5 * (n - 2) + 1
        assert len(trivial) + len(versal) == 8 * n - 12


def test_conic_fixtures_parse_and_have_expected_shape():
    plane = fixtures.get("ideal_conic_plane").payload
    assert plane.ring.num_vars == 3
    assert len(plane.generators) == 2
    space = fixtures.get("ideal_conic_space").payload
    assert space.ring.num_vars == 4
    assert len(space.generators) == 3


def test_pencil_fixture_mirrors():
    plain = fixtures.get("pencil_planar_double_n3").payload
    mirror = fixtures.get("pencil_planar_double_mirror_n3").payload
    assert isinstance(plain, Family) and isinstance(mirror, Family)
    assert plain.total_ideal != mirror.total_ideal


def test_static_ids_enumerate():
    ids = sorted(fixtures._STATIC)
    assert "mu_matrix" in ids and "pairing_hn" in ids
    assert all(fixtures.get(i).id == i for i in ids)


def test_dimension_formulas_agree_with_the_table():
    from hilbcomp.picard import dimension_table

    formulas = fixtures.get("dimension_formulas").payload
    for n in (3, 5, 8):
        dt = dimension_table(n)
        for label in ("I", "II", "III", "IV"):
            a, b = formulas[f"locus_{label}"]
            assert a * n + b == dt.loci[label]
        a, b = formulas["other_component"]
        assert a * n + b == dt.other_component
        a, b = formulas["tangent_at_planar_double"]
        assert a * n + b == dt.tangent_at_planar_double
