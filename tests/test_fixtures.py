import importlib.util
from pathlib import Path

import pytest

from hilbcomp import fixtures
from hilbcomp.flat_limit import Family
from hilbcomp.groebner import syzygies

from oracles import pencil_planar_double

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_unknown_id_raises():
    with pytest.raises(fixtures.UnknownFixtureError):
        fixtures.get("no_such_fixture")


def test_get_serves_the_benchmark_families():
    # the benchmark's workloads name their families by id; every other
    # fixture is a plain function and has no id
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for n, kind in workloads.PLANS["limit_probe_moved"][1]:
        assert isinstance(fixtures.get(f"family_{kind}_limit_n{n}").payload, Family)
    for removed in ("ideal_type_I_n3", "mu_matrix", "pairing_hn", "lambda_generators_n3"):
        with pytest.raises(fixtures.UnknownFixtureError):
            fixtures.get(removed)


def test_family_fixtures_are_families():
    for name in ("embedded", "double", "quadric_union", "substitution"):
        fx = fixtures.get(f"family_{name}_limit_n4")
        assert isinstance(fx.payload, Family)


def test_presentation_products_vanish():
    lam = fixtures.lambda_generators(3)
    mu = fixtures.mu_matrix(3)
    nu = fixtures.nu_column(3)
    ring = lam[0].ring
    for j in range(4):
        assert sum((lam[i] * mu[i][j] for i in range(4)), ring.zero).is_zero()
    for i in range(4):
        assert sum((mu[i][j] * nu[j] for j in range(4)), ring.zero).is_zero()


def test_mu_columns_generate_the_syzygies():
    lam = fixtures.lambda_generators(3)
    mu = fixtures.mu_matrix(3)
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
        trivial = fixtures.tangent_trivial_elements(n)
        versal = fixtures.tangent_versal_elements(n)
        assert len(trivial) == 3 * n - 3
        assert len(versal) == 5 * (n - 2) + 1
        assert len(trivial) + len(versal) == 8 * n - 12


def test_conic_fixtures_parse_and_have_expected_shape():
    plane = fixtures.conic_plane_ideal()
    assert plane.ring.num_vars == 3
    assert len(plane.generators) == 2
    space = fixtures.conic_space_ideal()
    assert space.ring.num_vars == 4
    assert len(space.generators) == 3


def test_pencil_fixture_mirrors():
    plain = pencil_planar_double(3)
    mirror = pencil_planar_double(3, mirror=True)
    assert isinstance(plain, Family) and isinstance(mirror, Family)
    assert plain.total_ideal != mirror.total_ideal


def test_dimension_formulas_agree_with_the_table():
    from hilbcomp.picard import DIMENSION_FORMULAS as formulas, dimension_table

    for n in (3, 5, 8):
        dt = dimension_table(n)
        for label in ("I", "II", "III", "IV"):
            a, b = formulas[f"locus_{label}"]
            assert a * n + b == dt.loci[label]
        a, b = formulas["other_component"]
        assert a * n + b == dt.other_component
        a, b = formulas["tangent_at_planar_double"]
        assert a * n + b == dt.tangent_at_planar_double
