import itertools
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from hilbcomp import linalg, picard
from hilbcomp.errors import LatticeDataError
from hilbcomp.picard import (
    HN,
    WN,
    DivisorClass,
    canonical_class,
    chamber_of,
    dimension_table,
    hn_lattice,
    is_fano,
    pairing,
    solve_relations,
    wn_lattice,
)

import oracles

CHAMBERS_GOLDEN = Path(__file__).parent / "data" / "chambers.txt"


def in_cone(coords, rays):
    """True when coords is a unique non-negative combination of the rays."""
    rows = [[r[i] for r in rays] for i in range(len(coords))]
    sol = linalg.solve_unique(rows, [Fraction(c) for c in coords])
    return sol is not None and sol[1] and all(c >= 0 for c in sol[0])


def chamber_lines():
    """One line per (space, n, class): the chamber_of JSON, or the exception
    type and message.  H_n classes range over [-5,5]^2, W_n classes over
    [-3,3]^3, both at n = 3, 4, 8."""
    grids = {HN: itertools.product(range(-5, 6), repeat=2),
             WN: itertools.product(range(-3, 4), repeat=3)}
    for space, grid in grids.items():
        for coords in grid:
            for n in (3, 4, 8):
                try:
                    rep = chamber_of(DivisorClass(space, coords), n)
                    body = json.dumps(rep.to_json(), sort_keys=True)
                except Exception as exc:  # the golden records the failure too
                    body = f"{type(exc).__name__}: {exc}"
                yield f"{space} n={n} {list(coords)} {body}"


def _primitive(coords):
    g = 0
    for c in coords:
        g = gcd(g, abs(c))
    return tuple(c // g for c in coords) if g > 1 else tuple(coords)


@pytest.fixture(scope="module")
def hn():
    return solve_relations(hn_lattice(4))


@pytest.fixture(scope="module")
def wn():
    return solve_relations(wn_lattice(4))


def test_rank2_relations(hn):
    assert hn.classes["N"].coords == (2, -2)
    assert hn.classes["E"].coords == (-1, 2)
    assert hn.unique


def test_rank3_relations(wn):
    assert wn.classes["N'"].coords == (2, -2, 0)
    assert wn.classes["E'"].coords == (-1, 2, -1)


def test_pairing_table_values(hn):
    assert pairing(hn.curve("B1"), hn.classes["E"]) == 1
    assert pairing(hn.curve("B4"), hn.classes["N"]) == -2
    assert pairing(hn.curve("B3"), hn.lattice.basis_divisor("F")) == 1
    assert pairing(hn.curve("B2"), hn.classes["E"]) == -1
    assert pairing(hn.curve("B1"), hn.classes["N"]) == 0
    assert pairing(hn.curve("B3"), hn.classes["E"]) == 0


def test_derived_entries_flagged(hn):
    assert hn.derived[("B3", "F")] == 1
    assert hn.derived[("B2", "E")] == -1
    assert ("B3", "F") not in picard.HN_STATED
    assert ("B2", "E") not in picard.HN_STATED
    assert ("B1", "E") in picard.HN_STATED


def test_extra_curve_rows(wn):
    assert pairing(wn.curve("B5"), wn.classes["E'"]) == 0
    assert pairing(wn.curve("B5"), wn.classes["N'"]) == 0
    assert pairing(wn.curve("B6"), wn.classes["E'"]) == -1
    assert pairing(wn.curve("B6"), wn.classes["N'"]) == 0
    assert pairing(wn.curve("B4"), wn.classes["N'"]) == -2


def test_corrupted_pairing_table_is_detected(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setitem(picard.HN_STATED, ("B3", "N"), 5)
        with pytest.raises(LatticeDataError):
            solve_relations(hn_lattice(4))
    monkeypatch.setitem(picard.WN_STATED, ("B3", "N'"), 5)
    with pytest.raises(LatticeDataError):
        solve_relations(wn_lattice(4))


def test_self_consistent_corruption_changes_the_solution(monkeypatch):
    # corrupting an entry used exactly once yields a consistent but wrong
    # lattice; the battery detects it by comparing the solved coordinates
    monkeypatch.setitem(picard.WN_STATED, ("B5", "N'"), 3)
    report = solve_relations(wn_lattice(4))
    assert report.classes["N'"].coords != (2, -2, 0)


def test_moving_curves_nonnegative_on_effective_classes(hn):
    # the two moving curves must meet every effective named class >= 0
    for curve_name in ("B1", "B3"):
        curve = hn.curve(curve_name)
        for cls_name in ("M", "F", "N", "E"):
            assert pairing(curve, hn.classes[cls_name]) >= 0


def test_chamber_reports_rank2():
    lat = hn_lattice(5)
    amp = chamber_of(lat.divisor((1, 1)), 5)
    assert amp.ample and amp.base_point_free
    assert amp.model == "H_n" and amp.base_locus == ()
    m = chamber_of(lat.divisor((1, 0)), 5)
    assert m.model == "Sym^2 G(n-2,n)" and not m.ample and m.base_point_free
    f = chamber_of(lat.divisor((0, 1)), 5)
    assert f.model == "Theta_n" and f.base_point_free
    mid = chamber_of(lat.divisor((3, -2)), 5)
    assert mid.chamber == "(M,N]" and mid.base_locus == ("II", "IV")
    assert mid.model == "Sym^2 G(n-2,n)"
    n_ray = chamber_of(lat.divisor((2, -2)), 5)
    assert n_ray.base_locus == ("II", "IV") and n_ray.model is None
    flip = chamber_of(lat.divisor((-1, 3)), 5)
    assert flip.chamber == "[E,F)" and flip.base_locus == ("III", "IV")
    assert flip.model == "Psi_n (flip)"
    e_ray = chamber_of(lat.divisor((-1, 2)), 5)
    assert e_ray.model == "G(3,n)"


def test_chamber_reports_rank2_small_case():
    lat = hn_lattice(3)
    flip = chamber_of(lat.divisor((-1, 3)), 3)
    assert flip.model == "Psi_3 = G(3,5)"
    e_ray = chamber_of(lat.divisor((-1, 2)), 3)
    assert e_ray.model is None


def test_chamber_rejects_non_effective():
    lat = hn_lattice(4)
    for coords in ((-1, 0), (0, -1), (-1, 1), (3, -4)):
        with pytest.raises((ValueError, LatticeDataError)):
            chamber_of(lat.divisor(coords), 4)


def test_chamber_reports_rank3():
    lat = wn_lattice(5)
    cases = {
        (1, 1, 1): ("W_n", (), True, True),
        (1, 1, 0): ("Bl_Delta Sym^2 G(1,n)", (), False, True),
        (0, 1, 1): ("Psi_n", (), False, True),
        (1, 0, 1): ("relative Chow of line pairs over G(3,n)", (), False, True),
        (0, 1, 0): ("Theta_n", (), False, True),
        (1, 0, 0): ("Sym^2 G(1,n)", (), False, True),
        (0, 0, 1): ("G(3,n)", (), False, True),
        (-1, 2, 0): (None, ("E'",), False, False),
        (0, 2, -1): (None, ("E'",), False, False),
        (3, -2, 1): (None, ("N'",), False, False),
        (1, 0, -1): (None, ("E'", "N'"), False, False),
    }
    for coords, (model, locus, ample, bpf) in cases.items():
        rep = chamber_of(lat.divisor(coords), 5)
        assert rep.model == model, coords
        assert rep.base_locus == locus, coords
        assert rep.ample == ample and rep.base_point_free == bpf, coords


def test_rank3_lattice_needs_n_at_least_4():
    with pytest.raises(ValueError):
        wn_lattice(3)


def test_chamber_partition_covers_effective_cone():
    lat = hn_lattice(4)
    rays = picard._HN_RAYS
    for a, b in itertools.product(range(-12, 13), repeat=2):
        if (a, b) == (0, 0):
            continue
        effective = in_cone((a, b), (rays["N"], rays["E"]))
        members = [
            in_cone((a, b), (rays["F"], rays["M"])),
            in_cone((a, b), (rays["M"], rays["N"])),
            in_cone((a, b), (rays["E"], rays["F"])),
        ]
        assert effective == any(members), (a, b)
        if effective:
            chamber_of(lat.divisor((a, b)), 4)
        # overlaps happen only on the shared boundary rays M and F
        if sum(members) > 1:
            prim = _primitive((a, b))
            assert prim in ((1, 0), (0, 1)), (a, b)


def test_chamber_partition_covers_effective_cone_rank3():
    lat = wn_lattice(4)
    rays = picard._WN_RAYS
    eff = (rays["R'"], rays["E'"], rays["N'"])
    for coords in itertools.product(range(-4, 5), repeat=3):
        if coords == (0, 0, 0):
            continue
        if in_cone(coords, eff):
            chamber_of(lat.divisor(coords), 4)  # must not escape the table


def test_canonical_classes():
    assert canonical_class(HN, 3).coords == (-2, -2)
    assert canonical_class(HN, 4).coords == (-1, -4)
    assert canonical_class(HN, 5).coords == (0, -6)
    for n in range(3, 9):
        assert canonical_class(WN, n).coords == (-2, -2, -(n - 3))


def test_fano_ranges():
    for n in range(3, 9):
        assert is_fano(HN, n) == (n in (3, 4)), n
        assert is_fano(WN, n), n


def test_anticanonical_boundary_case():
    # at n=5 the anticanonical class is 6F, on the nef boundary
    k = canonical_class(HN, 5)
    assert (-k.coords[0], -k.coords[1]) == (0, 6)
    rep = chamber_of(hn_lattice(5).divisor((0, 6)), 5)
    assert rep.base_point_free and not rep.ample


@pytest.mark.parametrize("n", range(3, 9))
def test_dimension_table(n):
    dt = dimension_table(n)
    assert dt.loci == {
        "I": 4 * n - 4,
        "II": 4 * n - 5,
        "III": 3 * n - 2,
        "IV": 3 * n - 3,
    }
    assert dt.other_component == 7 * n - 10
    assert dt.tangent_at_planar_double == 8 * n - 12
    assert dt.pair_component == 4 * n - 4
    assert dt.conic_component == 4 * n - 1
    assert dt.components_intersection == 4 * n - 5
    assert dt.transverse_identity


def test_dimension_table_small_case_values():
    dt = dimension_table(3)
    assert (dt.loci["I"], dt.loci["II"], dt.loci["III"], dt.loci["IV"]) == (8, 7, 7, 6)
    assert dt.other_component == 11
    dt4 = dimension_table(4)
    assert (dt4.loci["I"], dt4.loci["II"], dt4.loci["III"], dt4.loci["IV"]) == (12, 11, 10, 9)
    assert dt4.other_component == 18


def test_base_locus_lookup_validated_by_sweeping_curves():
    for n in (3, 4, 6):
        assert oracles.validate_base_locus_data(HN, n)
    for n in (4, 5):
        assert oracles.validate_base_locus_data(WN, n)


def test_chamber_lookup_matches_golden():
    lines = CHAMBERS_GOLDEN.read_text().splitlines()
    assert list(chamber_lines()) == lines


@pytest.mark.parametrize("space, n, entry, message", [
    (HN, 4, ("II", "IV"), "('II', 'IV') not certified by a sweeping curve at [3, -2]"),
    (WN, 4, "E'", "E' not certified by a sweeping curve at [-1, 3, 0]"),
])
def test_base_locus_validator_rejects_a_curve_that_does_not_sweep(
    monkeypatch, space, n, entry, message
):
    # B1 is a moving curve: it meets every effective class non-negatively,
    # so it certifies no base locus
    monkeypatch.setitem(oracles._SWEEPING_CURVES[space], entry, ("B1",))
    with pytest.raises(LatticeDataError) as err:
        oracles.validate_base_locus_data(space, n)
    assert str(err.value) == message
