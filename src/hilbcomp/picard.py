"""Integer Picard lattices of the two Hilbert components, with the test-curve
pairing table, derived divisor relations, chamber decomposition, stable base
loci, canonical classes, Fano ranges, and the dimension identities.

The rank-2 lattice has basis (M, F); the rank-3 lattice of the skew-line
component for n >= 4 has basis (M', F', R').  Pairing rows against the bases
are exact integers; the table distinguishes entries stored as input data
("stated") from entries the relation solver derives.  No intersection theory
is computed geometrically: the table is the ground truth and every derived
relation is solved from it by exact linear algebra, then cross-checked
against all stored entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import LatticeDataError

HN = "hn"
WN = "wn"

# pairing entries taken as raw input data (curve, divisor) -> integer
HN_STATED = {
    ("B1", "M"): 1, ("B1", "N"): 0, ("B1", "F"): 1, ("B1", "E"): 1,
    ("B2", "M"): 1, ("B2", "N"): 2, ("B2", "F"): 0,
    ("B3", "M"): 2, ("B3", "N"): 2, ("B3", "E"): 0,
    ("B4", "M"): 0, ("B4", "F"): 1, ("B4", "E"): 2,
}

# the rank-3 table inherits the rank-2 rows (R'-pairing zero for B1..B4) and
# adds the two extra curves
WN_STATED = {}
for (_c, _d), _v in HN_STATED.items():
    WN_STATED[(_c, _d + "'")] = _v
WN_STATED.update({
    ("B1", "R'"): 0, ("B2", "R'"): 0, ("B3", "R'"): 0, ("B4", "R'"): 0,
    ("B5", "M'"): 1, ("B5", "F'"): 1, ("B5", "R'"): 1,
    ("B5", "N'"): 0, ("B5", "E'"): 0,
    ("B6", "M'"): 0, ("B6", "F'"): 0, ("B6", "R'"): 1,
})


@dataclass(frozen=True)
class DivisorClass:
    space: str
    coords: tuple
    name: str = None

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))


@dataclass(frozen=True)
class CurveClass:
    space: str
    name: str
    row: tuple


@dataclass(frozen=True)
class PicLattice:
    """Basis, curve rows, and the raw stated pairing table for one space."""

    space: str
    n: int
    basis: tuple
    curves: dict
    stated: dict

    def divisor(self, coords, name=None):
        if len(coords) != len(self.basis):
            raise LatticeDataError(f"expected {len(self.basis)} coordinates")
        return DivisorClass(self.space, tuple(int(c) for c in coords), name)

    def basis_divisor(self, name):
        i = self.basis.index(name)
        return self.divisor(tuple(int(i == j) for j in range(len(self.basis))), name)


def hn_lattice(n, stated=None):
    if n < 3:
        raise ValueError("defined for n >= 3")
    stated = dict(HN_STATED if stated is None else stated)
    rows = {
        "B1": (stated[("B1", "M")], stated[("B1", "F")]),
        "B2": (stated[("B2", "M")], stated[("B2", "F")]),
        "B3": (stated[("B3", "M")], None),  # F-pairing of B3 is derived
        "B4": (stated[("B4", "M")], stated[("B4", "F")]),
    }
    curves = {
        name: CurveClass(HN, name, row) for name, row in rows.items()
    }
    return PicLattice(HN, n, ("M", "F"), curves, stated)


def wn_lattice(n, stated=None):
    if n < 4:
        raise ValueError("the rank-3 lattice is defined for n >= 4")
    stated = dict(WN_STATED if stated is None else stated)
    rows = {
        "B1": (stated[("B1", "M'")], stated[("B1", "F'")], stated[("B1", "R'")]),
        "B2": (stated[("B2", "M'")], stated[("B2", "F'")], stated[("B2", "R'")]),
        "B3": (stated[("B3", "M'")], None, stated[("B3", "R'")]),
        "B4": (stated[("B4", "M'")], stated[("B4", "F'")], stated[("B4", "R'")]),
        "B5": (stated[("B5", "M'")], stated[("B5", "F'")], stated[("B5", "R'")]),
        "B6": (stated[("B6", "M'")], stated[("B6", "F'")], stated[("B6", "R'")]),
    }
    curves = {name: CurveClass(WN, name, row) for name, row in rows.items()}
    return PicLattice(WN, n, ("M'", "F'", "R'"), curves, stated)


def pairing(curve, divisor):
    """Exact intersection number through the stored pairing rows."""
    if curve.space != divisor.space:
        raise LatticeDataError("curve and divisor live on different spaces")
    if any(v is None for v in curve.row):
        raise LatticeDataError(
            f"curve {curve.name} has underived pairing entries; run solve_relations"
        )
    return sum(int(a) * int(b) for a, b in zip(curve.row, divisor.coords))


@dataclass(frozen=True)
class RelationReport:
    """solve_relations output: named classes, uniqueness, derived entries."""

    lattice: PicLattice
    classes: dict
    derived: dict
    unique: bool

    def curve(self, name):
        return self.lattice.curves[name]


def _solve_named(rows, values):
    sol = linalg.solve_unique(rows, values)
    if sol is None:
        raise LatticeDataError("pairing data is inconsistent")
    coords, unique = sol
    if not unique:
        raise LatticeDataError("pairing data does not determine a unique class")
    out = []
    for c in coords:
        if c.denominator != 1:
            raise LatticeDataError("pairing data forces non-integral coordinates")
        out.append(int(c))
    return tuple(out)


def solve_relations(lattice):
    """Derive the non-basis divisor classes from stated pairings only,
    then complete the derived table and check global consistency."""
    st = lattice.stated
    if lattice.space == HN:
        M, F, N, E = "M", "F", "N", "E"
        curve_names = ("B1", "B2", "B3", "B4")
    else:
        M, F, N, E = "M'", "F'", "N'", "E'"
        curve_names = ("B1", "B2", "B3", "B4", "B5", "B6")

    def stated_row(curve, names):
        return [st[(curve, d)] for d in names]

    classes = {}
    if lattice.space == HN:
        # N in basis (M, F) from the two fully stated curve rows
        ncoords = _solve_named(
            [stated_row("B1", (M, F)), stated_row("B2", (M, F))],
            [st[("B1", N)], st[("B2", N)]],
        )
        # E in basis (M, N): every entry stated; convert through N
        e_mn = _solve_named(
            [stated_row("B1", (M, N)), stated_row("B3", (M, N))],
            [st[("B1", E)], st[("B3", E)]],
        )
        ecoords = (
            e_mn[0] + e_mn[1] * ncoords[0],
            e_mn[1] * ncoords[1],
        )
        basis_classes = {M: (1, 0), F: (0, 1)}
    else:
        ncoords = _solve_named(
            [stated_row("B1", (M, F, "R'")), stated_row("B2", (M, F, "R'")),
             stated_row("B5", (M, F, "R'"))],
            [st[("B1", N)], st[("B2", N)], st[("B5", N)]],
        )
        e_mnr = _solve_named(
            [stated_row("B1", (M, N, "R'")), stated_row("B3", (M, N, "R'")),
             stated_row("B5", (M, N, "R'"))],
            [st[("B1", E)], st[("B3", E)], st[("B5", E)]],
        )
        ecoords = (
            e_mnr[0] + e_mnr[1] * ncoords[0],
            e_mnr[1] * ncoords[1],
            e_mnr[2] + e_mnr[1] * ncoords[2],
        )
        basis_classes = {M: (1, 0, 0), F: (0, 1, 0), "R'": (0, 0, 1)}

    classes = {
        name: DivisorClass(lattice.space, coords, name)
        for name, coords in basis_classes.items()
    }
    classes[N] = DivisorClass(lattice.space, ncoords, N)
    classes[E] = DivisorClass(lattice.space, ecoords, E)

    # complete the curve rows (fill derived F-pairings), then check everything
    curves = {}
    derived = {}
    for cname in curve_names:
        row = list(lattice.curves[cname].row)
        if None in row:
            # the basis entry is pinned by a stated pairing against a solved
            # class: row . class = stated value
            idx = row.index(None)
            known = None
            for dname in (N, E):
                if (cname, dname) in st:
                    target = classes[dname]
                    rest = sum(
                        row[k] * target.coords[k]
                        for k in range(len(row))
                        if k != idx
                    )
                    if target.coords[idx] == 0:
                        continue
                    val = Fraction(st[(cname, dname)] - rest, target.coords[idx])
                    if val.denominator != 1:
                        raise LatticeDataError("derived pairing is not integral")
                    known = int(val)
                    break
            if known is None:
                raise LatticeDataError(f"cannot derive the row of {cname}")
            row[idx] = known
            derived[(cname, lattice.basis[idx])] = known
        curves[cname] = CurveClass(lattice.space, cname, tuple(row))

    # consistency: every stated entry must match the completed table
    for (cname, dname), value in st.items():
        target = classes.get(dname)
        if target is None or cname not in curves:
            continue
        got = pairing(curves[cname], target)
        if got != value:
            raise LatticeDataError(
                f"pairing table inconsistent at ({cname}, {dname}): "
                f"stored {value}, derived {got}"
            )
    for dname in (N, E):
        for cname in curve_names:
            if (cname, dname) not in st:
                derived[(cname, dname)] = pairing(curves[cname], classes[dname])

    lattice = PicLattice(lattice.space, lattice.n, lattice.basis, curves, lattice.stated)
    return RelationReport(lattice, classes, derived, unique=True)


# ---------------------------------------------------------------------------
# cones and chambers
# ---------------------------------------------------------------------------

def _cone_coefficients(coords, rays):
    """Rational coefficients of coords over the ray matrix, or None."""
    cols = [list(r) for r in rays]
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(len(coords))]
    sol = linalg.solve_unique(rows, [Fraction(c) for c in coords])
    if sol is None:
        return None
    coeffs, unique = sol
    if not unique:
        return None
    return coeffs


def in_cone(coords, rays):
    coeffs = _cone_coefficients(coords, rays)
    return coeffs is not None and all(c >= 0 for c in coeffs)


@dataclass(frozen=True)
class ChamberReport:
    space: str
    n: int
    divisor: tuple
    chamber: str
    base_locus: tuple
    model: str
    ample: bool
    base_point_free: bool

    def to_json(self):
        return {
            "space": self.space,
            "n": self.n,
            "divisor": list(self.divisor),
            "chamber": self.chamber,
            "stable_base_locus": list(self.base_locus),
            "model": self.model,
            "ample": self.ample,
            "base_point_free": self.base_point_free,
        }


# named ray coordinates in the (M, F) basis
_HN_RAYS = {"M": (1, 0), "F": (0, 1), "N": (2, -2), "E": (-1, 2)}


def chamber_of(divisor, n):
    """Chamber, stable base locus, and model of an effective divisor class."""
    if divisor.space == HN:
        return _chamber_hn(divisor, n)
    return _chamber_wn(divisor, n)


def _primitive(coords):
    from math import gcd

    g = 0
    for c in coords:
        g = gcd(g, abs(int(c)))
    return tuple(int(c) // g for c in coords) if g > 1 else tuple(int(c) for c in coords)


def _chamber_hn(divisor, n):
    D = tuple(int(c) for c in divisor.coords)
    if D == (0, 0):
        raise LatticeDataError("the zero class has no chamber")
    R = _HN_RAYS
    prim = _primitive(D)

    if in_cone(D, (R["F"], R["M"])):
        if prim == R["M"]:
            return ChamberReport(HN, n, D, "[F,M]", (), "Sym^2 G(n-2,n)", False, True)
        if prim == R["F"]:
            return ChamberReport(HN, n, D, "[F,M]", (), "Theta_n", False, True)
        return ChamberReport(HN, n, D, "[F,M]", (), "H_n", True, True)
    if in_cone(D, (R["M"], R["N"])):
        model = None if prim == _primitive(R["N"]) else "Sym^2 G(n-2,n)"
        return ChamberReport(HN, n, D, "(M,N]", ("II", "IV"), model, False, False)
    if in_cone(D, (R["E"], R["F"])):
        if prim == R["E"]:
            model = "G(3,n)" if n >= 4 else None
        elif n >= 4:
            model = "Psi_n (flip)"
        else:
            model = "Psi_3 = G(3,5)"
        return ChamberReport(HN, n, D, "[E,F)", ("III", "IV"), model, False, False)
    raise LatticeDataError(f"divisor class {D} is not effective (outside [N,E])")


# named ray coordinates in the (M', F', R') basis
_WN_RAYS = {
    "M'": (1, 0, 0),
    "F'": (0, 1, 0),
    "R'": (0, 0, 1),
    "N'": (2, -2, 0),
    "E'": (-1, 2, -1),
}


def _chamber_wn(divisor, n):
    if n < 4:
        raise ValueError("the rank-3 chamber decomposition is defined for n >= 4")
    D = tuple(int(c) for c in divisor.coords)
    if D == (0, 0, 0):
        raise LatticeDataError("the zero class has no chamber")
    R = _WN_RAYS
    if not in_cone(D, (R["R'"], R["E'"], R["N'"])):
        raise LatticeDataError(f"divisor class {D} is not effective (outside <R',E',N'>)")

    semi = _cone_coefficients(D, (R["R'"], R["F'"], R["M'"]))
    if semi is not None and all(c >= 0 for c in semi):
        r_c, f_c, m_c = semi
        positive = [c > 0 for c in (r_c, f_c, m_c)]
        if all(positive):
            model, ample = "W_n", True
        elif positive == [False, True, True]:
            model, ample = "Bl_Delta Sym^2 G(1,n)", False
        elif positive == [True, True, False]:
            model, ample = "Psi_n", False
        elif positive == [True, False, True]:
            model, ample = "relative Chow of line pairs over G(3,n)", False
        elif positive == [False, True, False]:
            model, ample = "Theta_n", False
        elif positive == [False, False, True]:
            model, ample = "Sym^2 G(1,n)", False
        else:  # ray R'
            model, ample = "G(3,n)", False
        return ChamberReport(WN, n, D, "<R',F',M'>", (), model, ample, True)

    if in_cone(D, (R["E'"], R["F'"], R["R'"])) or in_cone(D, (R["E'"], R["F'"], R["M'"])):
        return ChamberReport(
            WN, n, D, "<E',F',R'> u <E',F',M'>", ("E'",), None, False, False
        )
    if in_cone(D, (R["R'"], R["M'"], R["N'"])):
        return ChamberReport(WN, n, D, "<R',M',N'>", ("N'",), None, False, False)
    if in_cone(D, (R["E'"], R["M'"], R["N'"])):
        return ChamberReport(WN, n, D, "<E',M',N'>", ("E'", "N'"), None, False, False)
    raise LatticeDataError(f"effective class {D} escaped the chamber table")


# ---------------------------------------------------------------------------
# canonical classes, Fano ranges, dimension identities
# ---------------------------------------------------------------------------

# curves sweeping each base-locus entry: negativity against one of them
# certifies the divisor's presence in the stable base locus
_SWEEPING_CURVES = {
    HN: {("II", "IV"): ("B4",), ("III", "IV"): ("B2",)},
    WN: {"E'": ("B2", "B6"), "N'": ("B4",)},
}


def validate_base_locus_data(space, n):
    """Cross-check the chamber lookup against the curve pairings.

    Samples each chamber with positive combinations of its rays; every
    divisor claimed in the stable base locus there must pair negatively with
    one of its sweeping curves (with the other claimed divisors peeled off
    first, mirroring how base loci accumulate).  Raises on any violation.
    """
    if space == HN:
        report = solve_relations(hn_lattice(n))
        ray_classes = {k: report.classes[k] for k in ("M", "F", "N", "E")}
        chambers = (
            (("M", "N"), ("II", "IV")),
            (("E", "F"), ("III", "IV")),
        )
    else:
        report = solve_relations(wn_lattice(n))
        ray_classes = {k: report.classes[k] for k in ("M'", "F'", "R'", "N'", "E'")}
        chambers = (
            (("E'", "F'", "R'"), ("E'",)),
            (("E'", "F'", "M'"), ("E'",)),
            (("R'", "M'", "N'"), ("N'",)),
            (("E'", "M'", "N'"), ("E'", "N'")),
        )
    curves = report.lattice.curves
    width = len(report.lattice.basis)

    def negative_on(locus_key, coords):
        names = _SWEEPING_CURVES[space][locus_key]
        return any(
            sum(a * b for a, b in zip(curves[c].row, coords)) < 0 for c in names
        )

    for rays, locus in chambers:
        for weights in _interior_samples(len(rays)):
            coords = [0] * width
            for w, ray in zip(weights, rays):
                for i, c in enumerate(ray_classes[ray].coords):
                    coords[i] += w * c
            remaining = list(coords)
            if space == HN:
                if not negative_on(locus, remaining):
                    raise LatticeDataError(
                        f"{locus} not certified by a sweeping curve at {coords}"
                    )
            else:
                for entry in locus:
                    if not negative_on(entry, remaining):
                        raise LatticeDataError(
                            f"{entry} not certified by a sweeping curve at {coords}"
                        )
                    # peel the certified divisor before checking the next one
                    weight = max(
                        w for w, ray in zip(weights, rays) if ray == entry
                    ) if entry in rays else 0
                    for i, c in enumerate(ray_classes[entry].coords):
                        remaining[i] -= weight * c
    return True


def _interior_samples(k):
    if k == 2:
        return ((1, 1), (2, 1), (1, 3))
    return ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))


def canonical_class(space, n):
    """K in lattice coordinates: -(n+1)M + (n-2)N on the rank-2 side,
    -(n+1)M' + (n-2)N' + (n-3)E' on the rank-3 side."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    if space == HN:
        return DivisorClass(HN, (n - 5, -(2 * n - 4)), "K")
    return DivisorClass(WN, (-2, -2, -(n - 3)), "K'")


def is_fano(space, n):
    """Whether the anticanonical class is ample."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    if space == HN:
        k = canonical_class(HN, n)
        anti = (-k.coords[0], -k.coords[1])
        coeffs = _cone_coefficients(anti, (_HN_RAYS["F"], _HN_RAYS["M"]))
        return coeffs is not None and all(c > 0 for c in coeffs)
    if n == 3:
        # the rank-3 lattice degenerates at n=3 (the span-a-P3 condition is
        # vacuous), where the space coincides with the rank-2 case
        return is_fano(HN, 3)
    k = canonical_class(WN, n)
    anti = tuple(-c for c in k.coords)
    coeffs = _cone_coefficients(anti, (_WN_RAYS["R'"], _WN_RAYS["F'"], _WN_RAYS["M'"]))
    return coeffs is not None and all(c > 0 for c in coeffs)


@dataclass(frozen=True)
class DimensionTable:
    n: int
    loci: dict                    # type label -> dimension of that locus
    other_component: int          # the quadric-union-plane component
    tangent_at_planar_double: int
    pair_component: int           # skew-line component in the 2m+2 scheme
    conic_component: int
    components_intersection: int
    transverse_identity: bool

    def to_json(self):
        return {
            "n": self.n,
            "loci": dict(self.loci),
            "other_component": self.other_component,
            "tangent_at_planar_double": self.tangent_at_planar_double,
            "pair_component": self.pair_component,
            "conic_component": self.conic_component,
            "components_intersection": self.components_intersection,
            "transverse_identity": self.transverse_identity,
        }


def dimension_table(n):
    if n < 3:
        raise ValueError("defined for n >= 3")
    loci = {"I": 4 * n - 4, "II": 4 * n - 5, "III": 3 * n - 2, "IV": 3 * n - 3}
    other = 7 * n - 10
    tangent = 8 * n - 12
    identity = loci["I"] + other - loci["III"] == tangent
    return DimensionTable(
        n=n,
        loci=loci,
        other_component=other,
        tangent_at_planar_double=tangent,
        pair_component=4 * n - 4,
        conic_component=4 * n - 1,
        components_intersection=4 * n - 5,
        transverse_identity=identity,
    )
