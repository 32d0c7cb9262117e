"""Integer Picard lattices of the two Hilbert components, with the test-curve
pairing table, derived divisor relations, chamber decomposition, stable base
loci, canonical classes, Fano ranges, and the dimension identities.

The rank-2 lattice has basis (M, F); the rank-3 lattice of the skew-line
component for n >= 4 has basis (M', F', R').  Pairing rows against the bases
are exact integers; the table distinguishes entries stored as input data
("stated") from entries the relation solver derives.  No intersection theory
is computed geometrically: the table is the ground truth and every derived
relation is solved from it by exact linear algebra, then cross-checked
against all stored entries.  Each space is described by tables (lattice
spec, rays, chamber list) that one code path per job reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
WN_STATED = {(c, d + "'"): v for (c, d), v in HN_STATED.items()}
WN_STATED.update({
    ("B1", "R'"): 0, ("B2", "R'"): 0, ("B3", "R'"): 0, ("B4", "R'"): 0,
    ("B5", "M'"): 1, ("B5", "F'"): 1, ("B5", "R'"): 1,
    ("B5", "N'"): 0, ("B5", "E'"): 0,
    ("B6", "M'"): 0, ("B6", "F'"): 0, ("B6", "R'"): 1,
})


class _LatticeSpec(NamedTuple):
    """What the one lattice builder and relation solver read per space."""

    basis: tuple
    curves: tuple
    open_entry: tuple   # the one (curve, basis divisor) pairing left to the solver
    solve_n: tuple      # (N, curves whose stated rows give N in the basis)
    solve_e: tuple      # (E, curves whose stated rows give E, N in place of F)
    stated: dict
    n_min: int
    n_error: str


_LATTICE_SPECS = {
    HN: _LatticeSpec(
        ("M", "F"), ("B1", "B2", "B3", "B4"), ("B3", "F"),
        ("N", ("B1", "B2")), ("E", ("B1", "B3")),
        HN_STATED, 3, "defined for n >= 3",
    ),
    WN: _LatticeSpec(
        ("M'", "F'", "R'"), ("B1", "B2", "B3", "B4", "B5", "B6"), ("B3", "F'"),
        ("N'", ("B1", "B2", "B5")), ("E'", ("B1", "B3", "B5")),
        WN_STATED, 4, "the rank-3 lattice is defined for n >= 4",
    ),
}


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
            raise ValueError(f"expected {len(self.basis)} coordinates")
        return DivisorClass(self.space, tuple(int(c) for c in coords), name)

    def basis_divisor(self, name):
        i = self.basis.index(name)
        return self.divisor(tuple(int(i == j) for j in range(len(self.basis))), name)


def _lattice(space, n, stated):
    spec = _LATTICE_SPECS[space]
    if n < spec.n_min:
        raise ValueError(spec.n_error)
    stated = dict(spec.stated if stated is None else stated)
    curves = {
        c: CurveClass(space, c, tuple(
            None if (c, d) == spec.open_entry else stated[(c, d)] for d in spec.basis
        ))
        for c in spec.curves
    }
    return PicLattice(space, n, spec.basis, curves, stated)


def hn_lattice(n, stated=None):
    return _lattice(HN, n, stated)


def wn_lattice(n, stated=None):
    return _lattice(WN, n, stated)


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
    if any(c.denominator != 1 for c in coords):
        raise LatticeDataError("pairing data forces non-integral coordinates")
    return tuple(int(c) for c in coords)


def solve_relations(lattice):
    """Derive the non-basis divisor classes from stated pairings only,
    then complete the derived table and check global consistency."""
    st = lattice.stated
    spec = _LATTICE_SPECS[lattice.space]
    basis = lattice.basis
    (N, n_curves), (E, e_curves) = spec.solve_n, spec.solve_e
    f = basis.index(spec.open_entry[1])

    def solve(target, names, curve_names):
        return _solve_named(
            [[st[(c, d)] for d in names] for c in curve_names],
            [st[(c, target)] for c in curve_names],
        )

    ncoords = solve(N, basis, n_curves)
    # E in the basis with N in place of F: every entry stated; convert through N
    e_alt = solve(E, basis[:f] + (N,) + basis[f + 1:], e_curves)
    ecoords = tuple(
        (e_alt[i] if i != f else 0) + e_alt[f] * ncoords[i] for i in range(len(basis))
    )
    classes = {name: lattice.basis_divisor(name) for name in basis}
    classes[N] = DivisorClass(lattice.space, ncoords, N)
    classes[E] = DivisorClass(lattice.space, ecoords, E)

    # complete the curve rows (fill derived F-pairings), then check everything
    curves = {}
    derived = {}
    for cname in spec.curves:
        row = list(lattice.curves[cname].row)
        if None in row:
            # the open entry is pinned by a stated pairing against a solved
            # class: row . class = stated value
            idx = row.index(None)
            for dname in (N, E):
                target = classes[dname].coords
                if (cname, dname) in st and target[idx] != 0:
                    rest = sum(row[k] * target[k] for k in range(len(row)) if k != idx)
                    val = Fraction(st[(cname, dname)] - rest, target[idx])
                    if val.denominator != 1:
                        raise LatticeDataError("derived pairing is not integral")
                    break
            else:
                raise LatticeDataError(f"cannot derive the row of {cname}")
            row[idx] = derived[(cname, basis[idx])] = int(val)
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
        for cname in spec.curves:
            if (cname, dname) not in st:
                derived[(cname, dname)] = pairing(curves[cname], classes[dname])

    lattice = PicLattice(lattice.space, lattice.n, basis, curves, lattice.stated)
    return RelationReport(lattice, classes, derived, unique=True)


# ---------------------------------------------------------------------------
# cones and chambers
# ---------------------------------------------------------------------------

def _cone_coefficients(coords, rays):
    """Rational coefficients of coords over the ray matrix, or None."""
    rows = [[r[i] for r in rays] for i in range(len(coords))]
    sol = linalg.solve_unique(rows, [Fraction(c) for c in coords])
    return sol[0] if sol is not None and sol[1] else None


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


# named ray coordinates in the (M, F) and (M', F', R') bases
_HN_RAYS = {"M": (1, 0), "F": (0, 1), "N": (2, -2), "E": (-1, 2)}
_WN_RAYS = {
    "M'": (1, 0, 0), "F'": (0, 1, 0), "R'": (0, 0, 1), "N'": (2, -2, 0), "E'": (-1, 2, -1),
}
_RAYS = {HN: _HN_RAYS, WN: _WN_RAYS}

# the effective cone and its label in the "not effective" message
_EFFECTIVE_CONES = {HN: (("N", "E"), "[N,E]"), WN: (("R'", "E'", "N'"), "<R',E',N'>")}


class _Chamber(NamedTuple):
    cones: tuple    # ray-name tuples; the chamber is their union
    name: str
    locus: tuple    # stable base locus
    models: dict    # positive-ray pattern -> (model for n >= 4, model for n = 3)


# lookup order matters on shared faces; the first entry is the nef cone.
# Models are keyed by which rays of the matching cone have a positive
# coefficient; a pattern missing from the table has no model.
_CHAMBERS = {
    HN: (
        _Chamber((("F", "M"),), "[F,M]", (), {
            (True, True): ("H_n", "H_n"),
            (False, True): ("Sym^2 G(n-2,n)", "Sym^2 G(n-2,n)"),
            (True, False): ("Theta_n", "Theta_n"),
        }),
        _Chamber((("M", "N"),), "(M,N]", ("II", "IV"), {
            (True, True): ("Sym^2 G(n-2,n)", "Sym^2 G(n-2,n)"),
        }),
        _Chamber((("E", "F"),), "[E,F)", ("III", "IV"), {
            (True, False): ("G(3,n)", None),
            (True, True): ("Psi_n (flip)", "Psi_3 = G(3,5)"),
        }),
    ),
    WN: (
        _Chamber((("R'", "F'", "M'"),), "<R',F',M'>", (), {
            (True, True, True): ("W_n", "W_n"),
            (False, True, True): ("Bl_Delta Sym^2 G(1,n)", "Bl_Delta Sym^2 G(1,n)"),
            (True, True, False): ("Psi_n", "Psi_n"),
            (True, False, True): (
                "relative Chow of line pairs over G(3,n)",
                "relative Chow of line pairs over G(3,n)",
            ),
            (False, True, False): ("Theta_n", "Theta_n"),
            (False, False, True): ("Sym^2 G(1,n)", "Sym^2 G(1,n)"),
            (True, False, False): ("G(3,n)", "G(3,n)"),
        }),
        _Chamber(
            (("E'", "F'", "R'"), ("E'", "F'", "M'")), "<E',F',R'> u <E',F',M'>",
            ("E'",), {},
        ),
        _Chamber((("R'", "M'", "N'"),), "<R',M',N'>", ("N'",), {}),
        _Chamber((("E'", "M'", "N'"),), "<E',M',N'>", ("E'", "N'"), {}),
    ),
}


def _cone_weights(space, coords, cone):
    """Coefficients of coords over the named rays when coords lies in their
    cone, else None."""
    coeffs = _cone_coefficients(coords, tuple(_RAYS[space][r] for r in cone))
    return coeffs if coeffs is not None and all(c >= 0 for c in coeffs) else None


def chamber_of(divisor, n):
    """Chamber, stable base locus, and model of an effective divisor class."""
    space = divisor.space
    if space == WN and n < 4:
        raise ValueError("the rank-3 chamber decomposition is defined for n >= 4")
    D = tuple(int(c) for c in divisor.coords)
    if not any(D):
        raise LatticeDataError("the zero class has no chamber")
    effective, label = _EFFECTIVE_CONES[space]
    if _cone_weights(space, D, effective) is None:
        raise LatticeDataError(f"divisor class {D} is not effective (outside {label})")
    for index, chamber in enumerate(_CHAMBERS[space]):
        for cone in chamber.cones:
            coeffs = _cone_weights(space, D, cone)
            if coeffs is not None:
                positive = tuple(c > 0 for c in coeffs)
                model = chamber.models.get(positive, (None, None))[n == 3]
                nef = index == 0
                return ChamberReport(
                    space, n, D, chamber.name, chamber.locus, model,
                    nef and all(positive), nef,
                )
    raise LatticeDataError(f"effective class {D} escaped the chamber table")


# ---------------------------------------------------------------------------
# canonical classes, Fano ranges, dimension identities
# ---------------------------------------------------------------------------

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
    if n == 3:
        # the rank-3 lattice degenerates at n=3 (the span-a-P3 condition is
        # vacuous), where the space coincides with the rank-2 case
        space = HN
    anti = tuple(-c for c in canonical_class(space, n).coords)
    coeffs = _cone_weights(space, anti, _CHAMBERS[space][0].cones[0])
    return coeffs is not None and all(c > 0 for c in coeffs)


# linear formulas a*n + b for the dimension bookkeeping
DIMENSION_FORMULAS = {
    "locus_I": (4, -4),
    "locus_II": (4, -5),
    "locus_III": (3, -2),
    "locus_IV": (3, -3),
    "other_component": (7, -10),
    "tangent_at_planar_double": (8, -12),
    "pair_component": (4, -4),
    "conic_component": (4, -1),
    "components_intersection": (4, -5),
}


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


def dimension_table(n):
    if n < 3:
        raise ValueError("defined for n >= 3")
    dims = {key: a * n + b for key, (a, b) in DIMENSION_FORMULAS.items()}
    loci = {label: dims.pop(f"locus_{label}") for label in ("I", "II", "III", "IV")}
    identity = (
        loci["I"] + dims["other_component"] - loci["III"] == dims["tangent_at_planar_double"]
    )
    return DimensionTable(n=n, loci=loci, transverse_identity=identity, **dims)
