"""Embedded reference data: normal-form ideals, degeneration families, the
presentation matrices of the planar-double ideal, its explicit tangent
elements, the test-curve pairing tables, and the two conic-with-embedded-
point ideals.

Fixtures are constructed in code (no IO) so the verification battery is
self-contained; each carries a note describing the mathematical fact it
encodes.  Parameterized ids follow the patterns

    ideal_type_<L>_n<k>          normal form of type L in P^k
    family_<name>_n<k>           one-parameter degeneration family
    pencil_planar_double[_mirror]_n<k>
    tangent_<trivial|versal>_elements_n<k>
    lambda_generators_n<k>
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .classify import normal_form_ideal
from .flat_limit import Family
from .ideals import Ideal, intersect
from .picard import DIMENSION_FORMULAS, HN_STATED, WN_STATED
from .rings import PolyRing


@dataclass(frozen=True)
class Fixture:
    id: str
    payload: object
    note: str


class UnknownFixtureError(KeyError):
    pass


# ---------------------------------------------------------------------------
# degeneration families
# ---------------------------------------------------------------------------

def _param_ring(n):
    if n < 3:
        raise ValueError("defined for n >= 3")
    return PolyRing(n + 1, has_param=True)


def family_embedded_limit(n):
    """Pair of codimension-two subspaces whose intersection drops to
    codimension three as t -> 0; the limit acquires an embedded part."""
    ring = _param_ring(n)
    x, t = [ring.x(i) for i in range(4)], ring.t
    return Family(
        intersect(Ideal(ring, [x[0], x[1]]), Ideal(ring, [x[0] + t * x[3], x[2]]))
    )


def family_double_limit(n):
    """Pair collapsing onto a pure double structure as t -> 0."""
    ring = _param_ring(n)
    x, t = [ring.x(i) for i in range(4)], ring.t
    return Family(
        intersect(
            Ideal(ring, [x[0], x[1]]),
            Ideal(ring, [x[0] + t * x[2], x[1] + t * x[3]]),
        )
    )


def quadric_union_factors(n):
    """The two factors of the quadric-union family: a degenerate quadric in
    a hyperplane, and a codimension-three subspace moving onto it."""
    ring = _param_ring(n)
    x, t = [ring.x(i) for i in range(4)], ring.t
    return (
        Ideal(ring, [x[0], x[1] * x[2]]),
        Ideal(ring, [x[1], x[2], t * x[3] + (ring.one - t) * x[0]]),
    )


def family_quadric_union_limit(n):
    """Degenerate quadric union a moving codimension-three subspace; the
    limit is the embedded-point normal form.

    The total ideal is the intersection of the two factors (the ideal of the
    union).  The pairwise-product presentation of the same union is only
    saturation-correct when the two pieces are disjoint (n = 3); from n = 4
    on it picks up an embedded point where they meet.
    """
    a, b = quadric_union_factors(n)
    return Family(intersect(a, b))


def family_substitution_limit(n):
    """The embedded-point normal form pulled along x2 -> x1 + t*x2; the
    limit lands in the planar-double type."""
    ring = _param_ring(n)
    x, t = [ring.x(i) for i in range(4)], ring.t
    base = [x[0] ** 2, x[0] * x[1], x[0] * x[2], x[1] * x[2]]
    return Family(Ideal(ring, [g.substitute({2: x[1] + t * x[2]}) for g in base]))


def pencil_planar_double(n, mirror=False):
    """The planar-double pencil on the affine chart where the other pencil
    coordinate is 1; `mirror` swaps the roles of the two coordinates."""
    ring = _param_ring(n)
    x, t = [ring.x(i) for i in range(4)], ring.t
    if mirror:
        tie = x[0] * x[3] - t * x[1] * x[2]
    else:
        tie = t * x[0] * x[3] - x[1] * x[2]
    return Family(Ideal(ring, [x[0] ** 2, x[0] * x[1], x[1] ** 2, tie]))


# ---------------------------------------------------------------------------
# presentation of the planar-double quotient and its tangent elements
# ---------------------------------------------------------------------------

def lambda_generators(n):
    """Generator row of the planar-double ideal, in presentation order."""
    ring = PolyRing(n + 1)
    x0, x1, x2 = ring.x(0), ring.x(1), ring.x(2)
    return (x0 * x1, x0 * x2, x0**2, x1**2)


def mu_matrix(n):
    """First-syzygy matrix of the generator row (columns are syzygies)."""
    ring = PolyRing(n + 1)
    x0, x1, x2 = ring.x(0), ring.x(1), ring.x(2)
    z = ring.zero
    return (
        (x1, x2, x0, z),
        (z, -x1, z, x0),
        (z, z, -x1, -x2),
        (-x0, z, z, z),
    )


def nu_column(n):
    """Second-syzygy column: the relation among the columns of mu."""
    ring = PolyRing(n + 1)
    x0, x1, x2 = ring.x(0), ring.x(1), ring.x(2)
    return (ring.zero, x0, -x2, x1)


def tangent_trivial_elements(n):
    """The 3n-3 flag-motion assignments, one per coordinate derivation,
    as (name, images) against the presentation generator order."""
    ring = PolyRing(n + 1)
    x = [ring.x(i) for i in range(n + 1)]
    z = ring.zero
    out = []
    for i in range(3, n + 1):
        out.append((f"t0{i}", (x[1] * x[i], x[2] * x[i], 2 * x[0] * x[i], z)))
        out.append((f"t1{i}", (x[0] * x[i], z, z, 2 * x[1] * x[i])))
        out.append((f"t2{i}", (z, x[0] * x[i], z, z)))
    out.append(("t01", (z, x[1] * x[2], z, z)))
    out.append(("t02", (x[1] * x[2], x[2] ** 2, z, z)))
    out.append(("t12", (z, z, z, 2 * x[1] * x[2])))
    return tuple(out)


def tangent_versal_elements(n):
    """The 5(n-2)+1 assignments spanning the non-trivial directions."""
    ring = PolyRing(n + 1)
    x = [ring.x(i) for i in range(n + 1)]
    z = ring.zero
    out = []
    for i in range(3, n + 1):
        out.append((f"u1{i}", (z, x[1] * x[i], z, z)))
        out.append((f"u2{i}", (z, z, x[0] * x[i], z)))
        out.append((f"u3{i}", (z, z, z, x[1] * x[i])))
        out.append((f"u4{i}", (z, z, z, x[2] * x[i])))
        out.append((f"u5{i}", (z, z, z, x[0] * x[i])))
    out.append(("u6", (z, z, z, x[2] ** 2)))
    return tuple(out)


# ---------------------------------------------------------------------------
# conic-with-embedded-point ideals
# ---------------------------------------------------------------------------

def conic_plane_ideal():
    """Planar double line with an embedded point, inside its plane:
    (x*y^2, y^3) in 3 variables (x, y, w) = (x0, x1, x2)."""
    ring = PolyRing(3)
    x, y = ring.x(0), ring.x(1)
    return Ideal(ring, [x * y**2, y**3])


def conic_space_ideal():
    """Same curve inside 3-space: (z, x*y^2, y^3) with
    (x, y, z, w) = (x0, x1, x2, x3)."""
    ring = PolyRing(4)
    x, y, zv = ring.x(0), ring.x(1), ring.x(2)
    return Ideal(ring, [zv, x * y**2, y**3])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_STATIC = {
    "dimension_formulas": (
        lambda: dict(DIMENSION_FORMULAS),
        "locus and component dimensions as linear polynomials in n",
    ),
    "pairing_hn": (
        lambda: dict(HN_STATED),
        "stated test-curve pairings on the rank-2 lattice",
    ),
    "pairing_wn": (
        lambda: dict(WN_STATED),
        "stated test-curve pairings on the rank-3 lattice",
    ),
    "mu_matrix": (
        lambda: mu_matrix(3),
        "first-syzygy matrix of the planar-double presentation (P^3 model)",
    ),
    "nu_column": (
        lambda: nu_column(3),
        "second-syzygy column of the planar-double presentation (P^3 model)",
    ),
    "ideal_conic_plane": (
        conic_plane_ideal,
        "double line with embedded point inside its plane, tangent dim 7",
    ),
    "ideal_conic_space": (
        conic_space_ideal,
        "double line with coplanar embedded point in 3-space; the module Hom "
        "is reported against the sheaf-theoretic count 11",
    ),
}

_FAMILY_BUILDERS = {
    "embedded": (
        family_embedded_limit,
        "pair degenerating to the embedded-point type (III) normal form",
    ),
    "double": (
        family_double_limit,
        "pair degenerating to the pure-double type (II) normal form",
    ),
    "quadric_union": (
        family_quadric_union_limit,
        "quadric-union-plane family with type (III) limit",
    ),
    "substitution": (
        family_substitution_limit,
        "coordinate-substitution family with type (IV) limit",
    ),
}

_PATTERNS = (
    (
        re.compile(r"ideal_type_(I|II|III|IV)_n(\d+)$"),
        lambda m: Fixture(
            m.string,
            normal_form_ideal(int(m.group(2)), m.group(1)),
            f"type ({m.group(1)}) normal form in P^{m.group(2)}",
        ),
    ),
    (
        re.compile(r"family_(embedded|double|quadric_union|substitution)_limit_n(\d+)$"),
        lambda m: Fixture(
            m.string,
            _FAMILY_BUILDERS[m.group(1)][0](int(m.group(2))),
            _FAMILY_BUILDERS[m.group(1)][1],
        ),
    ),
    (
        re.compile(r"pencil_planar_double(_mirror)?_n(\d+)$"),
        lambda m: Fixture(
            m.string,
            pencil_planar_double(int(m.group(2)), mirror=bool(m.group(1))),
            "planar-double pencil on an affine chart of the parameter line",
        ),
    ),
    (
        re.compile(r"tangent_(trivial|versal)_elements_n(\d+)$"),
        lambda m: Fixture(
            m.string,
            tangent_trivial_elements(int(m.group(2)))
            if m.group(1) == "trivial"
            else tangent_versal_elements(int(m.group(2))),
            f"explicit {m.group(1)} tangent assignments for the planar-double ideal",
        ),
    ),
    (
        re.compile(r"lambda_generators_n(\d+)$"),
        lambda m: Fixture(
            m.string,
            lambda_generators(int(m.group(1))),
            "presentation generator row of the planar-double ideal",
        ),
    ),
)


def get(fixture_id):
    """Return the immutable fixture for a known id."""
    entry = _STATIC.get(fixture_id)
    if entry is not None:
        builder, note = entry
        return Fixture(fixture_id, builder(), note)
    for pattern, make in _PATTERNS:
        m = pattern.match(fixture_id)
        if m:
            return make(m)
    raise UnknownFixtureError(fixture_id)
