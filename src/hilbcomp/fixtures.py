"""Embedded reference data, built in code (no IO) so the verification
battery is self-contained.  Each builder is a plain function:

    family_embedded_limit(n), family_double_limit(n),
    family_quadric_union_limit(n), family_substitution_limit(n)
                                  degenerations with limits of types III, II, III, IV
    quadric_union_factors(n)      the two factors of the quadric-union family
    lambda_generators(n), mu_matrix(n), nu_column(n)
                                  presentation of the planar-double quotient
    tangent_trivial_elements(n), tangent_versal_elements(n)
                                  its explicit 8n-12 tangent elements
    conic_plane_ideal(), conic_space_ideal()
                                  the two conic-with-embedded-point ideals

`get` resolves one id form, `family_<name>_limit_n<k>`, for the benchmark's
workloads, which name their families that way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .flat_limit import Family
from .ideals import Ideal, intersect
from .rings import PolyRing


@dataclass(frozen=True)
class Fixture:
    id: str
    payload: object


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


_FAMILY_ID = re.compile(r"family_(embedded|double|quadric_union|substitution)_limit_n(\d+)$")


def get(fixture_id):
    """The degeneration family `family_<name>_limit_n<k>`, as a Fixture."""
    m = _FAMILY_ID.match(fixture_id)
    if m is None:
        raise UnknownFixtureError(fixture_id)
    build = {
        "embedded": family_embedded_limit,
        "double": family_double_limit,
        "quadric_union": family_quadric_union_limit,
        "substitution": family_substitution_limit,
    }[m.group(1)]
    return Fixture(fixture_id, build(int(m.group(2))))
