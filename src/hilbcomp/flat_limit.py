"""Flat limits of one-parameter ideal families at t -> 0.

A Family is a homogeneous (in the x grading) ideal in QQ[t][x].  The limit
of the t-flat closure is computed by saturating out t, specializing t = 0,
and saturating with respect to the irrelevant ideal; a flatness probe
compares the Hilbert polynomial of the limit with those of deterministic
sample fibers.  Both saturations are `ideals.saturate`: by (t) it is one
elimination of u from (I, 1 - u*t), and by the irrelevant ideal it is read
off the grevlex basis of the fiber and certified by its Hilbert polynomial,
with the quotient loop as the fallback.  Projective pencils are handled on
the affine chart where the other pencil coordinate equals 1; the report
records that chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import HomogeneityError
from .hilbert import hilbert_series
from .ideals import Ideal, irrelevant_ideal, saturate
from .rings import PolyRing

SAMPLE_POINTS = (
    Fraction(1),
    Fraction(2),
    Fraction(1, 3),
    Fraction(3),
    Fraction(1, 5),
    Fraction(5),
    Fraction(2, 7),
    Fraction(7),
)


@dataclass(frozen=True)
class Family:
    """One-parameter family of homogeneous ideals, total ideal in QQ[t][x]."""

    total_ideal: Ideal

    def __post_init__(self):
        ring = self.total_ideal.ring
        if not ring.has_param:
            raise ValueError("a family needs the parameter variable t")
        if not self.total_ideal.is_x_homogeneous():
            raise HomogeneityError("family generators must be homogeneous in x")

    @property
    def ring(self):
        return self.total_ideal.ring

    def base_ring(self):
        return PolyRing(self.ring.num_vars)


def family(ring, generators):
    """Convenience constructor accepting polynomial text."""
    return Family(Ideal(ring, generators))


def _specialize(I, t0):
    """Image of an ideal of QQ[t][x] under t -> t0, as an ideal of QQ[x]."""
    ring = I.ring
    base = PolyRing(ring.num_vars)
    out = []
    for g in I.generators:
        h = g.substitute(ring.param_index, t0)
        if not h.is_zero():
            out.append(h.convert(base))
    return Ideal(base, out)


def limit_ideal(fam):
    """Special fiber of the t-flat closure: saturate out t, set t = 0,
    then saturate by the irrelevant ideal.  Canonical reduced basis."""
    if fam.total_ideal.is_zero():
        raise ValueError("family is identically zero")
    ring = fam.ring
    t_param = Ideal(ring, [ring.t])
    special = _specialize(saturate(fam.total_ideal, t_param), 0)
    if special.is_zero():
        raise ValueError("family vanishes identically at t = 0 after saturation")
    return saturate(special, irrelevant_ideal(special.ring)).canonical()


def fiber(fam, t0):
    """Saturated fiber ideal at an explicit rational parameter value."""
    at = _specialize(fam.total_ideal, Fraction(t0))
    if at.is_zero():
        return at
    base = fam.base_ring()
    return saturate(at, irrelevant_ideal(base)).canonical()


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    limit_polynomial: object
    sample_points: tuple
    sample_polynomials: tuple
    mismatched_points: tuple
    chart: str = "affine chart: second pencil coordinate set to 1"

    def to_json(self):
        return {
            "flat": self.flat,
            "limit_polynomial": str(self.limit_polynomial),
            "samples": [
                {"t": str(t), "polynomial": str(p)}
                for t, p in zip(self.sample_points, self.sample_polynomials)
            ],
            "mismatched_points": [str(t) for t in self.mismatched_points],
            "chart": self.chart,
        }


def flatness_probe(fam, samples=3):
    """Compare fiber Hilbert polynomials at deterministic nonzero sample
    points against the limit; flat iff all agree."""
    if samples < 2:
        raise ValueError("need at least two sample points")
    if samples > len(SAMPLE_POINTS):
        raise ValueError(f"at most {len(SAMPLE_POINTS)} deterministic samples available")
    points = SAMPLE_POINTS[:samples]
    limit_hp = hilbert_series(limit_ideal(fam)).hilbert_polynomial
    polys = []
    bad = []
    for t0 in points:
        hp = hilbert_series(fiber(fam, t0)).hilbert_polynomial
        polys.append(hp)
        if hp != limit_hp:
            bad.append(t0)
    return FlatnessReport(
        flat=not bad,
        limit_polynomial=limit_hp,
        sample_points=points,
        sample_polynomials=tuple(polys),
        mismatched_points=tuple(bad),
    )
