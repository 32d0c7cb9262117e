"""Flat limits of one-parameter ideal families at t -> 0.

A Family is a homogeneous (in the x grading) ideal in QQ[t][x].  The limit
of the t-flat closure is computed by saturating out t, specializing t = 0,
and saturating with respect to the irrelevant ideal; a flatness probe
compares the Hilbert polynomial of the limit with those of deterministic
sample fibers.  Both saturations are `ideals.saturate`: by (t) it is one
elimination of u from (I, 1 - u*t), and by the irrelevant ideal it is read
off the grevlex basis of the fiber and certified by its Hilbert polynomial,
with the meet of the principal saturations by x_0..x_n as the fallback.
Projective pencils are handled on the affine chart where the other pencil
coordinate equals 1; the report records that chart.

The limit is computed once per Family: `limit_ideal` keeps it on the frozen
Family, so the probe reuses the limit its caller already built.  The probe
does not saturate its sample fibers.  For a homogeneous ideal I of S, the
saturation I^sat = I : m^oo satisfies m^k I^sat in I for some k, so
I^sat / I is a finitely generated graded module killed by a power of m and
has finite length; it vanishes in all large degrees, so S/I and S/I^sat
have the same Hilbert function there and HP(S/I) = HP(S/I^sat).  The
Hilbert polynomial of a fiber is therefore read off the specialized ideal
itself.  Specializing t -> t0 = p/q is one integer pass per generator (see
`_specialize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import HomogeneityError, RingMismatchError
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
    # the limit ideal once `limit_ideal` has built it
    _limit: object = field(default=None, init=False, compare=False, repr=False)

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
    """Image of an ideal of QQ[t][x] under t -> t0, as an ideal of QQ[x].

    One pass per generator g: with D the lcm of g's denominators, e_max its
    top t-exponent and t0 = p/q, the term c * t^e * x^a adds the integer
    c * D * p^e * q^(e_max - e) to the numerator of x^a, and g(t0) is those
    numerators over D * q^e_max.
    """
    ring = I.ring
    if ring.num_aux:
        raise RingMismatchError("cannot specialize a ring with auxiliary variables")
    base = PolyRing(ring.num_vars)
    n, k = ring.num_vars, ring.param_index
    t0 = Fraction(t0)
    p, q = t0.numerator, t0.denominator
    out = []
    for g in I.generators:
        den = lcm(*(c.denominator for _, c in g.terms))
        top = max(m[k] for m, _ in g.terms)
        acc = {}
        for m, c in g.terms:
            e = m[k]
            x = m[:n]
            acc[x] = acc.get(x, 0) + c.numerator * (den // c.denominator) * p**e * q ** (top - e)
        den *= q**top
        h = base.from_dict({x: Fraction(v, den) for x, v in acc.items()})
        if not h.is_zero():
            out.append(h)
    return Ideal(base, out)


def limit_ideal(fam):
    """Special fiber of the t-flat closure: saturate out t, set t = 0,
    then saturate by the irrelevant ideal.  Canonical reduced basis, built
    once per Family; a family without a limit raises on every call."""
    if fam._limit is None:
        if fam.total_ideal.is_zero():
            raise ValueError("family is identically zero")
        ring = fam.ring
        t_param = Ideal(ring, [ring.t])
        special = _specialize(saturate(fam.total_ideal, t_param), 0)
        if special.is_zero():
            raise ValueError("family vanishes identically at t = 0 after saturation")
        limit = saturate(special, irrelevant_ideal(special.ring)).canonical()
        object.__setattr__(fam, "_limit", limit)
    return fam._limit


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
    points against the limit; flat iff all agree.  Each fiber's polynomial
    is read off the unsaturated specialization, which has the same one
    (module docstring)."""
    if samples < 2:
        raise ValueError("need at least two sample points")
    if samples > len(SAMPLE_POINTS):
        raise ValueError(f"at most {len(SAMPLE_POINTS)} deterministic samples available")
    points = SAMPLE_POINTS[:samples]
    limit_hp = hilbert_series(limit_ideal(fam)).hilbert_polynomial
    polys = []
    bad = []
    for t0 in points:
        hp = hilbert_series(_specialize(fam.total_ideal, t0)).hilbert_polynomial
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
