"""Flat limits of one-parameter ideal families at t -> 0.

A Family is a homogeneous (in the x grading) ideal I in QQ[t][x].  Its flat
limit is the special fiber (I : t^oo)|_(t=0) of the t-flat closure,
saturated with respect to the irrelevant ideal; a flatness probe compares
the Hilbert polynomial of the limit with those of deterministic sample
fibers.  Projective pencils are handled on the affine chart where the other
pencil coordinate equals 1; the report records that chart.

The special fiber comes from one homogeneous grevlex basis (D. Bayer and
M. Stillman, "A criterion for detecting m-regularity", Invent. Math. 87,
1987; D. Eisenbud, Commutative Algebra, GTM 150, Prop. 15.12):

1. Homogenize each generator g in (t, h): g^h = sum c * h^(top-e) * t^e * x^a
   over the terms c * t^e * x^a of g, top its largest t-exponent, in
   QQ[x_0..x_n, h, t] with h = x_(n+1), so that t is the last variable.
   Each generator is x-homogeneous, so F = (g^h) is bihomogeneous in the
   x-degree and the (h, t)-degree.
2. Build a grevlex Groebner basis G of F: the minimal entries of
   Buchberger's S-pair loop, unreduced.  Each is bihomogeneous: every
   monomial x^a * h^b * t^c has the one bidegree (|a|, b + c), so an
   S-polynomial of two bihomogeneous elements, and each reduction step by
   one, stays in a single bidegree, and the generators are bihomogeneous.
3. For homogeneous f, t divides f exactly when t divides its grevlex lead:
   with t last, a term of the lead's degree with more t ranks lower.  So
   dividing each element of G, a homogeneous Groebner basis, by the power
   t^k of t in its lead gives a grevlex Groebner basis G' of K = F : t^oo.
4. Setting h = 1 is a localization at h followed by a quotient, and commutes
   with the colon by t: K|_(h=1) = F|_(h=1) : t^oo = I : t^oo.  So the
   special fiber is generated by the images of G' at h = 1, t = 0.  Each
   element of G' is bihomogeneous, so its terms free of t share one power
   h^a of h: the image is h^a * p, with p the x-homogeneous form that keeps
   the element's terms of t-exponent k, h and t dropped.
5. The p form a grevlex Groebner basis of the special fiber.  In(K + (t))
   = in(K) + (t) when t is last (the same Prop. 15.12), so the images
   h^a * p form a grevlex Groebner basis of the bihomogeneous J = K|_(t=0) in
   QQ[x, h].  For f x-homogeneous in (p), h^N * f lies in J for N large,
   and since all its terms carry h^N, lead(h^N * f) = h^N * lead(f); some
   lead h^a * lead(p) divides it, so lead(p) divides lead(f).

The p are cut out of the packed entries, with no Polynomial built from G,
and one interreduction turns them into the reduced grevlex basis of the
special fiber with no S-pair; that basis seeds the fiber's Ideal.
The saturation by the irrelevant ideal, `ideals.saturate`, reads I : x_n^oo
off that seeded basis and certifies it by its Hilbert polynomial, with the
meet of the principal saturations by x_0..x_n as the fallback.

The limit is computed once per Family: `limit_ideal` keeps it on the frozen
Family, so the probe reuses the limit its caller already built.

The sample fibers come from one Groebner basis G of the total ideal I in
the block order x >> t, `elimination_order(range(n))`: x-degree first,
grevlex on x, then t.  G is the minimal entries of Buchberger's loop,
unreduced, read packed: the argument below uses only that G is a Groebner
basis that generates I.  Write each g in G as lc(g) * x^a(g) plus terms
whose x-part is smaller, lc(g) in QQ[t] (M. Kalkbrener, "On the stability
of Groebner bases under specializations", J. Symb. Comp. 24, 1997; compare
V. Weispfenning, "Comprehensive Groebner bases", J. Symb. Comp. 14, 1992).
If no lc(g) vanishes at t0, then G(t0) is a grevlex Groebner basis of the
fiber I(t0), and its leads are the x^a(g):

1. The order ranks x-parts first, so the lead of F in I has F's x-lead as
   its x-part; it is divisible by some lead t^e * x^a(g), so the x-lead of
   F is divisible by some x^a(g).  Let A = QQ[t] localized at
   c = prod lc(g).  A nonzero F in I*A[x] is an element of I over a power
   of c, so its x-lead is divisible by some x^a(g) too; and since lc(g) is
   a unit of A, subtracting a multiple of g cancels that x-lead.  So
   division by G in A[x] ends at 0: F = sum q_g * g with each
   x-lead(q_g) * x^a(g) at most x-lead(F).
2. The S-polynomial of G(t0)'s elements i, j is the image at t0 of the
   S-polynomial S over A of the monic g_i / lc(g_i), g_j / lc(g_j).  S lies
   in I*A[x] with x-lead below the lcm x^b of x^a(g_i), x^a(g_j), so by 1
   its image is sum q_g(t0) * g(t0) with every lead below x^b, a standard
   representation.  By Buchberger's criterion G(t0) is a Groebner basis of
   the ideal it generates, which is I(t0) since G generates I.

So every such fiber has the Hilbert series of the monomial ideal of the
x-leads, computed once per probe.  A vanishing lc(g) only makes t0 a
candidate: G(t0) may then fail to be a Groebner basis while I(t0) still
has the generic Hilbert polynomial, as for ((t - 1)*x0 + x1, x2) at t0 = 1.
A candidate's fiber is computed from the specialized ideal itself; that
fiber is not saturated.  For a homogeneous ideal I of S, the saturation
I^sat = I : m^oo satisfies m^k I^sat in I for some k, so I^sat / I is a
finitely generated graded module killed by a power of m and has finite
length; it vanishes in all large degrees, so S/I and S/I^sat have the same
Hilbert function there and HP(S/I) = HP(S/I^sat).  Specializing
t -> t0 = p/q is one integer pass per generator (see `_specialize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import HomogeneityError, RingMismatchError
from .groebner import _Entry, _interreduced, _minimal, _monic, _ring_packing, buchberger
from .hilbert import _minimalize, _numerator, hilbert_data, hilbert_series
from .ideals import Ideal, _with_seeded_gb, irrelevant_ideal, saturate
from .rings import GREVLEX, PolyRing, elimination_order

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


def _special_fiber(total):
    """(I : t^oo)|_(t=0) for the total ideal I of a family, with its reduced
    grevlex basis seeded: steps 1-5 of the module docstring.  Never zero,
    since each element of G' keeps its lead term in p."""
    ring = total.ring
    if ring.num_aux:
        raise RingMismatchError("cannot specialize a ring with auxiliary variables")
    n, k = ring.num_vars, ring.param_index
    hom = PolyRing(n + 1, has_param=True)  # x_0..x_(n-1), h, then t last
    homogenized = []
    for g in total.generators:
        top = max(m[k] for m, _ in g.terms)
        homogenized.append(hom.from_dict({m[:n] + (top - m[k], m[k]): c for m, c in g.terms}))
    base = PolyRing(n)
    pk = _ring_packing(base)
    gb = buchberger(homogenized, GREVLEX, transform=False)
    unpack = _ring_packing(gb.ring).unpack
    fibers = []
    for entry in gb._minimal:
        e = entry.lead[-1]
        p = {}
        for m, c in entry.terms():
            m = unpack(m)
            # the kept terms share one power of h, so they stay in grevlex order
            if m[-1] == e:
                p[pk.pack(m[:n])] = c
        fibers.append(_Entry(p, pk))
    return _with_seeded_gb(base, _monic(base, _interreduced(_minimal(fibers, pk), base, False)))


def limit_ideal(fam):
    """Special fiber of the t-flat closure, saturated by the irrelevant
    ideal: `_special_fiber` (the proof is in the module docstring), then
    `saturate`.  Canonical reduced basis, built once per Family; a family
    without a limit raises on every call."""
    if fam._limit is None:
        if fam.total_ideal.is_zero():
            raise ValueError("family is identically zero")
        special = _special_fiber(fam.total_ideal)
        limit = saturate(special, irrelevant_ideal(special.ring))
        object.__setattr__(fam, "_limit", limit)
    return fam._limit


def fiber(fam, t0):
    """Saturated fiber ideal at an explicit rational parameter value."""
    at = _specialize(fam.total_ideal, Fraction(t0))
    if at.is_zero():
        return at
    base = fam.base_ring()
    return saturate(at, irrelevant_ideal(base))


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
    points against the limit; flat iff all agree.  The fibers come from one
    block-order basis of the family (module docstring): at a point where no
    leading coefficient vanishes the polynomial is that of the basis's
    x-leads, and only at the other points is the fiber specialized."""
    if samples < 2:
        raise ValueError("need at least two sample points")
    if samples > len(SAMPLE_POINTS):
        raise ValueError(f"at most {len(SAMPLE_POINTS)} deterministic samples available")
    points = SAMPLE_POINTS[:samples]
    limit_hp = hilbert_series(limit_ideal(fam)).hilbert_polynomial
    total = fam.total_ideal
    n, k = total.ring.num_vars, total.ring.param_index
    gb = buchberger(total.generators, elimination_order(range(n)), transform=False)
    unpack = _ring_packing(gb.ring).unpack
    leads, lcs = [], []
    for entry in gb._minimal:
        lead = entry.lead[:n]
        leads.append(lead)
        # x-parts rank first, so the terms with the lead's x-part come first
        lc = []
        for m, c in entry.terms():
            m = unpack(m)
            if m[:n] != lead:
                break
            lc.append((c, m[k]))
        lcs.append(lc)
    base = fam.base_ring()
    generic_hp = hilbert_data(base.width, _numerator(_minimalize(leads)).coeffs).hilbert_polynomial
    polys = []
    bad = []
    for t0 in points:
        if all(sum(c * t0**e for c, e in lc) for lc in lcs):
            hp = generic_hp
        else:
            hp = hilbert_series(_specialize(total, t0)).hilbert_polynomial
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
