"""Flat limits of one-parameter ideal families at t -> 0.

A Family is a homogeneous (in the x grading) ideal I in QQ[t][x].  Its flat
limit is the special fiber (I : t^oo)|_(t=0) of the t-flat closure,
saturated with respect to the irrelevant ideal; a flatness probe compares
the Hilbert polynomial of the limit with those of deterministic sample
fibers.  Projective pencils are handled on the affine chart where the other
pencil coordinate equals 1; the report records that chart.

Both Groebner bases of a family are built on its essential variables.
Step 0: `ideals.essential_form`, run once per Family and kept on it, writes
the generators in QQ[t][y_0..y_(m-1)], m = max(4, k), as the small family
I', with linear forms ell_0..ell_(m-1) of x: the map phi: y_i -> ell_i,
t -> t sends each generator of I' to the generator of I it came from.
With S' = QQ[y_0..y_(m-1)] and S = QQ[x_0..x_n]:

(a) Carlini's argument holds over QQ[t] (its proof is in `essential_form`):
    W is spanned by the rows of the x-partials over every monomial t^e * x^mu,
    so a constant vector v is orthogonal to W exactly when every d_v g is 0
    as a polynomial in t and x.  The change of coordinates y = A x is
    constant in t, so I = phi(I') QQ[t][x], and completed by y_m..y_n it
    identifies QQ[t][x] with S'[t][z], z = y_m..y_n the dropped variables.
(b) S'[t][z] is the free S'[t]-module on the monomials z^v, and J'S'[t][z]
    is the sum of the J' * z^v for an ideal J' of S'[t].  So the colon by t
    (t acts on each summand), setting t = 0 or t = t0, and reading a Hilbert
    series all commute with the extension: (J'S[t] : t^oo)|_(t=0) is
    (J' : t^oo)|_(t=0) S, and S/J'S is the sum of the (S'/J') * z^v, whose
    series is HS(S'/J') / (1 - T)^(n + 1 - m): the numerator Q of a series
    Q / (1 - T)^width does not depend on the number of variables, and the
    same holds for a monomial ideal of S' and its extension.  The
    saturation by the irrelevant ideal runs in S, after the map.
(c) ell_i is x_(p_i) plus later free variables for i < k (an rref row of W
    with pivot p_i), and the special fiber's basis involves only
    y_0..y_(k-1), as its generators do: S-pairs and reductions bring in no
    variable.  A product's grevlex lead is the product of the leads, so
    phi(y^a) leads with x^r(a), r renaming y_i to x_(p_i), and r keeps
    grevlex since p_0 < ... < p_(k-1): the last variable where two renamed
    monomials differ is the renamed last y where they differ.  So
    lead(phi f) = r(lead f) for f in S'.  If G is a grevlex Groebner basis
    of an ideal F' of S' in those variables, the r(lead g) lie in
    in(F'S), and S/(r(in F')) has the Hilbert function of S'/in(F')
    extended by n + 1 - m free variables, which by (b) is that of S/F'S:
    the two monomial ideals, one inside the other, are equal, and phi(G) is
    a Groebner basis of F'S.

The special fiber comes from one homogeneous grevlex basis (D. Bayer and
M. Stillman, "A criterion for detecting m-regularity", Invent. Math. 87,
1987; D. Eisenbud, Commutative Algebra, GTM 150, Prop. 15.12).  Steps 1-5
hold for any family I in QQ[t][x_0..x_n]; they run on the small family I',
with y_0..y_(m-1) for x_0..x_n:

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
6. By (b) the special fiber of the family is that of I' extended along phi,
   and by (c) the phi(p) are a grevlex Groebner basis of it.

The p are cut out of the packed entries and mapped into S's packing as
packed integer term dicts, with no Polynomial built from G: y_i goes to
D * ell_i, D the lcm of the forms' denominators, so each image is
D^deg(p) * phi(p), a positive multiple, as p is y-homogeneous.  The images
seed the fiber's grevlex basis (`groebner.seeded_basis`): one
interreduction, with no S-pair, turns them into the reduced basis whose
elements generate the fiber's Ideal.  When m >= n + 1 the ell_i are the
variables and the same code only repacks.  The saturation by the
irrelevant ideal, `ideals.saturate`, returns the fiber itself when x_n
divides no lead of that seeded basis, and otherwise meets the principal
saturations by x_0..x_n.

The limit is computed once per Family: `limit_ideal` keeps it on the frozen
Family, so the probe reuses the limit its caller already built.

The sample fibers come from one Groebner basis G of a family I in the block
order x >> t, `elimination_order(range(n))`: x-degree first, grevlex on x,
then t; it is built for the small family I', whose fibers extend to the
family's by (b).  G is the minimal entries of Buchberger's loop,
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
x-leads, computed once per probe (`hilbert.monomial_data`), and by (b) its
numerator read over S's n + 1 variables is that of the family's fiber.  A
vanishing lc(g) only makes t0 a candidate: G(t0) may then fail to be a
Groebner basis while I(t0) still has the generic Hilbert polynomial, as
for ((t - 1)*x0 + x1, x2) at t0 = 1.  A candidate's fiber is computed from
the specialized small ideal itself and its numerator read over S's
variables in the same way; that fiber is not saturated.  For a homogeneous
ideal I of S, the saturation I^sat = I : m^oo satisfies m^k I^sat in I for
some k, so I^sat / I is a finitely generated graded module killed by a
power of m and has finite length; it vanishes in all large degrees, so S/I
and S/I^sat have the same Hilbert function there and HP(S/I) =
HP(S/I^sat).  Specializing t -> t0 = p/q is one integer pass per generator
(see `_specialize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import HomogeneityError, RingMismatchError
from .groebner import _ring_packing, buchberger, seeded_basis
from .hilbert import hilbert_data, hilbert_series, monomial_data
from .ideals import Ideal, _with_seeded_gb, essential_form, irrelevant_ideal, saturate
from .rings import GREVLEX, PolyRing, elimination_order

SAMPLE_POINTS = (Fraction(1), Fraction(2), Fraction(1, 3))


@dataclass(frozen=True)
class Family:
    """One-parameter family of homogeneous ideals, total ideal in QQ[t][x]."""

    total_ideal: Ideal
    # the limit ideal once `limit_ideal` has built it
    _limit: object = field(default=None, init=False, compare=False, repr=False)
    # the essential form once `_essential` has computed it
    _essential: object = field(default=None, init=False, compare=False, repr=False)

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


def _essential(fam):
    """(I', columns, ells) of `ideals.essential_form` on the family's
    generators: step 0 of the module docstring, computed once per Family."""
    if fam._essential is None:
        found = essential_form(fam.ring, fam.total_ideal.generators)
        object.__setattr__(fam, "_essential", found)
    return fam._essential


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


def _special_fiber(fam):
    """(I : t^oo)|_(t=0) for the total ideal I of a family, with its reduced
    grevlex basis seeded: steps 0-6 of the module docstring, on the small
    family.  Never zero, since each element of G' keeps its lead term in p."""
    ring = fam.ring
    if ring.num_aux:
        raise RingMismatchError("cannot specialize a ring with auxiliary variables")
    small, _, ells = _essential(fam)
    m, k = small.ring.num_vars, small.ring.param_index
    hom = PolyRing(m + 1, has_param=True)  # y_0..y_(m-1), h, then t last
    homogenized = []
    for g in small.generators:
        top = max(a[k] for a, _ in g.terms)
        homogenized.append(hom.from_dict({a[:m] + (top - a[k], a[k]): c for a, c in g.terms}))
    gb = buchberger(homogenized, GREVLEX, transform=False)
    unpack = _ring_packing(gb.ring).unpack
    base = fam.base_ring()
    pk = _ring_packing(base)
    # y_i -> D * ell_i over packed offsets: the packed u * x_j is u + weights[j]
    den = lcm(*(a.denominator for row in ells for a in row))
    forms = [
        {w: a.numerator * (den // a.denominator) for w, a in zip(pk.weights, row) if a}
        for row in ells
    ]
    images = {}   # y-exponents a -> packed {mono: int} of prod (D * ell_i)^a_i
    fibers = []
    for entry in gb._minimal:
        e = entry.lead[-1]
        acc = {}
        for a, c in entry.terms():
            a = unpack(a)
            # p keeps the terms of the lead's t-exponent (step 4)
            if a[-1] != e:
                continue
            image = images.get(a[:m])
            if image is None:
                image = {pk.base: 1}
                for form, power in zip(forms, a):
                    for _ in range(power):
                        product = {}
                        for u, cu in image.items():
                            for v, cv in form.items():
                                product[u + v] = product.get(u + v, 0) + cu * cv
                        image = product
                images[a[:m]] = image
            for u, cu in image.items():
                acc[u] = acc.get(u, 0) + c * cu
        fibers.append({u: acc[u] for u in sorted(acc, reverse=True) if acc[u]})
    return _with_seeded_gb(base, seeded_basis(base, fibers))


def limit_ideal(fam):
    """Special fiber of the t-flat closure, saturated by the irrelevant
    ideal: `_special_fiber` (the proof is in the module docstring), then
    `saturate`.  Canonical reduced basis, built once per Family; a family
    without a limit raises on every call."""
    if fam._limit is None:
        if fam.total_ideal.is_zero():
            raise ValueError("family is identically zero")
        special = _special_fiber(fam)
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


def flatness_probe(fam):
    """Compare fiber Hilbert polynomials at the deterministic nonzero
    `SAMPLE_POINTS` against the limit; flat iff all agree.  The fibers come
    from one block-order basis of the small family (module docstring): at
    a point where no leading coefficient vanishes the polynomial is that of
    the basis's y-leads, and only at the other points is the small family
    specialized; either series numerator is read over S's variables."""
    limit_hp = hilbert_series(limit_ideal(fam)).hilbert_polynomial
    small = _essential(fam)[0]
    m, k = small.ring.num_vars, small.ring.param_index
    gb = buchberger(small.generators, elimination_order(range(m)), transform=False)
    unpack = _ring_packing(gb.ring).unpack
    leads, lcs = [], []
    for entry in gb._minimal:
        lead = entry.lead[:m]
        leads.append(lead)
        # y-parts rank first, so the terms with the lead's y-part come first
        lc = []
        for a, c in entry.terms():
            a = unpack(a)
            if a[:m] != lead:
                break
            lc.append((c, a[k]))
        lcs.append(lc)
    width = fam.ring.num_vars
    generic_hp = monomial_data(width, leads).hilbert_polynomial
    polys = []
    bad = []
    for t0 in SAMPLE_POINTS:
        if all(sum(c * t0**e for c, e in lc) for lc in lcs):
            hp = generic_hp
        else:
            numerator = hilbert_series(_specialize(small, t0)).series_numerator
            hp = hilbert_data(width, numerator).hilbert_polynomial
        polys.append(hp)
        if hp != limit_hp:
            bad.append(t0)
    return FlatnessReport(
        flat=not bad,
        limit_polynomial=limit_hp,
        sample_points=SAMPLE_POINTS,
        sample_polynomials=tuple(polys),
        mismatched_points=tuple(bad),
    )
