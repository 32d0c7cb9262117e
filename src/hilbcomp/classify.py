"""Four-type classification of saturated degree-two codimension-two ideals.

The decision procedure is linkage plus the Jacobian criterion:

  * equidimensional hull by double linkage through a complete intersection
    F of two quadrics inside I, certified by its Hilbert series; each link
    F : J is F : h for one random element h of J, accepted only when F : h
    has the linked degree e(F) - e(J), and otherwise redrawn, up to five
    times.  The gate reads the Hilbert series of S/(F : h) off the
    exact sequence 0 -> S/(F : h)(-d) -> S/F -> S/(F + (h)) -> 0 of
    multiplication by h, of degree d.  An accepted F : h is then read off
    normal forms modulo F one degree at a time, and that series stops it
    and certifies it as a Groebner basis (ideals.colon_by_series);
  * the hull either equals I (no embedded part) or strictly contains it.
    I lies inside its hull, so when the accepted second link has the series
    of I, the hull is I and its colon is skipped: types I and II compute
    one colon, types III and IV two, and no step runs an elimination;
  * the hull is generically reduced exactly when the 2x2 minors of its
    Jacobian matrix cut out a set of dimension below n - 2 inside it; see
    generic_slice_reduced.  This step is exact and draws nothing.

Evidence (embedded part present, generically reduced) determines the label:
(False, True) -> I, (False, False) -> II, (True, True) -> III,
(True, False) -> IV.  A generically reduced hull that holds a linear form
must be two linear spaces and not a quadric of rank >= 3 in a hyperplane,
such as a plane conic, and a type-III point is its hull meet the square of
the ideal where they meet, a meet read off a closed form
(_require_planar_pair).  The random complete intersection and the random
elements of the links are gated by exact certificates and can only force a
retry, never a wrong label; SchemeType.retries counts the rejected
complete-intersection draws.  An ideal that holds a linear form
(dim (S/I)_1 < n + 1) is refused before any draw: no point of the
component holds one, as the next paragraph shows.

All four normal forms are generated by quadrics in x_0..x_3, so every point
of the component in P^n is a cone, with vertex P^(n-4), over a point of
P^3 generated by quadrics.  So the quadrics of I (its given generators when
all are quadrics, else a basis of its degree-two piece) are written in
their essential variables by ideals.essential_form, which holds the proof:
a linear change of coordinates g, found as a restriction, takes them into
S' = QQ[y_0..y_(m-1)] with m = max(4, k), where they generate an ideal I'.
An input with k > 4, or whose quadrics do not generate I, is refused, so
the procedure always runs in the four variables of P^3.  Then:

  * I'S lies in the substituted ideal gI, with equality by construction
    when every given generator is a quadric: the Hilbert data of S/I is
    then derived from I', and no basis in the n + 1 variables is built.
    Otherwise, adjoining a variable divides a Hilbert series by 1 - T, so
    S'/I' and S/I'S have the same series numerator (the numerator over
    (1 - T)^(number of variables)), and S/gI has that of S/I.  When the two
    numerators agree, I'S and gI have the same dimension in every degree,
    so I'S == gI;
  * S' -> S is a polynomial extension: faithfully flat, and PS is prime of
    the same codimension for every prime P of S'.  So primary
    decompositions extend, with every projective dimension raised by
    n + 1 - m: hull(I')S is the hull of I'S, hull(I') == I' exactly when
    hull(I'S) == I'S, hull(I')^2 lies in I' exactly when its extension
    lies in I'S, and I'S is generically reduced exactly when I' is.

A linear change of coordinates keeps the evidence too, so the label and
the evidence of I' are those of I.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from . import linalg
from .errors import ClassificationError, RetriesExhaustedError
from .hilbert import UniPoly, hilbert_data, hilbert_series, pair_hilbert_polynomial
from .ideals import (
    Ideal,
    _integer_partials,
    _with_element,
    colon_by_series,
    essential_form,
)
from .rings import PolyRing, _mono_mul, monomials_of_degree

LABELS = {
    (False, True): "I",
    (False, False): "II",
    (True, True): "III",
    (True, False): "IV",
}


@dataclass(frozen=True)
class SchemeType:
    """Classification outcome with its evidence pair and the number of
    rejected complete-intersection draws."""

    label: str
    evidence: tuple  # (has_embedded_component, generically_reduced)
    retries: int = 0

    def to_json(self):
        return {
            "label": self.label,
            "evidence": {
                "has_embedded": self.evidence[0],
                "generically_reduced": self.evidence[1],
            },
            "retries": self.retries,
        }


def normal_form_ideal(n, label):
    """Representative ideal of the given type in QQ[x_0..x_n], n >= 3."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    ring = PolyRing(n + 1)
    x0, x1, x2, x3 = (ring.x(i) for i in range(4))
    if label == "I":
        gens = [x0 * x2, x0 * x3, x1 * x2, x1 * x3]
    elif label == "II":
        gens = [x0**2, x0 * x1, x1**2, x0 * x3 - x1 * x2]
    elif label == "III":
        gens = [x0**2, x0 * x1, x0 * x2, x1 * x2]
    elif label == "IV":
        gens = [x0**2, x0 * x1, x1**2, x0 * x2 - x1 * x2]
    else:
        raise ValueError(f"unknown type label {label!r}")
    return Ideal(ring, gens)


CI_NUMERATOR = (1, 0, -2, 0, 1)  # (1 - T^2)^2


def _quadric_basis(I):
    """Spanning set of the degree-two graded piece of I."""
    ring = I.ring
    out = []
    for g in I.canonical_generators():
        d = g.total_degree()
        if d == 2:
            out.append(g)
        elif d == 1:
            out.extend(g * ring.x(i) for i in range(ring.num_vars))
    return out


def _essential_quadrics(I):
    """(I', data): I's quadrics in their m = max(4, k) essential variables
    (ideals.essential_form) and the Hilbert data of S/I.  When every given
    generator is a quadric, they are the quadrics and data is derived from
    I', with no basis of I built; else _quadric_basis(I) is used."""
    gens = list(I.generators)
    if gens and all(g.total_degree() == 2 and g.is_homogeneous() for g in gens):
        reduced = essential_form(I.ring, gens)[0]
        return reduced, hilbert_data(I.ring.width, hilbert_series(reduced).series_numerator)
    return essential_form(I.ring, _quadric_basis(I))[0], hilbert_series(I)


def _random_combination(polys, rng):
    """Sum of the polys, each times an integer in [-5, 5] drawn in order."""
    acc = {}
    for p in polys:
        k = rng.randint(-5, 5)
        if k:
            for mono, c in p.terms:
                acc[mono] = acc.get(mono, 0) + k * c
    return polys[0].ring.from_dict(acc)


def _complete_intersection(I, rng):
    """Two random combinations of I's quadrics that cut out a complete
    intersection, certified by its Hilbert series, and the failed draws."""
    quadrics = _quadric_basis(I)
    if len(quadrics) < 2:
        raise ClassificationError("ideal has fewer than two independent quadrics")
    for attempt in range(5):
        f1 = _random_combination(quadrics, rng)
        f2 = _random_combination(quadrics, rng)
        if f1.is_zero() or f2.is_zero():
            continue
        ci = Ideal(I.ring, [f1, f2])
        if hilbert_series(ci).series_numerator == CI_NUMERATOR:
            return ci, attempt
    raise RetriesExhaustedError("no complete-intersection link found in 5 attempts")


def _generic_element(J, rng):
    """A random homogeneous element of J: the sum of its canonical
    generators, each times a small integer and the power of one random
    linear form that lifts it to the top generator degree."""
    ring = J.ring
    gens = J.canonical_generators()
    top = max(g.total_degree() for g in gens)
    form = _random_combination([ring.x(i) for i in range(ring.num_vars)], rng)
    return _random_combination([g * form ** (top - g.total_degree()) for g in gens], rng)


def _colon_data(ci, h):
    """HilbertData of S/(ci : h) for a homogeneous h of degree d, read off
    the exact sequence 0 -> S/(ci : h)(-d) -> S/ci -> S/(ci + (h)) -> 0,
    whose first map is multiplication by h: the series numerator is
    (Q(ci) - Q(ci + (h))) / T^d, an exact division.  Both series are read
    off leads alone, so neither basis is interreduced, and the basis of
    ci + (h) extends ci's minimal one (`ideals._with_element`): no S-pair
    of two of ci's elements is formed again."""
    d = h.total_degree()
    q = UniPoly(hilbert_series(ci).series_numerator)
    r = UniPoly(hilbert_series(_with_element(ci, h)).series_numerator)
    diff = (q - r).coeffs
    if any(diff[:d]):
        raise AssertionError("colon series not divisible by T^d")
    return hilbert_data(ci.ring.width, diff[d:])


def _linking_element(ci, J, rng):
    """(h, data) for the first of up to five random homogeneous h in J whose
    colon ci : h passes `_link`'s gate, with data the Hilbert data of
    S/(ci : h).  The gate reads only `_colon_data`, so no colon is computed
    here.  On the 1,976 links of the moved normal forms in P^3..P^6 and
    the moved torus-fixed points of P^3, the lowest acceptance measured was
    85 % (the 30 links that fared worst in 40 draws, redrawn 400 times), so
    five rejections in a row, which raise RetriesExhaustedError, have
    probability below 1e-4."""
    n = ci.ring.num_vars - 1
    linked_degree = hilbert_series(ci).degree - hilbert_series(J).degree
    for _ in range(5):
        h = _generic_element(J, rng)
        if h.is_zero():
            continue
        data = _colon_data(ci, h)
        if data.dimension == n - 2 and data.degree == linked_degree:
            return h, data
    raise RetriesExhaustedError("no linking element found in 5 attempts")


def _link(ci, J, rng):
    """ci : J for a complete intersection ci inside J, through one element.

    A random homogeneous h in J gives the colon ci : h.  It is accepted
    when S/(ci : h) has dimension
    n - 2 and degree e(ci) - e(J), which proves ci : h == ci : J
    (Peskine-Szpiro, Invent. Math. 26, 1974; Eisenbud-Huneke-Vasconcelos,
    Invent. Math. 110, 1992):

      * ci : J is inside ci : h, because h lies in J;
      * S/(ci : h) is isomorphic to h * (S/ci) inside the Cohen-Macaulay
        S/ci, so ci : h is unmixed, and so is ci : J;
      * at each minimal prime P of ci, S_P/ci_P is Artinian Gorenstein, so
        the length of its quotient by (0 : J) is the length of J there;
        summed over P, e(ci : J) = e(ci) - e(J);
      * a nonzero (ci : h)/(ci : J) has only codimension-two associated
        primes, so it would make e(ci : h) smaller than e(ci : J).

    The gate needs only the Hilbert series of S/(ci : h), and the exact
    sequence 0 -> S/(ci : h)(-d) -> S/ci -> S/(ci + (h)) -> 0 of
    multiplication by h (d = deg h) gives it from the series of ci + (h)
    (`_colon_data`), before ci : h is computed.  For an accepted h the same
    series stops and certifies the computation of ci : h from normal forms
    modulo ci (ideals.colon_by_series).  A rejected h is redrawn, up to
    five times (`_linking_element`).
    """
    return colon_by_series(ci, *_linking_element(ci, J, rng))


def equidimensional_hull(I, seed=0, stats=None):
    """Top-dimensional part of I, (ci : (ci : I)), by double linkage through
    a random complete intersection ci of two quadrics inside I.

    I lies inside its hull.  When the accepted second link has the series
    numerator of I, the two have the same Hilbert function, so the hull is
    I itself: I.canonical() is returned and the second colon is skipped.
    """
    data = hilbert_series(I)
    n = I.ring.num_vars - 1
    if data.dimension != n - 2:
        raise ClassificationError(
            f"expected codimension two (dimension {n - 2}), found {data.dimension}"
        )
    rng = random.Random(f"hull:{seed}")
    ci, retries = _complete_intersection(I, rng)
    if stats is not None:
        stats["hull_retries"] = retries
    linked = _link(ci, I, rng)
    h, colon_data = _linking_element(ci, linked, rng)
    if colon_data.series_numerator == data.series_numerator:
        return I.canonical()
    return colon_by_series(ci, h, colon_data)


def _minor(a, b, i, j):
    """a_i * b_j - a_j * b_i for integer polynomials keyed by monomial."""
    acc = {}
    for p, q, sign in ((a[i], b[j], 1), (a[j], b[i], -1)):
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + sign * c1 * c2
    return acc


def generic_slice_reduced(I):
    """True iff the unmixed codimension-two ideal I is generically reduced,
    by the Jacobian criterion (Eisenbud, Commutative Algebra, GTM 150,
    section 16.6).

    Let K be I plus the 2x2 minors of the Jacobian matrix of its canonical
    generators.  I is generically reduced exactly when V(K) has projective
    dimension < n - 2:

      * K does not depend on the generators: K / I is the Fitting ideal
        Fitt_(n-1) of the module of differentials of S/I over QQ, which the
        Jacobian matrix presents;
      * every associated prime P of the unmixed I is minimal, of
        codimension two.  Over QQ the local ring (S/I)_P is regular exactly
        when the Jacobian matrix has rank 2 modulo P, that is when P does
        not contain K; and the Artinian (S/I)_P is regular exactly when it
        is a field, that is when it is reduced;
      * V(K) lies in V(I), whose components all have dimension n - 2, so
        V(K) has dimension n - 2 exactly when it contains a component V(P),
        that is when I is not reduced at some minimal prime P.

    The minors are sparse integer rows, one RowSpan per degree d: V(K) is
    empty as soon as one of them fills S_d, and else K is I plus the rows
    of each span's echelon basis.
    """
    ring = I.ring
    n = ring.num_vars - 1
    data = hilbert_series(I)
    if data.dimension != n - 2 or data.degree != 2:
        raise ClassificationError("the Jacobian test requires an unmixed degree-two ideal")
    gens = I.canonical_generators()
    spans = {}  # degree d -> (RowSpan of the degree-d minors, its monomials, their columns)
    for (ga, pa), (gb, pb) in combinations(zip(gens, map(_integer_partials, gens)), 2):
        d = ga.total_degree() + gb.total_degree() - 2
        if d not in spans:
            monos = monomials_of_degree(ring.num_vars, d)
            spans[d] = (linalg.RowSpan(len(monos)), monos, {m: k for k, m in enumerate(monos)})
        span, _, column = spans[d]
        for i, j in combinations(range(n + 1), 2):
            row = {column[m]: c for m, c in _minor(pa, pb, i, j).items() if c}
            if span.add(row) and len(span) == span.width:
                return True
    minors = [
        ring.from_dict({monos[k]: c for k, c in row.items()})
        for span, monos, _ in spans.values()
        for row in span
    ]
    return hilbert_series(Ideal(ring, list(gens) + minors)).dimension < n - 2


def _require_planar_pair(I, hull, has_embedded):
    """Refuse a generically reduced hull that is a quadric of rank >= 3
    inside a hyperplane, such as a plane conic, and a type-III candidate
    whose embedded structure does not sit where the two components meet.

    The hull is unmixed, so all its associated primes are minimal, and
    generically reduced, so it is reduced at them: it is radical.  A radical
    ideal of codimension two and degree two is two codimension-two linear
    spaces or one irreducible variety of degree two, and an irreducible
    variety that spans P^N has degree at least its codimension in P^N plus
    one, so the latter is a quadric inside a hyperplane.  When the hull
    holds a linear form l, it is unmixed of degree two inside V(l), so it
    is (l, q), and its reduced basis is q, l with q free of the lead
    variable of l: q is the equation of a quadric Q in V(l).  Q is two
    linear spaces (over an algebraic closure) exactly when q factors, that
    is when it has rank <= 2.

    A type-III candidate must then satisfy I == hull meet P^2, with P = (l)
    plus the first partials of q, the ideal of the singular point of Q in
    V(l), where the two spaces meet.  The type-III normal form satisfies the
    equation, both of its sides are PGL-equivariant, and any two pairs of
    meeting spaces are PGL-equivalent: it holds exactly at type-III points.
    The meet has a closed form, which needs no elimination.  Over an
    algebraic closure q = L1 * L2 with L1, L2 in P, so q lies in P^2; l lies
    in the linear prime P but not in P^2, and P^2 : l = P.  So a*l + b*q
    lies in P^2 exactly when a lies in P, and hull meet P^2 = l*P + (q).
    """
    gens = hull.canonical_generators()
    if all(g.total_degree() != 1 for g in gens):
        return
    q, ell = gens
    ring = hull.ring
    partials = [p for p in _integer_partials(q) if p]
    rows = ({mono.index(1): c for mono, c in p.items()} for p in partials)
    rank = len(linalg.RowSpan(ring.num_vars, rows))
    if rank > 2:
        raise ClassificationError(
            "not in the four-type table: the top-dimensional part is a "
            f"quadric of rank {rank} in a hyperplane, not two linear spaces"
        )
    P = [ell] + [ring.from_dict(p) for p in partials]
    if has_embedded and I != Ideal(ring, [ell * p for p in P] + [q]):
        raise ClassificationError(
            "not in the four-type table: the embedded structure does not sit "
            "where the two components meet"
        )


def classify(I, seed=0):
    """Label a saturated ideal with the reference Hilbert polynomial as one
    of the four types, or raise ClassificationError."""
    ring = I.ring
    if ring.has_param or ring.num_aux:
        raise ClassificationError("classification requires a plain x-variable ring")
    n = ring.num_vars - 1
    if n < 3:
        raise ClassificationError("classification requires n >= 3")
    I, data = _essential_quadrics(I)
    if data.hilbert_polynomial != pair_hilbert_polynomial(n):
        raise ClassificationError(
            "Hilbert polynomial mismatch: not a point of the pair component "
            f"(got {data.hilbert_polynomial})"
        )
    # every point of the component is generated by quadrics, so it holds no
    # linear form; refuse one that does before any complete intersection is
    # drawn, as a fixed answer and not as a run of rejected draws
    linear = data.series_coefficient(1)
    if linear < n + 1:
        raise ClassificationError(
            "not in the four-type table: the ideal contains a linear form "
            f"(dim (S/I)_1 = {linear}, want {n + 1})"
        )
    # a point is a cone over one of P^3 generated by quadrics (module docstring)
    if I.ring.num_vars > 4:
        raise ClassificationError(
            "not in the four-type table: the quadrics need "
            f"{I.ring.num_vars} essential variables, more than 4"
        )
    if hilbert_series(I).series_numerator != data.series_numerator:
        raise ClassificationError(
            "not in the four-type table: the ideal is not generated by its quadrics"
        )
    stats = {}
    hull = equidimensional_hull(I, seed=seed, stats=stats)
    hull_data = hilbert_series(hull)
    # the hull lives in P^3, and its cone in P^n has n - 3 more dimensions
    if hull_data.dimension != 1 or hull_data.degree != 2:
        raise ClassificationError(
            "not in the four-type table: top-dimensional part has "
            f"dimension {hull_data.dimension + n - 3} and degree {hull_data.degree}"
        )
    has_embedded = hull != I
    if has_embedded:
        # in the four-type table the residual structure is carried by the
        # square of a codimension-three linear ideal, so hull^2 inside I; a
        # residual component off the hull (the other Hilbert component)
        # fails this and must surface as an error, not a guess
        squares = combinations_with_replacement(hull.generators, 2)
        if not all(I.contains(f * g) for f, g in squares):
            raise ClassificationError(
                "not in the four-type table: residual structure is "
                "not embedded in the top-dimensional part"
            )
    reduced = generic_slice_reduced(hull)
    if reduced:
        _require_planar_pair(I, hull, has_embedded)
    evidence = (has_embedded, reduced)
    return SchemeType(LABELS[evidence], evidence, stats["hull_retries"])
