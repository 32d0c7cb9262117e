"""Four-type classification of saturated degree-two codimension-two ideals.

The decision procedure is linkage plus a generic-slice reducedness test:

  * equidimensional hull by double linkage through a complete intersection
    F of two quadrics inside I, certified by its Hilbert series; each link
    F : J is F : h for one random element h of J, one principal
    elimination, accepted only when F : h has the linked degree
    e(F) - e(J), and otherwise computed generator by generator;
  * the hull either equals I (no embedded part) or strictly contains it;
  * a generic codimension-(n-2) linear slice of the hull is a length-two
    point scheme whose coordinate algebra is semisimple exactly when the
    hull is generically reduced; this is read off the discriminant of a
    2x2 multiplication operator.

Evidence (embedded part present, generically reduced) determines the label:
(False, True) -> I, (False, False) -> II, (True, True) -> III,
(True, False) -> IV.  A generically reduced hull that holds a linear form
must be two linear spaces and not a quadric of rank >= 3 in a hyperplane,
such as a plane conic; see _require_linear_components.  Randomized choices
are gated by exact certificates and can only force a retry, never a wrong
label.

All four normal forms are generated by quadrics in x_0..x_3, so every point
of the component in P^n is a cone, with vertex P^(n-4), over a point of
P^3.  Before the procedure runs, I is written in its essential variables
(E. Carlini, "Reducing the number of variables of a polynomial", Algebraic
Geometry and Geometric Modeling, Springer 2006):

  * let W be the span of the first partial derivatives of the quadrics of
    I.  Over QQ a quadric q = x^T Q x has gradient 2Qx, so the partials of
    all the quadrics span the column spaces of their symmetric matrices,
    and every kernel of a Q contains the orthogonal complement of W;
  * let w_0..w_(k-1) be the reduced row echelon basis of W (as
    coefficient rows), w_i with pivot column p_i, and complete it by the
    unit rows at the free columns to an invertible matrix A.  Substitute
    x -> A^-1 y.  For j >= k column j of A^-1 is orthogonal to
    w_0..w_(k-1), so it lies in every kernel and the substituted quadrics
    do not involve y_j: they lie in S' = QQ[y_0..y_(m-1)] with
    m = max(4, k);
  * for i < k column i of A^-1 is the unit vector e_(p_i), because
    A e_(p_i) = (w_0[p_i], ..., w_(k-1)[p_i], 0, ..., 0) = e_i: an rref row
    is 1 at its own pivot and 0 at the others, and e_(p_i) has no free
    entry.  Setting the absent y_j (j >= k) to 0 thus sends x to
    y_0 e_(p_0) + ... + y_(k-1) e_(p_(k-1)), so each substituted quadric is
    the quadric with every free variable set to 0 and x_(p_i) renamed y_i.
    The change of coordinates is a restriction, and A is never built;
  * when m < n + 1 they generate an ideal I' of S', and I'S lies in the
    substituted ideal gI.  Adjoining a variable divides a Hilbert series
    by 1 - T, so S'/I' and S/I'S have the same series numerator (the
    numerator over (1 - T)^(number of variables)), and S/gI has that of
    S/I.  When the two numerators agree, I'S and gI have the same dimension
    in every degree, so I'S == gI;
  * S' -> S is a polynomial extension: faithfully flat, and PS is prime of
    the same codimension for every prime P of S'.  So primary
    decompositions extend, with every projective dimension raised by
    n + 1 - m: hull(I')S is the hull of I'S, hull(I') == I' exactly when
    hull(I'S) == I'S, hull(I')^2 lies in I' exactly when its extension
    lies in I'S, and I'S is generically reduced exactly when I' is.

A linear change of coordinates keeps the evidence too, so the label and
the evidence of I' are those of I.  When the numerators differ, I is not
generated by its quadrics and the procedure runs on I itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import ClassificationError, RetriesExhaustedError
from .hilbert import hilbert_series, pair_hilbert_polynomial
from .ideals import Ideal, quotient, quotient_by_element
from .rings import PolyRing

LABELS = {
    (False, True): "I",
    (False, False): "II",
    (True, True): "III",
    (True, False): "IV",
}


@dataclass(frozen=True)
class SchemeType:
    """Classification outcome with its evidence pair and retry count."""

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


def _symmetric_matrix(q, nv):
    """2Q for the quadric q = x^T Q x: row i holds the coefficients of the
    partial derivative d q / d x_i."""
    rows = [[0] * nv for _ in range(nv)]
    for mono, c in q.terms:
        a, b = (i for i, e in enumerate(mono) for _ in range(e))
        rows[a][b] += c
        rows[b][a] += c
    return rows


def _essential_form(I, data):
    """(I', dropped): the quadrics of I written in their essential
    variables, in m = max(4, dim W) of them, with dropped = n + 1 - m; or
    (I, 0) when no variable drops or the quadrics do not generate I.

    `data` is the Hilbert data of I; see the module docstring for the proof.
    """
    nv = I.ring.num_vars
    quadrics = _quadric_basis(I)
    partials = linalg.RowSpan()
    for q in quadrics:
        for row in _symmetric_matrix(q, nv):
            partials.add(row)
    basis, pivots = partials.rref()
    m = max(4, len(basis))
    if m >= nv:
        return I, 0
    # restrict to the free variables = 0 and rename x_(p_i) to y_i
    position = {p: i for i, p in enumerate(pivots)}
    small = PolyRing(m)
    restricted = []
    for q in quadrics:
        acc = {}
        for mono, c in q.terms:
            if all(j in position for j, e in enumerate(mono) if e):
                image = [0] * m
                for j, e in enumerate(mono):
                    if e:
                        image[position[j]] = e
                acc[tuple(image)] = c
        restricted.append(small.from_dict(acc))
    reduced = Ideal(small, restricted)
    if hilbert_series(reduced).series_numerator != data.series_numerator:
        return I, 0
    return reduced, nv - m


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


def _link(ci, J, rng):
    """ci : J for a complete intersection ci inside J, through one element.

    A random homogeneous h in J gives ci : h as (ci meet (h)) / h, one
    principal elimination.  It is accepted when S/(ci : h) has dimension
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

    After two rejected draws the colon is computed generator by generator.
    """
    n = ci.ring.num_vars - 1
    linked_degree = hilbert_series(ci).degree - hilbert_series(J).degree
    for _ in range(2):
        h = _generic_element(J, rng)
        if h.is_zero():
            continue
        colon = quotient_by_element(ci, h).canonical()
        data = hilbert_series(colon)
        if data.dimension == n - 2 and data.degree == linked_degree:
            return colon
    return quotient(ci, J)


def equidimensional_hull(I, seed=0, stats=None):
    """Top-dimensional part of I, (ci : (ci : I)), by double linkage through
    a random complete intersection ci of two quadrics inside I."""
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
    return _link(ci, _link(ci, I, rng), rng)


def _mult_matrix(gb, linear, basis_from, index_to):
    ring = linear.ring
    cols = []
    for m in basis_from:
        prod = gb.reduce(linear * ring.from_dict({m: Fraction(1)}))
        col = [Fraction(0)] * len(index_to)
        for mono, c in prod.terms:
            col[index_to[mono]] += c
        cols.append(col)
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(index_to))]


def _slice_algebra(I, rng, stats=None):
    """One random length-two linear slice of I.

    Returns ("reduced", None) when some multiplication operator has two
    distinct eigenvalues (a certificate of two distinct points), or
    ("double", point) with the exact projective support of the double point,
    or None for a degenerate slice (wrong colength or no invertible chart).
    """
    ring = I.ring
    n = ring.num_vars - 1
    variables = [ring.x(i) for i in range(n + 1)]
    cuts = [_random_combination(variables, rng) for _ in range(n - 2)]
    if any(c.is_zero() for c in cuts):
        return None
    sliced = Ideal(ring, list(I.generators) + cuts)
    sdata = hilbert_series(sliced)
    if sdata.hilbert_polynomial != 2:
        return None  # wrong colength
    d = max(sdata.agreement_bound, 1)
    gb = sliced.groebner_basis()
    basis_d = gb.standard_monomials(d)
    basis_d1 = gb.standard_monomials(d + 1)
    if len(basis_d) != 2 or len(basis_d1) != 2:
        return None
    index = {m: k for k, m in enumerate(basis_d1)}

    chart = None
    for _ in range(n + 3):
        cand = _random_combination(variables, rng)
        if cand.is_zero():
            continue
        ml = _mult_matrix(gb, cand, basis_d, index)
        inv = linalg.invert(ml)
        if inv is not None:
            chart = inv
            break
    if chart is None:
        return None

    def operator(mu):
        return linalg.mat_mul(chart, _mult_matrix(gb, mu, basis_d, index))

    def discriminant(op):
        tr = op[0][0] + op[1][1]
        dt = op[0][0] * op[1][1] - op[0][1] * op[1][0]
        return tr * tr - 4 * dt

    mu = _random_combination(variables, rng)
    if not mu.is_zero() and discriminant(operator(mu)) != 0:
        return ("reduced", None)
    coordinate_ops = [operator(v) for v in variables]
    if any(discriminant(op) != 0 for op in coordinate_ops):
        # the coordinate functions generate the algebra, so some operator
        # separates two distinct points whenever there are two
        return ("reduced", None)
    # every operator has a repeated eigenvalue: a double point whose exact
    # support has chart coordinates x_i/chart-form = trace/2
    point = tuple(Fraction(op[0][0] + op[1][1], 2) for op in coordinate_ops)
    return ("double", point)


def generic_slice_reduced(I, seed=0, stats=None):
    """True iff the generic length-two linear slice of I consists of two
    distinct points; certified in both directions.

    A slice with an operator of distinct eigenvalues certifies two distinct
    points, hence generic reducedness.  Double-point slices are only
    evidence: their supports are collected from n-1 independent slices, and
    non-reducedness is certified by exhibiting the codimension-two linear
    ideal P of the common support with P^2 inside I inside P (a double structure).
    A degenerate random choice can only force a retry, never a wrong label.
    """
    ring = I.ring
    n = ring.num_vars - 1
    data = hilbert_series(I)
    if data.dimension != n - 2 or data.degree != 2:
        raise ClassificationError("slice test requires an unmixed degree-two ideal")
    rng = random.Random(f"slice:{seed}")
    retries = 0
    for attempt in range(4):
        first = _slice_algebra(I, rng)
        if first is None:
            retries += 1
            continue
        if first[0] == "reduced":
            if stats is not None:
                stats["slice_retries"] = retries
            return True
        points = [first[1]]
        failed = False
        while len(points) < n - 1:
            extra = None
            for _ in range(3):
                extra = _slice_algebra(I, rng)
                if extra is not None:
                    break
                retries += 1
            if extra is None:
                failed = True
                break
            if extra[0] == "reduced":
                if stats is not None:
                    stats["slice_retries"] = retries
                return True
            points.append(extra[1])
        if failed:
            continue
        # candidate support plane: the linear forms vanishing on all points
        span = linalg.nullspace([list(p) for p in points], n + 1)
        if len(span) != 2:
            retries += 1
            continue  # support points in special position
        linear_forms = [
            sum((ring.x(i).scale(c) for i, c in enumerate(vec)), ring.zero)
            for vec in span
        ]
        support = Ideal(ring, linear_forms)
        contained = all(support.contains(g) for g in I.generators)
        squares_in = all(
            I.contains(a * b) for a in linear_forms for b in linear_forms
        )
        if contained and squares_in:
            if stats is not None:
                stats["slice_retries"] = retries
            return False  # certified double structure on V(support)
        retries += 1
    raise RetriesExhaustedError("no conclusive linear slice found in 4 attempts")


def _require_linear_components(hull):
    """Refuse a generically reduced hull that is a quadric of rank >= 3
    inside a hyperplane, such as a plane conic.

    The hull is unmixed, so all its associated primes are minimal, and
    generically reduced, so it is reduced at them: it is radical.  A radical
    ideal of codimension two and degree two is two codimension-two linear
    spaces or one irreducible variety of degree two, and an irreducible
    variety that spans P^N has degree at least its codimension in P^N plus
    one, so the latter is a quadric inside a hyperplane.  When the hull
    holds a linear form l, its variety is a quadric Q inside V(l) either
    way, and the hull is (l, q) with q | (l = 0) an equation of Q.  Every
    quadric of the hull restricts to a multiple of that equation, and some
    quadric generator restricts to a nonzero one.  Q is two linear spaces
    (over an algebraic closure) exactly when its equation factors, that is
    when it has rank <= 2.
    """
    ring = hull.ring
    gens = hull.canonical_generators()
    linear = [g for g in gens if g.total_degree() == 1]
    if not linear:
        return
    form = linear[0]
    j = next(i for i, e in enumerate(form.lead_monomial()) if e)
    # x_j -> x_j - form / a_j, with a_j the lead coefficient, sends form to 0
    image = ring.x(j) - form.scale(1 / form.lead_coeff())
    for g in gens:
        if g.total_degree() != 2:
            continue
        rank = linalg.rank(_symmetric_matrix(g.substitute({j: image}), ring.num_vars))
        if rank > 2:
            raise ClassificationError(
                "not in the four-type table: the top-dimensional part is a "
                f"quadric of rank {rank} in a hyperplane, not two linear spaces"
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
    data = hilbert_series(I)
    if data.hilbert_polynomial != pair_hilbert_polynomial(n):
        raise ClassificationError(
            "Hilbert polynomial mismatch: not a point of the pair component "
            f"(got {data.hilbert_polynomial})"
        )
    I, dropped = _essential_form(I, data)
    stats = {}
    hull = equidimensional_hull(I, seed=seed, stats=stats)
    hull_data = hilbert_series(hull)
    # the hull of a positive-dimensional I is a proper ideal, so its cone in
    # P^n gains one dimension per dropped variable
    dimension = hull_data.dimension + dropped
    if dimension != n - 2 or hull_data.degree != 2:
        raise ClassificationError(
            "not in the four-type table: top-dimensional part has "
            f"dimension {dimension} and degree {hull_data.degree}"
        )
    has_embedded = hull != I
    if has_embedded:
        # in the four-type table the residual structure is carried by the
        # square of a codimension-three linear ideal, so hull^2 inside I; a
        # residual component off the hull (the other Hilbert component)
        # fails this and must surface as an error, not a guess
        hgens = hull.generators
        for a in range(len(hgens)):
            for b in range(a, len(hgens)):
                if not I.contains(hgens[a] * hgens[b]):
                    raise ClassificationError(
                        "not in the four-type table: residual structure is "
                        "not embedded in the top-dimensional part"
                    )
    reduced = generic_slice_reduced(hull, seed=seed, stats=stats)
    if reduced:
        _require_linear_components(hull)
    retries = stats.get("hull_retries", 0) + stats.get("slice_retries", 0)
    return SchemeType(LABELS[(has_embedded, reduced)], (has_embedded, reduced), retries)
