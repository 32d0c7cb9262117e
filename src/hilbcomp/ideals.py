"""Ideal-level algebra: sums, products, intersections, quotients,
saturations, equality, and random coordinate changes.

An Ideal is a generator list in a fixed ring with a cached Groebner basis,
reduced on its first read (`groebner.GroebnerBasis`): an ideal whose Hilbert
series is all that is asked of it is never interreduced.  Equality means
equality of grevlex reduced bases, which is the canonical representative
throughout the package.  Intersections go through one auxiliary variable u
and block elimination; quotients reduce to intersections with principal
ideals, and I : g is read off the block basis of u*I + (1-u)*(g): the
quotients by g of its u-free minimal entries form a Groebner basis of
I : g, interreduced once into a canonical result with no further Buchberger
run.  The basis of I + (h) starts from I's (`_with_element`).  Saturation
has two routes: by an ideal with the irrelevant radical, it reads
I : x_n^oo off the grevlex basis of I and keeps it when the Hilbert
polynomial certifies it; otherwise, or when the certificate fails, it is
the meet of principal saturations I : g^oo over the generators g, each one
elimination of u from (I, 1 - u*g).  `essential_form` writes quadrics in
their essential variables, for classification and tangent spaces alike.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import lcm

from . import linalg
from .errors import HomogeneityError, RingMismatchError
from .groebner import (
    GroebnerBasis,
    _eliminating_entries,
    buchberger,
    divided_basis,
    eliminate_generators,
    interreduce,
)
from .hilbert import hilbert_series
from .rings import GREVLEX, Polynomial, PolyRing, elimination_order, parse


class Ideal:
    """Finitely generated ideal of a polynomial ring."""

    __slots__ = ("ring", "generators", "_gb_cache", "_hilbert_cache")

    def __init__(self, ring, generators):
        gens = []
        seen = set()
        for g in generators:
            if isinstance(g, str):
                g = parse(g, ring)
            if g.ring != ring:
                raise RingMismatchError("generator not in the ideal's ring")
            if g.is_zero() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_gb_cache", {})
        object.__setattr__(self, "_hilbert_cache", None)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Ideal is immutable")

    def _set_hilbert(self, data):
        object.__setattr__(self, "_hilbert_cache", data)

    def is_zero(self):
        return not self.generators

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.generators)

    def is_x_homogeneous(self):
        return all(g.is_x_homogeneous() for g in self.generators)

    def groebner_basis(self, order=None):
        if order is None:
            order = GREVLEX
        gb = self._gb_cache.get(order)
        if gb is None:
            if not self.generators:
                gb = GroebnerBasis(self.ring.with_order(order), (), ())
            else:
                gb = buchberger(self.generators, order, transform=False)
            self._gb_cache[order] = gb
        return gb

    def canonical_generators(self):
        """Elements of the reduced grevlex basis, in this ideal's ring."""
        return tuple(g.convert(self.ring) for g in self.groebner_basis().elements)

    def canonical(self):
        """The same ideal on its reduced grevlex basis, keeping cached data."""
        out = Ideal(self.ring, self.canonical_generators())
        out._gb_cache.update(self._gb_cache)
        out._set_hilbert(self._hilbert_cache)
        return out

    def contains(self, f):
        if self.is_zero():
            return f.is_zero()
        return self.groebner_basis().contains(f)

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.generators)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if not self.ring.compatible(other.ring):
            raise RingMismatchError("comparing ideals of different rings")
        mine = tuple(g.terms for g in self.groebner_basis().elements)
        theirs = tuple(g.terms for g in other.groebner_basis().elements)
        return mine == theirs

    __hash__ = None

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"


@functools.lru_cache(maxsize=32)
def irrelevant_ideal(ring):
    """(x_0, ..., x_n) in the given ring; one shared immutable Ideal per
    ring, so its Groebner bases are built once."""
    return Ideal(ring, [ring.x(i) for i in range(ring.num_vars)])


def _require_same_ring(I, J):
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")


def _with_seeded_gb(ring, reduced_gens):
    """Ideal whose generators are known to be its reduced grevlex basis."""
    out = Ideal(ring, reduced_gens)
    gb_ring = ring.with_order(GREVLEX)
    elements = tuple(g.convert(gb_ring) for g in out.generators)
    out._gb_cache[GREVLEX] = GroebnerBasis(gb_ring, elements, elements)
    return out


def _u_ring(ring):
    """The ring with one more auxiliary variable u, ordered to eliminate u,
    and u's index.  Generators are built in this ring itself, so they enter
    the elimination as they are and each result crosses rings once."""
    ext = ring.with_aux(ring.num_aux + 1)
    u_idx = ext.aux_index(ext.num_aux - 1)  # the last index
    return ext.with_order(elimination_order([u_idx])), u_idx


def _with_element(I, h):
    """I + (h), for a nonzero I, with its grevlex basis built from I's: the
    S-pairs of I's minimal basis already reduce to zero, so `buchberger`
    forms only the pairs with h or a new element."""
    out = Ideal(I.ring, I.generators + (h,))
    out._gb_cache[GREVLEX] = buchberger(
        out.generators, GREVLEX, transform=False, basis=I.groebner_basis()
    )
    return out


def _eliminated(ring, gens, front):
    """<gens> meet the subring free of the `front` variables, as an ideal of
    `ring`."""
    elim = eliminate_generators(gens, front)
    # the front-free part of the reduced block basis is itself the reduced
    # grevlex basis of the elimination ideal: the block order restricted to
    # front-free monomials is grevlex, and autoreduction is inherited
    return _with_seeded_gb(ring, [p.convert(ring) for p in elim])


def _meet_generators(I, J):
    """(u's index, the generators u*I + (1-u)*J in the ring with u)."""
    ext, u_idx = _u_ring(I.ring)
    # the block order ranks u-degree first, so u*f keeps f's term order and
    # every term of u*g precedes every term of g

    def times_u(p, sign):
        return tuple((m[:-1] + (1,), sign * c) for m, c in p.terms)

    gens = [Polynomial(ext, times_u(f.convert(ext), 1)) for f in I.generators]
    for g in J.generators:
        g = g.convert(ext)
        gens.append(Polynomial(ext, times_u(g, -1) + g.terms))
    return u_idx, gens


def intersect(I, J):
    """the intersection of I and J via u*I + (1-u)*J and elimination of the auxiliary u."""
    _require_same_ring(I, J)
    if I.is_zero():
        return I
    if J.is_zero():
        return J
    u_idx, gens = _meet_generators(I, J)
    return _eliminated(I.ring, gens, [u_idx])


def quotient_by_element(I, g):
    """(I : g) as (I meet (g)) / g, canonical, for a nonzero g.

    The u-free minimal entries of the block basis of u*I + (1-u)*(g) are a
    Groebner basis of K = I meet (g) (`groebner._eliminating_entries`).
    Their quotients p / g form a Groebner basis of I : g (`divided_basis`),
    interreduced once into the seeded grevlex basis of the result: neither
    the u-containing entries nor K's own basis are ever reduced.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    u_idx, gens = _meet_generators(I, Ideal(I.ring, [g]))
    block, entries = _eliminating_entries(gens, [u_idx])
    quotients = divided_basis(entries, g.convert(block))
    return _with_seeded_gb(I.ring, [q.convert(I.ring) for q in quotients])


def quotient(I, J):
    """(I : J) = {f : f*J inside I}, the meet of I : g over the generators g
    of J, canonical: each I : g and each meet comes on its reduced basis."""
    _require_same_ring(I, J)
    if J.is_zero():
        raise ValueError("quotient by the zero ideal")
    return functools.reduce(intersect, (quotient_by_element(I, g) for g in J.generators))


def saturate(I, J):
    """(I : J^infinity), canonical.

    When I is homogeneous in a plain x-ring and J is a proper homogeneous
    ideal whose radical is the irrelevant ideal m = (x_0..x_n), then
    I : J^oo = I : m^oo =: I^sat, and the grevlex basis of I gives a
    candidate in one step: dividing each element by the largest power of
    the last variable x_n that divides it yields generators of
    K = I : x_n^oo (Bayer's lemma: for a homogeneous grevlex basis, x_n
    divides an element exactly when it divides its lead).  Since x_n lies
    in m, I^sat is inside K.  K is accepted only when its Hilbert
    polynomial equals that of I, which proves K == I^sat: I^sat / I has
    finite length, so HP(I^sat) == HP(I), and K / I^sat sits inside
    S / I^sat, which has no m-torsion; so a nonzero K / I^sat has
    positive-dimensional support and a nonzero Hilbert polynomial, and
    HP(I) - HP(K) == HP(K / I^sat) would not vanish.  In coordinates where
    x_n is not general for I the check fails and the meet below decides.
    If x_n divides no lead, it is a nonzerodivisor mod I: I : x_n^oo = I = I^sat.

    Otherwise I : J^oo is the meet of the principal saturations I : g^oo
    over the generators g of J: if f*g^k lies in I for every g, so does
    f*J^N for N large, as J^N lies in the ideal of the g^k.  Each I : g^oo
    is the u-free part of (I, 1 - u*g) (Rabinowitsch), one elimination.
    """
    _require_same_ring(I, J)
    if J.is_zero():
        raise ValueError("saturation by the zero ideal")
    if _radical_is_irrelevant(I, J):
        if not any(m[-1] for m in I.groebner_basis().lead_monomials()):
            return I.canonical()
        candidate = _saturate_by_last_variable(I)
        if hilbert_series(candidate).hilbert_polynomial == hilbert_series(I).hilbert_polynomial:
            return candidate
    return functools.reduce(intersect, (_saturate_principal(I, g) for g in J.generators))


def _radical_is_irrelevant(I, J):
    """I homogeneous in a plain x-ring, J proper homogeneous with radical m."""
    ring = I.ring
    return (
        not ring.has_param
        and not ring.num_aux
        and I.is_homogeneous()
        and J.is_homogeneous()
        and all(g.total_degree() > 0 for g in J.generators)
        and hilbert_series(J).dimension == -1
    )


def _saturate_by_last_variable(I):
    """I : x_n^oo from the grevlex basis of homogeneous I: each element
    divided by the power of x_n in its lead, which divides every term.  By
    Bayer's lemma the quotients are a Groebner basis, so they are only
    interreduced, with no Buchberger run."""
    gb = I.groebner_basis()
    gens = []
    for g in gb.elements:
        k = g.lead_monomial()[-1]
        terms = tuple((m[:-1] + (m[-1] - k,), c) for m, c in g.terms)
        gens.append(Polynomial(gb.ring, terms))
    return _with_seeded_gb(I.ring, [q.convert(I.ring) for q in interreduce(gens)])


def _saturate_principal(I, f):
    """I : f^oo as the u-free part of (I, 1 - u*f)."""
    ring = I.ring
    ext, u_idx = _u_ring(ring)
    gens = [g.convert(ext) for g in I.generators]
    gens.append(ext.one - ext.variable(u_idx) * f.convert(ext))
    return _eliminated(ring, gens, [u_idx])


def ideal_sum(I, J):
    _require_same_ring(I, J)
    return Ideal(I.ring, I.generators + J.generators)


def ideal_product(I, J):
    _require_same_ring(I, J)
    return Ideal(I.ring, [f * g for f in I.generators for g in J.generators])


def eliminate(I, front_vars):
    """Generators of I meet k[variables outside front_vars], as an ideal."""
    front = tuple(sorted(set(front_vars)))
    if not front or I.is_zero():
        return I
    return _eliminated(I.ring, I.generators, front)


def random_invertible_matrix(ring, seed):
    """Small-integer invertible substitution matrix on the x variables."""
    rng = random.Random(f"linear-change:{seed}")
    nv = ring.num_vars
    for _ in range(10):
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(nv)] for _ in range(nv)]
        if linalg.rank(m) == nv:
            return m
    raise RuntimeError("failed to sample an invertible matrix")


def random_linear_change(I, seed, matrix=None):
    """Image of I under an invertible linear substitution of the x variables.

    Deterministic for a fixed seed; an explicit matrix overrides sampling.
    """
    if not I.is_x_homogeneous():
        raise HomogeneityError("coordinate changes require homogeneous ideals")
    ring = I.ring
    nv = ring.num_vars
    if matrix is None:
        matrix = random_invertible_matrix(ring, seed)
    elif len(matrix) != nv or any(len(row) != nv for row in matrix):
        raise ValueError(f"substitution matrix must be {nv} by {nv}")
    elif linalg.rank(matrix) < nv:
        raise ValueError("substitution matrix is singular")
    images = {
        i: ring.from_dict({x.lead_monomial(): a for x, a in zip(ring.variables(), row)})
        for i, row in enumerate(matrix)
    }
    return Ideal(ring, [g.substitute(images) for g in I.generators])


def _integer_partials(g):
    """The partial derivatives of a multiple of g with integer coefficients,
    one {monomial: nonzero int} per variable."""
    den = lcm(*(c.denominator for _, c in g.terms))
    partials = [{} for _ in range(g.ring.width)]
    for mono, c in g.terms:
        c = c.numerator * (den // c.denominator)
        for i, e in enumerate(mono):
            if e:
                partials[i][mono[:i] + (e - 1,) + mono[i + 1:]] = e * c
    return partials


def essential_form(ring, quadrics):
    """(I', columns): the ideal of the quadrics, polynomials of
    ring = QQ[x_0..x_n], written in their m = max(4, k) essential variables
    y_0..y_(m-1), with k the dimension of the span W of their first
    partials.  y_i stands for x_(columns[i]): columns lists the pivot
    columns of W's rref basis, then the free columns in ascending order,
    n + 1 entries in all, and the y_j with j >= m are the dropped variables.
    When m >= n + 1 nothing is restricted: I' is the ideal of the quadrics in
    ring itself and columns is the identity.

    The proof (E. Carlini, "Reducing the number of variables of a
    polynomial", Algebraic Geometry and Geometric Modeling, Springer 2006):

      * let W be the span of the first partial derivatives of the quadrics.
        Over QQ a quadric q = x^T Q x has gradient 2Qx, so the partials of
        all the quadrics span the column spaces of their symmetric
        matrices, and every kernel of a Q contains the orthogonal complement
        of W;
      * let w_0..w_(k-1) be the reduced row echelon basis of W (as
        coefficient rows), w_i with pivot column p_i, and complete it by the
        unit rows at the free columns to an invertible matrix A.  Substitute
        x -> A^-1 y.  For j >= k column j of A^-1 is orthogonal to
        w_0..w_(k-1), so it lies in every kernel and the substituted
        quadrics do not involve y_j: they lie in S' = QQ[y_0..y_(m-1)] with
        m = max(4, k);
      * for i < k column i of A^-1 is the unit vector e_(p_i), because
        A e_(p_i) = (w_0[p_i], ..., w_(k-1)[p_i], 0, ..., 0) = e_i: an rref
        row is 1 at its own pivot and 0 at the others, and e_(p_i) has no
        free entry.  Setting the absent y_j (j >= k) to 0 thus sends x to
        y_0 e_(p_0) + ... + y_(k-1) e_(p_(k-1)), so each substituted quadric
        is the quadric with every free variable set to 0 and x_(p_i) renamed
        y_i.  The change of coordinates is a restriction, and A is never
        built.

    So the substituted ideal gI of the quadrics is I'S.
    """
    nv = ring.num_vars
    # a partial of a quadric is a linear form: one sparse row over the x_j
    partials = linalg.RowSpan(nv)
    for q in quadrics:
        for p in _integer_partials(q):
            partials.add({mono.index(1): c for mono, c in p.items()})
    pivots = partials.pivots
    m = max(4, len(pivots))
    if m >= nv:
        return Ideal(ring, quadrics), tuple(range(nv))
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
    free = tuple(j for j in range(nv) if j not in position)
    return Ideal(small, restricted), tuple(pivots) + free


# ---------------------------------------------------------------------------
# ideal files: header "ring n=<n> param=<0|1>", one polynomial per line
# ---------------------------------------------------------------------------

# largest n a file header may declare, far above the n = 3..8 studied here;
# every parsed term holds one exponent per variable, so an unbounded n lets
# one header exhaust memory
MAX_FILE_N = 100


def dumps_ideal(I):
    ring = I.ring
    header = f"ring n={ring.num_vars - 1} param={1 if ring.has_param else 0}"
    return "\n".join([header] + [str(g) for g in I.generators]) + "\n"


def loads_ideal(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty ideal file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "ring":
        raise ValueError(f"bad ideal file header: {lines[0]!r}")
    try:
        n = int(header[1].removeprefix("n="))
        param = int(header[2].removeprefix("param="))
    except ValueError:
        raise ValueError(f"bad ideal file header: {lines[0]!r}") from None
    if header[1][:2] != "n=" or header[2][:6] != "param=" or param not in (0, 1):
        raise ValueError(f"bad ideal file header: {lines[0]!r}")
    if n > MAX_FILE_N:
        raise ValueError(f"ring n={n} exceeds the largest supported n={MAX_FILE_N}")
    ring = PolyRing(n + 1, has_param=bool(param))
    return Ideal(ring, [parse(ln, ring) for ln in lines[1:]])


def load_ideal(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_ideal(fh.read())


def save_ideal(I, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_ideal(I))
