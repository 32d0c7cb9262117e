"""Ideal-level algebra: products, intersections, quotients, saturations,
equality, and random coordinate changes.

An Ideal is a generator list in a fixed ring with a cached Groebner basis,
reduced on its first read (`groebner.GroebnerBasis`): an ideal whose Hilbert
series is all that is asked of it is never interreduced.  Equality means
equality of grevlex reduced bases, which is the canonical representative
throughout the package.  Intersections go through one auxiliary variable u
and block elimination; quotients reduce to intersections with principal
ideals, and I : g is read off the block basis of u*I + (1-u)*(g): the
quotients by g of its u-free minimal entries form a Groebner basis of
I : g, interreduced once into a canonical result with no further Buchberger
run.  When the Hilbert series of S/(I : g) is known, for homogeneous I and
g, `colon_by_series` computes I : g with no elimination: degree by degree
from the normal forms of the multiples of g modulo I, until the leads
found have that series, which certifies them as a Groebner basis.  The
basis of I + (h) starts from I's (`_with_element`).  Saturation
has two routes: by an ideal with the irrelevant radical, when the last
variable x_n divides no lead of the grevlex basis of I, it returns I;
otherwise it is the meet of principal saturations I : g^oo over the
generators g, each one elimination of u from (I, 1 - u*g).  Every ideal
derived from a known basis (an elimination, I : g) is seeded: its grevlex
basis comes from packed entries through a `groebner` function
(`eliminated_basis`, `divided_basis`, `colon_rows`) and its generators are
that basis's reduced elements (`_with_seeded_gb`), with no Polynomial built
in between.
`essential_form` writes forms of any degree in their essential variables,
for classification and tangent spaces alike.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import comb, lcm

from . import linalg
from .errors import CertificateError, HomogeneityError, RingMismatchError
from .groebner import (
    buchberger,
    colon_rows,
    divided_basis,
    eliminated_basis,
    seeded_basis,
)
from .hilbert import gotzmann_number, hilbert_series, monomial_data
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
                gb = seeded_basis(self.ring.with_order(order), ())
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


def _with_seeded_gb(ring, gb):
    """The ideal of `ring` generated by the reduced elements of a seeded
    grevlex basis (`groebner.seeded_basis`), which it keeps as its basis."""
    out = Ideal(ring, [g.convert(ring) for g in gb.elements])
    out._gb_cache[GREVLEX] = gb
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
    return _with_seeded_gb(I.ring, eliminated_basis(gens, [u_idx], I.ring))


def quotient_by_element(I, g):
    """(I : g) as (I meet (g)) / g, canonical, for a nonzero g.

    The u-free minimal entries of the block basis of u*I + (1-u)*(g),
    restricted into I's ring, are a Groebner basis of K = I meet (g)
    (`groebner.eliminated_basis`).  Their quotients p / g form a Groebner
    basis of I : g (`divided_basis`), interreduced once into the seeded
    grevlex basis of the result: neither the block basis nor K's own basis
    is ever reduced.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    u_idx, gens = _meet_generators(I, Ideal(I.ring, [g]))
    K = eliminated_basis(gens, [u_idx], I.ring)
    return _with_seeded_gb(I.ring, divided_basis(K, g))


def colon_by_series(I, g, data):
    """(I : g), canonical, for homogeneous I and g, g nonzero, with data the
    HilbertData of S/(I : g): read off normal forms modulo I one degree e
    at a time, with no elimination.

    Let M be the monomial ideal of the leads found so far.  They are leads
    of elements of I : g, so M lies in in(I : g), and HF(S/M) >= HF_data
    in every degree, with equality exactly where M fills (I : g)_e.  A
    degree where they agree, such as one where (I : g)_e is 0, is skipped;
    else `groebner.colon_rows` gives a basis of (I : g)_e with distinct
    leads, all the degree-e leads of I : g, and its size must be
    dim S_e - HF_data(e).  Once HF(S/M) == HF_data, M is in(I : g), so the
    rows found are a Groebner basis of I : g: it is seeded from them and
    carries data, with no Buchberger run.

    The cap: let H be data's Hilbert function.  A monomial ideal N with
    HF(S/N) == H, such as in(I : g), has at most H(k)^<k> - H(k + 1)
    minimal generators in degree k + 1, as the ideal of N_k alone has at
    most H(k)^<k> standard monomials in degree k + 1 (Macaulay's theorem).
    For k >= the agreement bound, H(k) is the Hilbert polynomial, and for
    k >= its Gotzmann number it grows maximally
    (`hilbert.gotzmann_number`), so N has no minimal generator above the
    larger of the two.  A certificate still open past that degree, or a
    degree of the wrong size, raises CertificateError: the data is not
    that of I : g.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if not (I.is_homogeneous() and g.is_homogeneous()):
        raise HomogeneityError("a colon by its series requires homogeneous input")
    width = I.ring.width
    gb = I.groebner_basis()
    cap = max(data.agreement_bound, gotzmann_number(data.hilbert_polynomial))
    leads, items = [], []
    found = monomial_data(width, leads)
    e = 0
    while found.series_numerator != data.series_numerator:
        if e > cap:
            raise CertificateError(f"the colon's leads do not close its series by degree {cap}")
        want = data.series_coefficient(e)
        if found.series_coefficient(e) != want:
            rows = colon_rows(gb, g, e)
            if comb(width + e - 1, e) - len(rows) != want:
                raise CertificateError(f"the colon's degree-{e} piece contradicts its series")
            leads.extend(rows)
            items.extend(rows.values())
            found = monomial_data(width, leads)
        e += 1
    out = _with_seeded_gb(I.ring, seeded_basis(gb.ring, items))
    out._set_hilbert(data)
    return out


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
    I : J^oo = I : m^oo =: I^sat.  If the last variable x_n divides no lead
    of the grevlex basis of I, then (Bayer's lemma: for a homogeneous
    grevlex basis, x_n divides an element exactly when it divides its
    lead) x_n is a nonzerodivisor mod I, so I : x_n^oo = I, and I^sat,
    which lies between I and I : x_n^oo as x_n lies in m, is I.

    Otherwise I : J^oo is the meet of the principal saturations I : g^oo
    over the generators g of J: if f*g^k lies in I for every g, so does
    f*J^N for N large, as J^N lies in the ideal of the g^k.  Each I : g^oo
    is the u-free part of (I, 1 - u*g) (Rabinowitsch), one elimination.
    """
    _require_same_ring(I, J)
    if J.is_zero():
        raise ValueError("saturation by the zero ideal")
    if _radical_is_irrelevant(I, J) and not any(
        m[-1] for m in I.groebner_basis().lead_monomials()
    ):
        return I.canonical()
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


def _saturate_principal(I, f):
    """I : f^oo as the u-free part of (I, 1 - u*f)."""
    ring = I.ring
    ext, u_idx = _u_ring(ring)
    gens = [g.convert(ext) for g in I.generators]
    gens.append(ext.one - ext.variable(u_idx) * f.convert(ext))
    return _with_seeded_gb(ring, eliminated_basis(gens, [u_idx], ring))


def eliminate(I, front_vars):
    """Generators of I meet k[variables outside front_vars], as an ideal."""
    front = tuple(sorted(set(front_vars)))
    if not front or I.is_zero():
        return I
    return _with_seeded_gb(I.ring, eliminated_basis(I.generators, front, I.ring))


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
    """The partial derivatives along the x variables of a multiple of g with
    integer coefficients, one {monomial: nonzero int} per x variable; in a
    ring with the parameter t, each monomial keeps its exponent of t."""
    den = lcm(*(c.denominator for _, c in g.terms))
    partials = [{} for _ in range(g.ring.num_vars)]
    for mono, c in g.terms:
        c = c.numerator * (den // c.denominator)
        for i, e in enumerate(mono[:g.ring.num_vars]):
            if e:
                partials[i][mono[:i] + (e - 1,) + mono[i + 1:]] = e * c
    return partials


def essential_form(ring, forms):
    """(I', columns, ells): the ideal of the forms, x-homogeneous
    polynomials of ring = QQ[x_0..x_n] or QQ[t][x_0..x_n], written in their
    m = max(4, k) essential variables y_0..y_(m-1), in
    PolyRing(m, has_param=ring.has_param), with k the dimension of the span
    W below.  y_i stands for x_(columns[i]): columns lists the pivot columns
    of W's rref basis, then the free columns in ascending order, n + 1
    entries in all, and the y_j with j >= m are the dropped variables.
    ells[i] is the coefficient row over x_0..x_n of the linear form ell_i
    that y_i maps back to, for i < m: the rref row w_i for i < k, and the
    unit row at columns[i] after it; each generator of I' with ell_i
    substituted for y_i is the form it came from.  When m >= n + 1 nothing
    is restricted: I' is the ideal of the forms in ring itself, columns is
    the identity and ells are the unit rows.

    The proof (E. Carlini, "Reducing the number of variables of a
    polynomial", Algebraic Geometry and Geometric Modeling, Springer 2006):

      * let W be the span of the rows r_mu = (coefficient of x^mu in
        d f / d x_i)_i over the forms f and the monomials x^mu of their
        first x-partials, with x^mu running over the monomials in t and x
        when the ring has t.  The coefficient of x^mu in d_v f is
        <v, r_mu>, so a constant v is orthogonal to W exactly when every
        d_v f is 0, as a polynomial in t and x.  For a quadric
        f = x^T Q x, r_(x_j) = 2Q e_j holds the coefficients of
        d f / d x_j, as Q is symmetric: W is the span of the quadrics'
        partials;
      * let w_0..w_(k-1) be the reduced row echelon basis of W (as
        coefficient rows), w_i with pivot column p_i, and complete it by the
        unit rows at the free columns to an invertible matrix A.  Substitute
        x -> A^-1 y, a change of the x coordinates constant in t.  For
        j >= k column j of A^-1 is orthogonal to w_0..w_(k-1), so the
        derivative of every form along it is zero and the substituted forms
        do not involve y_j: they lie in S' = QQ[y_0..y_(m-1)] (over QQ[t])
        with m = max(4, k);
      * for i < k column i of A^-1 is the unit vector e_(p_i), because
        A e_(p_i) = (w_0[p_i], ..., w_(k-1)[p_i], 0, ..., 0) = e_i: an rref
        row is 1 at its own pivot and 0 at the others, and e_(p_i) has no
        free entry.  Setting the absent y_j (j >= k) to 0 thus sends x to
        y_0 e_(p_0) + ... + y_(k-1) e_(p_(k-1)), so each substituted form
        is the form with every free variable set to 0 and x_(p_i) renamed
        y_i.  The change of coordinates is a restriction, and A is never
        built;
      * y = A x, so y_i = <w_i, x> = ell_i for i < k, and each form f is
        its substituted form f' at y = A x: f = f'(ell_0, ..., ell_(m-1)).

    So the substituted ideal gI of the forms is I'S.
    """
    nv = ring.num_vars
    span = linalg.RowSpan(nv)
    for f in forms:
        rows = {}   # x^mu -> r_mu, sparse over the partials d / d x_i
        for i, partial in enumerate(_integer_partials(f)):
            for mono, c in partial.items():
                rows.setdefault(mono, {})[i] = c
        for row in rows.values():
            span.add(row)
    m = max(4, len(span))
    if m >= nv:
        identity = tuple(tuple(int(i == j) for i in range(nv)) for j in range(nv))
        return Ideal(ring, forms), tuple(range(nv)), identity
    basis, pivots = span.rref()
    # set the free variables to 0 and rename x_(p_i) to y_i
    free = tuple(j for j in range(nv) if j not in pivots)
    pad = (0,) * (m - len(pivots))
    small = PolyRing(m, has_param=ring.has_param)
    restricted = [
        small.from_dict({
            tuple(mono[p] for p in pivots) + pad + mono[nv:]: c
            for mono, c in f.terms
            if not any(mono[j] for j in free)
        })
        for f in forms
    ]
    columns = tuple(pivots) + free
    units = tuple(tuple(int(i == j) for i in range(nv)) for j in columns[len(pivots):m])
    return Ideal(small, restricted), columns, tuple(map(tuple, basis)) + units


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
