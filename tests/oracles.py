"""Brute-force oracles and invariant checks that the test suites compare against."""

import contextlib
import heapq
import itertools
import re
import resource
from fractions import Fraction
from math import gcd, lcm

from hilbcomp import linalg
from hilbcomp.errors import LatticeDataError, ParseError, RingMismatchError
from hilbcomp.picard import _CHAMBERS, HN, WN, hn_lattice, solve_relations, wn_lattice
from hilbcomp.rings import MAX_EXPONENT, _divides, _mono_lcm, _mono_mul, monomials_of_degree


@contextlib.contextmanager
def memory_cap(extra_bytes):
    """Cap this process's address space at its current size plus extra_bytes
    while the block runs, so that a test of a refused allocation fails with
    MemoryError, instead of filling the machine, if the refusal regresses."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    cap = size + extra_bytes
    if soft != resource.RLIM_INFINITY:
        cap = min(cap, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def validate_canonical(p):
    """Assert the canonical-form invariants of a polynomial."""
    key = p.ring.sort_key()
    seen = set()
    prev = None
    for m, c in p.terms:
        assert c != 0, "zero coefficient stored"
        assert isinstance(c, Fraction)
        assert len(m) == p.ring.width
        assert all(isinstance(e, int) and e >= 0 for e in m)
        assert m not in seen, "duplicate monomial"
        seen.add(m)
        k = key(m)
        if prev is not None:
            assert k < prev, "terms not strictly descending"
        prev = k
    return True


def convert_by_name(p, target):
    """Reinterpret p in target by matching variable names; variables absent
    from the target must not occur, extra target variables get exponent zero."""
    src = p.ring
    names = {target.var_name(j): j for j in range(target.width)}
    mapping = [names.get(src.var_name(i)) for i in range(src.width)]
    acc = {}
    for m, c in p.terms:
        out = [0] * target.width
        for i, e in enumerate(m):
            if e == 0:
                continue
            if mapping[i] is None:
                raise RingMismatchError(
                    f"variable {src.var_name(i)} does not exist in target ring"
                )
            out[mapping[i]] = e
        acc[tuple(out)] = acc.get(tuple(out), 0) + c
    return target.from_dict(acc)


def _int_dict(p):
    """({exponent tuple: int}, den) with p == sum(c * x^m) / den."""
    den = 1
    for _, c in p.terms:
        den = den * c.denominator // gcd(den, c.denominator)
    return {m: c.numerator * (den // c.denominator) for m, c in p.terms}, den


def reduce_by_tuples(f, divisors):
    """Full division of f by the divisors, all in f's ring, on exponent tuples.

    The tuple-keyed fraction-free reduction: a heap of negated order keys,
    the first divisor whose lead divides the top monomial, primitive integer
    divisors, and a scale that clears every pivot.  Returns (remainder,
    quotients) with f == sum(q_k * divisors[k]) + remainder.
    """
    ring = f.ring
    key = ring.sort_key()
    entries = []
    for g in divisors:
        d, gden = _int_dict(g)
        unit = 0
        for c in d.values():
            unit = gcd(unit, c)
        if g.terms[0][1] < 0:
            unit = -unit
        terms = [(m, d[m] // unit) for m, _ in g.terms]
        # g == factor * prim with prim the primitive integer form
        entries.append((g.lead_monomial(), terms[0][1], terms[1:], Fraction(unit, gden)))
    work, den = _int_dict(f)
    heap = [(tuple(-k for k in key(m)), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    quotients = [dict() for _ in entries]
    scale = 1
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if not c:
            continue
        for (lm, lc, tail, _), q in zip(entries, quotients):
            if not _divides(lm, m):
                continue
            g = gcd(c, lc)
            mult, coef = lc // g, c // g
            for acc in [work, remainder] + quotients:
                for k in acc:
                    acc[k] *= mult
            scale *= mult
            shift = tuple(a - b for a, b in zip(m, lm))
            for mono, tc in tail:
                mm = _mono_mul(mono, shift)
                if mm not in work:
                    heapq.heappush(heap, (tuple(-k for k in key(mm)), mm))
                nv = work.get(mm, 0) - coef * tc
                if nv:
                    work[mm] = nv
                else:
                    work.pop(mm, None)
            q[shift] = q.get(shift, 0) + coef
            break
        else:
            remainder[m] = c
    # den * scale * f == sum(Q_k * prim_k) + remainder
    total = den * scale
    return (
        ring.from_dict({m: Fraction(c, total) for m, c in remainder.items()}),
        [
            ring.from_dict({m: Fraction(c, total) / factor for m, c in q.items()})
            for q, (_, _, _, factor) in zip(quotients, entries)
        ],
    )


def reduced_basis_by_tuples(polys):
    """The reduced Groebner basis of polynomials that already form a
    Groebner basis in their ring's order, by tuple division: keep each whose
    lead no kept lead divides (ascending), reduce its tail by the other kept
    ones with `reduce_by_tuples`, make it monic, sort descending by lead."""
    key = polys[0].ring.sort_key()
    kept = []
    for p in sorted(polys, key=lambda p: key(p.lead_monomial())):
        if not any(_divides(q.lead_monomial(), p.lead_monomial()) for q in kept):
            kept.append(p)
    out = []
    for p in kept:
        lead = p.ring.from_dict(dict(p.terms[:1]))
        rem, _ = reduce_by_tuples(p - lead, [q for q in kept if q is not p])
        out.append(monic(lead + rem))
    return tuple(sorted(out, key=lambda g: key(g.lead_monomial()), reverse=True))


def monic(p):
    """A nonzero polynomial over its leading coefficient."""
    return p.scale(1 / p.terms[0][1])


def spair_certificate(basis):
    """Buchberger's criterion in Polynomial arithmetic: True when the
    S-polynomial of every pair of the nonzero polynomials reduces to zero by
    all of them (`reduce_by_tuples`), that is when they form a Groebner basis
    in their ring's order."""
    for f, g in itertools.combinations(basis, 2):
        (mf, cf), (mg, cg) = f.terms[0], g.terms[0]
        top = _mono_lcm(mf, mg)
        shift_f = f.ring.from_dict({tuple(a - b for a, b in zip(top, mf)): 1 / cf})
        shift_g = f.ring.from_dict({tuple(a - b for a, b in zip(top, mg)): 1 / cg})
        if not reduce_by_tuples(shift_f * f - shift_g * g, basis)[0].is_zero():
            return False
    return True


def contains_ideal(I, J):
    """True when every generator of J lies in I."""
    return all(I.contains(g) for g in J.generators)


def hilbert_function_by_count(I, d):
    """dim (S/I)_d by counting degree-d monomials outside the initial ideal."""
    return len(I.groebner_basis().standard_monomials(d))


def graded_piece_quotient(I, J, d):
    """Brute-force {f of degree d : f.J inside I} as a monomial-coefficient
    nullspace; an independent oracle for quotient computations."""
    ring = I.ring
    gb = I.groebner_basis()
    monos = monomials_of_degree(ring.width, d)
    rows = []
    for g in J.generators:
        cols = []
        targets = {}
        for m in monos:
            prod = gb.reduce(g * ring.from_dict({m: Fraction(1)}))
            col = {}
            for mono, c in prod.terms:
                targets.setdefault(mono, len(targets))
                col[targets[mono]] = c
            cols.append(col)
        height = len(targets)
        for rix in range(height):
            rows.append([cols[cix].get(rix, Fraction(0)) for cix in range(len(monos))])
    if not rows:
        return [tuple(int(i == j) for j in range(len(monos))) for i in range(len(monos))], monos
    return linalg.nullspace(rows, len(monos)), monos


def saturate_by_quotients(I, J):
    """(I : J^infinity) by iterating the quotient until the chain stabilizes."""
    from hilbcomp.ideals import quotient

    current = I.canonical()
    while True:
        step = quotient(current, J)
        if step == current:
            return current
        current = step


def hull_by_quotients(ci, I):
    """ci : (ci : I), each colon one intersection per generator: the
    equidimensional hull by double linkage without a generic element."""
    from hilbcomp.ideals import quotient

    return quotient(ci, quotient(ci, I)).canonical()


def quotient_by_division(I, g):
    """I : g as (I meet (g)) / g with each quotient p / g taken by the tuple
    division `reduce_by_tuples` and the result put on its reduced basis by a
    fresh Buchberger run: the route of `ideals.quotient_by_element` before
    it read the colon off the elimination basis."""
    from hilbcomp.ideals import Ideal, intersect

    K = intersect(I, Ideal(I.ring, [g]))
    quotients = []
    for p in K.generators:
        rem, (q,) = reduce_by_tuples(p, [g])
        assert rem.is_zero(), "g does not divide a generator of I meet (g)"
        quotients.append(q)
    return Ideal(I.ring, quotients).canonical()


def reducedness_by_components(hull, primes):
    """Generic reducedness of an unmixed hull from its known prime
    components, by two certificates that do not use the Jacobian.

    True when the hull is the intersection of the primes, hence radical.
    False when it is a double structure on one prime P: P^2 inside the hull
    inside P, with the hull not P itself, so P is its only associated prime
    and the hull is not reduced there.  Any other case fails the assertion.
    """
    from hilbcomp.ideals import intersect

    meet = primes[0]
    for P in primes[1:]:
        meet = intersect(meet, P)
    if hull == meet:
        return True
    assert len(primes) == 1, "the hull is not the intersection of its components"
    (P,) = primes
    assert contains_ideal(P, hull)
    assert all(hull.contains(a * b) for a in P.generators for b in P.generators)
    return False


def substitute_by_expansion(p, var_index, value):
    """p with variable var_index set to a constant, term by term through
    Polynomial arithmetic: the sum of c * value**e * (term without x^e)."""
    ring = p.ring
    out = ring.zero
    for m, c in p.terms:
        rest = ring.from_dict({m[:var_index] + (0,) + m[var_index + 1:]: c})
        out = out + rest.scale(Fraction(value) ** m[var_index])
    return out


def compose_linear_by_products(p, matrix):
    """p under x_i -> sum_j matrix[i][j] * x_j for all x_i at once, as a sum
    of products of whole-polynomial powers of the images."""
    ring = p.ring
    nv = ring.num_vars
    images = []
    for i in range(nv):
        acc = {}
        for j, a in enumerate(matrix[i]):
            if a:
                acc[tuple(1 if k == j else 0 for k in range(ring.width))] = Fraction(a)
        images.append(ring.from_dict(acc))
    out = ring.zero
    for m, c in p.terms:
        term = ring.constant(c)
        for i in range(nv):
            if m[i]:
                term = term * images[i] ** m[i]
        for i in range(nv, ring.width):
            if m[i]:
                term = term * ring.variable(i) ** m[i]
        out = out + term
    return out


def _gradient(q, nv):
    """2Q for the quadric q = x^T Q x, Fraction rows: row i holds the
    coefficients of d q / d x_i."""
    rows = [[0] * nv for _ in range(nv)]
    for mono, c in q.terms:
        a, b = (i for i, e in enumerate(mono) for _ in range(e))
        rows[a][b] += c
        rows[b][a] += c
    return rows


def essential_form_by_rref(ring, quadrics):
    """(I', columns) of `ideals.essential_form` by the dense route: the
    Fraction rows 2Q of the quadrics, their rref's pivot columns, and each
    quadric restricted to the pivot variables, x_(p_i) renamed y_i."""
    from hilbcomp.ideals import Ideal
    from hilbcomp.rings import PolyRing

    nv = ring.num_vars
    basis, pivots = linalg.rref([row for q in quadrics for row in _gradient(q, nv)])
    m = max(4, len(basis))
    if m >= nv:
        return Ideal(ring, quadrics), tuple(range(nv))
    small = PolyRing(m)
    restricted = []
    for q in quadrics:
        acc = {}
        for mono, c in q.terms:
            if all(mono[j] == 0 for j in range(nv) if j not in pivots):
                image = [0] * m
                for i, p in enumerate(pivots):
                    image[i] = mono[p]
                acc[tuple(image)] = c
        restricted.append(small.from_dict(acc))
    free = tuple(j for j in range(nv) if j not in pivots)
    return Ideal(small, restricted), tuple(pivots) + free


def essential_form_by_substitution(I):
    """The ideal of `classify._essential_quadrics` through the full change
    of coordinates: take I's quadrics (its given generators when all are
    quadrics, else its degree-two basis elements), complete the rref basis
    w_0..w_(k-1) of their partials by unit rows at the free columns to an
    invertible A, substitute x -> A^-1 y, and read the images in the first
    m = max(4, k) variables."""
    from hilbcomp.classify import _quadric_basis
    from hilbcomp.ideals import Ideal, random_linear_change
    from hilbcomp.rings import PolyRing

    ring = I.ring
    nv = ring.num_vars
    quadrics = list(I.generators)
    if not all(g.total_degree() == 2 and g.is_homogeneous() for g in quadrics):
        quadrics = _quadric_basis(I)
    basis, pivots = linalg.rref([row for q in quadrics for row in _gradient(q, nv)])
    m = max(4, len(basis))
    if m >= nv:
        return Ideal(ring, quadrics)
    free = [j for j in range(nv) if j not in pivots]
    A = basis + [[int(i == j) for i in range(nv)] for j in free]
    moved = random_linear_change(Ideal(ring, quadrics), None, matrix=linalg.invert(A))
    small = PolyRing(m)
    return Ideal(small, [g.convert(small) for g in moved.generators])


def torus_fixed_points():
    """The saturated monomial ideals of QQ[x_0..x_3] with Hilbert polynomial
    2m + 2, the torus-fixed points of that Hilbert scheme, each as the sorted
    tuple of its minimal generators' exponents.

    The Gotzmann number of 2m + 2 is 3 (G. Gotzmann, Math. Z. 158, 1978), so
    such an ideal is determined by its 12 cubics, and a set of 12 of the 20
    cubic monomials is the degree-3 piece of one exactly when its products
    with the variables span 35 - 10 = 25 quartics (Gotzmann persistence).
    The saturation agrees with the ideal from degree 3 on, so a monomial u
    of degree 1 or 2 lies in it exactly when u times every monomial of
    degree 3 - deg u is one of the cubics.
    """
    cubics = monomials_of_degree(4, 3)
    quartic_bit = {q: 1 << k for k, q in enumerate(monomials_of_degree(4, 4))}
    unit = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    spans = [sum(quartic_bit[_mono_mul(c, x)] for x in unit) for c in cubics]
    found = []

    def extend(start, chosen, span):
        if len(chosen) == 12:
            if bin(span).count("1") == 25:
                found.append(chosen)
            return
        for k in range(start, len(cubics) - (11 - len(chosen))):
            wider = span | spans[k]
            if bin(wider).count("1") <= 25:
                extend(k + 1, chosen + (cubics[k],), wider)

    extend(0, (), 0)
    out = []
    for chosen in found:
        cubic_set = set(chosen)
        gens = list(chosen)
        for d in (1, 2):
            gens.extend(
                u for u in monomials_of_degree(4, d)
                if all(_mono_mul(u, v) in cubic_set for v in monomials_of_degree(4, 3 - d))
            )
        minimal = [g for g in gens if not any(h != g and _divides(h, g) for h in gens)]
        out.append(tuple(sorted(minimal, key=lambda m: (sum(m), m))))
    return out


def specialize_by_substitution(I, t0):
    """Image of an ideal of QQ[t][x] under t -> t0 as an ideal of QQ[x],
    one `Polynomial.substitute` and one `convert` per generator."""
    from hilbcomp.ideals import Ideal
    from hilbcomp.rings import PolyRing

    ring = I.ring
    base = PolyRing(ring.num_vars)
    out = []
    for g in I.generators:
        h = g.substitute({ring.param_index: t0})
        if not h.is_zero():
            out.append(h.convert(base))
    return Ideal(base, out)


def fiber_polynomials_by_specialization(fam, points):
    """The Hilbert polynomial of each fiber of a family at the given points,
    one grevlex basis of the specialized ideal per point: the route of
    `flat_limit.flatness_probe` before it read fibers off a block basis."""
    from hilbcomp.flat_limit import _specialize
    from hilbcomp.hilbert import hilbert_series

    return tuple(
        hilbert_series(_specialize(fam.total_ideal, t0)).hilbert_polynomial for t0 in points
    )


def pencil_planar_double(n, mirror=False):
    """The planar-double pencil in P^n on the affine chart where the other
    pencil coordinate is 1; `mirror` swaps the roles of the two coordinates."""
    from hilbcomp.flat_limit import Family
    from hilbcomp.ideals import Ideal
    from hilbcomp.rings import PolyRing

    ring = PolyRing(n + 1, has_param=True)
    x, t = [ring.x(i) for i in range(4)], ring.t
    if mirror:
        tie = x[0] * x[3] - t * x[1] * x[2]
    else:
        tie = t * x[0] * x[3] - x[1] * x[2]
    return Family(Ideal(ring, [x[0] ** 2, x[0] * x[1], x[1] ** 2, tie]))


def minimal_generators_by_bases(I):
    """`tangent.minimal_generators` deciding each membership with a fresh
    grevlex basis of the other generators."""
    from hilbcomp.ideals import Ideal

    gens = list(I.generators)
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for i in range(len(gens)):
            others = gens[:i] + gens[i + 1 :]
            if Ideal(I.ring, others).contains(gens[i]):
                gens = others
                changed = True
                break
    return tuple(gens)


def satisfies_by_reduction(I, images):
    """`tangent.explicit_basis_check` for one assignment (generators[i] ->
    images[i]): each generating syzygy of the generators is summed against
    the reduced images through Polynomial arithmetic, and the sum must
    reduce to zero.  A reduced image of the wrong top degree raises
    ValueError."""
    from hilbcomp.groebner import syzygies

    module = syzygies(list(I.generators))
    gb = module.basis
    reduced = []
    for g, im in zip(module.target, images):
        im = gb.reduce(im).convert(module.ring)
        if not im.is_zero() and im.total_degree() != g.total_degree():
            raise ValueError("degree mismatch")
        reduced.append(im)
    for row in module.generators:
        acc = module.ring.zero
        for s, im in zip(row, reduced):
            acc = acc + s * im
        if not gb.reduce(acc).is_zero():
            return False
    return True


def tangent_rows_by_polynomials(I):
    """The tangent system of `tangent.hom_degree_zero` with Fraction entries,
    one Polynomial product and one `GroebnerBasis.reduce` per (syzygy,
    column): a list of blocks, one per generating syzygy, each holding that
    syzygy's nonzero rows in the order of the target standard monomials."""
    from hilbcomp.groebner import syzygies
    from hilbcomp.tangent import minimal_generators

    ring = I.ring
    gens = minimal_generators(I)
    gb = I.groebner_basis()
    bases = [gb.standard_monomials(g.total_degree()) for g in gens]
    offsets = [sum(map(len, bases[:j])) for j in range(len(bases))]
    total = sum(map(len, bases))
    module = syzygies(list(gens))
    blocks = []
    for row, shift in zip(module.generators, module.shifts):
        target_basis = gb.standard_monomials(shift)
        index = {m: k for k, m in enumerate(target_basis)}
        eqs = [[Fraction(0)] * total for _ in target_basis]
        for j, s_j in enumerate(row):
            if s_j.is_zero():
                continue
            for k, mono in enumerate(bases[j]):
                reduced = gb.reduce(s_j * ring.from_dict({mono: Fraction(1)}))
                for m, c in reduced.terms:
                    eqs[index[m]][offsets[j] + k] += c
        blocks.append([eq for eq in eqs if any(eq)])
    return blocks


def tangent_counts_by_polynomials(I):
    """(dimension, total unknowns, rank) of the full-ring Fraction system of
    `tangent_rows_by_polynomials`, in all the variables of I's ring."""
    from hilbcomp.tangent import minimal_generators

    gb = I.groebner_basis()
    total = sum(len(gb.standard_monomials(g.total_degree())) for g in minimal_generators(I))
    rank = linalg.rank([row for block in tangent_rows_by_polynomials(I) for row in block])
    return total - rank, total, rank


def transform_certificate(gb):
    """True when gb carries a transform and transform . generators ==
    elements, summed through Polynomial arithmetic."""
    if gb.transform is None:
        return False
    for row, g in zip(gb.transform, gb.elements):
        acc = -g
        for s, f in zip(row, gb.generators):
            acc = acc + s * f
        if not acc.is_zero():
            return False
    return True


def syzygy_verify_by_polynomials(module):
    """True when every row of the module satisfies sum(s_j * f_j) == 0,
    summed through Polynomial arithmetic."""
    for row in module.generators:
        acc = module.ring.zero
        for s, f in zip(row, module.target):
            acc = acc + s * f
        if not acc.is_zero():
            return False
    return True


def row_coordinates_by_products(ring, target, row, shift, mono=None):
    """Coordinates of the degree-`shift` module row mono * row, built as
    Polynomial products and read off over monomials_of_degree."""
    if mono is not None:
        factor = ring.from_dict({mono: Fraction(1)})
        row = tuple(factor * s for s in row)
    coords = []
    for s, f in zip(row, target):
        lookup = dict(s.terms)
        coords.extend(
            Fraction(lookup.get(m, 0)) for m in monomials_of_degree(ring.width, shift - f.total_degree())
        )
    return coords


def densify(row, width):
    """A sparse {column: value} row as a dense list of `width` values."""
    dense = [0] * width
    for k, a in row.items():
        dense[k] = a
    return dense


def integer_row(row):
    """A dense row of ints or Fractions as the sparse integer row that
    `linalg.RowSpan` takes: its nonzeros times the lcm of their
    denominators, which spans the same line."""
    den = lcm(*(Fraction(a).denominator for a in row))
    return {k: int(a * den) for k, a in enumerate(row) if a}


# A recursive-descent parser of the grammar in `rings` over a token list.  The
# whole line is tokenized first, so a syntax error lands at the first
# untokenizable character or at the offending token.
_TOKEN = re.compile(
    r"\s*(?:(?P<var>x\d+|t)|(?P<num>\d+)|(?P<op>[-+*/^]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.lastgroup == "var":
            tokens.append(("var", m.group("var"), m.start("var")))
        elif m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, ring):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        acc = {}
        sign = 1
        kind, val, pos = self.peek()
        if kind == "end":
            raise ParseError("empty polynomial expression", pos)
        self._term(acc, sign)
        while True:
            kind, val, pos = self.peek()
            if kind == "end":
                break
            if kind == "op" and val in "+-":
                self.advance()
                self._term(acc, 1 if val == "+" else -1)
            else:
                raise ParseError(f"expected '+' or '-', found {val!r}", pos)
        return self.ring.from_dict(acc)

    def _term(self, acc, sign):
        num, den = sign, 1
        mono = [0] * self.ring.width
        kind, val, pos = self.peek()
        if kind == "num" or (kind == "op" and val == "-"):
            num, den = self._coeff(sign)
            kind, val, pos = self.peek()
            while kind == "op" and val == "*":
                self.advance()
                self._factor(mono)
                kind, val, pos = self.peek()
        elif kind == "var":
            self._factor(mono)
            kind, val, pos = self.peek()
            while kind == "op" and val == "*":
                self.advance()
                self._factor(mono)
                kind, val, pos = self.peek()
        else:
            raise ParseError(f"expected a term, found {val!r}", pos)
        m = tuple(mono)
        acc[m] = acc.get(m, 0) + (num if den == 1 else Fraction(num, den))

    def _coeff(self, sign):
        """(numerator, denominator) of a signed coefficient times sign."""
        kind, val, pos = self.advance()
        if kind == "op" and val == "-":
            sign = -sign
            kind, val, pos = self.advance()
        if kind != "num":
            raise ParseError(f"expected an integer, found {val!r}", pos)
        num = sign * int(val)
        kind2, val2, _ = self.peek()
        if kind2 == "op" and val2 == "/":
            self.advance()
            kind3, val3, pos3 = self.advance()
            if kind3 != "num":
                raise ParseError(f"expected a denominator, found {val3!r}", pos3)
            den = int(val3)
            if den == 0:
                raise ParseError("zero denominator", pos3)
            return num, den
        return num, 1

    def _factor(self, mono):
        kind, val, pos = self.advance()
        if kind != "var":
            raise ParseError(f"expected a variable, found {val!r}", pos)
        idx = self._var_index(val, pos)
        exp = 1
        kind2, val2, _ = self.peek()
        if kind2 == "op" and val2 == "^":
            self.advance()
            kind3, val3, pos3 = self.advance()
            if kind3 != "num":
                raise ParseError(f"expected an exponent, found {val3!r}", pos3)
            exp = int(val3)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} too large", pos3)
        mono[idx] += exp
        if mono[idx] > MAX_EXPONENT:
            raise ParseError("accumulated exponent too large", pos)

    def _var_index(self, name, pos):
        ring = self.ring
        if name == "t":
            if not ring.has_param:
                raise ParseError("variable t not available in this ring", pos)
            return ring.param_index
        i = int(name[1:])
        if i >= ring.num_vars:
            raise ParseError(f"unknown variable {name}", pos)
        return i


def parse_by_tokens(text, ring):
    """`rings.parse` by tokens and recursive descent: the same strings are
    accepted and give the same polynomials; error positions may differ."""
    return _Parser(text, ring).parse()


def to_sympy(p, gens):
    """p as a sympy expression in the symbols gens, one per variable."""
    import sympy

    expr = 0
    for mono, c in p.terms:
        term = sympy.Rational(c.numerator, c.denominator)
        for g, e in zip(gens, mono):
            term *= g**e
        expr += term
    return expr


def from_sympy_poly(poly, ring):
    """A sympy Poly over QQ, its generators ring's variables in order, as a
    polynomial of ring."""
    terms = {}
    for mono, c in zip(poly.monoms(), poly.coeffs()):
        terms[tuple(int(e) for e in mono)] = Fraction(c.p, c.q)
    return ring.from_dict(terms)


def sympy_grevlex(exprs, syms, ring):
    """sympy's reduced grevlex basis of exprs, polynomials in syms (ring's
    variables in order), as monic polynomials of ring, descending."""
    import sympy

    if not exprs:
        return []
    basis = sympy.groebner(exprs, *syms, order="grevlex", domain="QQ")
    polys = [monic(from_sympy_poly(sympy.Poly(g, *syms), ring)) for g in basis.exprs]
    return sorted(polys, key=lambda q: ring.sort_key()(q.lead_monomial()), reverse=True)


def sympy_eliminate(exprs, front, syms):
    """The members free of the front symbols of sympy's lex basis with the
    front symbols first: generators of the elimination ideal."""
    import sympy

    rest = [s for s in syms if s not in front]
    basis = sympy.groebner(exprs, *front, *rest, order="lex", domain="QQ")
    return [g for g in basis.exprs if not g.free_symbols & set(front)]


# curves sweeping each base-locus entry: negativity against one of them
# certifies the entry's presence in the stable base locus.  A locus keyed
# whole (rank 2) is certified at once; otherwise each divisor in it is.
_SWEEPING_CURVES = {
    HN: {("II", "IV"): ("B4",), ("III", "IV"): ("B2",)},
    WN: {"E'": ("B2", "B6"), "N'": ("B4",)},
}

# positive ray weights sampling the interior of a cone on 2 or 3 rays
_INTERIOR_SAMPLES = {2: ((1, 1), (2, 1), (1, 3)), 3: ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))}


def validate_base_locus_data(space, n):
    """Cross-check the chamber lookup against the curve pairings.

    Samples each chamber with positive combinations of its rays; every
    entry claimed in the stable base locus there must pair negatively with
    one of its sweeping curves (with the other claimed divisors peeled off
    first, mirroring how base loci accumulate).  Raises on any violation.
    """
    report = solve_relations({HN: hn_lattice, WN: wn_lattice}[space](n))
    classes = report.classes
    curves = report.lattice.curves
    sweeping = _SWEEPING_CURVES[space]

    for chamber in _CHAMBERS[space][1:]:
        entries = (chamber.locus,) if chamber.locus in sweeping else chamber.locus
        for rays in chamber.cones:
            for weights in _INTERIOR_SAMPLES[len(rays)]:
                coords = [
                    sum(w * classes[r].coords[i] for w, r in zip(weights, rays))
                    for i in range(len(report.lattice.basis))
                ]
                remaining = list(coords)
                for entry in entries:
                    if not any(
                        sum(a * b for a, b in zip(curves[c].row, remaining)) < 0
                        for c in sweeping[entry]
                    ):
                        raise LatticeDataError(
                            f"{entry} not certified by a sweeping curve at {coords}"
                        )
                    if entry in rays:
                        # peel the certified divisor before checking the next one
                        weight = weights[rays.index(entry)]
                        for i, c in enumerate(classes[entry].coords):
                            remaining[i] -= weight * c
    return True
