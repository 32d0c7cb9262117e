"""Buchberger's algorithm, normal forms, elimination, and syzygies.

Inside the engine a monomial is one packed int (`_Packing`, one per order
and width): fields of 32 bits, most significant first in the order's own
comparison, so int comparison is the monomial order and the heap of a
division holds plain ints.  The top bit of every field is a guard bit that
stays clear, a product is one add, and divisibility is one subtract of the
exponent fields followed by a guard test.  Every monomial the engine creates
is guard-tested, so an exponent or degree past 2**31 - 1 raises
`MonomialOverflowError` instead of wrapping around.  Division is
fraction-free: the working polynomial is scaled by integer pivots and every
intermediate is stripped to its integer content, which keeps coefficient
growth bounded; exact rational results appear only at the boundary (monic
basis elements, normal forms, quotients, the transform).

The boundary with `Polynomial` is crossed in one place each way: polynomials
enter through `_int_terms` (which packs) and the `_Entry` normalizer, and
every result leaves through `_poly` (which unpacks).  Buchberger's transform
is tracked packed too, one {mono: Fraction} dict per generator, on the
entries of the reduced basis as well, where `syzygies` reads it; shifts,
the S-polynomial, the transform and the Schreyer lift are all summed by
`_add_product`.  Rings that differ only in their order share one index
layout, so a polynomial of any compatible ring reduces against a basis
without conversion.

A syzygy row is one packed {mono: int} dict per entry.  `syzygies` lifts,
makes primitive and prunes its rows in that form, and a `SyzygyModule` is
those packed rows: `verify`, `contains` and the tangent table read them,
and only a read of `generators` unpacks them (`_row_polys`).  The row
helpers take the target's degrees, computed once per module, in place of
the target, and flatten a row's graded piece into a sparse integer row,
{column: nonzero int}, the one row format of `linalg.RowSpan`
(`_row_coordinates`).  `_graded_prune` also trims the rows (g,) against
degree 0, the target (1,), for `tangent.minimal_generators`; a row's shift
is read off its terms.

Reduced Groebner bases are canonical for (ideal, order): monic, fully
autoreduced, sorted descending by leading monomial, which makes ideal
equality a tuple comparison downstream.

A `GroebnerBasis` holds the packed minimal entries of some Groebner basis,
unreduced: `buchberger` stops at the minimal basis of its S-pair loop, and
`seeded_basis` takes term dicts known to form a Groebner basis, as the
derived bases of the ideal layer do (`eliminated_basis`, `divided_basis`,
`saturated_basis`).  Their leads are the minimal generators of the initial
ideal, so the entries serve every reader that needs only leads or some
Groebner basis: Hilbert data, elimination, colons, the flat limit, and a
larger basis that starts from them (`buchberger(..., basis=)`).  The
reduced basis is built from them once, on first read, as packed entries
(`_entries`); `elements` and `transform` are unpacked from those.

Pair management uses the
Gebauer-Moeller refinement of Buchberger's first and second criteria, on
the exponent tuples of the leads.  Each pair is stored once, when it is
created, with the lcm of its leads and its selection key: sugar degree,
then the order key of the lcm, then the two indices.  The pair with the
smallest key is processed next; an optional seed randomizes the processing
schedule instead (the reduced basis must not depend on it).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
import struct
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul

from . import linalg
from .errors import HomogeneityError, MonomialOverflowError, RingMismatchError
from .rings import (
    GREVLEX,
    Polynomial,
    _divides,
    _mono_lcm,
    _mono_mul,
    elimination_order,
    monomials_of_degree,
)

_FIELD_BITS = 32
_MASK = (1 << (_FIELD_BITS - 1)) - 1   # the largest value a field holds
_GUARD = 1 << (_FIELD_BITS - 1)


class _Packing:
    """Monomials of one (order, width) as ints, and back.

    Fields, most significant first: grevlex packs the total degree, then
    MASK - e_i for i = n-1 .. 0; a block order packs each block's degree
    followed by that block's MASK - e_i fields in the same reversed order;
    lex packs e_0 .. e_{n-1}.  Packing is affine in the exponents,
    pack(m) == base + sum(e_i * weight_i), with `base` holding MASK in every
    reversed field, so

        pack(a + b) == pack(a) + pack(b) - base
        pack(m - l) == pack(m) - pack(l) + base      (l divides m)

    `view(m) == (m & exps) ^ base` holds e_i in every exponent field and 0 in
    the degree fields, and l divides m exactly when
    ((view(m) | guards) - view(l)) & guards == guards: with the guard bits set
    no field borrows from its neighbour, and a cleared guard marks a field
    where l's exponent is the larger.

    A sum or difference of valid monomials whose fields leave [0, MASK] has
    the guard bit set in its lowest such field (no carry reaches that field
    from below), so `v & guards` is the overflow test for every product.
    """

    def __init__(self, order, width):
        if order.kind == "lex":
            blocks = ()
            fields = [("exp", i) for i in range(width)]
        else:
            if order.kind == "grevlex":
                blocks = [tuple(range(width))]
            elif order.kind == "block":
                front = tuple(i for i in order.front if i < width)
                back = tuple(i for i in range(width) if i not in set(front))
                blocks = [b for b in (front, back) if b]
            else:
                raise ValueError(f"unknown monomial order kind {order.kind!r}")
            fields = []
            for b in blocks:
                fields.append(("deg", b))
                fields += [("rev", i) for i in reversed(b)]
        nfields = len(fields)
        weights = [0] * width
        base = guards = exps = 0
        slot_of = {}
        for k, (kind, what) in enumerate(fields):
            slot = nfields - 1 - k
            place = 1 << (_FIELD_BITS * slot)
            guards |= _GUARD * place
            if kind == "deg":
                for i in what:
                    weights[i] += place
                continue
            slot_of[what] = slot
            exps |= _MASK * place
            if kind == "rev":
                weights[what] -= place
                base |= _MASK * place
            else:
                weights[what] += place
        self.weights = tuple(weights)
        self.base = base
        self.guards = guards
        self.exps = exps
        self._blocks = blocks
        self._nbytes = nfields * _FIELD_BITS // 8
        # the exponent fields in slot order, then into variable order
        exp_slots = set(slot_of.values())
        self._fields = struct.Struct(
            "<" + "".join("I" if s in exp_slots else "4x" for s in range(nfields))
        ).unpack
        by_slot = sorted(range(width), key=slot_of.__getitem__)
        self._permute = None
        if by_slot != list(range(width)):
            self._permute = itemgetter(*(by_slot.index(i) for i in range(width)))

    def pack(self, m):
        # a total degree within MASK bounds every field; past it, check each
        if min(m) < 0 or (sum(m) > _MASK and not self._fits(m)):
            raise _overflow()
        return sum(map(mul, m, self.weights), self.base)

    def _fits(self, m):
        return max(m) <= _MASK and all(
            sum(map(m.__getitem__, b)) <= _MASK for b in self._blocks
        )

    def divides(self, a, b):
        """True when packed monomial a divides packed monomial b."""
        guards, exps, base = self.guards, self.exps, self.base
        return ((((b & exps) ^ base) | guards) - ((a & exps) ^ base)) & guards == guards

    def unpack(self, v):
        exps = self._fields((v ^ self.base).to_bytes(self._nbytes, "little"))
        return exps if self._permute is None else self._permute(exps)


@functools.lru_cache(maxsize=None)
def _packing(order, width):
    return _Packing(order, width)


def _ring_packing(ring):
    return _packing(ring.order, ring.width)


def _overflow():
    return MonomialOverflowError(
        f"a monomial exponent or degree exceeds the packed field width (values up to {_MASK})"
    )


def _int_terms(p, pk):
    """Clear denominators: returns ({packed mono: int} in p's term order,
    denominator)."""
    den = 1
    for _, c in p.terms:
        den = den * c.denominator // gcd(den, c.denominator)
    pack = pk.pack
    return {pack(m): c.numerator * (den // c.denominator) for m, c in p.terms}, den


def _pack_row(row, pk):
    """A row of Polynomials as packed {mono: int} dicts over one common
    denominator, the lcm of the entries' own: a positive multiple of the row."""
    packed = [_int_terms(s, pk) for s in row]
    den = lcm(*(d for _, d in packed))
    return [t if d == den else {m: c * (den // d) for m, c in t.items()} for t, d in packed]


def _add_product(acc, st, gt, pk, f=1):
    """acc += f * st * gt in place, for packed {mono: coefficient} dicts; acc
    keeps no zero coefficient, and every product monomial is guard-tested."""
    guards = pk.guards
    for a, ca in st.items():
        ca *= f
        delta = a - pk.base
        for m, c in gt.items():
            m += delta
            if m & guards:
                raise _overflow()
            v = acc.get(m, 0) + ca * c
            if v:
                acc[m] = v
            else:
                del acc[m]


def _combination(terms, quots, vecs, pk, factors=None):
    """sum(t * v for t, v in terms) - sum(c_k * q_k * vecs[k] over k) as a
    list of packed dicts, one per entry of the vectors: each t is a packed
    multiplier, each q_k a packed quotient dict, c_k == factors[k] (1 when
    factors is None)."""
    minus = [(q, -factors[k] if factors else -1, vecs[k]) for k, q in enumerate(quots) if q]
    out = [{} for _ in terms[0][1]]
    for t, f, vec in [(t, 1, v) for t, v in terms] + minus:
        for acc, v in zip(out, vec):
            _add_product(acc, t, v, pk, f)
    return out


def _poly(ring, items, factor=Fraction(1)):
    """Canonical polynomial sum(c * factor * x^m) from engine (packed mono,
    coefficient) items that are already in descending order, as every
    remainder and quotient of `_reduce_int` is; a coefficient is an int or,
    in a tracked transform, a Fraction."""
    unpack = _ring_packing(ring).unpack
    num, den = factor.numerator, factor.denominator
    return Polynomial(ring, tuple((unpack(m), Fraction(c * num, den)) for m, c in items))


class _Entry:
    """Primitive-integer basis element: prim == lc * monic form.

    Built from a {packed mono: int} dict in descending order: the content is
    stripped and the lead made positive, so input == unit * prim, and a
    tracked vec (one packed {mono: Fraction} dict per input generator) is
    divided by the same unit.  `lead` is the exponent tuple of the packed
    lead `lm`, for the pair bookkeeping.
    """

    __slots__ = ("lm", "lead", "tail", "lc", "unit", "sugar", "vec")

    def __init__(self, coeffs, pk, sugar=0, vec=None):
        unit = 0
        for c in coeffs.values():
            unit = gcd(unit, c)
            if unit == 1:
                break
        terms = tuple(coeffs.items())
        if terms[0][1] < 0:
            unit = -unit
        if unit != 1:
            terms = tuple((m, c // unit) for m, c in terms)
            if vec is not None:
                vec = [{m: c / unit for m, c in v.items()} for v in vec]
        self.lm, self.lc = terms[0]
        self.lead = pk.unpack(self.lm)
        self.tail = dict(terms[1:])     # {packed mono: int} below the lead, descending
        self.unit = unit
        self.sugar = sugar
        self.vec = vec          # packed dicts with prim == sum(vec . gens)

    def terms(self):
        """(packed mono, int) over all terms, descending from the lead."""
        yield self.lm, self.lc
        yield from self.tail.items()


def _reduce_int(work, entries, pk, want_quotients=False):
    """Fraction-free full division of a packed integer term dict by the entries.

    Maintains  current == scale * input - sum_k quotient_k * entries[k].prim
    with everything integral.  Returns (remainder dict, scale, quotients or
    None); no remainder monomial is divisible by any entry's lead.  The
    remainder and every quotient dict get their keys in descending order:
    monomials leave the heap descending, and the shifts m - lm of one lead
    descend with m because the order is multiplicative.
    """
    base, guards, exps = pk.base, pk.guards, pk.exps
    work = dict(work)
    heap = [-m for m in work]   # heapq pops the smallest: negate for the largest
    heapq.heapify(heap)
    remainder = {}
    scale = 1
    quotients = [dict() for _ in entries] if want_quotients else None
    # the divisibility test of _Packing.divides, with the leads' views hoisted
    views = [(e.lm & exps) ^ base for e in entries]
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None or c == 0:
            continue
        probe = ((m & exps) ^ base) | guards
        for idx, view in enumerate(views):
            if (probe - view) & guards == guards:
                entry = entries[idx]
                # entry.lc > 0 by construction
                g = gcd(c, entry.lc)
                mult = entry.lc // g
                coef = c // g
                if mult != 1:
                    for k in work:
                        work[k] *= mult
                    for k in remainder:
                        remainder[k] *= mult
                    if want_quotients:
                        for q in quotients:
                            for k in q:
                                q[k] *= mult
                    scale *= mult
                delta = m - entry.lm    # mono * x^(m - lm) == mono + delta
                for mono, tc in entry.tail.items():
                    mm = mono + delta
                    prev = work.get(mm)
                    if prev is None:
                        nv = -coef * tc
                        if nv:
                            if mm & guards:
                                raise _overflow()
                            work[mm] = nv
                            heapq.heappush(heap, -mm)
                    else:
                        nv = prev - coef * tc
                        if nv:
                            work[mm] = nv
                        else:
                            del work[mm]
                if want_quotients:
                    q = quotients[idx]
                    shift = delta + base
                    q[shift] = q.get(shift, 0) + coef
                break
        else:
            remainder[m] = c
    return remainder, scale, quotients


def _int_spoly(e1, e2, lcm, pk):
    """Primitive-friendly S-polynomial data of two entries whose packed lcm
    of leads is `lcm`.

    Returns (work dict, denominator, (s1, s2, c1, c2)) with
    work/den == x^s1 * monic(e1) - x^s2 * monic(e2), s1 and s2 packed.
    """
    s1, s2 = lcm - e1.lm + pk.base, lcm - e2.lm + pk.base
    g = gcd(e1.lc, e2.lc)
    c1, c2 = e2.lc // g, e1.lc // g
    acc = {}
    # the leads cancel: c1 * e1.lc == c2 * e2.lc
    _add_product(acc, {s1: c1}, e1.tail, pk)
    _add_product(acc, {s2: -c2}, e2.tail, pk)
    return acc, (e1.lc * e2.lc) // g, (s1, s2, c1, c2)


class GroebnerBasis:
    """Groebner basis: packed minimal entries, reduced on first read.

    `_minimal` holds the entries of some Groebner basis whose leads no other
    lead divides, ascending by lead; `_entries`, `elements` and `transform`
    are built from them once, on first read, and the reduced entries then
    stand in `_minimal` for the unreduced ones.  elements are monic and sorted
    descending by leading monomial in `ring` (which carries the order).  When
    tracked, elements = transform . generators, else transform is None; a
    seeded basis (`seeded_basis`) has its elements as its generators.  A
    basis compares and hashes by identity; `Ideal.__eq__` compares ideals.
    """

    def __init__(self, ring, minimal, generators=None, tracked=False):
        self.ring, self._minimal, self._tracked = ring, minimal, tracked
        if generators is not None:
            self.generators = generators    # stands in for the cached view

    @functools.cached_property
    def generators(self):
        return self.elements

    @functools.cached_property
    def elements(self):
        return _monic(self.ring, self._entries)

    @functools.cached_property
    def transform(self):
        if not self._tracked:
            return None
        # the vec of an entry over its lc expresses the monic element
        return tuple(
            tuple(_poly(self.ring, sorted(v.items(), reverse=True), Fraction(1, e.lc))
                  for v in e.vec)
            for e in self._entries
        )

    @functools.cached_property
    def _entries(self):
        """The packed entries of the reduced basis, descending by lead."""
        entries = _interreduced(self._minimal, self.ring, self._tracked)
        self._minimal = entries[::-1]
        return entries

    def lead_monomials(self):
        """The leads of the elements, descending.  A minimal basis has the
        leads of the reduced one, the minimal generators of the initial
        ideal, so they are read off the minimal entries without reducing."""
        return tuple(e.lead for e in reversed(self._minimal))

    def standard_monomials(self, d):
        """Degree-d monomials outside the initial ideal, in enumeration order."""
        leads = self.lead_monomials()
        return [
            m for m in monomials_of_degree(self.ring.width, d)
            if not any(_divides(g, m) for g in leads)
        ]

    def reduce(self, f, want_quotients=False):
        """Full normal form of f against this basis, returned in f's ring.

        f may live in any compatible ring.  With want_quotients, also returns
        the exact monic-basis quotients, in the basis ring:
        f == sum_k q_k * elements[k] + remainder.
        """
        if not f.ring.compatible(self.ring):
            raise RingMismatchError("polynomial is not in the basis ring")
        pk = _ring_packing(self.ring)
        work, den = _int_terms(f, pk)
        entries = self._entries
        rem, scale, quots = _reduce_int(work, entries, pk, want_quotients)
        result = _poly(self.ring, rem.items(), Fraction(1, den * scale)).convert(f.ring)
        if not want_quotients:
            return result
        return result, [
            _poly(self.ring, q.items(), Fraction(entry.lc, den * scale))
            for q, entry in zip(quots, entries)
        ]

    def contains(self, f):
        if not f.ring.compatible(self.ring):
            raise RingMismatchError("polynomial is not in the basis ring")
        pk = _ring_packing(self.ring)
        return not _reduce_int(_int_terms(f, pk)[0], self._entries, pk)[0]


def buchberger(gens, order=None, *, transform=True, seed=None, basis=None):
    """Reduced Groebner basis of the given nonzero generators, reduced on
    first read (`GroebnerBasis`).

    The result is independent of the S-pair processing schedule; `seed`
    permutes that schedule for exactly that reason (testing).  With
    `transform=True` each basis element carries its exact expression in the
    original generators.  `basis`, a basis in `order` of the first
    generators without transform, starts the loop from its minimal entries:
    their S-pairs already reduce to zero, so only pairs with a later
    generator or a new element are formed.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("generator list must be non-empty")
    ring0 = gens[0].ring
    for g in gens:
        if g.ring != ring0:
            raise RingMismatchError("generators live in different rings")
        if g.is_zero():
            raise ValueError("zero generator")
    if order is None:
        order = ring0.order
    ring = ring0.with_order(order)
    key = ring.sort_key()
    pk = _ring_packing(ring)
    originals = tuple(g.convert(ring) for g in gens)
    start = 0
    if basis is not None:
        start = len(basis.generators)
        if transform or basis.ring != ring or basis.generators != originals[:start]:
            raise ValueError("basis must be of the first generators, in order, without transform")
        basis = list(basis._minimal)
    else:
        basis = []

    rng = random.Random(seed) if seed is not None else None
    pairs = {}  # (i, j) -> (selection key, lcm of the two leads), set at creation

    def add_element(int_dict, sugar, vec):
        basis.append(_Entry(int_dict, pk, sugar, vec))
        gm_update(len(basis) - 1)

    def gm_update(new_idx):
        """Gebauer-Moeller pair update: product and chain criteria."""
        new = basis[new_idx]
        lmf = new.lead
        with_new = [_mono_lcm(basis[i].lead, lmf) for i in range(new_idx)]
        stale = [
            (i, j)
            for (i, j), (_, L) in pairs.items()
            if _divides(lmf, L) and L != with_new[i] and L != with_new[j]
        ]
        for p in stale:
            del pairs[p]
        by_lcm = {}
        for i, L in enumerate(with_new):
            by_lcm.setdefault(L, []).append(i)
        minimal = []
        for L in sorted(by_lcm, key=key):
            if not any(_divides(M, L) for M in minimal):
                minimal.append(L)
        for L in minimal:
            if not any(L == _mono_mul(basis[i].lead, lmf) for i in by_lcm[L]):
                i = min(by_lcm[L])
                sugar = sum(L) + max(basis[i].sugar - sum(basis[i].lead), new.sugar - sum(lmf))
                pairs[(i, new_idx)] = ((sugar,) + key(L) + (i, new_idx), L)

    r = len(originals)
    for i, g in enumerate(originals[start:], start):
        d, den = _int_terms(g, pk)
        vec = None
        if transform:
            vec = [{pk.base: Fraction(den)} if k == i else {} for k in range(r)]
        add_element(d, g.total_degree(), vec)

    while pairs:
        chosen = rng.choice(sorted(pairs)) if rng is not None else min(pairs, key=pairs.get)
        (sugar, *_), lcm = pairs.pop(chosen)
        e1, e2 = basis[chosen[0]], basis[chosen[1]]
        s, den, (s1, s2, c1, c2) = _int_spoly(e1, e2, pk.pack(lcm), pk)
        if not s:
            continue
        rem, scale, quots = _reduce_int(s, basis, pk, want_quotients=transform)
        if not rem:
            continue
        vec = None
        if transform:
            # remainder == scale * spoly - sum_k quot_k * prim_k, all prim-based
            terms = [({s1: c1 * scale}, e1.vec), ({s2: -c2 * scale}, e2.vec)]
            vec = _combination(terms, quots, [e.vec for e in basis], pk)
        add_element(rem, sugar, vec)

    return GroebnerBasis(ring, _minimal(basis, pk), originals, transform)


def _minimal(entries, pk):
    """The entries whose lead no other lead divides, ascending by lead; of
    two equal leads the first entry stays."""
    kept = []
    for e in sorted(entries, key=attrgetter("lm")):
        if not any(pk.divides(k.lm, e.lm) for k in kept):
            kept.append(e)
    return tuple(kept)


def _interreduced(kept, ring, transform):
    """The entries of the reduced basis of the entries `kept`, a minimal
    Groebner basis of `ring` ascending by lead (`_minimal`), descending by
    lead: each tail reduced by the others, and with `transform` each vec
    tracked through that reduction."""
    pk = _ring_packing(ring)
    # leads are untouched: the basis is minimal; only a smaller lead divides
    # a term below an entry's lead, so the entries before it are its reducers
    final = []
    for pos, entry in enumerate(kept):
        others = kept[:pos]
        rem, scale, quots = _reduce_int(
            {entry.lm: entry.lc, **entry.tail}, others, pk, want_quotients=transform
        )
        vec = None
        if transform:
            terms = [({pk.base: scale}, entry.vec)]
            vec = _combination(terms, quots, [e.vec for e in others], pk)
        final.append(_Entry(rem, pk, vec=vec))
    final.sort(key=attrgetter("lm"), reverse=True)
    return tuple(final)


def _monic(ring, entries):
    """The monic Polynomials of the entries."""
    return tuple(_poly(ring, e.terms(), Fraction(1, e.lc)) for e in entries)


def seeded_basis(ring, items):
    """The basis of nonzero packed {mono: int} term dicts, each descending
    in `ring`'s order, that form a Groebner basis there: minimalized now,
    interreduced on first read, with no S-pair.  Its generators are its
    elements."""
    pk = _ring_packing(ring)
    return GroebnerBasis(ring, _minimal([_Entry(t, pk) for t in items], pk))


def eliminated_basis(gens, front, ring):
    """The seeded grevlex basis of <gens> meet the subring free of the front
    variables, in `ring`: gens' ring, or that ring without trailing front
    variables.  Of the minimal entries of gens' basis in the block order
    that eliminates the front, it keeps those with a front-free lead.  The
    order puts any front-variable monomial above every front-free one, so
    such an entry is front-free throughout, and they are a minimal Groebner
    basis of the elimination ideal in the order's restriction to front-free
    monomials, which is grevlex: restricted into ring's grevlex packing,
    their terms stay descending."""
    gb = buchberger(gens, elimination_order(front), transform=False)
    ring = ring.with_order(GREVLEX)
    block, pk = _ring_packing(gb.ring), _ring_packing(ring)
    return seeded_basis(ring, [
        {pk.pack(block.unpack(m)[:ring.width]): c for m, c in e.terms()}
        for e in gb._minimal if not any(e.lead[v] for v in front)
    ])


def eliminate_generators(gens, front_vars):
    """Generators of <gens> intersected with the subring avoiding front_vars.

    Returns polynomials in the ring of the input generators: the reduced
    grevlex basis of the elimination ideal (`eliminated_basis`).
    """
    gens = list(gens)
    if not gens:
        return []
    ring = gens[0].ring
    front = tuple(sorted(set(front_vars)))
    if not front:
        return list(gens)
    return [g.convert(ring) for g in eliminated_basis(gens, front, ring).elements]


def divided_basis(gb, g):
    """The seeded basis (`seeded_basis`) of K : g in gb's ring, from a basis
    gb of an ideal K inside (g): the quotients p / g of its minimal entries.

    lm(p / g) == lm(p) / lm(g), so for f in K : g the lead of f * g, a
    multiple of some lm(p), is lm(f) * lm(g), and lm(p / g) divides lm(f):
    the quotients form a Groebner basis.
    """
    pk = _ring_packing(gb.ring)
    divisor = (_Entry(_int_terms(g.convert(gb.ring), pk)[0], pk),)
    quotients = []
    for e in gb._minimal:
        rem, _, (q,) = _reduce_int(e.terms(), divisor, pk, want_quotients=True)
        if rem:
            raise ValueError("polynomial is not divisible")
        quotients.append(q)
    return seeded_basis(gb.ring, quotients)


def saturated_basis(gb):
    """The seeded basis (`seeded_basis`) of I : x_n^oo, x_n the last
    variable, from a grevlex basis gb of a homogeneous ideal I: each entry
    divided by the power of x_n in its lead.  By Bayer's lemma that power
    divides every term of a homogeneous entry, and the quotients form a
    Groebner basis; the minimal entries serve when all are homogeneous (the
    degree field of the last term is the lead's), else the reduced ones."""
    last = _ring_packing(gb.ring).weights[-1]    # pack(m / x_n) == pack(m) - last
    degree = _FIELD_BITS * gb.ring.width         # the grevlex degree field
    entries = gb._minimal
    if any(e.tail and next(reversed(e.tail)) >> degree != e.lm >> degree for e in entries):
        entries = gb._entries
    return seeded_basis(gb.ring, [
        {m - e.lead[-1] * last: c for m, c in e.terms()} for e in entries
    ])


class SyzygyModule:
    """Generating set of the first syzygies of a fixed generator tuple.

    `rows` are packed, one {mono: int} dict per target entry; each
    satisfies sum(row[j] * target[j]) == 0 exactly, is homogeneous of the
    shift read off its terms, and together they generate the full module
    (Schreyer construction lifted through the basis transform).  `basis` is
    the reduced basis `syzygies` built them on (None if given).  Reading
    `generators` unpacks the rows and packs them back, so each published
    row is one that `verify` certifies.  Compared and hashed by identity.
    """

    def __init__(self, ring, target, rows, basis=None):
        self.ring, self.target, self.rows, self.basis = ring, target, rows, basis

    @functools.cached_property
    def degrees(self):
        return tuple(f.total_degree() for f in self.target)

    @functools.cached_property
    def shifts(self):
        return tuple(_row_shift(self.ring, self.degrees, row) for row in self.rows)

    @functools.cached_property
    def generators(self):
        pk = _ring_packing(self.ring)
        polys = tuple(_row_polys(self.ring, row) for row in self.rows)
        if any(_pack_row(p, pk) != list(row) for p, row in zip(polys, self.rows)):
            raise AssertionError("syzygy construction produced an inexact relation")
        return polys

    def verify(self):
        """True when sum_j s_j * [f_j], the one-entry `_combination` of each
        packed row with the target packed over one denominator, is zero."""
        pk = _ring_packing(self.ring)
        target = [[f] for f in _pack_row(self.target, pk)]
        return not any(_combination([*zip(row, target)], (), None, pk)[0] for row in self.rows)

    def contains(self, candidate):
        """Degreewise module membership for a homogeneous candidate row;
        raises HomogeneityError when an entry is not homogeneous."""
        if not all(s.is_homogeneous() for s in candidate):
            raise HomogeneityError("syzygy row is not homogeneous")
        row = _pack_row(candidate, _ring_packing(self.ring))
        shift = _row_shift(self.ring, self.degrees, row)
        coords = _row_coordinates(self.ring, self.degrees, row, shift)
        return coords in _degree_span(self.ring, self.degrees, self.rows, shift)


def _row_shift(ring, degrees, row):
    """The degree of a packed module row over a target of the given degrees,
    read off the first term of each nonzero entry; HomogeneityError unless
    they all agree."""
    unpack = _ring_packing(ring).unpack
    degs = {sum(unpack(next(iter(s)))) + d for s, d in zip(row, degrees) if s}
    if len(degs) != 1:
        raise HomogeneityError("syzygy row is not homogeneous")
    return degs.pop()


@functools.lru_cache(maxsize=128)
def _monomial_index(order, width, d):
    """{packed monomial: position} over monomials_of_degree(width, d)."""
    pack = _packing(order, width).pack
    return {pack(m): k for k, m in enumerate(monomials_of_degree(width, d))}


def _row_coordinates(ring, degrees, row, shift, mono=None):
    """Flatten the degree-`shift` module row mono * row (a packed row, mono a
    packed monomial or None for 1) into a sparse integer row over the
    concatenated monomials_of_degree bases of the entries."""
    delta = 0 if mono is None else mono - _ring_packing(ring).base
    coords = {}
    offset = 0
    for s, d in zip(row, degrees):
        index = _monomial_index(ring.order, ring.width, shift - d)
        for m, c in s.items():
            k = index.get(m + delta)
            if k is not None:
                coords[offset + k] = c
        offset += len(index)
    return coords


def _degree_span(ring, degrees, rows, shift):
    """Echelon span of the degree-`shift` piece of the packed rows' module."""
    width = sum(len(_monomial_index(ring.order, ring.width, shift - d)) for d in degrees)
    span = linalg.RowSpan(width)
    for row in rows:
        for m in _monomial_index(ring.order, ring.width, shift - _row_shift(ring, degrees, row)):
            span.add(_row_coordinates(ring, degrees, row, shift, m))
    return span


def _graded_prune(ring, degrees, rows):
    """The positions of the packed rows outside the graded module span of the
    rows kept before them, after a stable sort by shift (so a repeated row
    goes too).  A kept row spans only itself in its own degree, so one span
    per shift serves."""
    shift_of = [_row_shift(ring, degrees, row) for row in rows].__getitem__
    kept = []
    for shift, group in itertools.groupby(sorted(range(len(rows)), key=shift_of), key=shift_of):
        span = _degree_span(ring, degrees, [rows[i] for i in kept], shift)
        kept.extend(i for i in group if span.add(_row_coordinates(ring, degrees, rows[i], shift)))
    return kept


def syzygies(gens):
    """Generating syzygies of (f_1, ..., f_r): Schreyer rows on the reduced
    basis, pulled back through the recorded transform A, plus the rows of
    I - B.A that absorb the division of each generator by the basis.

    The lift is integral: A is cleared to packed {mono: int} entries over one
    common denominator and v . A summed from v scaled by the D = scale * den
    of its division.  Each row is made primitive (coprime integers, the lead
    term of its first nonzero entry positive) and pruned while packed; the
    module holds the rows kept, packed, and `verify` certifies them.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("generator list must be non-empty")
    for g in gens:
        if not g.is_homogeneous():
            raise HomogeneityError("syzygies require homogeneous generators")
    gb = buchberger(gens, transform=True)
    ring = gb.ring
    pk = _ring_packing(ring)
    entries = gb._entries
    r = len(gens)
    # A == A_int / den_A, s x r, from the packed transform: row k is the vec
    # of entry k over its lc, the transform of the monic element k
    A = [[{m: c / e.lc for m, c in v.items()} for v in e.vec] for e in entries]
    den_A = lcm(*(c.denominator for row in A for t in row for c in t.values()))
    A = [[{m: c.numerator * (den_A // c.denominator) for m, c in t.items()} for t in row]
         for row in A]

    lcs = [e.lc for e in entries]
    rows = []
    # Schreyer rows tau_ij . A scaled by D * den_A, from
    # D * (x^s1*monic_i - x^s2*monic_j) == sum_k Q_k*lc_k * monic_k
    for (i, e1), (j, e2) in itertools.combinations(enumerate(entries), 2):
        work, den, (s1, s2, _, _) = _int_spoly(e1, e2, pk.pack(_mono_lcm(e1.lead, e2.lead)), pk)
        rem, scale, quots = _reduce_int(work, entries, pk, want_quotients=True)
        if rem:
            raise AssertionError("S-pair of a reduced basis failed to vanish")
        terms = [({s1: scale * den}, A[i]), ({s2: -scale * den}, A[j])]
        rows.append(_combination(terms, quots, A, pk, lcs))
    # rows of I - B.A as D * den_A * e_i - (D * B_i) . A_int, from
    # D * f_i == sum_k Q_k*lc_k * monic_k
    for i, g in enumerate(gb.generators):
        work, den = _int_terms(g, pk)
        rem, scale, quots = _reduce_int(work, entries, pk, want_quotients=True)
        if rem:
            raise AssertionError("generator failed to reduce to zero against its own basis")
        unit_row = [{pk.base: den_A} if k == i else {} for k in range(r)]
        rows.append(_combination([({pk.base: scale * den}, unit_row)], quots, A, pk, lcs))

    def primitive(row):
        content = gcd(*(c for t in row for c in t.values()))
        lead = next(t for t in row if t)
        if lead[max(lead)] < 0:
            content = -content
        return [{m: c // content for m, c in t.items()} for t in row]

    degrees = tuple(g.total_degree() for g in gb.generators)
    rows = [primitive(row) for row in rows if any(row)]
    pruned = tuple(rows[i] for i in _graded_prune(ring, degrees, rows))
    module = SyzygyModule(ring, gb.generators, pruned, gb)
    if not module.verify():
        raise AssertionError("syzygy construction produced an inexact relation")
    return module


def _row_polys(ring, row):
    """The Polynomials of a packed integer row: how a module publishes it."""
    return tuple(_poly(ring, sorted(t.items(), reverse=True)) for t in row)
