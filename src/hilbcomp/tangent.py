"""Degree-zero homomorphisms I/I^2 -> S/I by exact linear algebra.

For a homogeneous ideal with minimal generators f_1..f_r of degrees d_i,
an element assigns to each f_i an image in (S/I)_{d_i}, subject to one
relation per generating syzygy (s_1..s_r):

    sum_j s_j * g_j == 0 in S/I.

Images are written over the standard-monomial basis and the syzygy
relations expand to an exact linear system; the dimension is the corank.
Since I kills S/I, maps from I automatically kill I^2, so this module Hom
agrees with Hom(I/I^2, S/I).

The f_i are the minimal generators.  Whether a generator is redundant is
decided in its own degree by the same graded module span that prunes
syzygies (`groebner._degree_span`), with each generator as a one-entry row,
so no Groebner basis is built for it.

The system is built as integer rows.  The unknown of column (j, k) is the
coefficient of the standard monomial m_k in the image of f_j, so the block
of equations of one syzygy (s_1..s_r) has in column (j, k) the coordinates
of NF(s_j * m_k) over the standard monomials of the syzygy's degree.  The
engine reduces s_j * m_k fraction-free and returns that normal form as an
integer remainder over den * scale.  A row mixes columns with different
denominators, so each column cannot be cleared on its own without changing
the row space; instead every entry of the block is multiplied by one
integer L, the lcm of the block's den * scale.  That multiplies each row of
the block by the same nonzero constant L, which leaves each row's zero
pattern and the row space of the block, hence of the whole system, and its
rank unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .errors import HomogeneityError
from .groebner import (
    _degree_span,
    _int_combination,
    _int_terms,
    _reduce_int,
    _ring_packing,
    _row_coordinates,
    _shifted,
    syzygies,
)


@dataclass(frozen=True)
class TangentReport:
    """Solved-system certificate for dim Hom(I/I^2, S/I)_0."""

    dimension: int
    generator_degrees: tuple
    unknowns: tuple          # per generator: the standard monomial basis used
    total_unknowns: int
    constraint_rank: int
    system_rows: int
    system_cols: int

    def to_json(self):
        return {
            "dimension": self.dimension,
            "generator_degrees": list(self.generator_degrees),
            "unknowns": [list(b) for b in self.unknowns],
            "total_unknowns": self.total_unknowns,
            "rank": self.constraint_rank,
            "constraint_rank": self.constraint_rank,
            "system": {"rows": self.system_rows, "cols": self.system_cols},
        }


def minimal_generators(I):
    """Drop generators lying in the ideal of the others (honest generators),
    the first redundant one at a time: g lies in (others) when it lies in
    the span of the m * h, h in others and deg m = deg g - deg h, which is
    the degree-(deg g) module span of the rows (h,) against the target (1,)."""
    if not I.is_homogeneous():
        raise HomogeneityError("minimal generators need a homogeneous ideal")
    ring = I.ring
    one = (ring.one,)
    gens = list(I.generators)
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for i in range(len(gens)):
            others = gens[:i] + gens[i + 1 :]
            d = gens[i].total_degree()
            span = _degree_span(ring, one, [(h,) for h in others], d)
            if _row_coordinates(ring, one, (gens[i],), d) in span:
                gens = others
                changed = True
                break
    return tuple(gens)


def _check_ring(I):
    ring = I.ring
    if ring.has_param or ring.num_aux:
        raise ValueError("tangent computations require a plain x-variable ring")
    if not I.is_homogeneous():
        raise HomogeneityError("tangent computations require a homogeneous ideal")


def _system(I):
    """(generator degrees, unknown bases, integer rows) of the tangent system.

    One grevlex basis serves the whole system: the one `syzygies` builds on
    the minimal generators, which is the reduced basis of I.  Each product
    s_j * m_k is reduced inside the engine as a packed integer term dict,
    giving remainder / (den * scale) with den clearing s_j.  The block of one
    syzygy is scaled by L, the lcm of its den * scale (see the module
    docstring); only its nonzero rows are kept, in basis order.
    """
    gens = minimal_generators(I)
    degrees = tuple(g.total_degree() for g in gens)
    module = syzygies(list(gens))
    gb = module.basis
    pk = _ring_packing(gb.ring)
    entries = gb._entries
    bases = tuple(gb.standard_monomials(d) for d in degrees)
    packed = [[pk.pack(m) for m in b] for b in bases]
    total = sum(map(len, bases))

    rows = []
    for row, shift in zip(module.generators, module.shifts):
        # the relation lands in (S/I)_shift; one equation per basis monomial
        index = {pk.pack(m): k for k, m in enumerate(gb.standard_monomials(shift))}
        reduced = []   # (column, remainder, den * scale)
        col = 0
        for s_j, monos in zip(row, packed):
            if s_j:
                terms, den = _int_terms(s_j, pk)
                for k, m in enumerate(monos):
                    rem, scale, _ = _reduce_int(_shifted(terms, m, pk), entries, pk)
                    reduced.append((col + k, rem, den * scale))
            col += len(monos)
        block = lcm(*(f for _, _, f in reduced))
        eqs = [[0] * total for _ in index]
        for c, rem, f in reduced:
            mult = block // f
            for m, v in rem.items():
                eqs[index[m]][c] = v * mult
        rows.extend(eq for eq in eqs if any(eq))
    return degrees, bases, rows


def hom_degree_zero(I):
    """Compute dim Hom(I/I^2, S/I)_0 and return the system certificate."""
    _check_ring(I)
    if I.is_zero():
        raise ValueError("the zero ideal has no generators to deform")
    degrees, bases, rows = _system(I)
    total = sum(map(len, bases))
    rank = linalg.rank(rows)
    ring = I.ring
    unknown_names = tuple(
        tuple(str(ring.from_dict({m: Fraction(1)})) for m in b) for b in bases
    )
    return TangentReport(
        dimension=total - rank,
        generator_degrees=degrees,
        unknowns=unknown_names,
        total_unknowns=total,
        constraint_rank=rank,
        system_rows=len(rows),
        system_cols=total,
    )


def explicit_basis_check(I, images):
    """True iff the assignment generators[i] -> images[i] satisfies every
    generating syzygy constraint modulo I (degree-zero Hom membership)."""
    _check_ring(I)
    gens = I.generators
    if len(images) != len(gens):
        raise ValueError("need exactly one image per generator")
    module = syzygies(list(gens))
    gb = module.basis
    reduced_images = []
    for g, im in zip(gens, images):
        im_red = gb.reduce(im)
        if not im_red.is_zero() and im_red.total_degree() != g.total_degree():
            raise ValueError(
                f"degree mismatch: generator of degree {g.total_degree()} "
                f"mapped to degree {im_red.total_degree()}"
            )
        reduced_images.append(im_red)
    pk = _ring_packing(gb.ring)
    entries = gb._entries
    for row in module.generators:
        rem, _, _ = _reduce_int(_int_combination(zip(row, reduced_images), pk), entries, pk)
        if rem:
            return False
    return True
