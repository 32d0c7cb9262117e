"""Degree-zero homomorphisms I/I^2 -> S/I by exact linear algebra.

For a homogeneous ideal with minimal generators f_1..f_r of degrees d_i,
an element assigns to each f_i an image in (S/I)_{d_i}, subject to one
relation per generating syzygy (s_1..s_r):

    sum_j s_j * g_j == 0 in S/I.

Images are written over the standard-monomial basis and the syzygy
relations expand to an exact rational linear system; the dimension is the
corank.  Since I kills S/I, maps from I automatically kill I^2, so this
module Hom agrees with Hom(I/I^2, S/I).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import HomogeneityError
from .groebner import syzygies
from .ideals import Ideal


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
    """Drop generators lying in the ideal of the others (honest generators)."""
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


def _check_ring(I):
    ring = I.ring
    if ring.has_param or ring.num_aux:
        raise ValueError("tangent computations require a plain x-variable ring")
    if not I.is_homogeneous():
        raise HomogeneityError("tangent computations require a homogeneous ideal")


def hom_degree_zero(I):
    """Compute dim Hom(I/I^2, S/I)_0 and return the system certificate."""
    _check_ring(I)
    if I.is_zero():
        raise ValueError("the zero ideal has no generators to deform")
    ring = I.ring
    gens = minimal_generators(I)
    degrees = tuple(g.total_degree() for g in gens)
    gb = I.groebner_basis()
    bases = tuple(gb.standard_monomials(d) for d in degrees)
    offsets = []
    total = 0
    for b in bases:
        offsets.append(total)
        total += len(b)

    module = syzygies(list(gens))
    rows = []
    for row, shift in zip(module.generators, module.shifts):
        # the relation lands in (S/I)_shift; one equation per basis monomial
        target_basis = gb.standard_monomials(shift)
        index = {m: k for k, m in enumerate(target_basis)}
        eqs = [[Fraction(0)] * total for _ in target_basis]
        for j, s_j in enumerate(row):
            if s_j.is_zero():
                continue
            for k, mono in enumerate(bases[j]):
                product = s_j * ring.from_dict({mono: Fraction(1)})
                reduced = gb.reduce(product)
                col = offsets[j] + k
                for m, c in reduced.terms:
                    eqs[index[m]][col] += c
        rows.extend(eq for eq in eqs if any(eq))

    rank = linalg.rank(rows)
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
    gb = I.groebner_basis()
    reduced_images = []
    for g, im in zip(gens, images):
        im_red = gb.reduce(im)
        if not im_red.is_zero() and im_red.total_degree() != g.total_degree():
            raise ValueError(
                f"degree mismatch: generator of degree {g.total_degree()} "
                f"mapped to degree {im_red.total_degree()}"
            )
        reduced_images.append(im_red)
    module = syzygies(list(gens))
    for row in module.generators:
        acc = I.ring.zero
        for s_j, im in zip(row, reduced_images):
            if not (s_j.is_zero() or im.is_zero()):
                acc = acc + s_j * im
        if not gb.reduce(acc).is_zero():
            return False
    return True
