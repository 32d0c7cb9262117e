"""Degree-zero homomorphisms I/I^2 -> S/I by exact linear algebra.

For a homogeneous ideal with minimal generators f_1..f_r of degrees d_i,
an element assigns to each f_i an image in (S/I)_{d_i}, subject to one
relation per generating syzygy (s_1..s_r):

    sum_j s_j * g_j == 0 in S/I.

Images are written over the standard-monomial basis and the syzygy
relations expand to an exact linear system; the dimension is the corank.
Since I kills S/I, maps from I automatically kill I^2, so this module Hom
agrees with Hom(I/I^2, S/I).

The f_i are the minimal generators: `groebner._graded_prune` on the rows
(g,) against the degree-0 target (1,), from the last generator down, keeps
each g outside the span of V_d (the degree-d part of the ideal of the
lower-degree generators) and of the degree-d ones kept, with no Groebner
basis.  That is
the set left by dropping the first redundant generator and restarting: no
drop changes V_d, and a generator that cannot be dropped stays so, so that
loop is reverse-delete in the matroid of the degree-d generators modulo V_d,
which keeps what the greedy pass from the last index down keeps.

The system is built as sparse integer rows, {column: nonzero int}, the
one row format of `linalg.RowSpan`, which reads its rank.  The unknown of
column (j, k) is the coefficient of the standard monomial m_k in the image
of f_j, so the block of equations of one syzygy (s_1..s_r) has in column
(j, k) the coordinates of NF(s_j * m_k) over the standard monomials of the
syzygy's degree.  Each row is read as the module holds it
(`SyzygyModule.rows`, primitive integer rows), with integer terms
s_j = sum_u c_u * u, and the normal form is linear:

    NF(s_j * m_k) = sum_u c_u * NF(u * m_k),

and the products of all syzygies and all shifts share their monomials:
each monomial w = u * m_k is reduced once, the first time a column needs it,
and the engine returns NF(w) as an integer remainder over its scale.  Only
monomials that occur in some product are reduced, never a whole degree,
which keeps a wide system as cheap as its products.  A column is
then integral over the scales of its products, and a row mixes columns with
different scales, so each column cannot be cleared on its own without
changing the row space; instead every entry of the block is multiplied by
one integer L, the lcm of the block's scales.  That multiplies each row of
the block by the same positive constant L, which leaves each row's zero
pattern and the row space of the block, hence of the whole system, and its
rank unchanged.

`explicit_basis_check` reads membership off the same rows: a syzygy's rows
applied to the coordinates of the NF(g_j) of an assignment f_j -> g_j give
L * NF(sum_j s_j * NF(g_j)), zero exactly when sum_j s_j * g_j lies in I.

The system is solved on the essential variables of the minimal generators,
whatever their degrees, by flat base change.  `ideals.essential_form` finds
the coordinates y = A x, A the rref of the coefficient rows of the
generators' first partials completed by unit rows, in which the generators
lie in S' = QQ[y_0..y_(m-1)] and generate I' there; so I = I'S with
S = S'[z], z = y_m..y_n the d = n + 1 - m dropped variables (d = 0 and
y = x when m >= n + 1).  S is a free S'-module, so I = I' (x)_S' S and

    Hom_S(I, S/I) = Hom_S'(I', S/I) = (+)_v Hom_S'(I', S'/I') * v

over the monomials v of QQ[z], since S/I = (+)_v (S'/I') * v and the
finitely presented I' commutes Hom with the sum.  In degree zero the
summand of a v of degree e is Hom_S'(I', S'/I')_(-e), and there are
mult_e = C(d + e - 1, e) such v.  So dim Hom_S(I, S/I)_0 is the sum of
mult_e * (cols_e - rank_e) over the shifts e = 0..max d_j, where the system
of shift e has the images of f_j in (S'/I')_(d_j - e) as unknowns and one
equation per syzygy and standard monomial of (S'/I')_(shift - e); a larger
shift leaves no image.  At d = 0 only e = 0 counts, and its system is the
one above on I itself.

The report describes the full system in the y coordinates, and that system
is block diagonal: the reduced basis of I'S is the one of I' (no lead term
involves z), so NF(p * v) = NF(p) * v, and the syzygies of the f_j over S
are those over S' (flatness).  The unknown (j, u * v), u a standard
monomial of S'/I', and the equation of a syzygy at u * v meet only
unknowns with the same v, with the coefficients of the shift-e system at
(j, u) and u.  So the full system is the direct sum of mult_e copies of
each shift-e system: its columns, rank and nonzero rows are the sums of
mult_e * cols_e, mult_e * rank_e and mult_e * rows_e.  `dimension` is
dim Hom(I, S/I)_0, `total_unknowns` (= `system.cols`) is the sum of the
Hilbert function of S/I at the d_j, and `rank` = `constraint_rank` is their
difference, so none of them depends on the coordinates.  `unknowns` are
monomials in y, each y_i written x_(columns[i]) with the pivot columns
first and then the free ones (so an ideal already in its essential
variables keeps the names x), listed per generator in the order of the
exponent tuples, as `standard_monomials` lists them; they and
`system.rows` depend on the coordinates.  Their count is `total_unknowns`,
known from the shift systems' sizes before any monomial v is listed, so a
report that would name more than NAMED_UNKNOWN_BUDGET unknowns raises
`BudgetExceededError` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm

from . import linalg
from .errors import BudgetExceededError, HomogeneityError
from .groebner import (
    _graded_prune,
    _overflow,
    _pack_row,
    _reduce_int,
    _ring_packing,
    syzygies,
)
from .ideals import essential_form
from .rings import format_monomial, monomials_of_degree

# unknowns one report may name: each name is a monomial of the full ring,
# so a wide ring with few essential variables can ask for millions of them
NAMED_UNKNOWN_BUDGET = 50_000


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
    """Drop generators lying in the ideal of the others (honest generators)
    by the graded pruning of the module docstring; survivors in input order."""
    if not I.is_homogeneous():
        raise HomogeneityError("minimal generators need a homogeneous ideal")
    gens = I.generators
    rows = [_pack_row((g,), _ring_packing(I.ring)) for g in reversed(gens)]
    kept = {len(gens) - 1 - i for i in _graded_prune(I.ring, (0,), rows)}
    return tuple(g for i, g in enumerate(gens) if i in kept)


def _check_ring(I):
    ring = I.ring
    if ring.has_param or ring.num_aux:
        raise ValueError("tangent computations require a plain x-variable ring")
    if not I.is_homogeneous():
        raise HomogeneityError("tangent computations require a homogeneous ideal")


class _NormalFormTable:
    """The tangent systems of one syzygy module for every shift e: its
    packed rows, each degree's standard monomials listed once, and each
    product monomial reduced once (module docstring)."""

    def __init__(self, module):
        gb = module.basis
        self._gb = gb
        self._pk = _ring_packing(gb.ring)
        self._target_degrees = module.degrees
        self._shifts = module.shifts
        self._rows = module.rows
        self._degrees = {}   # d -> (standard monomials, {packed: position})
        self._nf = {}        # packed w -> (scale, [(k, v)]): NF(w) == sum v * m_k / scale

    def _standard(self, d):
        found = self._degrees.get(d)
        if found is None:
            monos = self._gb.standard_monomials(d)
            index = {self._pk.pack(m): k for k, m in enumerate(monos)}
            found = self._degrees[d] = (monos, index)
        return found

    def system(self, e):
        """(unknown bases, sparse integer rows) of the tangent system of
        shift e: the images of f_j in (S/I)_(d_j - e), and one equation per
        syzygy and standard monomial of (S/I)_(shift - e).  Shift 0 is
        Hom(I, S/I)_0.

        One grevlex basis serves every shift: the one `syzygies` built on
        the f_j, which is the reduced basis of I.  Column (j, k) of a
        syzygy's block is sum c_u * NF(u * m_k) over the integer terms
        c_u * u of s_j; the block is scaled by L, the lcm of its NF scales,
        and only its nonzero rows are kept, in basis order.
        """
        pk = self._pk
        base, guards = pk.base, pk.guards
        entries = self._gb._entries
        memo = self._nf
        standard = [self._standard(d - e) for d in self._target_degrees]
        bases = tuple(monos for monos, _ in standard)
        # m_k as an offset: the packed u * m_k is u + offset
        offsets = [[m - base for m in index] for _, index in standard]

        rows = []
        for row, shift in zip(self._rows, self._shifts):
            # the relation lands in (S/I)_(shift - e); one equation per basis monomial
            _, index = self._standard(shift - e)
            terms = []   # (column, c_u, scale, NF(u * m_k) rows)
            col = 0
            for s_j, offs in zip(row, offsets):
                if s_j:
                    for k, off in enumerate(offs):
                        for u, c in s_j.items():
                            w = u + off
                            if w & guards:
                                raise _overflow()
                            nf = memo.get(w)
                            if nf is None:
                                rem, scale, _ = _reduce_int({w: 1}, entries, pk)
                                nf = memo[w] = (scale, [(index[m], v) for m, v in rem.items()])
                            if nf[1]:
                                terms.append((col + k, c, nf[0], nf[1]))
                col += len(offs)
            block = lcm(*{f for _, _, f, _ in terms})
            eqs = [{} for _ in index]
            for column, c, f, nf in terms:
                a = c * (block // f)
                for r, v in nf:
                    eqs[r][column] = eqs[r].get(column, 0) + a * v
            for eq in eqs:
                eq = {k: b for k, b in eq.items() if b}
                if eq:
                    rows.append(eq)
        return bases, rows


def hom_degree_zero(I):
    """Compute dim Hom(I/I^2, S/I)_0 and return the system certificate,
    solved on the essential variables of the minimal generators (see the
    module docstring)."""
    _check_ring(I)
    if I.is_zero():
        raise ValueError("the zero ideal has no generators to deform")
    ring = I.ring
    reduced, columns, _ = essential_form(ring, minimal_generators(I))
    gens = reduced.generators
    table = _NormalFormTable(syzygies(list(gens)))
    dropped = ring.num_vars - reduced.ring.num_vars
    degrees = tuple(g.total_degree() for g in gens)
    total = rank = rows = 0
    shifts = []   # (e, unknown bases of the shift-e system)
    for e in range(max(degrees) + 1):
        # one block per monomial v of degree e in the dropped variables
        mult = comb(dropped + e - 1, e) if dropped else int(e == 0)
        if not mult:
            break
        bases, eqs = table.system(e)
        cols = sum(map(len, bases))
        total += mult * cols
        rank += mult * len(linalg.RowSpan(cols, eqs))
        rows += mult * len(eqs)
        shifts.append((e, bases))
    if total > NAMED_UNKNOWN_BUDGET:
        raise BudgetExceededError(
            f"the report would name {total} unknowns, over the budget of "
            f"{NAMED_UNKNOWN_BUDGET}"
        )
    unknowns = [[] for _ in gens]   # exponents in y, per generator
    for e, bases in shifts:
        vs = monomials_of_degree(dropped, e)
        for found, basis in zip(unknowns, bases):
            found.extend(u + v for u in basis for v in vs)

    def in_x(y):
        mono = [0] * ring.num_vars
        for c, a in zip(columns, y):
            mono[c] = a
        return tuple(mono)

    unknown_names = tuple(
        tuple(format_monomial(ring, m) for m in sorted(map(in_x, found)))
        for found in unknowns
    )
    return TangentReport(
        dimension=total - rank,
        generator_degrees=degrees,
        unknowns=unknown_names,
        total_unknowns=total,
        constraint_rank=rank,
        system_rows=rows,
        system_cols=total,
    )


def explicit_basis_check(I, *assignments):
    """True iff each of one or more assignments (one image per generator,
    generators[i] -> images[i]) satisfies every generating syzygy constraint
    modulo I (degree-zero Hom membership), read off the rows of one shift-0
    system (module docstring).  An image whose normal form has a term of
    another degree than its generator raises ValueError."""
    return _explicit_vectors(I, assignments)[0]


def _explicit_vectors(I, assignments):
    """(`explicit_basis_check`'s answer, the assignments' coordinate vectors
    over the shift-0 unknowns), from one syzygy module."""
    _check_ring(I)
    gens = I.generators
    if not assignments:
        raise ValueError("need at least one assignment")
    if any(len(images) != len(gens) for images in assignments):
        raise ValueError("need exactly one image per generator")
    module = syzygies(list(gens))
    bases, rows = _NormalFormTable(module).system(0)
    vectors = [_coordinates(module, bases, images) for images in assignments]
    ok = all(not sum(a * v[c] for c, a in row.items()) for row in rows for v in vectors)
    return ok, vectors


def _coordinates(module, bases, images):
    """The normal form of each image over `bases[j]`: one value per unknown."""
    vector = []
    for g, basis, im in zip(module.target, bases, images):
        coords = dict.fromkeys(basis, 0)   # the degree-d_j standard monomials
        for m, c in module.basis.reduce(im).terms:
            if m not in coords:
                raise ValueError(
                    f"degree mismatch: generator of degree {g.total_degree()} "
                    f"mapped to degree {sum(m)}"
                )
            coords[m] = c
        vector.extend(coords.values())
    return vector
