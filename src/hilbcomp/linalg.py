"""Exact rational linear algebra on one incremental echelon core.

`RowSpan` is the only elimination routine.  It takes one row format, sparse
integer rows {column: nonzero int}, in a span whose width is given when it
is built, and keeps the row space of the rows added so far as primitive
integer rows (content 1) keyed by pivot column, the column of their first
nonzero entry.  A new row is reduced fraction-free against the basis row
whose pivot is its current leading column until it is zero (dependent) or
leads at a free column (a new pivot), and only then is its content
stripped: stripping it at every step would rescale the remainder by a
positive factor, no more.  Rank, span membership, the reduced row echelon
form, nullspaces, solving and inversion are all read off this core.

The engine builds its sparse integer rows directly.  The batch functions
(`rank`, `rref`, `nullspace`, `solve_unique`, `invert`) take dense rows of
ints or Fractions, and `_span` is the one place that clears their
denominators.  A span built from a set of rows adds them sparsest first, a
stable sort by nonzero count: every answer it gives depends only on the
row space, and sparse rows reduce against few pivots and keep later rows
sparse.  `RowSpan.add` takes rows in the caller's order.  `nullspace` and
`invert` have no caller inside the package: the test oracles use them, and
`perfbench/spans.py` times them by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _eliminate(v, basis, col):
    """v <- p * v - c * basis in place, for sparse rows and the smallest
    integers p, c that clear column col of v."""
    g = gcd(basis[col], v[col])
    p, c = basis[col] // g, v[col] // g
    if p != 1:
        for k in v:
            v[k] *= p
    for k, b in basis.items():
        a = v.get(k, 0) - c * b
        if a:
            v[k] = a
        else:
            del v[k]


class RowSpan:
    """Row space over QQ of the sparse integer rows added so far, in echelon
    form; `rows`, when given, are added sparsest first."""

    def __init__(self, width, rows=()):
        self.width = width
        # pivot column -> primitive integer row as {column: nonzero int},
        # whose smallest column is the pivot
        self._rows = {}
        for row in sorted(rows, key=len):
            self.add(row)

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        """The stored primitive rows, a basis of the span."""
        return iter(self._rows.values())

    @property
    def pivots(self):
        """The pivot columns, ascending."""
        return sorted(self._rows)

    def _reduce(self, row):
        """Remainder of a row modulo the span: (pivot, primitive row) or None."""
        v = dict(row)
        while v:
            start = min(v)
            basis = self._rows.get(start)
            if basis is None:
                content = gcd(*v.values())
                if content != 1:
                    v = {k: a // content for k, a in v.items()}
                return start, v
            _eliminate(v, basis, start)
        return None

    def add(self, row):
        """Add row to the span; True when it was independent of it."""
        reduced = self._reduce(row)
        if reduced is None:
            return False
        self._rows[reduced[0]] = reduced[1]
        return True

    def __contains__(self, row):
        return self._reduce(row) is None

    def rref(self):
        """The unique reduced row echelon basis: (Fraction rows `width`
        wide, pivot columns)."""
        pivots = self.pivots
        done = {}
        for p in reversed(pivots):
            v = dict(self._rows[p])
            # clearing a later pivot column brings in no other pivot column
            for q in [k for k in v if k in done]:
                _eliminate(v, done[q], q)
            done[p] = v
        columns = range(self.width)
        return [[Fraction(done[p].get(k, 0), done[p][p]) for k in columns] for p in pivots], pivots


def _span(rows):
    """The span of a dense matrix, as wide as its widest row: each row's
    nonzeros cleared of their denominators into a sparse integer row."""
    sparse = []
    for row in rows:
        nonzeros = [(k, a) for k, a in enumerate(row) if a]
        den = lcm(*(a.denominator for _, a in nonzeros))
        sparse.append({k: a.numerator * (den // a.denominator) for k, a in nonzeros})
    return RowSpan(max(map(len, rows), default=0), sparse)


def rank(rows):
    """Rank over QQ."""
    return len(_span(rows))


def rref(rows):
    """Reduced row echelon form of the nonzero rows; returns (rows, pivot columns)."""
    return _span(rows).rref()


def nullspace(rows, ncols=None):
    """Basis of {x : rows . x = 0} as tuples of Fractions."""
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer column count from an empty matrix")
        ncols = len(rows[0])
    m, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -m[r][free]
        basis.append(tuple(vec))
    return basis


def solve_unique(rows, rhs):
    """Solve rows . x = rhs; returns (solution tuple, unique flag) or None.

    None signals an inconsistent system; unique is False when the solution
    space is positive-dimensional (a particular solution is still returned).
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    m, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    unique = len(pivots) == ncols
    return tuple(x), unique


def invert(matrix):
    """Exact inverse of a square matrix; None when singular."""
    n = len(matrix)
    m, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]
