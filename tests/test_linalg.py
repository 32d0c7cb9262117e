import random
from fractions import Fraction
from math import gcd

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbcomp import linalg


def test_rank_hand_values():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_rank_with_fractions():
    assert linalg.rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]) == 2
    assert linalg.rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1


def test_rank_agrees_with_rref_on_random_matrices():
    rng = random.Random(13)
    for _ in range(60):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rows)]
        _, pivots = linalg.rref(m)
        assert linalg.rank(m) == len(pivots)


def test_nullspace_annihilates():
    rng = random.Random(17)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        basis = linalg.nullspace(m, cols)
        assert len(basis) == cols - linalg.rank(m)
        for vec in basis:
            for row in m:
                assert sum(Fraction(a) * v for a, v in zip(row, vec)) == 0


def test_solve_unique():
    sol = linalg.solve_unique([[1, 1], [1, 0]], [0, 2])
    assert sol == ((Fraction(2), Fraction(-2)), True)
    # inconsistent
    assert linalg.solve_unique([[1, 1], [2, 2]], [1, 3]) is None
    # underdetermined
    _, unique = linalg.solve_unique([[1, 1]], [2])
    assert not unique


def test_invert_roundtrip():
    m = [[1, 2], [3, 5]]
    inv = linalg.invert(m)
    assert inv == [[-5, 2], [3, -1]]
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in m] == [
        [1, 0],
        [0, 1],
    ]
    assert linalg.invert([[1, 2], [2, 4]]) is None


def test_in_row_span():
    span = linalg.RowSpan()
    span.add([1, 0, 1])
    span.add([0, 1, 1])
    assert [2, 3, 5] in span
    assert [0, 0, 1] not in span


def _random_matrix(rng, rows, cols):
    """Seeded rational matrix; rank deficiency comes from repeated and zero rows."""
    m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
         for _ in range(rows)]
    for i in range(rows):
        kind = rng.random()
        if kind < 0.15:
            m[i] = [Fraction(0)] * cols
        elif kind < 0.35 and i > 0:
            j, k = rng.randrange(i), rng.randrange(i)
            a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return m


def _cases():
    rng = random.Random(29)
    yield 0, 3, []
    yield 3, 0, [[], [], []]
    yield 2, 3, [[0, 0, 0], [0, 0, 0]]
    shapes = [(1, 5), (5, 1), (2, 7), (7, 2)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(50)]
    for rows, cols in shapes:
        m = _random_matrix(rng, rows, cols)
        yield rows, cols, m
        # batch functions reorder rows; a permuted input must give the same answers
        if rows > 1:
            yield rows, cols, rng.sample(m, rows)
    yield 140, 68, _sparse_matrix(rng, 140, 68)


def _sparse_matrix(rng, rows, cols):
    """Seeded rational matrix shaped like a tangent system: few nonzeros per
    row, rank below the column count through sparse combinations of rows."""
    m = []
    for i in range(rows):
        if i >= 20 and rng.random() < 0.5:
            j, k = rng.randrange(i), rng.randrange(i)
            a, b = Fraction(rng.randint(1, 3)), Fraction(-rng.randint(1, 3), 2)
            m.append([a * x + b * y for x, y in zip(m[j], m[k])])
            continue
        row = [Fraction(0)] * cols
        for c in rng.sample(range(cols - 10), rng.randint(1, 6)):
            row[c] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        m.append(row)
    return m


def test_core_agrees_with_sympy():
    rng = random.Random(37)
    for rows, cols, m in _cases():
        ref = sympy.Matrix(rows, cols, [sympy.Rational(a.numerator, a.denominator) for row in m for a in row])
        # sympy's Matrix.rank takes minutes on the sparse 140 x 68 case, its
        # rref milliseconds; the reference rank is the rref's pivot count
        ref_red, ref_pivots = ref.rref()
        ref_rank = len(ref_pivots)
        assert linalg.rank(m) == ref_rank, m
        red, pivots = linalg.rref(m)
        assert tuple(pivots) == ref_pivots, m
        assert [[sympy.Rational(a.numerator, a.denominator) for a in row] for row in red] == [
            list(ref_red.row(i)) for i in range(len(pivots))
        ], m
        if rows:
            null = linalg.nullspace(m, cols)
            assert len(null) == len(ref.nullspace()), m
            for vec in null:
                assert all(v == 0 for v in ref * sympy.Matrix(vec)), m
            rhs = [Fraction(rng.randint(-4, 4)) for _ in range(rows)]
            got = linalg.solve_unique(m, rhs)
            aug = ref.row_join(sympy.Matrix(rhs))
            if len(aug.rref()[1]) > ref_rank:
                assert got is None, m
            else:
                x, unique = got
                assert ref * sympy.Matrix(x) == sympy.Matrix(rhs), m
                assert unique == (ref_rank == cols), m
        if rows == cols:
            inv = linalg.invert(m)
            if ref_rank < rows:
                assert inv is None, m
            else:
                assert sympy.Matrix(inv) == ref.inv(), m


def test_rowspan_add_matches_batch_rank_on_prefixes():
    rng = random.Random(31)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 6))
        span = linalg.RowSpan()
        for k, row in enumerate(m, start=1):
            was_new = span.add(row)
            assert len(span) == linalg.rank(m[:k])
            assert was_new == (linalg.rank(m[:k]) > linalg.rank(m[: k - 1]))
            assert row in span
    assert [0, 0, 0] in linalg.RowSpan()
    assert [1, 0, 0] not in linalg.RowSpan()


def _sympy(m, cols):
    return sympy.Matrix(len(m), cols, [sympy.Rational(a.numerator, a.denominator) for row in m for a in row])


@st.composite
def _sparse_matrices(draw):
    """(matrix, column count): int or Fraction entries, about two thirds
    zero, with zero rows, all-zero trailing columns and no rows at all
    among the shapes drawn."""
    rows, cols, tail = draw(st.integers(0, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 2))
    values = draw(st.sampled_from([
        st.integers(-6, 6),
        st.fractions(-6, 6, max_denominator=4),
    ]))
    m = []
    for _ in range(rows):
        if draw(st.integers(0, 4)) == 0:
            m.append([0] * (cols + tail))
            continue
        row = [draw(values) if draw(st.integers(0, 2)) == 0 else 0 for _ in range(cols)]
        m.append(row + [0] * tail)
    return m, cols + tail


_PROPERTY = settings(max_examples=150, deadline=None, database=None)


@_PROPERTY
@given(_sparse_matrices())
def test_rank_and_rref_agree_with_sympy_on_sparse_matrices(case):
    m, cols = case
    ref = _sympy(m, cols)
    assert linalg.rank(m) == ref.rank()
    red, pivots = linalg.rref(m)
    ref_red, ref_pivots = ref.rref()
    assert tuple(pivots) == ref_pivots
    assert all(len(row) == cols for row in red)
    assert _sympy(red, cols) == ref_red[: len(pivots), :]


@_PROPERTY
@given(_sparse_matrices())
def test_stored_rows_are_sparse_primitive_and_keyed_by_pivot(case):
    m, _ = case
    span = linalg.RowSpan()
    for row in m:
        span.add(row)
        for pivot, stored in span._rows.items():
            assert all(stored.values())
            assert min(stored) == pivot
            assert gcd(*stored.values()) == 1
    assert len(span) == linalg.rank(m)


def test_rref_keeps_the_input_width_past_zero_columns():
    red, pivots = linalg.rref([[2, 4, 0, 0], [1, 2, 0, 0], [0, 0, 0, 0]])
    assert red == [[1, 2, 0, 0]] and pivots == [0]
    assert linalg.rref([[0, 0, 0]]) == ([], [])


def test_nullspace_of_one_row_with_zero_columns():
    null = linalg.nullspace([[1, 0, 0]])
    assert null == [(0, 1, 0), (0, 0, 1)]


def test_membership_leaves_the_span_unchanged():
    assert [0, 0, 0] in linalg.RowSpan()
    span = linalg.RowSpan()
    span.add([1, 2])
    assert [2, 4, 0, 0, 0] in span
    assert [0, 0, 0, 0, 1] not in span
    assert span.rref() == ([[1, 2]], [0])
    assert len(span) == 1


def test_solve_unique_with_a_zero_right_hand_side():
    assert linalg.solve_unique([[1, 2], [3, 4]], [0, 0]) == ((0, 0), True)
    assert linalg.solve_unique([[1, 2], [2, 4]], [0, 0]) == ((0, 0), False)
    assert linalg.solve_unique([[0, 0, 0]], [0]) == ((0, 0, 0), False)
