import itertools
import pathlib
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from hilbcomp import rings
from hilbcomp.cli import run_subcommand
from hilbcomp.errors import BudgetExceededError, ParseError, RingMismatchError
from hilbcomp.ideals import loads_ideal
from hilbcomp.rings import (
    GREVLEX,
    LEX,
    PolyRing,
    elimination_order,
    format_monomial,
    format_polynomial,
    monomials_of_degree,
    parse,
)

from oracles import (
    compose_linear_by_products,
    convert_by_name,
    memory_cap,
    parse_by_tokens,
    substitute_by_expansion,
    validate_canonical,
)


@pytest.fixture
def ring():
    return PolyRing(4)


@pytest.fixture
def tring():
    return PolyRing(4, has_param=True)


def test_parse_single_monomial(ring):
    p = parse("x0*x2", ring)
    assert p.terms == (((1, 0, 1, 0), Fraction(1)),)


def test_parse_cancellation_gives_zero(ring):
    assert parse("x0*x1 - x0*x1", ring).is_zero()


def test_parse_pencil_member_counts_parameter_degree(tring):
    p = parse("t*x0*x3 - x1*x2", tring)
    assert len(p.terms) == 2
    assert p.total_degree() == 3


def test_parse_rational_coefficients(ring):
    p = parse("2/3*x0^2 - 1/2*x1", ring)
    assert dict(p.terms) == {(2, 0, 0, 0): Fraction(2, 3), (0, 1, 0, 0): Fraction(-1, 2)}


def test_parse_rejects_unknown_variable(ring):
    with pytest.raises(ParseError):
        parse("x9", ring)
    with pytest.raises(ParseError):
        parse("t*x0", ring)  # no parameter in this ring


def test_parse_syntax_error_carries_position(ring):
    with pytest.raises(ParseError) as err:
        parse("x0 + ? x1", ring)
    assert err.value.position == 5


def test_parse_rejects_exponent_overflow(ring):
    with pytest.raises(ParseError):
        parse("x0^99999999", ring)


def test_parse_rejects_an_over_long_number_at_its_start(ring, tmp_path, capsys):
    # int() refuses more than 4,300 digits; each place a number is read
    long = "1" * 5000
    for text, at in (("1" * 5000, 0), (f"x0 - {long}", 5), (f"2/{long}*x1", 2),
                     (f"x{long}", 1), (f"x1^{long}", 3)):
        with pytest.raises(ParseError) as err:
            parse(text, PolyRing(2))
        assert err.value.position == at, text
    path = tmp_path / "long.ideal"
    path.write_text(f"ring n=2 param=0\nx0*x1 + {long}*x2^2\n")
    assert run_subcommand(["gb", str(path)]) == 2
    assert "at position 8" in capsys.readouterr().err


def test_parse_rejects_bare_unary_minus_monomial(ring):
    with pytest.raises(ParseError):
        parse("-x0", ring)
    assert parse("-1*x0", ring) == -ring.x(0)


# pieces of random parser input: variables (x01 reads as x1, x9 exists only
# in the ring without t), separators, a non-ASCII digit and characters that
# belong to no symbol
_PARSE_PIECES = (
    "x0", "x01", "x9", "t", "0", "/", "*", "^", "+", "-", "--",
    " ", "\t", "\n", "\u0663", ".", "?", "99999999",
)


def _parse_outcome(parser, text, ring):
    """The parsed polynomial, or None after a ParseError whose position is
    a non-space character of text or its end."""
    try:
        return parser(text, ring)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text), (text, exc.position)
        assert exc.position == len(text) or not text[exc.position].isspace(), text
        return None


def test_parse_agrees_with_the_token_parser_on_random_text():
    rng = random.Random(16)
    rings = (PolyRing(10), PolyRing(4, has_param=True))
    accepted = 0
    for _ in range(20000):
        text = "".join(
            rng.choice(_PARSE_PIECES) if rng.random() < 0.7 else str(rng.randint(1, 12))
            for _ in range(rng.randint(1, 8))
        )
        for R in rings:
            got = _parse_outcome(parse, text, R)
            want = _parse_outcome(parse_by_tokens, text, R)
            assert got == want, (text, R)
            accepted += got is not None
    assert accepted > 2000


@pytest.mark.parametrize(
    "path", sorted(pathlib.Path(__file__).parent.glob("data/*.ideal")), ids=lambda p: p.name
)
def test_parse_agrees_with_the_token_parser_on_ideal_files(path):
    text = path.read_text(encoding="utf-8")
    ring = loads_ideal(text).ring
    lines = [ln.strip() for ln in text.splitlines()]
    # the first content line is the header
    for line in [ln for ln in lines if ln and not ln.startswith("#")][1:]:
        assert parse(line, ring) == parse_by_tokens(line, ring)


@pytest.mark.parametrize(
    "text",
    ["x0*x2", "2/3*x0^2 - x1*x3 + 5", "-1*x0 + x1", "-5", "x0^3*x1^2*x3", "0"],
)
def test_format_parse_round_trip(ring, text):
    p = parse(text, ring)
    assert parse(format_polynomial(p), ring) == p
    validate_canonical(p)


def test_format_round_trip_random(ring):
    rng = random.Random(7)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(rng.randint(0, 3) for _ in range(4))
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = ring.from_dict(terms)
        validate_canonical(p)
        assert parse(format_polynomial(p), ring) == p


def test_product_of_sum_and_difference(ring):
    x0, x1 = ring.x(0), ring.x(1)
    assert (x0 + x1) * (x0 - x1) == x0**2 - x1**2


def test_double_structure_tie_polynomial(ring):
    x0, x1, F, G = ring.x(0), ring.x(1), ring.x(2), ring.x(3)
    assert x0 * G - x1 * F == parse("x0*x3 - x1*x2", ring)


def test_scale_by_zero(ring):
    assert (ring.x(0) * ring.x(1)).scale(0).is_zero()


def test_arith_rejects_ring_mismatch(ring, tring):
    with pytest.raises(RingMismatchError):
        ring.x(0) + tring.x(0)


def test_substitute_shear(tring):
    x1, x2, t = tring.x(1), tring.x(2), tring.t
    assert (x1 * x2).substitute({2: x1 + t * x2}) == x1**2 + t * x1 * x2


def test_substitute_identity(ring):
    p = parse("x0^2 - 3*x1*x2 + x3", ring)
    assert p.substitute({0: ring.x(0)}) == p


def test_substitute_binomial_expansion(tring):
    x0, x3, t = tring.x(0), tring.x(3), tring.t
    assert (x0**2).substitute({0: x0 + t * x3}) == x0**2 + 2 * t * x0 * x3 + t**2 * x3**2


def test_substitute_constant_matches_expansion(tring):
    rng = random.Random(23)
    values = [0, 1, -2, Fraction(1, 3), Fraction(-5, 7), Fraction(9, 4)]
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            mono = tuple(rng.randint(0, 3) for _ in range(tring.width))
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        p = tring.from_dict(terms)
        var = rng.randrange(tring.width)
        for value in values:
            got = p.substitute({var: value})
            assert got == substitute_by_expansion(p, var, value)
            assert all(m[var] == 0 for m, _ in got.terms)
            validate_canonical(got)


def _linear_images(ring, matrix):
    return {
        i: sum((ring.x(j).scale(a) for j, a in enumerate(row)), ring.zero)
        for i, row in enumerate(matrix)
    }


@pytest.mark.parametrize("has_param", [False, True])
def test_substitute_all_x_matches_compose_linear_oracle(has_param):
    ring = PolyRing(4, has_param=has_param)
    rng = random.Random(29)
    for _ in range(25):
        matrix = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)
        ]
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(rng.randint(0, 2) for _ in range(ring.width))
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        p = ring.from_dict(terms)
        got = p.substitute(_linear_images(ring, matrix))
        assert got == compose_linear_by_products(p, matrix)
        validate_canonical(got)


def test_substitute_swaps_two_variables_at_once(tring):
    x0, x1, x2, t = tring.x(0), tring.x(1), tring.x(2), tring.t
    p = x0**2 * x1 + 3 * t * x0 - x2
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    got = p.substitute({0: x1, 1: x0})
    assert got == x1**2 * x0 + 3 * t * x1 - x2
    assert got == compose_linear_by_products(p, swap)
    assert got.substitute({0: x1, 1: x0}) == p


def test_ring_laws_on_random_polynomials(ring):
    rng = random.Random(11)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(4))
            terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return ring.from_dict(terms)

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        for p in (a + b, a * b, a - c):
            validate_canonical(p)


@pytest.mark.parametrize(
    "order",
    [LEX, GREVLEX, elimination_order([0]), elimination_order([1, 3])],
)
def test_order_axioms(order):
    width = 4
    key = order.key_function(width)
    rng = random.Random(3)
    one = (0,) * width
    for _ in range(1000):
        a = tuple(rng.randint(0, 5) for _ in range(width))
        b = tuple(rng.randint(0, 5) for _ in range(width))
        c = tuple(rng.randint(0, 5) for _ in range(width))
        # totality
        assert (key(a) > key(b)) or (key(a) < key(b)) or a == b
        # multiplicativity
        if key(a) < key(b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert key(ac) < key(bc)
        # 1 is minimal
        if a != one:
            assert key(a) > key(one)


def test_homogeneous_multiplication_adds_degrees(ring):
    rng = random.Random(5)
    for _ in range(50):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        monos1 = monomials_of_degree(4, d1)
        monos2 = monomials_of_degree(4, d2)
        a = ring.from_dict({rng.choice(monos1): rng.randint(1, 5) for _ in range(3)})
        b = ring.from_dict({rng.choice(monos2): rng.randint(1, 5) for _ in range(3)})
        if a.is_zero() or b.is_zero():
            continue
        assert a.is_homogeneous() and b.is_homogeneous()
        assert (a * b).total_degree() == a.total_degree() + b.total_degree()


def test_elimination_order_front_block_dominates():
    order = elimination_order([4])  # a t-style variable up front
    key = order.key_function(5)
    assert key((0, 0, 0, 0, 1)) > key((3, 3, 3, 3, 0))


def test_monomials_of_degree_counts():
    # stars and bars
    assert len(monomials_of_degree(4, 3)) == 20
    assert len(monomials_of_degree(1, 5)) == 1
    assert monomials_of_degree(3, 0) == ((0, 0, 0),)
    assert monomials_of_degree(3, -1) == ()
    # every degree-d multiset of variables once, ascending lexicographically
    for width in range(1, 7):
        for d in range(5):
            want = sorted(
                tuple(combo.count(i) for i in range(width))
                for combo in itertools.combinations_with_replacement(range(width), d)
            )
            got = monomials_of_degree(width, d)
            assert isinstance(got, tuple) and list(got) == want
            # one shared object per (width, d)
            assert monomials_of_degree(width, d) is got


def _monomials_recursive(width, d):
    """The recursive definition: first exponent ascending, then the rest."""
    if d < 0:
        return ()
    if width == 0:
        return ((),) if d == 0 else ()
    return tuple(
        (e,) + rest for e in range(d + 1) for rest in _monomials_recursive(width - 1, d - e)
    )


def test_monomials_of_degree_matches_the_recursive_definition():
    for width in range(0, 6):
        for d in range(-1, 6):
            assert monomials_of_degree(width, d) == _monomials_recursive(width, d), (width, d)


def test_monomials_of_degree_cache_is_bounded():
    bound = monomials_of_degree.cache_info().maxsize
    assert bound is not None
    for d in range(bound + 10):
        monomials_of_degree(1, d)
    assert monomials_of_degree.cache_info().currsize <= bound


def test_monomials_of_degree_in_a_wide_ring():
    # deeper than the interpreter's recursion limit
    monos = monomials_of_degree(1200, 1)
    assert len(monos) == 1200
    assert monos[0] == (0,) * 1199 + (1,) and monos[-1] == (1,) + (0,) * 1199
    assert list(monos) == sorted(monos)


def test_monomials_of_degree_refuses_a_table_over_budget_before_building_it(monkeypatch):
    # the quartics of P^100: C(104, 4) = 4,598,126 monomials of 101 cells
    monomials_of_degree.cache_clear()
    tracemalloc.start()
    try:
        with memory_cap(1 << 30), pytest.raises(BudgetExceededError):
            monomials_of_degree(101, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert monomials_of_degree.cache_info().currsize == 0
    # its cubics, 176,851 monomials of 101 cells, fit the budget
    assert comb(103, 3) * 101 <= rings.MONOMIAL_CELL_BUDGET < comb(104, 4) * 101
    # the budget counts monomials times width: 20 cubics in 4 variables are
    # 80 cells, 35 in 5 variables are 175
    monkeypatch.setattr(rings, "MONOMIAL_CELL_BUDGET", 80)
    assert len(monomials_of_degree(4, 3)) == 20
    with pytest.raises(BudgetExceededError):
        monomials_of_degree(5, 3)


def test_convert_between_compatible_rings(ring, tring):
    p = parse("x0*x3 - x1*x2", ring)
    q = p.convert(tring)
    assert q.ring is tring
    assert q.convert(ring) == p
    # a polynomial using t cannot drop into the plain ring
    with pytest.raises(RingMismatchError):
        parse("t*x0", tring).convert(ring)
    # seeded property check against name matching, over order changes,
    # adding or dropping t, adding or dropping one auxiliary u, and both
    rng = random.Random(17)
    orders = [GREVLEX, LEX, elimination_order([0]), elimination_order([4, 5])]
    layouts = [(False, 0), (True, 0), (False, 1), (True, 1)]
    for _ in range(300):
        src = PolyRing(4, *rng.choice(layouts)).with_order(rng.choice(orders))
        dst = PolyRing(4, *rng.choice(layouts)).with_order(rng.choice(orders))
        # t and u occur in only some polynomials, so that dropping them can succeed
        active = [i < 4 or rng.random() < 0.5 for i in range(src.width)]
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(rng.randint(0, 3) if a else 0 for a in active)
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = src.from_dict(terms)
        assert p.convert(src) is p
        try:
            want = convert_by_name(p, dst)
        except RingMismatchError:
            with pytest.raises(RingMismatchError):
                p.convert(dst)
            continue
        got = p.convert(dst)
        assert got.ring == dst and got == want
        validate_canonical(got)


def test_format_monomial_names_a_monomial_as_its_polynomial_prints():
    # x, t and u variables, the constant, and exponents 0, 1 and more
    rng = random.Random("format-monomial")
    for ring in (PolyRing(1), PolyRing(4), PolyRing(3, has_param=True).with_aux(2)):
        monos = [(0,) * ring.width] + [
            tuple(rng.choice((0, 0, 1, 2, rng.randint(3, 40))) for _ in range(ring.width))
            for _ in range(300)
        ]
        monos += [tuple(int(i == j) for j in range(ring.width)) for i in range(ring.width)]
        for m in monos:
            assert format_monomial(ring, m) == str(ring.from_dict({m: 1})), m
