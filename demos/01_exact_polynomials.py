"""Exact polynomial arithmetic: rings, orders, parsing.

Everything is computed over the rationals with no rounding anywhere; a
polynomial is a canonical term list under the ring's monomial order.
"""

from fractions import Fraction

from hilbcomp import LEX, PolyRing, parse

# The coordinate ring of P^3: variables x0..x3, grevlex order by default.
R = PolyRing(4)
x0, x1, x2, x3 = (R.x(i) for i in range(4))

p = (x0 + x1) * (x0 - x1)
print("(x0+x1)(x0-x1) =", p)

# Text round-trips through the canonical format.
q = parse("2/3*x0^2 - x1*x3 + 5", R)
print("parsed:", q, "| leading monomial:", q.lead_monomial())

# Orders are pluggable; the same polynomial sorts differently under lex.
f = x0 * x3**2 + x1**2 * x2
print("grevlex leading monomial:", f.terms[0][0])
print("lex leading monomial:    ", f.convert(R.with_order(LEX)).terms[0][0])

# A deformation parameter t is an ordinary variable of x-degree zero.
Rt = PolyRing(4, has_param=True)
pencil = parse("t*x0*x3 - x1*x2", Rt)
print("pencil member:", pencil)
print("total degree:", pencil.total_degree(), "| homogeneous in x:", pencil.is_x_homogeneous())

# Substitution is an exact ring map:  x2 -> x1 + t*x2 shears a coordinate.
sheared = parse("x1*x2", Rt).substitute({2: Rt.x(1) + Rt.t * Rt.x(2)})
print("x1*x2 under x2 -> x1 + t*x2:", sheared)

# Coefficients stay exact no matter how they are combined.
print("1/3 + 1/6 =", (R.constant(Fraction(1, 3)) + R.constant(Fraction(1, 6))))
