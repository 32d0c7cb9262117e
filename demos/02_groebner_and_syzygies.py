"""Groebner bases, normal forms, elimination, and syzygies."""

from hilbcomp import PolyRing, buchberger, syzygies
from hilbcomp.ideals import Ideal, eliminate

R = PolyRing(4)
x0, x1, x2, x3 = (R.x(i) for i in range(4))

# The ideal of two codimension-two planes meeting a hyperplane: four
# quadrics whose reduced basis is the generators themselves.
gens = [x0 * x2, x0 * x3, x1 * x2, x1 * x3]
gb = buchberger(gens)
print("reduced basis:", [str(g) for g in gb.elements])
print("leading monomials:", gb.lead_monomials())

# Membership is a zero normal form.
print("x0*x2*x3 in the ideal:", gb.reduce(x0 * x2 * x3).is_zero())
print("x3^2 normal form:", gb.reduce(x3**2))

# Each basis element knows its exact expression in the input generators:
# summing transform . generators gives the elements back.
gb2 = buchberger([x0 + x1, x0 - x1])
print("basis:", [str(g) for g in gb2.elements])
combos = [sum((s * g for s, g in zip(row, gb2.generators)), R.zero) for row in gb2.transform]
print("transform verifies:", combos == list(gb2.elements))

# Elimination: intersect with a subring.  Killing t from (t*x0, (1-t)*x1)
# leaves exactly the product x0*x1.
Rt = PolyRing(2, has_param=True)
J = Ideal(Rt, [Rt.t * Rt.x(0), (Rt.one - Rt.t) * Rt.x(1)])
print("eliminating t:", eliminate(J, [Rt.param_index]))

# First syzygies: all relations among the generators, with exactness
# guaranteed (each row annihilates the generators identically).
module = syzygies(gens)
print("syzygy rows (degree shifts", module.shifts, "):")
for row in module.generators:
    print("  ", tuple(str(c) for c in row))
print("exact:", module.verify())
