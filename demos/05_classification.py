"""Classifying a saturated ideal into the four types: linkage for the
equidimensional hull, the Jacobian criterion for generic reducedness."""

from hilbcomp import (
    classify,
    equidimensional_hull,
    generic_slice_reduced,
    normal_form_ideal,
    random_linear_change,
)

for label in ("I", "II", "III", "IV"):
    ideal = normal_form_ideal(3, label)
    result = classify(ideal, seed=1)
    print(f"type ({label}) normal form -> {result.label}, "
          f"embedded={result.evidence[0]}, reduced={result.evidence[1]}")

# The hull strips embedded components via double linkage through a random
# complete intersection: for the embedded-point type it is the honest pair
# of planes, for the planar double it is the double structure itself.
print("hull of (III):", equidimensional_hull(normal_form_ideal(3, "III"), seed=2))
print("hull of (IV): ", equidimensional_hull(normal_form_ideal(3, "IV"), seed=2))

# Generic reducedness is exact and draws nothing: a hull is generically
# reduced when the 2x2 minors of its Jacobian matrix vanish on no component.
# The (III) hull is two lines, singular only where they meet; the (II)
# ideal is a double line, and every minor vanishes on all of it.
hull3 = equidimensional_hull(normal_form_ideal(3, "III"), seed=2)
print("the (III) hull is generically reduced:", generic_slice_reduced(hull3))
print("the (II) ideal is generically reduced:",
      generic_slice_reduced(normal_form_ideal(3, "II")))

# Labels are projective invariants: any linear change of coordinates
# classifies identically.
base = normal_form_ideal(4, "II")
for seed in range(3):
    moved = random_linear_change(base, seed=seed)
    print(f"coordinate change #{seed}:", classify(moved, seed=seed).label)
