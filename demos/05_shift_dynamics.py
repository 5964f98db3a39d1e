"""Shift dynamics through coset tables.

For the extension E of the cyclic group of order n by G_n(w), the coset
space E/<a> with a acting by translation matches G_n(w) with the shift
acting, basepoint to identity.  So cycle structure and fixed points of
shift powers are read off a single coset enumeration.

Run:  python demos/05_shift_dynamics.py
"""

from cycpres import (
    classify,
    gnkl,
    parse_word,
    shift_orbits,
    verify_n18_evidence,
)

# The original Fibonacci group: cyclic of order 11, and the ten
# nonidentity elements fall into two shift orbits of length five.
rep = shift_orbits(5, parse_word("x0 x1 X2", 5))
print("G_5(x0 x1 X2):", rep.total_points, "points, cycle type", rep.cycle_type)
print("  free action away from the basepoint:", rep.free_action_on_nonbase)

# A finite case from the two-parameter family: order 33, and the shift
# fixes an order-three subgroup (three fixed points, basepoint included).
rep = shift_orbits(5, gnkl(5, 0, 1).word)
print("\nG_5(0,1):", rep.total_points, "points, theta fixes", rep.fixed_counts[1])
print("  fixed counts by power:", rep.fixed_counts)

# When condition B holds and 3 does not divide n, the shift is trivial:
# every point is fixed.
rep = shift_orbits(5, gnkl(5, 1, 2).word)
print("\nG_5(1,2):", rep.total_points, "points, theta fixes",
      rep.fixed_counts[1], "(the shift is the identity)")

# Infinite groups are out of reach for enumeration (the table would only
# overflow); the taxonomy carries those verdicts instead.
c = classify(7, 1, 3)
print(f"\nG_7(1,3): {c.structure_note}")

# The exceptional n = 18 family: the shift itself is fixed-point free,
# but its cube is not.  The evidence is an enumeration of the group
# K = (b, u : b^6, u^2 b^3 u b^2) over the order-6 subgroup generated
# by b: index 57 with exactly three fixed cosets.
ev = verify_n18_evidence()
print("\nn=18 evidence: |K| =", ev.group_order,
      ", index of <b> =", ev.subgroup_index,
      ", fixed cosets of b =", ev.b_fixed_points)
c = classify(18, 1, 11)
print("G_18(1,11):", c.structure_note)
