"""How far apart can the detectors still harvest?

The boundary separation is the largest root of |X| - sqrt(P_A P_B).  A gap
difference generally pushes it outward; near gaps of order the inverse
switching duration the boundary oscillates with the difference and can
even dip below the identical-pair value.  The optimal gap difference also
drifts outward with separation.
"""

import numpy as np

from udwharvest import find_lmax, find_lmax_many, find_optimal_gap, lmax_large_gap_estimate

print("boundary separation vs gap difference")
ratios = np.linspace(0.0, 3.0, 13)
gaps = np.array([0.2, 0.5, 1.2])
# one batched search: a row per smaller gap, a column per gap ratio
boundaries = find_lmax_many(gaps[:, None], gaps[:, None] * ratios).location
for a, vals in zip(gaps, boundaries):
    ref = vals[0]
    marks = "".join("+" if v > ref else ("=" if v == ref else "-") for v in vals)
    print(f"  smaller gap {a:3.1f}: {vals[0]:6.3f} -> {vals[-1]:6.3f}   vs identical: {marks}")
print("  (at gap 1.2 the oscillation makes some unequal pairs reach *less* far)")

print("\nlarge-gap estimate vs located boundary")
for (a, d) in ((4.0, 0.0), (4.0, 2.0)):
    est = lmax_large_gap_estimate(a, d)
    loc = find_lmax(a, d).location
    print(f"  gaps ({a}, {a + d}): estimate {est:6.3f}  located {loc:6.3f}"
          f"  off by {abs(loc - est) / loc:.1%}")

print("\noptimal gap difference vs separation (smaller gap 0.5)")
for l in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
    res = find_optimal_gap(0.5, l)
    print(f"  separation {l:3.1f}: best gap ratio {res.location / 0.5:5.2f}")
print("  (the jump past separation ~3 is the main peak dying out; what"
      "\n   survives are oscillation-revived slivers at much larger gaps)")
