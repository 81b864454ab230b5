"""The optimal gap difference and the anatomy behind it.

At narrow separations the concurrence only falls as the gap difference
grows; once the detectors sit a couple of switching lengths apart, a peak
appears at a nonzero difference.  The peak is where the margin between the
pair correlation |X| and the probability mean sqrt(P_A P_B) is widest:
both fall with the gap difference, but at different rates.
"""

import numpy as np

from udwharvest import (
    concurrence_values,
    correlation_x_values,
    find_optimal_gap,
    find_optimal_gap_many,
    geometric_mean_probability,
)

OMEGA_A = 0.5

# one batched search over all four separations
separations = np.array([0.5, 1.0, 2.0, 3.0])
peaks = find_optimal_gap_many(OMEGA_A, separations, coupling=1.0)
for l, loc, value in zip(separations, peaks.location, peaks.value):
    where = "monotone from the start" if loc == 0.0 else (
        f"peak at gap ratio {loc / OMEGA_A:.3f}"
    )
    print(f"separation {l:3.1f}: {where}   (concurrence/coupling^2 {value:.3e})")

print("\nanatomy at separation 2.0 (all per coupling^2):")
print("  ratio |    |X|     | sqrt(PaPb) |   margin")
for ratio in (0.0, 0.4, 0.786, 1.2, 2.0, 3.0):
    d = OMEGA_A * ratio
    absx = abs(correlation_x_values(OMEGA_A, d, 2.0, 1.0))
    gm = geometric_mean_probability(OMEGA_A, d, 1.0)
    print(f"  {ratio:5.3f} | {absx:.4e} | {gm:.4e} | {absx - gm:+.4e}")

peak = find_optimal_gap(OMEGA_A, 2.0, coupling=1.0)
print(f"\nthe margin is widest at gap ratio {peak.location / OMEGA_A:.4f},"
      " which is exactly where the concurrence peaks:")
for d in np.linspace(0.0, 1.5, 7):
    c = float(concurrence_values(OMEGA_A, d, 2.0, 1.0))
    print(f"  gap diff {d:5.3f}: {c:.3e} " + "#" * int(round(50 * c / peak.value)))
