"""Certifying the closed forms against the integral oracles.

The closed forms are fast but they embody a chain of analytic steps; the
oracles recompute the same quantities straight from the regulated vacuum
two-point function.  Two independent routes exist for the pair
correlation:

* a single-integral route (principal value plus a lightcone residue,
  evaluated by analytic pole subtraction), accurate to ~1e-9;
* a direct time-ordered double integral with a shrinking regulator and
  polynomial extrapolation to zero regulator, accurate to ~1e-3 and
  sharing no algebra with the reduction above.

Each oracle takes the scenario's numbers, scalars or broadcast arrays: a
scalar call returns a Python number, an array call one value per row.
"""

import numpy as np

from udwharvest import (
    DetectorPairConfig,
    OracleSettings,
    correlation_x,
    pd_double_integral,
    transition_probability,
    x_double_integral,
    x_single_integral_pv,
)

cfg = DetectorPairConfig(0.5, 0.5, 2.0, 0.1)

x_exact = correlation_x(cfg)
scenario = (cfg.omega_a_sigma, cfg.omega_b_sigma, cfg.l_over_sigma, cfg.coupling)
x_pv = x_single_integral_pv(*scenario)
x_dbl = x_double_integral(*scenario)
print("pair correlation X")
print(f"  closed form        : {x_exact:.10e}")
print(f"  principal value    : {x_pv:.10e}   rel {abs(x_pv - x_exact) / abs(x_exact):.1e}")
print(f"  time-ordered double: {x_dbl:.10e}   rel {abs(x_dbl - x_exact) / abs(x_exact):.1e}")

p_exact = transition_probability(0.5, 0.1)
p_oracle = pd_double_integral(0.5, 0.1)
print("\ntransition probability at gap 0.5")
print(f"  closed form        : {p_exact:.10e}")
print(f"  regulated integral : {p_oracle:.10e}   rel {abs(p_oracle - p_exact) / p_exact:.1e}")

# One call checks a row of gaps: the rows share one quadrature matrix.
gaps = np.array([0.0, 0.5, 1.0, 2.0])
p_rows = pd_double_integral(gaps, 0.1)
p_closed = transition_probability(gaps, 0.1)
print("\nregulated integral at gaps", gaps.tolist())
print("  rel:", "  ".join(f"{r:.1e}" for r in np.abs(p_rows - p_closed) / p_closed))

# The regulator limit is a polynomial extrapolation over a decreasing
# schedule; watching the extrapolant sequence shows the convergence that
# the oracle also checks internally.
_, extrapolants = pd_double_integral(0.5, 0.1, return_extrapolants=True)
print("\nextrapolant sequence toward zero regulator (orders 0, 1, 2):")
for k, e in enumerate(extrapolants):
    print(f"  order {k}: {e.real:.10e}   off by {abs(e.real - p_exact):.2e}")

# A finer schedule buys more accuracy when needed.
fine = OracleSettings(epsilon_schedule=(0.04, 0.02, 0.01, 0.005))
p_fine = pd_double_integral(0.5, 0.1, fine)
print(f"\nfiner schedule: rel {abs(p_fine - p_exact) / p_exact:.1e}")
