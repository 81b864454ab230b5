"""Entanglement harvesting by two static detectors with unequal energy gaps.

A pair of two-level systems, switched on with a shared Gaussian window and
coupled weakly to the massless scalar vacuum, ends up in a joint state
whose entanglement is decided by the competition between the pair
correlation the field mediates and the detectors' individual excitation
probabilities.  This package provides:

* closed forms for the probabilities, the pair correlation, and the
  concurrence, in overflow-safe scaled-error-function form (``closedform``,
  ``specfun``);
* integral oracles that recompute the same quantities directly from the
  regulated vacuum two-point function, for certification (``oracle``);
* searches and sweeps over the scenario space: harvesting range, optimal
  gap difference, identical-vs-non-identical crossover (``analysis``);
* a CLI for evaluation, verification, and figure-data generation
  (``udwharvest`` or ``python -m udwharvest``).

All quantities are dimensionless: energies are multiplied by the switching
duration, lengths divided by it.
"""

from .closedform import (
    ConcurrenceRegime,
    DetectorPairConfig,
    GapRegime,
    HarvestReport,
    SeparationRegime,
    asymptotic_concurrence,
    asymptotic_gm_probability,
    asymptotic_x,
    concurrence,
    concurrence_gap_derivative_estimate,
    concurrence_values,
    correlation_excess,
    correlation_x,
    correlation_x_values,
    geometric_mean_probability,
    lmax_large_gap_estimate,
    transition_probability,
)
from .oracle import (
    DEFAULT_SETTINGS,
    DensityMatrix4,
    NonConvergence,
    OracleSettings,
    assemble_rho,
    c_double_integral,
    c_quadrature,
    pd_double_integral,
    pv_gaussian_pole_integral,
    x_double_integral,
    x_single_integral_pv,
)
from .analysis import (
    BracketingFailure,
    NoCrossover,
    NoHarvestingRegion,
    SearchBatch,
    SearchResult,
    SweepGrid,
    find_crossover,
    find_crossover_many,
    find_lmax,
    find_lmax_many,
    find_optimal_gap,
    find_optimal_gap_many,
    sweep,
)
from . import specfun

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "specfun",
    "ConcurrenceRegime",
    "DetectorPairConfig",
    "GapRegime",
    "HarvestReport",
    "SeparationRegime",
    "asymptotic_concurrence",
    "asymptotic_gm_probability",
    "asymptotic_x",
    "concurrence",
    "concurrence_gap_derivative_estimate",
    "concurrence_values",
    "correlation_excess",
    "correlation_x",
    "correlation_x_values",
    "geometric_mean_probability",
    "lmax_large_gap_estimate",
    "transition_probability",
    "DEFAULT_SETTINGS",
    "DensityMatrix4",
    "NonConvergence",
    "OracleSettings",
    "assemble_rho",
    "c_double_integral",
    "c_quadrature",
    "pd_double_integral",
    "pv_gaussian_pole_integral",
    "x_double_integral",
    "x_single_integral_pv",
    "BracketingFailure",
    "NoCrossover",
    "NoHarvestingRegion",
    "SearchBatch",
    "SearchResult",
    "SweepGrid",
    "find_crossover",
    "find_crossover_many",
    "find_lmax",
    "find_lmax_many",
    "find_optimal_gap",
    "find_optimal_gap_many",
    "sweep",
]
