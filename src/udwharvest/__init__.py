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

from . import analysis, closedform, oracle, specfun
from .analysis import *
from .closedform import *
from .oracle import *

__version__ = "0.1.0"

__all__ = ["__version__", "specfun", *closedform.__all__, *oracle.__all__, *analysis.__all__]
