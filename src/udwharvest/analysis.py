"""Search and sweep layer over the closed forms.

Three searches cover the quantities the closed forms do not give directly:

* :func:`find_lmax` -- the largest separation at which harvesting still
  occurs.  The harvesting boundary is a root of |X| - sqrt(P_A P_B), which
  can have several roots when the correlation amplitude oscillates with
  separation, so the scan walks downward from an upper bound and bisects
  the first (i.e. largest) sign change.

* :func:`find_optimal_gap` -- the gap difference maximizing the
  concurrence at fixed smaller gap and separation.  A boundary maximum at
  zero difference is a legitimate answer (small separations are monotone),
  not an error.

* :func:`find_crossover` -- the smallest separation beyond which
  non-identical detectors harvest more than identical ones.

Bisections run the bracket down to floating-point resolution, so reported
roots satisfy much tighter certificates than the nominal 1e-10 width.

:func:`sweep` evaluates the closed-form pipeline over one axis of the
scenario; per-point failures are recorded as flags so a bad point cannot
abort a grid.  Points are independent pure calls, so a point's value does
not depend on the rest of the grid: any chunking of an axis reproduces the
whole-axis sweep bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .closedform import (
    DetectorPairConfig,
    HarvestReport,
    concurrence,
    concurrence_values,
    correlation_excess,
    lmax_large_gap_estimate,
)

__all__ = [
    "NoHarvestingRegion",
    "BracketingFailure",
    "NoCrossover",
    "SearchResult",
    "SweepGrid",
    "SWEEPABLE_AXES",
    "find_lmax",
    "find_optimal_gap",
    "find_crossover",
    "sweep",
]

_GOLDEN = float((np.sqrt(5.0) - 1.0) / 2.0)


class NoHarvestingRegion(RuntimeError):
    """No separation in the scanned range yields positive concurrence."""


class BracketingFailure(RuntimeError):
    """Harvesting persists at the scan bound; the true boundary lies above.

    The ``lower_bound`` attribute carries the scanned bound, which is a
    certified lower bound on the boundary rather than a root.
    """

    def __init__(self, msg, lower_bound):
        super().__init__(msg)
        self.lower_bound = lower_bound


class NoCrossover(RuntimeError):
    """Non-identical detectors never harvest more on the scanned range."""


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a one-dimensional search.

    ``location`` lies inside ``bracket``; ``converged`` means the bracket
    was narrowed below the advertised tolerance.  ``note`` flags special
    outcomes such as boundary maxima.
    """

    location: float
    value: float
    bracket: tuple[float, float]
    iterations: int
    converged: bool
    note: str = ""


def _default_scan_bound(omega_a_sigma, delta_omega_sigma):
    # four times the large-gap estimate, never less than 10 switching lengths
    return max(10.0, 4.0 * lmax_large_gap_estimate(omega_a_sigma, delta_omega_sigma))


def _bisect(f, lo, hi, positive_at_lo):
    """Bisect a sign change between lo and hi down to floating resolution."""
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iterations += 1
        if (f(mid) > 0.0) == positive_at_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, iterations


def find_lmax(
    omega_a_sigma,
    delta_omega_sigma,
    coupling=0.1,
    scan_bound=None,
    scan_step=0.01,
) -> SearchResult:
    """Largest separation (units of the switching length) with nonzero
    concurrence, located as the largest root of |X| - sqrt(P_A P_B) below
    ``scan_bound``.

    Scans downward from the bound in steps of ``scan_step`` and bisects the
    first bracket whose smaller-separation side still harvests; downward
    scanning is what makes the *largest* root the one found when the
    boundary oscillates.  The returned location does not depend on the
    coupling (the excess scales globally by its square).

    Raises :exc:`NoHarvestingRegion` if nothing on the grid harvests and
    :exc:`BracketingFailure` if harvesting persists at the bound itself.
    """
    if scan_bound is None:
        scan_bound = _default_scan_bound(omega_a_sigma, delta_omega_sigma)
    if not (scan_bound > scan_step > 0.0):
        raise ValueError("need scan_bound > scan_step > 0")

    def f(l):
        return correlation_excess(omega_a_sigma, delta_omega_sigma, l, coupling)

    grid = np.arange(scan_bound, 0.5 * scan_step, -scan_step)
    values = f(grid)
    if values[0] > 0.0:
        raise BracketingFailure(
            f"excess still positive at scan bound {scan_bound}; the harvesting "
            "boundary lies above it",
            lower_bound=scan_bound,
        )
    positive = values > 0.0
    if not positive.any():
        raise NoHarvestingRegion(
            f"no positive concurrence for separations up to {scan_bound}"
        )
    k = int(np.argmax(positive))  # first positive point walking downward
    lo, hi = float(grid[k]), float(grid[k - 1])  # f(lo) > 0 >= f(hi)
    lo, hi, iterations = _bisect(f, lo, hi, positive_at_lo=True)
    loc = 0.5 * (lo + hi)
    return SearchResult(
        location=loc,
        value=float(f(loc)),
        bracket=(lo, hi),
        iterations=iterations,
        converged=True,
    )


def find_optimal_gap(
    omega_a_sigma,
    l_over_sigma,
    coupling=0.1,
    gap_bound=None,
    scan_points=256,
) -> SearchResult:
    """Gap difference (units of the inverse switching duration) that
    maximizes the concurrence, over [0, gap_bound].

    A coarse scan locates the best sample; an interior best is refined by
    golden-section to bracket width 1e-8.  A best sample at zero means the
    concurrence is decreasing from the start -- the small-separation
    regime -- and is reported as a converged boundary maximum.  The default
    bound grows with the separation, which is where the optimum migrates.
    """
    if gap_bound is None:
        gap_bound = max(4.0, float(l_over_sigma))
    if gap_bound <= 0:
        raise ValueError("gap_bound must be > 0")

    def c(d):
        return concurrence_values(omega_a_sigma, d, l_over_sigma, coupling)

    grid = np.linspace(0.0, gap_bound, scan_points)
    values = c(grid)
    k = int(np.argmax(values))
    if k == 0:
        return SearchResult(
            location=0.0,
            value=float(values[0]),
            bracket=(0.0, 0.0),
            iterations=0,
            converged=True,
            note="boundary maximum at zero gap difference",
        )
    note = ""
    if k == scan_points - 1:
        note = "maximum at the scan bound; enlarge gap_bound to be sure"
    lo = float(grid[k - 1])
    hi = float(grid[min(k + 1, scan_points - 1)])
    u = hi - _GOLDEN * (hi - lo)
    v = lo + _GOLDEN * (hi - lo)
    fu, fv = float(c(u)), float(c(v))
    iterations = 0
    while hi - lo > 1e-8:
        iterations += 1
        if fu > fv:
            hi, v, fv = v, u, fu
            u = hi - _GOLDEN * (hi - lo)
            fu = float(c(u))
        else:
            lo, u, fu = u, v, fv
            v = lo + _GOLDEN * (hi - lo)
            fv = float(c(v))
    loc = 0.5 * (lo + hi)
    return SearchResult(
        location=float(loc),
        value=float(c(loc)),
        bracket=(float(lo), float(hi)),
        iterations=iterations,
        converged=True,
        note=note,
    )


def find_crossover(
    omega_a_sigma,
    delta_omega_sigma,
    coupling=0.1,
    scan_bound=None,
    scan_step=0.01,
) -> SearchResult:
    """Smallest separation at which the non-identical pair overtakes the
    identical pair (equal smaller gap), located by an upward scan for the
    first negative-to-positive sign change of the concurrence difference,
    then bisection.

    If the identical pair's concurrence has already died at the located
    point, the result is flagged: it is then the point where only the
    non-identical pair still harvests, not a crossing of two positive
    curves.  Raises :exc:`NoCrossover` when the difference never turns
    positive on the grid.
    """
    if delta_omega_sigma <= 0:
        raise ValueError("delta_omega_sigma must be > 0 to compare against identical")
    if scan_bound is None:
        scan_bound = _default_scan_bound(omega_a_sigma, delta_omega_sigma)
    if not (scan_bound > scan_step > 0.0):
        raise ValueError("need scan_bound > scan_step > 0")

    def g(l):
        return concurrence_values(
            omega_a_sigma, delta_omega_sigma, l, coupling
        ) - concurrence_values(omega_a_sigma, 0.0, l, coupling)

    grid = np.arange(scan_step, scan_bound + 0.5 * scan_step, scan_step)
    values = g(grid)
    positive = values > 0.0
    transitions = np.flatnonzero(positive[1:] & ~positive[:-1])
    if transitions.size == 0:
        raise NoCrossover(
            "non-identical concurrence never exceeds identical below "
            f"separation {scan_bound}"
        )
    k = int(transitions[0]) + 1
    lo, hi = float(grid[k - 1]), float(grid[k])  # g(lo) <= 0 < g(hi)
    lo, hi, iterations = _bisect(g, lo, hi, positive_at_lo=False)
    loc = 0.5 * (lo + hi)
    both_positive = (
        concurrence_values(omega_a_sigma, delta_omega_sigma, loc, coupling) > 0.0
        and concurrence_values(omega_a_sigma, 0.0, loc, coupling) > 0.0
    )
    return SearchResult(
        location=loc,
        value=float(g(loc)),
        bracket=(lo, hi),
        iterations=iterations,
        converged=True,
        note="" if both_positive else "identical-pair concurrence already zero here",
    )


SWEEPABLE_AXES = ("l_over_sigma", "delta_omega_sigma", "omega_a_sigma")


@dataclass
class SweepGrid:
    """One swept axis with the fixed remainder of the scenario and the
    per-point reports.  Failed points carry ``None`` with the reason in
    ``errors``; axis values must be strictly monotone (either direction,
    so that reversed sweeps are representable)."""

    axis_name: str
    axis_values: np.ndarray
    fixed_params: DetectorPairConfig
    values: list[HarvestReport | None]
    errors: list[str | None]

    def __post_init__(self):
        self.axis_values = np.asarray(self.axis_values, dtype=float)
        steps = np.diff(self.axis_values)
        if self.axis_values.size > 1 and not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError("axis_values must be strictly monotone")
        if len(self.values) != self.axis_values.size or len(self.errors) != len(self.values):
            raise ValueError("values/errors length must match axis_values")

    def concurrences(self) -> np.ndarray:
        """Concurrence per point, NaN where the point failed."""
        return np.array(
            [np.nan if r is None else r.concurrence for r in self.values], dtype=float
        )


def sweep(
    axis_name: str,
    axis_values,
    fixed_params: DetectorPairConfig,
) -> SweepGrid:
    """Evaluate the closed-form pipeline along one scenario axis, one
    scalar report per point, in the order of ``axis_values``."""
    if axis_name not in SWEEPABLE_AXES:
        raise ValueError(f"axis_name must be one of {SWEEPABLE_AXES}, got {axis_name!r}")
    axis_values = np.asarray(axis_values, dtype=float)

    def one(v):
        try:
            cfg = replace(fixed_params, **{axis_name: float(v)})
            return concurrence(cfg), None
        except ValueError as exc:
            return None, str(exc)

    outcomes = [one(v) for v in axis_values]
    return SweepGrid(
        axis_name=axis_name,
        axis_values=axis_values,
        fixed_params=fixed_params,
        values=[r for r, _ in outcomes],
        errors=[e for _, e in outcomes],
    )
