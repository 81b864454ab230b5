"""Search and sweep layer over the closed forms.

Three searches cover the quantities the closed forms do not give directly:

* :func:`find_lmax` -- the largest separation at which harvesting still
  occurs.  The harvesting boundary is a root of |X| - sqrt(P_A P_B), which
  can have several roots when the correlation amplitude oscillates with
  separation, so the scan walks downward from an upper bound and refines
  the first (i.e. largest) sign change.

* :func:`find_optimal_gap` -- the gap difference maximizing the
  concurrence at fixed smaller gap and separation.  A boundary maximum at
  zero difference is a legitimate answer (small separations are monotone),
  not an error.

* :func:`find_crossover` -- the smallest separation beyond which
  non-identical detectors harvest more than identical ones.

The two separation searches decide every row by the scaled excess S =
|X|/E - sqrt(P~_A P~_B), E = exp(-(a^2 + b^2)/2), whose terms stay of
order one where P_A P_B and |X| underflow and which keeps the sign change
of the excess there (:func:`~udwharvest.closedform._x_excess`); |X|/E
depends on the gap difference and the separation alone.  The scans build
no grid and evaluate only the points their answer depends on.  Point i of
a row's grid is np.arange's start + i*delta, with its bits
(:func:`_grids`).  A closed-form envelope of |X|/E, decreasing in the
separation and costing no Faddeeva evaluation, certifies a point
non-harvesting wherever it lies below sqrt(P~_A P~_B) by a relative
margin of 1e-6, and with it every larger separation; one lockstep search,
a bisection in a large batch, finds each row's edge of the certified
points, its cut (:func:`_cuts`).
:func:`find_lmax` starts its downward walk at the cut, and
:func:`find_crossover` ends its upward walk there, because above it the
non-identical concurrence is exactly zero and the difference cannot turn
positive.  :func:`find_crossover` also has a lower cut, the mirror of the
upper one (:func:`_floors`): below it the identical pair is certified
ahead, from a lower bound on its |X|/E through Dawson's integral F,
F(x) > x/(1 + 2x^2) for x > 0, that costs no Faddeeva evaluation either
(:func:`~udwharvest.closedform._scaled_x_floor`), against the non-identical
pair's envelope at the grid's first point.  Its walk starts there, as if
after a non-positive point, and at large gaps, where the crossover lies
near the identical pair's lmax, about 2a, it walks one block instead of
thousands of points.  The rest is walked in blocks of 256 points, each
twice the one before, up to the first block that holds the answer.  A
closed-form call gives the same bits for a point whatever the shape of the
call, so every answer, bracket and raised error is bit for bit that of
evaluating the whole grid.  A scan bound must be finite and a grid may span at most 1e7
points; a larger one raises ValueError before the scan starts.  A
crossover row compares the two pairs' scaled excesses through the ratio
of their scales, exp(-d(2a + d)/2), in a form whose sign does not rest on
that ratio where it underflows (:func:`_lead`).

The sign change a separation scan finds is refined by safeguarded Newton
steps (:func:`_refine`), whose slope costs no further Faddeeva evaluation
(:func:`~udwharvest.closedform._x_abs_slope`), to a bracket of at most 8
ulps that the closed forms certify as a sign change: about 5 steps where
bisection to floating-point resolution would take about 46, and never
more than bisection's count to 8 ulps plus 9.  The roots are those of
bisection to within a few ulps, except where the function rounds to
exactly zero over a stretch, either end of which is a sign change.  The
gap search keeps its golden section.

Each search has a batched form, :func:`find_lmax_many`,
:func:`find_optimal_gap_many` and :func:`find_crossover_many`, which takes
broadcast arrays of problems and returns a :class:`SearchBatch` of arrays
of their shape.  Every row is scanned on its own grid, in chunks of
consecutive rows holding at most 8 k scanned points when each is padded
to the longest of them (a longer row is a chunk of its own), so memory
stays that of one chunk.  A chunk of gap scans is one closed-form call
over a (rows, 256) grid.  The separation scans search the cuts of all
rows in one envelope call per step, then chunk the rows by the points
they walk: a chunk is one closed-form call per round of blocks over the
rows that have not found their answer yet, each row walking its own next
block.  Then all rows are refined in lockstep: one closed-form array
call per Newton or golden-section step, with each finished row frozen in
place.  A row where the one-problem search would raise carries NaN
and the exception's class name in ``error``, so one failing problem
cannot abort a grid; gaps, a separation or a coupling outside the
scenario domain raise ValueError, for the whole batch.  The one-problem
functions run the same core on 0-d inputs, as chunks of one row, and
raise as before; they keep returning a :class:`SearchResult` of Python
numbers, because callers (the benchmark's tracer among them) read its
fields as scalars, so arrays get their own names.

:func:`sweep` evaluates the closed-form pipeline over one axis of the
scenario with one array call; points outside the admitted domain are
flagged, not fatal, so a bad point cannot abort a grid.  Closed-form calls
give the same bits for a point whatever the shape of the call, so any
chunking or reversal of an axis reproduces the whole-axis sweep bitwise,
and each point equals a scalar call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import (
    DetectorPairConfig,
    _clamp,
    _domain_errors,
    _geometric_means,
    _ingredients,
    _probability_terms,
    _scaled_x_envelope,
    _scaled_x_floor,
    _x_abs,
    _x_abs_slope,
    _x_excess,
    lmax_large_gap_estimate,
    transition_probability,
)

__all__ = [
    "NoHarvestingRegion",
    "BracketingFailure",
    "NoCrossover",
    "SearchResult",
    "SearchBatch",
    "SweepGrid",
    "SWEEPABLE_AXES",
    "find_lmax",
    "find_optimal_gap",
    "find_crossover",
    "find_lmax_many",
    "find_optimal_gap_many",
    "find_crossover_many",
    "sweep",
]

_GOLDEN = float((np.sqrt(5.0) - 1.0) / 2.0)

# Samples of a gap search's coarse scan over [0, gap bound].
_GAP_SCAN_POINTS = 256

# Largest grid a separation scan spans, in points: where nothing is certified
# it walks every point, 1e7 in 2 s (find_lmax) to 4 s (find_crossover).
_MAX_SCAN_POINTS = 10**7

# Points of a separation scan's first block; each later block is twice the
# one before, so a scan that stops early evaluates little past its answer
# and one that runs to the end costs a few calls more than one call.
_SCAN_BLOCK = 256

# Points of one chunk of scanned rows, each padded to the longest (a
# separation scan counts the points it walks): the rows of a chunk share
# each call of their scans, and the chunk bounds the memory of those calls.
# A row longer than a chunk is a chunk of its own.
_SCAN_CHUNK = 8192

# Relative margin of the envelope certificate: it covers the Faddeeva
# kernel's relative error (below 1e-10) and the roundings of |X| many times
# over, and costs a factor of about 1 + 5e-7 on the certified separation.
_ENVELOPE_MARGIN = 1e-6

# Steps a root refinement may take beyond bisection's count to a bracket of
# 8 ulps (bisection to one ulp takes 3 more): Newton converges from one
# side, so the far end of the bracket stays at the scan cell's until the
# closing probe, and a smaller slack would force midpoints on such rows.
_NEWTON_SLACK = 9


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


@dataclass(frozen=True)
class SearchBatch:
    """Row-wise outcomes of a batched search: arrays of the broadcast
    problem shape (``bracket`` has a trailing axis of two).

    A row where the one-problem search would raise carries the
    exception's class name in ``error``, NaN ``location``, ``value`` and
    ``bracket``, zero ``iterations`` and ``converged`` False; every other
    row has an empty ``error`` and the fields of :class:`SearchResult`.
    """

    location: np.ndarray
    value: np.ndarray
    bracket: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    note: np.ndarray
    error: np.ndarray


def _default_scan_bound(omega_a_sigma, delta_omega_sigma):
    # four times the large-gap estimate, never less than 10 switching lengths
    return np.maximum(10.0, 4.0 * lmax_large_gap_estimate(omega_a_sigma, delta_omega_sigma))


def _check_domain(a, d, l, coupling):
    """Raise ValueError with the message of the first row outside the
    domain :class:`DetectorPairConfig` admits."""
    bad = [e for e in _domain_errors(a, d, l, coupling) if e]
    if bad:
        raise ValueError(bad[0])


def _separation_problems(omega_a_sigma, delta_omega_sigma, coupling, scan_bound, scan_step):
    """Broadcast (a, d, scan bound) arrays of a separation search, the
    bound defaulting per row."""
    a, d = np.broadcast_arrays(
        np.asarray(omega_a_sigma, dtype=float), np.asarray(delta_omega_sigma, dtype=float)
    )
    _check_domain(a, d, 1.0, coupling)  # the scanned separation is not checked
    if scan_bound is None:
        scan_bound = _default_scan_bound(a, d)
    a, d, bound = np.broadcast_arrays(a, d, np.asarray(scan_bound, dtype=float))
    if not np.all(np.isfinite(bound)):
        raise ValueError("scan_bound must be finite")
    if not np.all((bound > scan_step) & (scan_step > 0.0)):
        raise ValueError("need scan_bound > scan_step > 0")
    points = float(np.max(bound, initial=0.0)) / scan_step
    if points > _MAX_SCAN_POINTS:
        raise ValueError(f"a scan grid of {points:.3g} points exceeds the limit of "
                         f"{_MAX_SCAN_POINTS:.0e}; raise scan_step or lower scan_bound")
    return a, d, bound


def _chunks(points):
    """Slices of consecutive rows that hold at most ``_SCAN_CHUNK`` scan
    points when each is padded to the longest of them (a longer row is a
    slice of its own), given each row's points."""
    start, widest = 0, 0
    for i, n in enumerate(points):
        widest = max(widest, n)
        if i > start and (i + 1 - start) * widest > _SCAN_CHUNK:
            yield slice(start, i)
            start, widest = i, n
    if start < len(points):
        yield slice(start, len(points))


def _grids(bound, step, upward):
    """Every row's grid as (start, delta, n), none built: point i of n is
    start + i*delta, delta = (start + step) - start with step negative
    downward, and n = ceil((stop - start)/step) for stop half a step past
    the far end -- np.arange's own arithmetic, so every point has its bits.
    An upward grid runs from ``step`` to the bound, a downward one back."""
    if upward:
        start, stop, signed = np.full(bound.shape, step), bound + 0.5 * step, step
    else:
        start, stop, signed = bound, 0.5 * step, -step
    return start, (start + signed) - start, np.ceil((stop - start) / signed).astype(int)


def _normal(gm):
    """Where gm is a finite normal double, which a relative margin needs:
    a subnormal |X| is off by 2^-1074 times a few."""
    return np.isfinite(gm) & (gm >= np.finfo(float).tiny)


def _edges(lo, hi, start, delta, hit):
    """Each row's first grid index in [lo, hi) whose point ``hit(rows, l)``
    marks (rows an index array, one row of l per row), hi where there is
    none; along each row's grid hit must be False, then True.  Each step of
    the lockstep search is one call of hit at ``probes`` indices of every
    row, splitting its bracket evenly: one, a bisection, for
    ``_SCAN_BLOCK`` rows or more, else about ``_SCAN_BLOCK`` points per
    call, which takes a one-problem search to its edge in two or three calls
    where bisection takes ten."""
    probes = max(1, _SCAN_BLOCK // max(lo.size, 1))
    while (live := np.flatnonzero(lo < hi)).size:
        low, high = lo[live, None], hi[live, None]
        probe = low + (high - low) * np.arange(1, probes + 1) // (probes + 1)
        hits = hit(live, start[live, None] + probe * delta[live, None])
        # the first probe at or past the edge (else hi) and the one before it
        first = np.argmax(np.concatenate([hits, np.ones_like(low, dtype=bool)], axis=1), axis=1)
        ends = np.concatenate([low - 1, probe, high], axis=1)
        rows = np.arange(live.size)
        lo[live], hi[live] = ends[rows, first] + 1, ends[rows, first + 1]
    return lo


def _cuts(start, delta, n, gm, d, coupling, upward):
    """Each row's first grid index whose point the envelope certifies
    (upward) or does not (downward), n where there is none; one value per
    row.  The scaled envelope of |X|/E, widened by the margin, certifies
    the scaled excess |X|/E - gm, gm = sqrt(P~_A P~_B), non-positive where
    it lies below gm: it bounds the bracket of :func:`_x_abs` up to the
    kernel's and the roundings' relative error, which the margin covers.
    Where gm is not normal (only a coupling far outside the weak-coupling
    physics makes it so) nothing is certified.
    The envelope decreases in l, so the certified points are one run at
    the large-l end of a grid, whose edge :func:`_edges` finds."""
    usable = _normal(gm)
    uncertified = n if upward else np.zeros_like(n)

    def hit(rows, l):
        envelope = _scaled_x_envelope(d[rows, None], l, coupling)
        return (envelope * (1.0 + _ENVELOPE_MARGIN) < gm[rows, None]) == upward

    return _edges(np.where(usable, 0, uncertified), np.where(usable, n, uncertified), start,
                  delta, hit)


def _floors(start, delta, n, gms, ratio, d, coupling):
    """Each crossover row's lower cut on its upward grid: the first index
    whose point is not certified to have the identical pair ahead, 0 where
    the first is not.  A point is certified where

        L(l) (1 - m) - gm_e > r max(0, U_u(l_0) (1 + m) - gm_u),

    every term divided by its pair's E as in :func:`_cuts`: L the Dawson
    lower bound on the identical pair's |X|/E
    (:func:`~udwharvest.closedform._scaled_x_floor`), U_u(l_0) the
    non-identical pair's envelope at the grid's first point, which bounds
    its |X|/E on the whole grid, m the margin, r the ratio of the pairs'
    scales and both gms normal.  The margins cover the kernel's and the
    roundings' relative error, and rounding is monotone, so there the
    computed identical excess exceeds r times the computed non-identical
    one and its own positive part: the walk's sign test (:func:`_lead`) is
    not positive.  L decreases in l and the right side is fixed, so the
    certified points are a prefix of the grid, whose end :func:`_edges`
    finds for the rows certified at their first point."""
    gm_u, gm_e = gms
    ceiling = _scaled_x_envelope(d, start, coupling) * (1.0 + _ENVELOPE_MARGIN)
    ceiling = ratio * np.maximum(0.0, ceiling - gm_u)

    def uncertified(rows, l):
        floor = _scaled_x_floor(l, coupling) * (1.0 - _ENVELOPE_MARGIN)
        return ~(floor - gm_e[rows, None] > ceiling[rows, None])

    rows = np.arange(n.size)
    usable = _normal(gm_u) & _normal(gm_e) & ~uncertified(rows, start[:, None])[:, 0]
    # point 0 of a usable row is certified: its search starts at point 1
    return _edges(usable.astype(int), np.where(usable, n, 0), start, delta, uncertified)


def _separation_scan(grid, gm, d, coupling, positive, upward, floor=None):
    """Walk every row's separation grid (:func:`_grids`'s ``grid``) to its
    first turn to positive; 1-D arrays gm and d hold the rows' problems,
    as :func:`_cuts` takes them.

    ``positive(rows, l)`` is the sign test of the rows (an index array) at
    separations l, one row of l per row.  A downward walk runs from the
    row's cut (:func:`_cuts`) to the grid's end and starts as if after a
    non-positive point.  An upward one runs from the row's ``floor``, the
    first index not certified non-positive (:func:`_floors`), to the cut.
    From a floor above 0 it starts as if after a non-positive point,
    the one below the floor; from 0 as if after a positive one, so its
    first point cannot turn.  A row whose floor is at or past its cut walks
    nothing and has no turn.
    The rows are chunked by the points they walk.  Per chunk the walks run
    in lockstep rounds of blocks, each twice the one before: a round is one
    call over the next block of every row without a turn so far, a shorter
    walk padded with its last point, so every row's blocks have the
    boundaries of a walk on its own.  Returns each row's turn index k (-1
    where there is none) and its grid at k and at k-1 (NaN where there is
    no such point)."""
    start, delta, n = grid
    cut = _cuts(start, delta, n, gm, d, coupling, upward)
    first, last = (floor, cut) if upward else (cut, n)
    # round r is block r, of _SCAN_BLOCK * 2**r points, of every row still
    # walking; a repeated last point cannot turn again, and a row leaves at
    # its first turn or at its end
    k = np.full(n.shape, -1)
    for chunk in _chunks(last - first):
        rows = chunk.start + np.flatnonzero(last[chunk] > first[chunk])
        before = upward & (first[rows] == 0)
        offset, size = 0, _SCAN_BLOCK
        while rows.size:
            begin, end = first[rows] + offset, last[rows]
            idx = np.minimum(begin[:, None] + np.arange(min(size, np.max(end - begin))),
                             end[:, None] - 1)
            pos = positive(rows, start[rows, None] + idx * delta[rows, None])
            turns = pos & ~np.concatenate([before[:, None], pos[:, :-1]], axis=1)
            turned = turns.any(axis=1)
            k[rows[turned]] = begin[turned] + np.argmax(turns[turned], axis=1)
            going = ~turned & (begin + size < end)
            rows, before = rows[going], pos[going, -1]
            offset, size = offset + size, 2 * size
    at = np.where(k >= 0, start + k * delta, np.nan)
    previous = np.where(k > 0, start + (k - 1) * delta, np.nan)
    return k, at, previous


# The closed forms below are evaluated with row-constant factors computed
# once per search; each helper does the arithmetic of the closed form it
# names, so it gives that function's bits.


def _gap_concurrence(p_a, a, d, l, coupling):
    """``concurrence_values`` with P_A passed in."""
    p_b, bracket_b = _probability_terms(a + d, coupling)
    return _clamp(_x_excess(a, d, l, coupling, np.sqrt(p_a * p_b), (None, bracket_b))[1])


def _lead(unequal, equal, ratio, harvests):
    """A function of the separation that is positive exactly where the
    non-identical pair's concurrence exceeds the identical pair's, from
    their scaled excesses S_u and S_e and the ratio r = E_u/E_e of their
    scales: r S_u - S_e where the identical pair ``harvests``, and S_u
    where it does not, so that the sign does not rest on a ratio that has
    underflowed; or its slope, from the excesses' slopes.  Times E_e it is
    half of 2 e_u - 2 max(0, e_e) for the excesses e = E S, which has the
    sign of the concurrence difference and, unlike it, stays smooth where
    the non-identical pair starts to harvest: the crossover where the
    identical pair's concurrence is already zero."""
    return np.where(harvests, ratio * unequal - equal, unequal)


def _refine(f, lo, hi, positive_at_lo):
    """Narrow every row's sign change between lo < hi to at most 2 eps,
    eps = 4 ulps of lo, by safeguarded Newton steps, one call of f per
    step for all rows; ``f(l)`` returns the function and its slope.  A
    step's point replaces the bracket end whose sign it shares, zero
    counting as non-positive.  The next point is the Newton step from it,
    moved to ``reach`` inside the bracket where it lands less than reach
    inside or outside it, and the midpoint where it lands further out or is
    not finite.  reach is eps, so a Newton step of a few ulps or less
    (zero, or under half an ulp, which rounds back to the point) probes
    eps past the point toward the far end and closes the bracket if the
    root lies there.  reach doubles at each further point where f is
    exactly zero: a run of zeros is a stretch where f rounds to zero, and
    the sign change is its far edge.

    Each point is then drawn to within eps 2^(n - k) - width/2 of the
    midpoint after k steps, where n is bisection's steps from the scan
    cell to width 2 eps plus ``_NEWTON_SLACK``: the projection of ITP
    (Oliveira and Takahashi, ACM TOMS 47(1), 2020), which keeps the width
    after k steps at most 2 eps 2^(n - k), so a row takes at most n steps.
    A row with lo = hi is left alone."""
    eps = 4.0 * np.spacing(lo)
    n = np.ceil(np.log2(np.maximum((hi - lo) / (2.0 * eps), 1.0))) + _NEWTON_SLACK
    x = 0.5 * (lo + hi)
    live = hi - lo > 2.0 * eps
    iterations = np.zeros(np.shape(lo), dtype=int)
    reach = eps
    while live.any():
        iterations += live
        value, slope = f(x)
        move_lo = (value > 0.0) == positive_at_lo
        lo = np.where(live & move_lo, x, lo)
        hi = np.where(live & ~move_lo, x, hi)
        live &= hi - lo > 2.0 * eps
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 and x/0 bisect
            newton = x - value / slope
        mid = 0.5 * (lo + hi)
        reach = np.where(value == 0.0, 2.0 * reach, eps)
        near = (lo - reach < newton) & (newton < hi + reach) & (hi - lo > 2.0 * reach)
        guess = np.where(near, np.clip(newton, lo + reach, hi - reach), mid)
        r = eps * 2.0 ** (n - iterations) - 0.5 * (hi - lo)
        x = np.where(live, np.clip(guess, mid - r, mid + r), x)
    return lo, hi, iterations


def _golden(c, lo, hi):
    """Golden-section maximization of c on every row's [lo, hi] down to
    width 1e-8, one call of c per step for all rows.  Rows narrower than
    that from the start keep their bracket."""
    u = hi - _GOLDEN * (hi - lo)
    v = lo + _GOLDEN * (hi - lo)
    fu, fv = c(u), c(v)
    iterations = np.zeros(np.shape(lo), dtype=int)
    while True:
        live = hi - lo > 1e-8
        if not live.any():
            return lo, hi, iterations
        iterations += live
        # a finished row keeps its bracket; its probes move on harmlessly
        left = fu > fv  # the maximum lies below v
        lo = np.where(live & ~left, u, lo)
        hi = np.where(live & left, v, hi)
        p = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        fp = c(p)
        u, v = np.where(left, p, v), np.where(left, u, p)
        fu, fv = np.where(left, fp, fv), np.where(left, fu, fp)


def _blank(shape):
    return np.full(shape, "", dtype=object)


def _batch(location, value, lo, hi, iterations, note, error):
    """Assemble a :class:`SearchBatch`, blanking the rows with an error."""
    ok = error == ""
    return SearchBatch(
        location=np.where(ok, location, np.nan),
        value=np.where(ok, value, np.nan),
        bracket=np.stack([np.where(ok, lo, np.nan), np.where(ok, hi, np.nan)], axis=-1),
        iterations=np.where(ok, iterations, 0),
        converged=ok,
        note=np.where(ok, note, ""),
        error=error,
    )


def _single(batch):
    """The one row of a 0-d batch as a :class:`SearchResult` of Python
    scalars."""
    return SearchResult(
        location=float(batch.location),
        value=float(batch.value),
        bracket=(float(batch.bracket[0]), float(batch.bracket[1])),
        iterations=int(batch.iterations),
        converged=bool(batch.converged),
        note=batch.note[()],
    )


def find_lmax_many(
    omega_a_sigma,
    delta_omega_sigma,
    coupling=0.1,
    scan_bound=None,
    scan_step=0.01,
) -> SearchBatch:
    """:func:`find_lmax` for broadcast arrays of gaps (and scan bounds).
    ``coupling`` and ``scan_step`` are shared by all rows.

    Each row is scanned on its own grid; then all rows are refined by
    Newton steps in lockstep.  A row where :func:`find_lmax` would raise
    carries the exception's class name in ``error``.
    """
    a, d, bound = _separation_problems(
        omega_a_sigma, delta_omega_sigma, coupling, scan_bound, scan_step
    )
    # every row is scanned and refined in scaled form: |X|/E against
    # sqrt(P~_A P~_B), E = exp(-(a^2 + b^2)/2)
    gm, scaled_gm, brackets = _geometric_means(a, d, coupling)
    row_d, row_gm, row_bound = (x.ravel() for x in (d, scaled_gm, bound))

    def positive(rows, l):
        return _x_abs(row_d[rows, None], l, coupling) - row_gm[rows, None] > 0.0

    # the walk runs downward, below the leading certified points (which
    # are not positive), to the first positive point
    grid = _grids(row_bound, scan_step, upward=False)
    k, at, above = _separation_scan(grid, row_gm, row_d, coupling, positive, upward=False)
    k = k.reshape(a.shape)
    error = _blank(a.shape)
    error[k < 0] = NoHarvestingRegion.__name__
    error[k == 0] = BracketingFailure.__name__
    # a failed row sits at lo = hi, where the refinement leaves it alone
    failed = k <= 0
    lo = np.where(failed, scan_step, at.reshape(a.shape))  # f(lo) > 0 >= f(hi)
    hi = np.where(failed, scan_step, above.reshape(a.shape))

    def f(l):
        x_abs, slope = _x_abs_slope(d, l, coupling)
        return x_abs - scaled_gm, slope

    lo, hi, iterations = _refine(f, lo, hi, positive_at_lo=True)
    loc = 0.5 * (lo + hi)
    return _batch(loc, _x_excess(a, d, loc, coupling, gm, brackets)[1], lo, hi, iterations,
                  _blank(a.shape), error)


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

    Scans downward from the bound in steps of ``scan_step`` and refines the
    first bracket whose smaller-separation side still harvests, by
    safeguarded Newton steps to a certified bracket of at most 8 ulps
    (``iterations`` counts the steps); downward
    scanning is what makes the *largest* root the one found when the
    boundary oscillates.  The scan, certificate and refinement follow the
    scaled excess |X|/E - sqrt(P_A P_B)/E, E = exp(-(a^2 + b^2)/2), which
    keeps its sign change where P_A P_B and |X| underflow; ``value`` is
    ``correlation_excess`` at the location.  Grid points that an envelope
    of |X|/E certifies non-harvesting are not evaluated, and the walk stops
    at the first block holding a harvesting point; neither changes the
    answer, which is bit for bit that of evaluating every grid point.  The
    returned location does not depend on the coupling (the excess scales
    globally by its square).  One problem per call; :func:`find_lmax_many`
    solves arrays of them.

    Raises :exc:`NoHarvestingRegion` if nothing on the grid harvests and
    :exc:`BracketingFailure` if harvesting persists at the bound itself.
    """
    batch = find_lmax_many(omega_a_sigma, delta_omega_sigma, coupling, scan_bound, scan_step)
    error = batch.error[()]
    if error and scan_bound is None:
        scan_bound = float(_default_scan_bound(omega_a_sigma, delta_omega_sigma))
    if error == BracketingFailure.__name__:
        raise BracketingFailure(
            f"excess still positive at scan bound {scan_bound}; the harvesting "
            "boundary lies above it",
            lower_bound=scan_bound,
        )
    if error == NoHarvestingRegion.__name__:
        raise NoHarvestingRegion(
            f"no positive concurrence for separations up to {scan_bound}"
        )
    return _single(batch)


def find_optimal_gap_many(
    omega_a_sigma,
    l_over_sigma,
    coupling=0.1,
    gap_bound=None,
) -> SearchBatch:
    """:func:`find_optimal_gap` for broadcast arrays of smaller gaps and
    separations (and gap bounds).  ``coupling`` is shared by all rows.

    Each row is scanned on its own grid; then all interior rows are refined
    by golden section in lockstep.  No row fails: every ``error`` is empty.
    """
    a, l = np.broadcast_arrays(
        np.asarray(omega_a_sigma, dtype=float), np.asarray(l_over_sigma, dtype=float)
    )
    _check_domain(a, 0.0, l, coupling)  # nor is the scanned gap difference
    if gap_bound is None:
        gap_bound = np.maximum(4.0, l)
    a, l, bound = np.broadcast_arrays(a, l, np.asarray(gap_bound, dtype=float))
    if not np.all(np.isfinite(bound)):
        raise ValueError("gap_bound must be finite")
    if np.any(bound <= 0):
        raise ValueError("gap_bound must be > 0")
    p_a = np.asarray(transition_probability(a, coupling))
    # every row's scan is _GAP_SCAN_POINTS samples; a chunk of rows is one
    # call over a (rows, samples) grid
    n, last = a.size, _GAP_SCAN_POINTS - 1
    best, first = np.empty(n, dtype=int), np.empty(n)
    lo, hi = np.empty(n), np.empty(n)
    row_a, row_l, row_bound, row_p_a = (x.ravel() for x in (a, l, bound, p_a))
    for rows in _chunks(np.full(n, _GAP_SCAN_POINTS)):
        grid = np.linspace(0.0, row_bound[rows], _GAP_SCAN_POINTS, axis=-1)
        values = _gap_concurrence(row_p_a[rows, None], row_a[rows, None], grid,
                                  row_l[rows, None], coupling)
        k = np.argmax(values, axis=-1)
        r = np.arange(k.size)
        best[rows], first[rows] = k, values[:, 0]
        lo[rows] = grid[r, np.maximum(k - 1, 0)]
        hi[rows] = grid[r, np.minimum(k + 1, last)]
    best = best.reshape(a.shape)
    # a boundary maximum sits at lo = hi = 0, where the golden section
    # leaves it alone
    boundary = best == 0
    lo = np.where(boundary, 0.0, lo.reshape(a.shape))
    hi = np.where(boundary, 0.0, hi.reshape(a.shape))
    value = np.where(boundary, first.reshape(a.shape), 0.0)
    note = _blank(a.shape)
    note[best == last] = "maximum at the scan bound; enlarge gap_bound to be sure"
    note[boundary] = "boundary maximum at zero gap difference"
    iterations = np.zeros(a.shape, dtype=int)
    interior = hi > lo
    if interior.any():
        lo, hi, iterations = _golden(
            lambda d: _gap_concurrence(p_a, a, d, l, coupling), lo, hi
        )
        peak = _gap_concurrence(p_a, a, 0.5 * (lo + hi), l, coupling)
        value = np.where(interior, peak, value)
    return _batch(0.5 * (lo + hi), value, lo, hi, iterations, note, _blank(a.shape))


def find_optimal_gap(
    omega_a_sigma,
    l_over_sigma,
    coupling=0.1,
    gap_bound=None,
) -> SearchResult:
    """Gap difference (units of the inverse switching duration) that
    maximizes the concurrence, over [0, gap_bound].

    A coarse scan of 256 samples locates the best one; an interior best is
    refined by golden-section to bracket width 1e-8.  A best sample at zero
    means the concurrence is decreasing from the start -- the
    small-separation regime -- and is reported as a converged boundary
    maximum.  The default bound grows with the separation, which is where
    the optimum migrates.  One problem per call;
    :func:`find_optimal_gap_many` solves arrays of them.
    """
    return _single(find_optimal_gap_many(omega_a_sigma, l_over_sigma, coupling, gap_bound))


def find_crossover_many(
    omega_a_sigma,
    delta_omega_sigma,
    coupling=0.1,
    scan_bound=None,
    scan_step=0.01,
) -> SearchBatch:
    """:func:`find_crossover` for broadcast arrays of gaps (and scan
    bounds).  ``coupling`` and ``scan_step`` are shared by all rows.

    Each row is scanned on its own grid; then all rows are refined by
    Newton steps in lockstep.  A row without a crossover carries
    ``"NoCrossover"`` in ``error``.
    """
    if np.any(np.asarray(delta_omega_sigma) <= 0):
        raise ValueError("delta_omega_sigma must be > 0 to compare against identical")
    a, d, bound = _separation_problems(
        omega_a_sigma, delta_omega_sigma, coupling, scan_bound, scan_step
    )
    # both pairs' sqrt(P_A P_B) and sqrt(P~_A P~_B) along a leading axis of
    # two (leading, so that numpy's inner loops run along the points); the
    # pairs' scales E differ by the ratio exp(-d(2a + d)/2)
    ds = np.stack([d, np.zeros(d.shape)])
    gms, scaled_gms, brackets = _geometric_means(a, ds, coupling)
    ratio = np.exp(-d * (2.0 * a + d) / 2.0)
    row_d, row_ratio, row_bound = (x.ravel() for x in (d, ratio, bound))
    row_gms, row_ds = scaled_gms.reshape(2, -1), ds.reshape(2, -1)

    def positive(rows, l):
        unequal, equal = _x_abs(row_ds[:, rows, None], l, coupling) - row_gms[:, rows, None]
        return _lead(unequal, equal, row_ratio[rows, None], equal > 0.0) > 0.0

    # the walk starts at the first point where the identical pair is not
    # certified ahead; at a point the envelope certifies the non-identical
    # concurrence is 0, so the difference cannot turn positive there: the
    # walk ends at the last point that is not certified, or at the first
    # sign change
    grid = _grids(row_bound, scan_step, upward=True)
    floor = _floors(*grid, row_gms, row_ratio, row_d, coupling)
    k, at, below = _separation_scan(grid, row_gms[0], row_d, coupling, positive, upward=True,
                                    floor=floor)
    k = k.reshape(a.shape)
    error = _blank(a.shape)
    error[k < 0] = NoCrossover.__name__
    # a failed row sits at lo = hi, where the refinement leaves it alone
    lo = np.where(k < 0, scan_step, below.reshape(a.shape))  # g(lo) <= 0 < g(hi)
    hi = np.where(k < 0, scan_step, at.reshape(a.shape))

    def g(l):
        x_abs, slope = _x_abs_slope(ds, l, coupling)
        (unequal, equal), (slope_u, slope_i) = x_abs - scaled_gms, slope
        harvests = equal > 0.0
        return _lead(unequal, equal, ratio, harvests), _lead(slope_u, slope_i, ratio, harvests)

    lo, hi, iterations = _refine(g, lo, hi, positive_at_lo=False)
    loc = 0.5 * (lo + hi)
    unequal, equal = _clamp(_x_excess(a, ds, loc, coupling, gms, brackets)[1])
    note = np.where((unequal > 0.0) & (equal > 0.0), "",
                    "identical-pair concurrence already zero here").astype(object)
    return _batch(loc, unequal - equal, lo, hi, iterations, note, error)


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
    then safeguarded Newton steps to a certified bracket of at most 8 ulps
    (``iterations`` counts the steps).

    If the identical pair's concurrence has already died at the located
    point, the result is flagged: it is then the point where only the
    non-identical pair still harvests, not a crossing of two positive
    curves.  The scan ends at the first sign change, or at the last grid
    point the envelope of |X|/E does not certify non-harvesting for the
    non-identical pair: above it that pair's concurrence is exactly zero,
    so the difference cannot turn positive.  It starts at the first grid
    point where a lower bound on the identical pair's |X|/E (through
    Dawson's integral, no Faddeeva evaluation) no longer certifies that
    pair ahead of the non-identical pair's envelope; from there a
    positive first point is a sign change, while a walk from the grid's
    start begins as if after a positive point, so its first point cannot
    turn.  Neither cut changes the answer, which is that of the full scan
    bit for bit.  Both pairs are compared through their scaled excesses,
    as :func:`find_lmax` follows one, and the ratio of their scales;
    ``value`` is the difference of their ``concurrence_values``.  Raises
    :exc:`NoCrossover` when the difference never turns positive on the
    grid.  One problem per call; :func:`find_crossover_many` solves arrays
    of them.
    """
    batch = find_crossover_many(omega_a_sigma, delta_omega_sigma, coupling, scan_bound, scan_step)
    if batch.error[()] == NoCrossover.__name__:
        if scan_bound is None:
            scan_bound = float(_default_scan_bound(omega_a_sigma, delta_omega_sigma))
        raise NoCrossover(
            "non-identical concurrence never exceeds identical below "
            f"separation {scan_bound}"
        )
    return _single(batch)


SWEEPABLE_AXES = ("l_over_sigma", "delta_omega_sigma", "omega_a_sigma")


@dataclass
class SweepGrid:
    """One swept axis with the fixed remainder of the scenario and the
    closed-form values along it: ``concurrence``, ``x``, ``p_a`` and ``p_b``
    per point, NaN where the point failed, with the reason in ``errors``
    ("" where it did not).  Axis values must be strictly monotone (either
    direction, so that reversed sweeps are representable)."""

    axis_name: str
    axis_values: np.ndarray
    fixed_params: DetectorPairConfig
    concurrence: np.ndarray
    x: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        self.axis_values = np.asarray(self.axis_values, dtype=float)
        steps = np.diff(self.axis_values)
        if self.axis_values.size > 1 and not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError("axis_values must be strictly monotone")
        fields = (self.concurrence, self.x, self.p_a, self.p_b, self.errors)
        if any(np.shape(f) != self.axis_values.shape for f in fields):
            raise ValueError("value/error arrays must match axis_values in shape")

    def concurrences(self) -> np.ndarray:
        """Concurrence per point, NaN where the point failed."""
        return self.concurrence


def sweep(
    axis_name: str,
    axis_values,
    fixed_params: DetectorPairConfig,
) -> SweepGrid:
    """Evaluate the closed-form pipeline along one scenario axis, one array
    call over the admitted points, in the order of ``axis_values``."""
    if axis_name not in SWEEPABLE_AXES:
        raise ValueError(f"axis_name must be one of {SWEEPABLE_AXES}, got {axis_name!r}")
    axis_values = np.asarray(axis_values, dtype=float)
    a, d, l = np.broadcast_arrays(*(
        axis_values if name == axis_name else getattr(fixed_params, name)
        for name in ("omega_a_sigma", "delta_omega_sigma", "l_over_sigma")))
    errors = _domain_errors(a, d, l, fixed_params.coupling)
    ok = errors == ""
    p_a, p_b, conc = (np.full(axis_values.shape, np.nan) for _ in range(3))
    x = np.full(axis_values.shape, complex(np.nan, np.nan))
    p_a[ok], p_b[ok], x[ok], excess = _ingredients(a[ok], d[ok], l[ok], fixed_params.coupling)
    conc[ok] = _clamp(excess)
    return SweepGrid(axis_name, axis_values, fixed_params, conc, x, p_a, p_b, errors)
