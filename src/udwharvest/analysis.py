"""Search and sweep layer over the closed forms.

Three searches cover the quantities the closed forms do not give directly:

* :func:`find_lmax` -- the largest separation at which harvesting still
  occurs.  The harvesting boundary is a root of |X| - sqrt(P_A P_B), which
  can have several roots when the correlation amplitude oscillates with
  separation, so the scan walks downward from the end of its grid and
  refines the first (i.e. largest) sign change.

* :func:`find_optimal_gap` -- the gap difference maximizing the
  concurrence at fixed smaller gap and separation.  A boundary maximum at
  zero difference is a legitimate answer (small separations are monotone),
  not an error.

* :func:`find_crossover` -- the smallest separation beyond which
  non-identical detectors harvest more than identical ones.

The two separation searches decide every row by the scaled excess S =
|X|/E - sqrt(P~_A P~_B), E = exp(-(a^2 + b^2)/2), whose terms stay of
order one where P_A P_B and |X| underflow and which keeps the sign change
of the excess there (:func:`~udwharvest.closedform._ingredients`); |X|/E
depends on the gap difference and the separation alone.  S scales by the
coupling's square, so the searches decide at unit coupling: only
``value`` depends on the coupling.  The scans build no grid and evaluate
only the points their answer depends on.  Point i of a row's grid is
step + i*step, np.arange's own arithmetic, with its bits.  A closed-form
envelope of |X|/E, non-increasing in the separation and costing no
Faddeeva evaluation, certifies a point non-harvesting wherever it lies
below sqrt(P~_A P~_B) by a relative margin of 1e-6, and with it every
larger separation.  A row's grid ends at its first certified point, its
cut, which a lockstep search finds below a closed-form separation past
which the envelope certifies every point (:func:`_cuts`), at most about
2.3 times the cut for gaps up to 40 and 35.  The envelope bounds the
Faddeeva term to third order in 1/|z|
(:func:`~udwharvest.closedform._scaled_x_envelope`), which puts the cut a
few grid points above the root at large separations.  Past
scan_step*2^52 the points stop being distinct doubles, so a row whose grid
is certified nowhere below it fails with ValueError.
:func:`find_lmax` starts its downward walk below the cut, and
:func:`find_crossover` ends its upward walk there, because from it on the
non-identical concurrence is exactly zero and the difference cannot turn
positive.  :func:`find_crossover` also has a lower cut, the mirror of the
upper one (:func:`_floors`): below it the identical pair is certified
ahead, from a lower bound on its |X|/E through Dawson's integral F,
F(x) > x/(1 + 2x^2) for x > 0, that costs no Faddeeva evaluation either
(:func:`~udwharvest.closedform._scaled_x_floor`), against the non-identical
pair's envelope at the grid's first point.  Its walk starts there, and
at large gaps, where the crossover lies near the identical pair's lmax,
about 2a, it walks one block instead of thousands of points.  Every walk
starts as if after a non-positive point, so its first positive point is
its answer; a crossover row positive at the grid's first point has the
non-identical pair ahead from the first scanned separation, and returns
that point, in the bracket (0, point], with a note.  The rest is walked
in blocks, each twice the one before, up to the first block that holds
the answer.  A walk that starts next to a
cut, down from the upper one or up from a lower one above the grid's
first point, starts with a block of 32 points, within which nearly every
turn lies; a walk from the grid's first point starts with 256.  Rows
walked together take 256 // rows points each instead where that is fewer
(at least one), so that the first call over many rows holds about 256 in
all.  A closed-form call gives the same bits for a point whatever the
shape of the call, so every answer, bracket and raised error is bit for
bit that of evaluating the whole grid.  A crossover row compares the two
pairs' scaled excesses through the ratio of their scales, exp(-d(2a +
d)/2), in a form whose sign does not rest on that ratio where it
underflows (:func:`_lead`).

The sign change a separation scan finds is refined by safeguarded Newton
steps (:func:`_refine`), whose slope costs no further Faddeeva evaluation
(:func:`~udwharvest.closedform._x_abs_slope`), to a bracket of at most 8
ulps that the closed forms certify as a sign change: about 5 steps where
bisection to floating-point resolution would take about 46, and never
more than bisection's count to 8 ulps plus 9.  The roots are those of
bisection to within a few ulps, except where the function rounds to
exactly zero over a stretch, either end of which is a sign change.  The
gap search's golden section (:func:`_golden`) runs in a loop of that shape.

Each search has a batched form, :func:`find_lmax_many`,
:func:`find_optimal_gap_many` and :func:`find_crossover_many`, which takes
broadcast arrays of problems and returns a :class:`SearchBatch` of arrays
of their shape.  Every row is scanned on its own grid, and no scan call
holds more than 8 k points, or one per row where more rows share it, so
memory stays that of one such call.  A gap scan's grid of 256 gap
differences depends on the row's gap bound alone, so the excess on it
splits into a separation half, X's bracket with its one Faddeeva
evaluation, which depends on the row's (separation, bound), and a gap
half, P_A, P_B and X's Gaussian prefactor with their erfcx, which depends
on its (smaller gap, bound) (:func:`~udwharvest.closedform._gap_half`,
:func:`~udwharvest.closedform._separation_half`).  The gap scans visit
the rows in (separation, bound) order, in blocks of at most 32 keys of
either kind: a block evaluates each half once per key, each in one call
of at most 8 k points, and assembles its rows' excesses 32 rows, 8 k
points, per call (:func:`~udwharvest.closedform._ingredients`).  A batch
of one row is one block, without sorting.  The separation
scans search the cuts of all rows in one envelope call per step, then
walk all rows in one lockstep: a round is one closed-form call over the
rows that have not found their answer yet, each row walking its own next
block, and the blocks double while the call stays within the cap.  Then
all rows are refined in lockstep, a gap search's interior rows alone: one
closed-form array call per Newton or golden-section step (two for a
crossover's Newton step, one per pair) over every row until the last
finishes, each finished row's bracket frozen in place.  A row where the
one-problem search would raise
carries NaN and the exception's class name in ``error``, so one failing
problem cannot abort a grid; gaps, a separation or a coupling outside the
scenario domain raise ValueError, for the whole batch.  The one-problem
functions run the same core on 0-d inputs, as batches of one row, and
raise as before.  Their gaps are numpy scalars from the start, so the
refinement, each of its closed-form calls and the final value run on
numpy scalars, which keep the bits of 0-d arrays at a fraction of their
cost (:mod:`~udwharvest.closedform`'s rule for 0-d values); the cut
search and the walk run on one-row arrays.  They keep returning a
:class:`SearchResult` of Python numbers, because callers (the
benchmark's tracer among them) read its fields as scalars, so arrays get
their own names.

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
    _SCALED_BELOW,
    _SQRT_PI,
    _ZW_BOUND,
    DetectorPairConfig,
    _clamp,
    _domain_errors,
    _gap_half,
    _halves,
    _ingredients,
    _over_scale,
    _probability_bracket,
    _scaled_gm,
    _scaled_x_envelope,
    _scaled_x_floor,
    _separation_half,
    _where,
    _x_abs,
    _x_abs_slope,
    _x_bracket,
    _x_scale,
    transition_probability,
)

__all__ = [
    "NoHarvestingRegion",
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

# Points of the longest separation grid: past scan_step*2^52 the points
# scan_step + i*scan_step stop being distinct doubles.
_GRID_POINTS = 2**52

# Points of one call of a lockstep search over rows: a separation scan's
# first block is at most _SCAN_BLOCK // rows points of each row that walks
# (at least one), and each later block is twice the one before, so a scan
# that stops early evaluates little past its answer and one that runs to
# the end costs a few calls more than one call; a search for the cuts
# probes as many points per step (:func:`_edges`).
_SCAN_BLOCK = 256

# Points of the first block of a walk that starts next to a cut, where
# nearly every turn lies within a few points of its start: down from the
# upper cut (:func:`_cuts`) or up from a lower cut above the grid's first
# point (:func:`_floors`).  A walk from the grid's first point starts with
# _SCAN_BLOCK points.
_CUT_BLOCK = 32

# Points of one scan call, each row padded to the longest: it bounds the
# memory of a call.  A gap scan block takes _SCAN_CHUNK // _GAP_SCAN_POINTS
# keys of either kind, and each of its assembly calls as many rows (at
# least one); a separation scan's blocks stop doubling where a
# call over the rows still walking would hold more, or hold one point per
# row where more rows walk.
_SCAN_CHUNK = 8192

# Why a separation search fails on a row whose grid the envelope certifies
# nowhere (:func:`_cuts`): a one-problem search raises ValueError with it, a
# batch gives the row the error name ValueError
_UNCERTIFIED = ("the envelope certifies no separation below scan_step*2^52, and past it the "
                "grid points stop being distinct doubles")

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
    """No separation on the scan grid yields positive concurrence."""


class BracketingFailure(RuntimeError):
    """Raised by no search: every separation grid ends at a certified cut.
    It stays because the benchmark's search checks look it up here by name."""


class NoCrossover(RuntimeError):
    """Non-identical detectors never harvest more on the scanned range."""


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a one-dimensional search.

    ``location`` lies inside ``bracket``; ``iterations`` counts the
    refinement's steps.  ``note`` is "" or one of four strings:

    * "boundary maximum at zero gap difference" (:func:`find_optimal_gap`):
      the best scanned sample is d = 0, returned in the bracket (0, 0);
    * "maximum at the scan bound; enlarge gap_bound to be sure" (the same):
      the best sample is the last, at ``gap_bound``; the peak may lie above;
    * "non-identical pair ahead from the first scanned separation"
      (:func:`find_crossover`): the difference is already positive at the
      grid's first point l_1, returned in the bracket (0, l_1];
    * "identical-pair concurrence already zero here" (the same): the
      identical pair no longer harvests at the bracket's upper end.
    """

    location: float
    value: float
    bracket: tuple[float, float]
    iterations: int
    note: str = ""


@dataclass(frozen=True)
class SearchBatch:
    """Row-wise outcomes of a batched search: arrays of the broadcast
    problem shape (``bracket`` has a trailing axis of two).

    A row where the one-problem search would raise carries the
    exception's class name in ``error``, NaN ``location``, ``value`` and
    ``bracket``, zero ``iterations`` and an empty ``note``; every other row
    has an empty ``error`` and the fields of :class:`SearchResult`.
    """

    location: np.ndarray
    value: np.ndarray
    bracket: np.ndarray
    iterations: np.ndarray
    note: np.ndarray
    error: np.ndarray


def _check_domain(a, d, l, coupling):
    """Raise ValueError with the message of the first row outside the
    domain :class:`DetectorPairConfig` admits."""
    bad = [e for e in _domain_errors(a, d, l, coupling) if e]
    if bad:
        raise ValueError(bad[0])


def _separation_problems(omega_a_sigma, delta_omega_sigma, coupling, scan_step):
    """Broadcast (a, d), numpy scalars for one problem."""
    a, d = np.broadcast_arrays(
        np.asarray(omega_a_sigma, dtype=float), np.asarray(delta_omega_sigma, dtype=float)
    )
    _check_domain(a, d, 1.0, coupling)  # the scanned separation is not checked
    if not 0.0 < scan_step * _GRID_POINTS < np.inf:
        raise ValueError("need scan_step > 0 with scan_step*2^52 finite")
    return a[()], d[()]


def _normal(gm):
    """Where gm is finite and gm^2 = P~_A P~_B a normal double, as a
    relative margin needs: at unit coupling, for gaps below about 1e76."""
    return np.isfinite(gm) & (gm >= _SCALED_BELOW)


def _edges(lo, hi, hit, guess=None):
    """Each row's first grid index in [lo, hi) that ``hit(rows, i)`` marks
    (rows an index array, one row of grid indices i per row), hi where
    there is none; along each row's grid hit must be False, then True.
    Each step of the lockstep search is one call of hit at ``probes``
    indices of every row, splitting its bracket evenly: one, a bisection,
    for ``_SCAN_BLOCK`` rows or more, else about ``_SCAN_BLOCK`` points per
    call, which takes a one-problem search to its edge in two or three calls
    where bisection takes ten.  ``guess(rows)``, where given, places the
    first call's probes instead: grid indices as floats, increasing along
    each row, clipped into its bracket."""
    probes = max(1, _SCAN_BLOCK // max(lo.size, 1))
    split = np.arange(1, probes + 1)
    while (live := np.flatnonzero(lo < hi)).size:
        low, high = lo[live, None], hi[live, None]
        if guess is None:
            probe = low + (high - low) * split // (probes + 1)
        else:
            probe, guess = np.clip(guess(live), low, high - 1).astype(np.int64), None
        # narrow to each row's first probe that hit marks (else hi) and the one before
        hits = np.concatenate([hit(live, probe), np.ones(low.shape, dtype=bool)], axis=1)
        first, at = np.argmax(hits, axis=1), np.arange(live.size)
        ends = np.concatenate([low - 1, probe, high], axis=1)
        lo[live], hi[live] = ends[at, first] + 1, ends[at, first + 1]
    return lo


def _cut_bound(d, gm):
    """A separation l* past which the envelope certifies every point of a
    row whose gm is normal (:func:`_cuts`): U(l) (1 + m) < gm for the
    envelope U and the margin m.  With M = ``_ZW_BOUND``,

        4 sqrt(pi) U(l) = (W + exp((d^2 - l^2)/4))/l,  W <= 2 M/rho <= 2 M/l

    (:func:`~udwharvest.closedform._scaled_x_envelope`).  Let t = 4
    sqrt(pi) gm/(1 + m) (1 - 1e-3), whose slack covers the roundings.
    Where l^2 >= max(4 M/t, d^2 + 4 ln(2/t)), each term is at most t/2, so
    U(l) (1 + m) < gm; the second term's bound needs l >= 1, which holds
    there: gm <= 1/(4 pi) at unit coupling, so 4 M/t > 5.  At large gaps,
    where 4 M/t leads, l* is about sqrt(M sqrt(pi)) = 1.15 times the cut."""
    t = 4.0 * _SQRT_PI * (1.0 - 1e-3) / (1.0 + _ENVELOPE_MARGIN) * gm
    return np.sqrt(np.maximum(4.0 * _ZW_BOUND / t, d * d - 4.0 * np.log(0.5 * t)))


def _cuts(step, gm, d):
    """Each row's first grid index whose point the envelope certifies: the
    end of the row's grid.  The scaled envelope of |X|/E, widened by the
    margin that covers the kernel's and the roundings' relative error,
    certifies the scaled excess |X|/E - gm, gm = sqrt(P~_A P~_B),
    non-positive where it lies below gm, and every larger separation with
    it: it does not increase in l.  Where gm is normal, :func:`_edges`
    finds the cut below the index of :func:`_cut_bound`'s separation, or
    below ``_GRID_POINTS`` where that is less: on one problem in one call
    for an index below 257, and in two below 257^2.  A row whose grid of
    2^52 points is certified nowhere gets the index 2^52: the searches give
    it ValueError (``_UNCERTIFIED``)."""

    def hit(rows, i):
        envelope = _scaled_x_envelope(d[rows, None], step + i * step)
        return envelope * (1.0 + _ENVELOPE_MARGIN) < gm[rows, None]

    if gm.size == 1:
        # one problem: the set-up on numpy scalars, on which ufuncs cost a
        # fraction of their calls on one-element arrays
        lo, hi = np.full(1, _GRID_POINTS), np.full(1, _GRID_POINTS)
        if _normal(gm[0]):
            with np.errstate(over="ignore"):  # the index may overflow
                lo[0], hi[0] = 0, min(_cut_bound(d[0], gm[0]) / step + 1.0, _GRID_POINTS)
    else:
        usable = _normal(gm)
        # an unusable row's gm may be 0 or NaN; the index may overflow or pass 2^63
        with np.errstate(all="ignore"):
            end = np.minimum(_cut_bound(d, gm) / step + 1.0, _GRID_POINTS)
        lo = np.where(usable, 0, _GRID_POINTS)
        hi = np.where(usable, end, _GRID_POINTS).astype(np.int64)
    return _edges(lo, hi, hit)


def _floors(step, cut, gms, ratio, d):
    """Each crossover row's lower cut on its grid: the first index below
    its ``cut`` whose point is not certified to have the identical pair
    ahead, 0 where the first is not.  A point is certified where

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
    finds for the rows certified at their first point.  L = 1/(2 pi (2 +
    l^2)) meets the right side where l^2 = (1 - m)/(2 pi (gm_e + right
    side)) - 2, so the search's first call probes the points around there,
    where the prefix ends but for rounding."""
    gm_u, gm_e = gms
    ceiling = _scaled_x_envelope(d, step) * (1.0 + _ENVELOPE_MARGIN)
    ceiling = ratio * np.maximum(0.0, ceiling - gm_u)

    def lead(l, gm_e, ceiling):
        return _scaled_x_floor(l) * (1.0 - _ENVELOPE_MARGIN) - gm_e > ceiling

    def around(rows):
        meet = (1.0 - _ENVELOPE_MARGIN) / (2.0 * np.pi * (gm_e[rows] + ceiling[rows])) - 2.0
        return np.ceil(np.sqrt(np.maximum(meet, 0.0)) / step)[:, None] + np.arange(-3.0, 1.0)

    # point 0 (l = step) of a usable row is certified: its search starts at
    # point 1
    usable = _normal(gm_u) & _normal(gm_e) & lead(step, gm_e, ceiling)
    return _edges(usable.astype(int), np.where(usable, cut, 0), lambda rows, i: ~lead(
        step + i * step, gm_e[rows, None], ceiling[rows, None]), around)


def _separation_scan(step, first, last, positive):
    """Each row's turn: the index of the first positive point of its walk
    over its separation grid from index ``first`` toward ``last``, which it
    does not reach, -1 where there is none; 1-D index arrays, either
    direction.

    ``positive(rows, l)`` is the sign test of the rows (an index array) at
    separations l, one row of l per row.  A walk starts as if after a
    non-positive point, so its turn is the first sign change, or the walk's
    first point.  All rows with a walk run in one lockstep of rounds: a
    round is one call over the next block of every row without a turn so
    far, a shorter walk padded with its last point.  The first block is
    ``_SCAN_BLOCK`` points where a row walks from the grid's first point,
    and ``_CUT_BLOCK`` where each walks from next to a cut, or
    ``_SCAN_BLOCK // rows`` points (at least one) where that is fewer, so
    that the first round's call holds at most about ``_SCAN_BLOCK`` points,
    as a step of :func:`_edges` does.  Each later block is twice the one
    before, capped so that a call holds at most ``_SCAN_CHUNK`` points, or
    one per row where more rows still walk; rows only leave, so the blocks
    never shrink."""
    sign, length = np.sign(last - first), np.abs(last - first)
    stop = length - 1
    # a row leaves at its first positive point or at its end
    k = np.full(first.shape, -1)
    rows = np.flatnonzero(length > 0)
    offset, size = 0, max(1, _SCAN_BLOCK // max(rows.size, 1))
    if size > _CUT_BLOCK and not (first[rows] == 0).any():
        size = _CUT_BLOCK
    while rows.size:
        walked = np.minimum(offset + np.arange(min(size, np.max(length[rows]) - offset)),
                            stop[rows, None])
        idx = first[rows, None] + sign[rows, None] * walked
        pos = positive(rows, step + idx * step)
        turned = pos.any(axis=1)
        k[rows[turned]] = idx[turned, np.argmax(pos[turned], axis=1)]
        rows = rows[~turned & (offset + size < length[rows])]
        offset, size = offset + size, max(1, min(2 * size, _SCAN_CHUNK // max(rows.size, 1)))
    return k


def _clip(x, low, high):
    """np.minimum(np.maximum(x, low), high), and for a numpy scalar x the
    same value through Python's max and min, which cost a fraction of a
    ufunc call on it; a NaN x stays NaN either way."""
    if isinstance(x, np.generic):
        return min(max(x, low), high)
    return np.minimum(np.maximum(x, low), high)


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
    return _where(harvests, ratio * unequal - equal, unequal)


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
    A row with lo = hi is left alone.  f runs outside any ``np.errstate``:
    the Newton step divides by NaN, not by a zero slope, and the row
    bisects.  On 0-d inputs the loop runs on numpy scalars, selecting
    through :func:`~udwharvest.closedform._where` and :func:`_clip`, and
    calls f on them; f is to keep them scalars, as the closed forms do,
    whose arithmetic has the bits of 0-d arrays' without their machinery."""
    lo, hi = np.asarray(lo)[()], np.asarray(hi)[()]
    eps = 4.0 * np.spacing(lo)
    two_eps = 2.0 * eps
    n = np.ceil(np.log2(np.maximum((hi - lo) / two_eps, 1.0))) + _NEWTON_SLACK
    # 2^(n - k) eps after k steps, halved at each: eps is a power of two,
    # so every halving is exact
    cap = eps * 2.0**n
    x = 0.5 * (lo + hi)
    live = hi - lo > two_eps
    iterations = np.zeros(np.shape(lo), dtype=int)[()]
    reach = eps
    while np.count_nonzero(live):
        iterations += live
        value, slope = f(x)
        to_lo = live & ((value > 0.0) == positive_at_lo)
        lo = _where(to_lo, x, lo)
        hi = _where(live ^ to_lo, x, hi)
        width = hi - lo
        live &= width > two_eps
        newton = x - value / _where(slope == 0.0, np.nan, slope)
        mid = 0.5 * (lo + hi)
        reach = _where(value == 0.0, 2.0 * reach, eps)
        near = (lo - reach < newton) & (newton < hi + reach) & (width > 2.0 * reach)
        guess = _where(near, _clip(newton, lo + reach, hi - reach), mid)
        cap = 0.5 * cap
        r = cap - 0.5 * width
        # a finished row's x no longer moves its bracket
        x = _clip(guess, mid - r, mid + r)
    return lo, hi, iterations


def _golden(c, lo, hi):
    """Golden-section maximization of ``c(d)`` on every row's [lo, hi] down
    to width 1e-8: two calls of c at entry, then one per step but the last,
    each over every row.  A row narrower than 1e-8, from the start or from
    a step on, keeps its bracket and its count of steps.  The loop is
    :func:`_refine`'s, on numpy scalars for 0-d inputs as there."""
    lo, hi = np.asarray(lo)[()], np.asarray(hi)[()]
    live = hi - lo > 1e-8
    iterations = np.zeros(np.shape(lo), dtype=int)[()]
    inner = _GOLDEN * (hi - lo)
    u, v = hi - inner, lo + inner
    fu, fv = c(u), c(v)
    while True:
        iterations += live
        left = fu > fv  # the maximum lies below v
        to_hi = live & left
        lo = _where(live ^ to_hi, u, lo)
        hi = _where(to_hi, v, hi)
        # a finished row's bracket stays narrower than 1e-8
        width = hi - lo
        live = width > 1e-8
        if not np.count_nonzero(live):
            return lo, hi, iterations
        inner = _GOLDEN * width
        p = _where(left, hi - inner, lo + inner)
        fp = c(p)
        u, v = _where(left, p, v), _where(left, u, p)
        fu, fv = _where(left, fp, fv), _where(left, fu, fp)


def _blank(shape):
    return np.full(shape, "", dtype=object)


def _batch(location, value, lo, hi, iterations, note, error):
    """Assemble a :class:`SearchBatch`, blanking the rows with an error."""
    failed = error != ""
    location, value, iterations, note = (np.array(x) for x in (location, value, iterations, note))
    bracket = np.stack([lo, hi], axis=-1)
    if failed.any():
        location[failed] = value[failed] = bracket[failed] = np.nan
        iterations[failed], note[failed] = 0, ""
    return SearchBatch(location, value, bracket, iterations, note, error)


def _single(batch):
    """The one row of a 0-d batch as a :class:`SearchResult` of Python
    scalars."""
    return SearchResult(
        location=float(batch.location),
        value=float(batch.value),
        bracket=(float(batch.bracket[0]), float(batch.bracket[1])),
        iterations=int(batch.iterations),
        note=batch.note[()],
    )


def find_lmax_many(
    omega_a_sigma,
    delta_omega_sigma,
    coupling=0.1,
    scan_step=0.01,
) -> SearchBatch:
    """:func:`find_lmax` for broadcast arrays of gaps.  ``coupling`` and
    ``scan_step`` are shared by all rows.

    Each row is scanned on its own grid; then all rows are refined by
    Newton steps in lockstep.  A row where :func:`find_lmax` would raise
    carries the exception's class name in ``error``.
    """
    a, d = _separation_problems(omega_a_sigma, delta_omega_sigma, coupling, scan_step)
    # every row is scanned and refined in scaled form at unit coupling:
    # |X|/E against sqrt(P~_A P~_B), E = exp(-(a^2 + b^2)/2); the gaps'
    # brackets serve the value too
    brackets = tuple(_probability_bracket(np.array([a, a + d])))
    scaled_gm = _scaled_gm(a, d, 1.0, brackets)
    row_d, row_gm = d.ravel(), scaled_gm.ravel()

    def positive(rows, l):
        return _x_abs(row_d[rows, None], l) - row_gm[rows, None] > 0.0

    # the walk runs down from below the grid's end, its first certified point,
    # to the first positive point
    cut = _cuts(scan_step, row_gm, row_d)
    # a row certified nowhere walks nothing
    uncertified = cut == _GRID_POINTS
    none = np.full(cut.shape, -1)
    k = _separation_scan(scan_step, np.where(uncertified, none, cut - 1), none,
                         positive).reshape(a.shape)
    ok = k >= 0
    error = _blank(a.shape)
    error[~ok] = NoHarvestingRegion.__name__
    error[uncertified.reshape(a.shape)] = ValueError.__name__
    # a failed row sits at lo = hi = 1, where every closed form is finite
    # whatever the scan step, and the refinement leaves it alone; f(lo) > 0
    # >= f(hi) on every other row
    lo = np.where(ok, scan_step + k * scan_step, 1.0)
    hi = np.where(ok, scan_step + (k + 1) * scan_step, lo)

    def f(l):
        x_abs, slope = _x_abs_slope(d, l)
        return x_abs - scaled_gm, slope

    lo, hi, iterations = _refine(f, lo, hi, positive_at_lo=True)
    loc = 0.5 * (lo + hi)
    return _batch(loc, _ingredients(*_halves(a, d, loc, coupling, brackets=brackets))[3], lo, hi,
                  iterations, _blank(a.shape), error)


def find_lmax(
    omega_a_sigma,
    delta_omega_sigma,
    coupling=0.1,
    scan_step=0.01,
) -> SearchResult:
    """Largest separation (units of the switching length) with nonzero
    concurrence, located as the largest root of |X| - sqrt(P_A P_B) on the
    grid of points ``scan_step`` apart.

    The grid ends where an envelope of |X|/E certifies every larger
    separation non-harvesting.  The scan walks downward from the grid's
    end in steps of ``scan_step`` and refines the first bracket whose
    smaller-separation side still harvests, by safeguarded Newton steps to
    a certified bracket of at most 8 ulps (``iterations`` counts the
    steps); downward scanning is what makes the *largest* root the one
    found when the boundary oscillates.  The scan, certificate and
    refinement follow the scaled excess |X|/E - sqrt(P_A P_B)/E, E =
    exp(-(a^2 + b^2)/2), at unit coupling: it keeps its sign change where
    P_A P_B and |X| underflow, and the excess scales by the coupling's
    square, so only ``value``, ``correlation_excess`` at the location,
    depends on the coupling.  The answer is bit for bit that of evaluating
    every grid point.  One problem per call; :func:`find_lmax_many` solves
    arrays of them.

    Raises :exc:`NoHarvestingRegion` if no grid point harvests.
    """
    batch = find_lmax_many(omega_a_sigma, delta_omega_sigma, coupling, scan_step)
    if batch.error[()] == ValueError.__name__:
        raise ValueError(_UNCERTIFIED)
    if batch.error[()] == NoHarvestingRegion.__name__:
        raise NoHarvestingRegion("no positive concurrence on the scan grid nor past its end, "
                                 "where the envelope certifies none")
    return _single(batch)


def _gap_scan_blocks(row_a, row_l, row_bound, keys):
    """The gap scans' blocks: runs of the rows in (l, bound) order, each up
    to its (keys + 1)-th distinct (l, bound) or (a, bound) key.  Yields per
    block (rows, seps, sep_of, gaps, gap_of): its rows, the positions in
    the block of each separation key's first row and each row's key among
    them, and the same for the gap keys, both numbered in order of first
    appearance.  One row is its own block, and is not sorted; no row makes
    no block."""
    n = row_a.size
    if n <= 1:
        if n:
            zero = np.zeros(1, dtype=int)
            yield zero, zero, zero, zero, zero
        return
    order = np.lexsort((row_bound, row_l))
    a, l, bound = row_a[order], row_l[order], row_bound[order]
    sep = np.cumsum(np.concatenate([[True], (l[1:] != l[:-1]) | (bound[1:] != bound[:-1])])) - 1
    # each row's gap key, and the position of the key's previous row (-1
    # for its first); the sort is stable, so a key's rows keep their order
    by = np.lexsort((bound, a))
    same = (a[by[1:]] == a[by[:-1]]) & (bound[by[1:]] == bound[by[:-1]])
    gap = np.empty(n, dtype=int)
    gap[by] = np.cumsum(np.concatenate([[True], ~same])) - 1
    previous = np.full(n, -1)
    previous[by[1:][same]] = by[:-1][same]
    number = np.empty(gap[by[-1]] + 1, dtype=int)  # a gap key's number in its block
    start = 0
    while start < n:
        # the block ends before its (keys + 1)-th separation key, the keys
        # being runs in this order, and before its (keys + 1)-th gap key: a
        # row whose key's previous row lies before the block
        stop = np.searchsorted(sep, sep[start] + keys)
        stop = start + np.searchsorted(np.cumsum(previous[start:stop] < start), keys, "right")
        block = slice(start, stop)
        sep_of = sep[block] - sep[start]
        new = previous[block] < start
        number[gap[block][new]] = np.arange(np.count_nonzero(new))
        yield (order[block], np.flatnonzero(np.diff(sep_of, prepend=-1)), sep_of,
               np.flatnonzero(new), number[gap[block]])
        start = stop


def _take(half, at):
    """The rows ``at`` (an index array or a slice) of each field of a half
    of the excess."""
    return tuple(None if f is None else f[at] for f in half)


def find_optimal_gap_many(
    omega_a_sigma,
    l_over_sigma,
    coupling=0.1,
    gap_bound=None,
) -> SearchBatch:
    """:func:`find_optimal_gap` for broadcast arrays of smaller gaps and
    separations (and gap bounds).  ``coupling`` is shared by all rows.

    Each row is scanned on its own grid of 256 samples over [0, bound].
    The rows are visited in (separation, bound) order, in blocks of at most
    32 (separation, bound) keys and 32 (smaller gap, bound) keys
    (:func:`_gap_scan_blocks`): a block evaluates the excess's separation
    half, with X's Faddeeva evaluation, once per (separation, bound) and its
    gap half, with P_B's erfcx, once per (smaller gap, bound), and
    assembles the rows 32 per call (8 k points).  Then the interior rows
    alone are refined by golden section in lockstep, until the last
    finishes (:func:`_golden`).  No row fails: every ``error`` is empty.
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
    # every row's scan is _GAP_SCAN_POINTS samples over [0, bound], a grid
    # that depends on the bound alone: the excess's separation half on it
    # depends on (l, bound), its gap half on (a, bound).  Each block of
    # rows evaluates either half once per key, and assembles the rows'
    # values in calls of _SCAN_CHUNK points
    n, last = a.size, _GAP_SCAN_POINTS - 1
    best, first = np.empty(n, dtype=int), np.empty(n)
    lo, hi = np.empty(n), np.empty(n)
    row_a, row_l, row_bound = (x.ravel() for x in (a, l, bound))
    per_call = max(1, _SCAN_CHUNK // _GAP_SCAN_POINTS)
    for rows, seps, sep_of, gaps, gap_of in _gap_scan_blocks(row_a, row_l, row_bound, per_call):
        grid = np.linspace(0.0, row_bound[rows[seps]], _GAP_SCAN_POINTS, axis=-1)
        # a gap key's grid is that of its first row's separation key
        gap = _gap_half(row_a[rows[gaps], None], grid[sep_of[gaps]], coupling)
        b_re, b_im, scale, _, x_over_scale = _separation_half(
            grid, row_l[rows[seps], None], coupling, scaled=gap[4] is not None)
        # the half holds |X|/E wherever the gap half needs it, so the rows
        # gather no d to form it from
        separation = b_re, b_im, scale, None, x_over_scale
        for start in range(0, rows.size, per_call):
            part = slice(start, start + per_call)
            # a block whose rows are each their own key holds its halves in
            # row order
            values = _clamp(_ingredients(
                _take(gap, part if gaps.size == rows.size else gap_of[part]),
                _take(separation, part if seps.size == rows.size else sep_of[part]))[3])
            k = np.argmax(values, axis=-1)
            at, key = rows[part], sep_of[part]
            best[at], first[at] = k, values[:, 0]
            lo[at] = grid[key, np.maximum(k - 1, 0)]
            hi[at] = grid[key, np.minimum(k + 1, last)]
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
        # P_A does not depend on the gap difference: one evaluation serves
        # every step.  The golden section takes the interior rows alone, one
        # problem's as numpy scalars
        p_a = np.asarray(transition_probability(a, coupling))
        pick = interior if a.ndim else ()
        a_in, l_in, p_a_in = a[pick], l[pick], p_a[pick]
        lo[pick], hi[pick], iterations[pick] = _golden(
            lambda d: _clamp(_ingredients(*_halves(a_in, d, l_in, coupling, p_a_in))[3]),
            lo[pick], hi[pick])
        peak = _clamp(_ingredients(*_halves(a, 0.5 * (lo + hi), l, coupling, p_a))[3])
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
    small-separation regime -- and is reported as a boundary maximum.  The
    default bound grows with the separation, which is where the optimum
    migrates.  One problem per call; :func:`find_optimal_gap_many` solves
    arrays of them.
    """
    return _single(find_optimal_gap_many(omega_a_sigma, l_over_sigma, coupling, gap_bound))


def find_crossover_many(
    omega_a_sigma,
    delta_omega_sigma,
    coupling=0.1,
    scan_step=0.01,
) -> SearchBatch:
    """:func:`find_crossover` for broadcast arrays of gaps.  ``coupling``
    and ``scan_step`` are shared by all rows.

    Each row is scanned on its own grid; then all rows are refined by
    Newton steps in lockstep.  A row without a crossover carries
    ``"NoCrossover"`` in ``error``.
    """
    if (np.asarray(delta_omega_sigma) <= 0).any():
        raise ValueError("delta_omega_sigma must be > 0 to compare against identical")
    a, d = _separation_problems(omega_a_sigma, delta_omega_sigma, coupling, scan_step)
    # both pairs' sqrt(P~_A P~_B) at unit coupling, along a leading axis of
    # two (leading, so that numpy's inner loops run along the points), from
    # one bracket per gap, which serves the values too; the pairs' scales E
    # differ by the ratio exp(-d(2a + d)/2)
    ds = np.array([d, np.zeros(d.shape)])
    bracket_a, bracket_b = _probability_bracket(np.array([a, a + d]))
    brackets = bracket_a, np.array([bracket_b, bracket_a])
    scaled_gms = _scaled_gm(a, ds, 1.0, brackets)
    ratio = np.exp(-d * (2.0 * a + d) / 2.0)
    row_d, row_ratio = d.ravel(), ratio.ravel()
    row_gms, row_ds = scaled_gms.reshape(2, -1), ds.reshape(2, -1)

    def positive(rows, l):
        unequal, equal = _x_abs(row_ds[:, rows, None], l) - row_gms[:, rows, None]
        return _lead(unequal, equal, row_ratio[rows, None], equal > 0.0) > 0.0

    # the walk runs from the first point where the identical pair is not
    # certified ahead to the grid's end, from which on the envelope
    # certifies the non-identical concurrence 0: no sign change is left
    cut = _cuts(scan_step, row_gms[0], row_d)
    # a row certified nowhere walks nothing
    uncertified = cut == _GRID_POINTS
    cut[uncertified] = 0
    floor = np.where(uncertified, 0, _floors(scan_step, cut, row_gms, row_ratio, row_d))
    k = _separation_scan(scan_step, floor, cut, positive).reshape(a.shape)
    error = _blank(a.shape)
    error[k < 0] = NoCrossover.__name__
    error[uncertified.reshape(a.shape)] = ValueError.__name__
    # a failed row sits at lo = hi = 1, where every closed form is finite
    # whatever the scan step, and one ahead from the grid's first point (k =
    # 0) at lo = hi = that point: the refinement leaves both alone; g(lo) <=
    # 0 < g(hi) on every other row
    hi = np.where(k >= 0, scan_step + k * scan_step, 1.0)
    lo = np.where(k > 0, scan_step + (k - 1) * scan_step, hi)

    gm_u, gm_e = scaled_gms

    def g(l):
        # one call per pair: on one problem, two calls on numpy scalars cost
        # less than one on the pairs stacked in a (2,) array
        unequal, slope_u = _x_abs_slope(d, l)
        equal, slope_i = _x_abs_slope(0.0, l)
        unequal, equal = unequal - gm_u, equal - gm_e
        harvests = equal > 0.0
        return _lead(unequal, equal, ratio, harvests), _lead(slope_u, slope_i, ratio, harvests)

    lo, hi, iterations = _refine(g, lo, hi, positive_at_lo=False)
    loc = 0.5 * (lo + hi)
    # one Faddeeva evaluation for both pairs at the location and for the
    # identical pair at the bracket's upper end, where the note is decided
    b_re, b_im = _x_bracket(np.concatenate([ds, ds[1:]]), np.array([loc, loc, hi]))[:2]
    unequal, equal = _clamp(_ingredients(*_halves(a, ds, loc, coupling, brackets=brackets,
                                                  x_bracket=(b_re[:2], b_im[:2])))[3])
    identical_at_hi = _over_scale(b_re[2], b_im[2], ds[1], _x_scale(hi, 1.0))[0] - scaled_gms[1]
    note = np.where(identical_at_hi > 0.0, "",
                    "identical-pair concurrence already zero here").astype(object)
    # the grid's first point leads: the crossover lies in (0, that point]
    ahead = k == 0
    note[ahead] = "non-identical pair ahead from the first scanned separation"
    return _batch(loc, unequal - equal, np.where(ahead, 0.0, lo), hi, iterations, note, error)


def find_crossover(
    omega_a_sigma,
    delta_omega_sigma,
    coupling=0.1,
    scan_step=0.01,
) -> SearchResult:
    """Smallest separation at which the non-identical pair overtakes the
    identical pair (equal smaller gap), located by an upward scan for the
    first negative-to-positive sign change of the concurrence difference,
    then safeguarded Newton steps to a certified bracket of at most 8 ulps
    (``iterations`` counts the steps).

    The note "identical-pair concurrence already zero here" marks the point
    where only the non-identical pair still harvests, not a crossing of two
    positive curves.  It is read from the identical pair's scaled excess at
    the bracket's upper end, not from the concurrences at the location,
    which lie within ulps of zero where the crossover is the identical
    pair's own lmax.  The grid ends at its first point that the envelope of
    |X|/E certifies non-harvesting for the non-identical pair: from there on
    the difference cannot turn positive.  The scan starts at the first grid
    point where a lower bound on the identical pair's |X|/E (through
    Dawson's integral, no Faddeeva evaluation) no longer certifies that pair
    ahead of the non-identical pair's envelope; from there a positive first
    point is a sign change.  A difference already positive at the grid's
    first point l_1 is returned there, in the bracket (0, l_1], with 0
    iterations and the note that the non-identical pair is ahead.  The
    answer is that of the full scan bit for bit.  Both pairs are compared
    through their scaled excesses at unit coupling, as :func:`find_lmax`
    follows one, and the ratio of their scales; only ``value``, the
    difference of their ``concurrence_values``, depends on the coupling.
    Raises :exc:`NoCrossover` when the difference is positive nowhere on
    the grid.  One problem per call; :func:`find_crossover_many` solves
    arrays of them.
    """
    batch = find_crossover_many(omega_a_sigma, delta_omega_sigma, coupling, scan_step)
    if batch.error[()] == ValueError.__name__:
        raise ValueError(_UNCERTIFIED)
    if batch.error[()] == NoCrossover.__name__:
        raise NoCrossover("non-identical concurrence never exceeds identical on the scan grid, "
                          "past whose end the envelope certifies it zero")
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
        """``concurrence``, which the benchmark's sweep op reads through this method."""
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
    p_a[ok], p_b[ok], x[ok], excess = _ingredients(*_halves(a[ok], d[ok], l[ok],
                                                            fixed_params.coupling))
    conc[ok] = _clamp(excess)
    return SweepGrid(axis_name, axis_values, fixed_params, conc, x, p_a, p_b, errors)
