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

The two separation scans evaluate only the grid points their answer
depends on.  A closed-form envelope of |X|, decreasing in the separation
and costing no Faddeeva evaluation, certifies a grid point non-harvesting
wherever it lies below sqrt(P_A P_B) by a relative margin of 1e-6
(:func:`_certified`); such points are skipped, since their sign is known.
:func:`find_lmax` starts its downward walk at the first point that is not
certified, and :func:`find_crossover` ends its upward walk at the last one,
because above it the non-identical concurrence is exactly zero and the
difference cannot turn positive.  The rest of the grid is walked in blocks
of 256 points, each twice the one before, up to the first block that holds
the answer.  The grid itself is built in full, and a closed-form call
gives the same bits for a point whatever the shape of the call, so every
answer, bracket and raised error is bit for bit that of evaluating the
whole grid.  Where sqrt(P_A P_B) underflows to a subnormal number or
zero nothing is certified.  A scan bound must be finite and a scan grid may
hold at most 1e7 points; a larger one raises ValueError before it is built.

Bisections run the bracket down to floating-point resolution, so reported
roots satisfy much tighter certificates than the nominal 1e-10 width.

Each search has a batched form, :func:`find_lmax_many`,
:func:`find_optimal_gap_many` and :func:`find_crossover_many`, which takes
broadcast arrays of problems and returns a :class:`SearchBatch` of arrays
of their shape.  Every row is scanned on its own grid, in chunks of
consecutive rows holding at most 8 k grid points when each is padded to
the longest of them (a longer row is a chunk of its own), so memory stays
that of one chunk.  A chunk of gap scans is one closed-form call over a
(rows, 256) grid.  A chunk of separation scans is one envelope call over
its rows' grids, then one closed-form call per round of blocks over the
rows that have not found their answer yet, each row walking its own next
block.  Then all rows are refined in lockstep: one closed-form array
call per bisection or golden-section step, with each finished row frozen
in place.  A row where the one-problem search would raise carries NaN
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
    _ingredients,
    _x_envelope,
    correlation_x_values,
    geometric_mean_probability,
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

# Largest grid a separation scan builds, in points (80 MB); a much larger
# one fails in numpy's allocator or exhausts memory before its scan starts.
_MAX_SCAN_POINTS = 10**7

# Points of a separation scan's first block; each later block is twice the
# one before, so a scan that stops early evaluates little past its answer
# and one that runs to the end costs a few calls more than one call.
_SCAN_BLOCK = 256

# Points of one chunk of scanned rows, each padded to the longest: the rows
# of a chunk share each call of their scans (the envelope and the first
# block, for a separation scan), and the chunk bounds the memory of those
# calls.  A row longer than a chunk is a chunk of its own.
_SCAN_CHUNK = 8192

# Relative margin of the envelope certificate: it covers the Faddeeva
# kernel's relative error (below 1e-10) and the roundings of |X| many times
# over, and costs a factor of about 1 + 5e-7 on the certified separation.
_ENVELOPE_MARGIN = 1e-6


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


def _certified(gm, a, d, grid, coupling):
    """Where on the rows of a 2-D grid the excess |X| - gm is certified
    <= 0 without evaluating it: where the envelope of |X|, widened by the
    margin, lies below gm.  The envelope multiplies the closed form's own
    prefactor bits, and its bracket bounds the closed form's bracket up to
    the kernel's and the roundings' relative error, which the margin
    covers; a subnormal |X| is off by a few units of 2^-1074 at most, far
    below the margin times a normal gm.  Where gm is zero, subnormal or not
    finite nothing is certified.  gm, a and d are 1-D, one value per
    row."""
    usable = np.isfinite(gm) & (gm >= np.finfo(float).tiny)
    if not usable.any():
        return np.zeros(grid.shape, dtype=bool)
    envelope = _x_envelope(a[:, None], d[:, None], grid, coupling)
    return usable[:, None] & (envelope * (1.0 + _ENVELOPE_MARGIN) < gm[:, None])


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


def _separation_scan(bound, step, gm, a, d, coupling, positive, upward):
    """Walk every row's separation grid to its first turn to positive, in
    chunks of rows; 1-D arrays bound, gm, a and d hold the rows' problems.

    ``positive(rows, l)`` is the sign test of the rows (an index array) at
    separations l, one row of l per row.  An upward grid runs from ``step``
    to the row's bound; the walk runs from its first point to the last one
    the envelope does not certify, and starts as if after a positive
    point, so its first point cannot turn.  A downward grid runs from the
    bound to ``step``; the walk runs from its first point the envelope
    does not certify to the end, and starts as if after a non-positive
    one.  Per chunk, the rows' grids are padded with their last points into
    one array and the envelope is one call over it.  The walks then run in
    lockstep rounds of blocks, each twice the one before: a round is one
    call over the next block of every row without a turn so far, each
    shorter walk padded with its last point, so every row's blocks have the
    boundaries of a walk on its own.  Returns each row's turn index k (-1
    where there is none) and its grid at k and at k-1 (NaN where there is
    no such point)."""
    k = np.full(a.shape, -1)
    at, previous = np.full(a.shape, np.nan), np.full(a.shape, np.nan)
    for chunk in _chunks(bound / step):
        if upward:
            grids = [np.arange(step, b + 0.5 * step, step) for b in bound[chunk]]
        else:
            grids = [np.arange(b, 0.5 * step, -step) for b in bound[chunk]]
        sizes = np.array([g.size for g in grids])
        # the rows' grids padded with their last point into one array
        grid = grids[0][None]
        if sizes.size > 1:
            grid = np.empty((sizes.size, sizes.max()))
            for g, row in zip(grids, grid):
                row[:g.size], row[g.size:] = g, g[-1]
        # the points the envelope does not certify; a row's padding has
        # the certificate of its last point
        open_ = ~_certified(gm[chunk], a[chunk], d[chunk], grid, coupling)
        any_open = open_.any(axis=1)
        if upward:  # up to the last open point
            start = np.zeros(sizes.size, dtype=int)
            last = grid.shape[1] - np.argmax(open_[:, ::-1], axis=1)
            stop = np.where(any_open, np.minimum(last, sizes), 0)
        else:  # from the first open point
            start, stop = np.where(any_open, np.argmax(open_, axis=1), sizes), sizes
        # round r is block r, of _SCAN_BLOCK * 2**r points, of every row
        # still walking; a repeated last point cannot turn again, and a row
        # leaves at its first turn or at its stop
        row_k = np.full(sizes.size, -1)
        rows = np.flatnonzero(stop > start)
        before = np.full(rows.size, upward)
        offset, size = 0, _SCAN_BLOCK
        while rows.size:
            begin, end = start[rows] + offset, stop[rows]
            idx = np.minimum(begin[:, None] + np.arange(min(size, np.max(end - begin))),
                             end[:, None] - 1)
            pos = positive(chunk.start + rows, grid[rows[:, None], idx])
            turns = pos & ~np.concatenate([before[:, None], pos[:, :-1]], axis=1)
            turned = turns.any(axis=1)
            row_k[rows[turned]] = begin[turned] + np.argmax(turns[turned], axis=1)
            going = ~turned & (begin + size < end)
            rows, before = rows[going], pos[going, -1]
            offset, size = offset + size, 2 * size
        ends = np.stack([np.maximum(row_k - 1, 0), np.maximum(row_k, 0)], axis=1)
        found = np.take_along_axis(grid, ends, axis=1)
        k[chunk] = row_k
        at[chunk] = np.where(row_k >= 0, found[:, 1], np.nan)
        previous[chunk] = np.where(row_k > 0, found[:, 0], np.nan)
    return k, at, previous


# The closed forms below are evaluated with row-constant factors computed
# once per search; each helper does the arithmetic of the closed form it
# names, so it gives that function's bits.


def _excess(gm, a, d, l, coupling):
    """``correlation_excess`` with sqrt(P_A P_B) = gm passed in."""
    return np.abs(correlation_x_values(a, d, l, coupling)) - gm


def _gap_concurrence(p_a, a, d, l, coupling):
    """``concurrence_values`` with P_A passed in."""
    p_b = transition_probability(a + d, coupling)
    return _clamp(_excess(np.sqrt(p_a * p_b), a, d, l, coupling))


def _pair_concurrences(gms, a, ds, l, coupling):
    """``concurrence_values`` of the non-identical pair and of the identical
    pair (gap difference 0) in one closed-form call, with their
    sqrt(P_A P_B) and gap differences passed in along a leading axis of
    two (leading, so that numpy's inner loops run along the points)."""
    unequal, equal = _clamp(_excess(gms, a, ds, l, coupling))
    return unequal, equal


def _bisect(f, lo, hi, positive_at_lo):
    """Bisect every row's sign change between lo and hi down to floating
    resolution, one call of f per step for all rows.  A row is finished
    once its midpoint rounds to an end, and is not moved again."""
    iterations = np.zeros(np.shape(lo), dtype=int)
    while True:
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi)
        if not live.any():
            return lo, hi, iterations
        iterations += live
        move_lo = (f(mid) > 0.0) == positive_at_lo
        lo = np.where(live & move_lo, mid, lo)
        hi = np.where(live & ~move_lo, mid, hi)


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

    Each row is scanned on its own grid; then all rows are bisected in
    lockstep.  A row where :func:`find_lmax` would raise carries the
    exception's class name in ``error``.
    """
    a, d, bound = _separation_problems(
        omega_a_sigma, delta_omega_sigma, coupling, scan_bound, scan_step
    )
    gm = np.asarray(geometric_mean_probability(a, d, coupling))
    row_a, row_d, row_gm, row_bound = (x.ravel() for x in (a, d, gm, bound))

    def positive(rows, l):
        return _excess(row_gm[rows, None], row_a[rows, None], row_d[rows, None], l, coupling) > 0.0

    # the walk runs downward, below the leading certified points (which
    # are not positive), to the first positive point
    k, at, above = _separation_scan(row_bound, scan_step, row_gm, row_a, row_d, coupling,
                                    positive, upward=False)
    k = k.reshape(a.shape)
    error = _blank(a.shape)
    error[k < 0] = NoHarvestingRegion.__name__
    error[k == 0] = BracketingFailure.__name__
    # a failed row sits at lo = hi, where the bisection leaves it alone
    failed = k <= 0
    lo = np.where(failed, scan_step, at.reshape(a.shape))  # f(lo) > 0 >= f(hi)
    hi = np.where(failed, scan_step, above.reshape(a.shape))

    def f(l):
        return _excess(gm, a, d, l, coupling)

    lo, hi, iterations = _bisect(f, lo, hi, positive_at_lo=True)
    loc = 0.5 * (lo + hi)
    return _batch(loc, f(loc), lo, hi, iterations, _blank(a.shape), error)


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
    boundary oscillates.  Grid points that an envelope of |X| certifies
    non-harvesting are not evaluated, and the walk stops at the first block
    holding a harvesting point; neither changes the answer, which is bit
    for bit that of evaluating every grid point.  The returned location
    does not depend on the coupling (the excess scales globally by its
    square).  One problem per call; :func:`find_lmax_many` solves arrays of
    them.

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

    Each row is scanned on its own grid; then all rows are bisected in
    lockstep.  A row without a crossover carries ``"NoCrossover"`` in
    ``error``.
    """
    if np.any(np.asarray(delta_omega_sigma) <= 0):
        raise ValueError("delta_omega_sigma must be > 0 to compare against identical")
    a, d, bound = _separation_problems(
        omega_a_sigma, delta_omega_sigma, coupling, scan_bound, scan_step
    )
    gm = np.asarray(geometric_mean_probability(a, d, coupling))
    # both pairs' sqrt(P_A P_B) and gap differences, stacked once per search
    gms = np.stack([gm, geometric_mean_probability(a, 0.0, coupling)])
    ds = np.stack([d, np.zeros(d.shape)])
    row_a, row_d, row_gm, row_bound = (x.ravel() for x in (a, d, gm, bound))
    row_gms, row_ds = gms.reshape(2, -1), ds.reshape(2, -1)

    def positive(rows, l):
        unequal, equal = _pair_concurrences(
            row_gms[:, rows, None], row_a[rows, None], row_ds[:, rows, None], l, coupling)
        return unequal - equal > 0.0

    # at a certified point the non-identical concurrence is 0, so the
    # difference cannot turn positive there: the walk ends at the last
    # point that is not certified, or at the first sign change
    k, at, below = _separation_scan(row_bound, scan_step, row_gm, row_a, row_d, coupling,
                                    positive, upward=True)
    k = k.reshape(a.shape)
    error = _blank(a.shape)
    error[k < 0] = NoCrossover.__name__
    # a failed row sits at lo = hi, where the bisection leaves it alone
    lo = np.where(k < 0, scan_step, below.reshape(a.shape))  # g(lo) <= 0 < g(hi)
    hi = np.where(k < 0, scan_step, at.reshape(a.shape))

    def g(l):
        unequal, equal = _pair_concurrences(gms, a, ds, l, coupling)
        return unequal - equal

    lo, hi, iterations = _bisect(g, lo, hi, positive_at_lo=False)
    loc = 0.5 * (lo + hi)
    unequal, equal = _pair_concurrences(gms, a, ds, loc, coupling)
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
    then bisection.

    If the identical pair's concurrence has already died at the located
    point, the result is flagged: it is then the point where only the
    non-identical pair still harvests, not a crossing of two positive
    curves.  The scan ends at the first sign change, or at the last grid
    point the envelope of |X| does not certify non-harvesting for the
    non-identical pair: above it that pair's concurrence is exactly zero,
    so the difference cannot turn positive, and the answer is that of the
    full scan bit for bit.  Raises :exc:`NoCrossover` when the difference
    never turns positive on the grid.  One problem per call;
    :func:`find_crossover_many` solves arrays of them.
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
