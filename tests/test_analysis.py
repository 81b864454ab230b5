"""Searches and sweeps: roots, peaks, crossovers, grid evaluation."""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from udwharvest import (
    BracketingFailure,
    DetectorPairConfig,
    NoCrossover,
    NoHarvestingRegion,
    concurrence,
    concurrence_values,
    correlation_excess,
    find_crossover,
    find_crossover_many,
    find_lmax,
    find_lmax_many,
    find_optimal_gap,
    find_optimal_gap_many,
    geometric_mean_probability,
    lmax_large_gap_estimate,
    sweep,
)
from udwharvest import analysis, closedform
from udwharvest.analysis import SweepGrid


class TestFindLmax:
    def test_large_gap_agrees_with_estimate(self):
        result = find_lmax(4.0, 0.0)
        assert result.converged
        assert abs(result.location - 8.0) <= 0.10 * result.location

    def test_gap_difference_enlarges_range_at_small_gap(self):
        base = find_lmax(0.2, 0.0).location
        wide = find_lmax(0.2, 0.2).location
        assert wide > base

    def test_coupling_invariance(self):
        r1 = find_lmax(0.5, 0.25, coupling=0.05)
        r2 = find_lmax(0.5, 0.25, coupling=0.2)
        assert abs(r1.location - r2.location) <= 1e-10

    def test_root_certificate(self):
        res = find_lmax(0.5, 0.25)
        lo, hi = res.bracket
        assert lo <= res.location <= hi
        scale = max(
            abs(correlation_excess(0.5, 0.25, res.location, 0.1)),
            geometric_mean_probability(0.5, 0.25, 0.1),
        )
        assert abs(res.value) <= 1e-12 * scale
        # still harvesting just inside the boundary
        assert correlation_excess(0.5, 0.25, res.location - 10 * (hi - lo) - 1e-12, 0.1) > 0

    def test_scan_resolution_stability(self):
        coarse = find_lmax(1.2, 1.44, scan_step=0.01).location
        fine = find_lmax(1.2, 1.44, scan_step=0.005).location
        assert abs(coarse - fine) <= 1e-9

    def test_no_harvest_on_coarse_grid(self):
        # a grid that skips the harvesting window reports no region
        with pytest.raises(NoHarvestingRegion):
            find_lmax(0.2, 0.0, scan_bound=20.0, scan_step=5.0)

    def test_bracketing_failure_reports_lower_bound(self):
        with pytest.raises(BracketingFailure) as err:
            find_lmax(0.5, 0.0, scan_bound=1.0)
        assert err.value.lower_bound == 1.0

    def test_determinism(self):
        a = find_lmax(1.2, 0.6)
        b = find_lmax(1.2, 0.6)
        assert a == b


class TestFindOptimalGap:
    def test_boundary_maximum_at_small_separation(self):
        res = find_optimal_gap(0.5, 0.5)
        assert res.location == 0.0
        assert res.converged
        assert res.note != ""

    def test_interior_peak_matches_excess_maximizer(self):
        res = find_optimal_gap(0.5, 2.0)
        assert res.location > 0.0
        ds = np.arange(0.0, 2.0, 2e-4)
        excess = correlation_excess(0.5, ds, 2.0, 0.1)
        assert abs(res.location - ds[np.argmax(excess)]) <= 1e-3

    def test_peak_location_grows_with_separation(self):
        p3 = find_optimal_gap(0.5, 3.0).location
        p4 = find_optimal_gap(0.5, 4.0).location
        assert p4 > p3

    def test_peak_certificate(self):
        gap_bound = 4.0
        res = find_optimal_gap(0.5, 2.0, gap_bound=gap_bound)
        here = concurrence_values(0.5, res.location, 2.0, 0.1)
        for sign in (-1.0, +1.0):
            probe = res.location + sign * 1e-4 * gap_bound
            assert here >= concurrence_values(0.5, probe, 2.0, 0.1)

    def test_all_zero_scan_is_boundary_answer(self):
        # far beyond the harvesting range every sample is zero
        res = find_optimal_gap(0.5, 40.0, gap_bound=1.0)
        assert res.location == 0.0
        assert res.value == 0.0


class TestFindCrossover:
    def test_smaller_difference_crosses_sooner(self):
        c_small = find_crossover(0.5, 0.5 * 0.1).location
        c_large = find_crossover(0.5, 0.5 * 0.6).location
        assert c_small < c_large

    def test_larger_gap_pushes_crossover_out(self):
        c_a = find_crossover(0.5, 0.5 * 0.5).location
        c_b = find_crossover(1.2, 1.2 * 0.5).location
        assert c_b > c_a

    def test_identical_wins_below_crossover(self):
        for ratio in (0.2, 0.5, 1.0, 1.2):
            d = 0.5 * ratio
            assert concurrence_values(0.5, 0.0, 0.3, 0.1) > concurrence_values(
                0.5, d, 0.3, 0.1
            )

    def test_true_crossover_has_both_positive(self):
        res = find_crossover(0.5, 0.25)
        assert res.note == ""
        assert concurrence_values(0.5, 0.0, res.location, 0.1) > 0
        assert concurrence_values(0.5, 0.25, res.location, 0.1) > 0

    def test_one_closed_form_call_per_step(self, monkeypatch):
        # both pairs share each call: one scan block, one value-and-slope
        # call per Newton step (bisection took 46) and the final evaluation
        calls = _closed_form_calls(monkeypatch)
        res = find_crossover(0.5, 0.25)
        assert res.iterations <= 8
        assert [name for name, _, _ in calls] == (
            ["correlation_x_values"] + ["_x_abs_slope"] * res.iterations
            + ["correlation_x_values"])

    def test_batched_refinement_makes_one_closed_form_call_per_step(self, monkeypatch):
        # every call carries both pairs along a leading axis of two; the
        # calls over the whole batch are its lockstep Newton steps and the
        # final evaluation
        calls = _closed_form_calls(monkeypatch)
        batch = find_crossover_many([0.5, 0.5, 1.0], [0.25, 0.5, 0.5])
        assert all(np.shape(d)[0] == 2 for _, d, _ in calls)
        whole = [name for name, d, _ in calls if np.shape(d) == (2, 3)]
        assert whole == ["_x_abs_slope"] * batch.iterations.max() + ["correlation_x_values"]

    @pytest.mark.parametrize("coupling", [0.1, 0.3])
    def test_pair_concurrences_are_the_two_separate_calls(self, coupling):
        # one stacked call gives each pair's concurrence_values bit for bit
        a, d = np.array([0.5, 1.0, 2.0]), np.array([0.25, 0.5, 1.5])
        l = np.array([1.0, 1.5, 0.5])
        gms = np.stack([geometric_mean_probability(a, d, coupling),
                        geometric_mean_probability(a, 0.0, coupling)])
        ds = np.stack([d, np.zeros(3)])
        unequal, equal = analysis._pair_concurrences(gms, a, ds, l, coupling)
        assert (unequal > 0).all() and (equal > 0).all()
        assert np.array_equal(unequal, concurrence_values(a, d, l, coupling))
        assert np.array_equal(equal, concurrence_values(a, 0.0, l, coupling))

    def test_no_crossover_on_short_range(self):
        with pytest.raises(NoCrossover):
            find_crossover(0.5, 0.25, scan_bound=1.0)

    def test_requires_nonidentical(self):
        with pytest.raises(ValueError):
            find_crossover(0.5, 0.0)


def _outcome(search, *args, **kwargs):
    """A search's result as exact bit patterns, or the name of what it raised."""
    try:
        r = search(*args, **kwargs)
    except (NoHarvestingRegion, BracketingFailure, NoCrossover) as exc:
        return type(exc).__name__
    return (r.location.hex(), r.value.hex(), r.bracket[0].hex(), r.bracket[1].hex(),
            r.iterations, r.converged, r.note)


def _row(batch, i):
    """One row of a batched search in the form of :func:`_outcome`."""
    if batch.error[i]:
        assert np.isnan(batch.location[i]) and np.isnan(batch.bracket[i]).all()
        assert batch.iterations[i] == 0 and not batch.converged[i]
        return batch.error[i]
    return (float(batch.location[i]).hex(), float(batch.value[i]).hex(),
            float(batch.bracket[i][0]).hex(), float(batch.bracket[i][1]).hex(),
            int(batch.iterations[i]), bool(batch.converged[i]), batch.note[i])


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _closed_form_calls(monkeypatch):
    """Record every closed-form call of the searches, in order, as (name,
    d, l): the scans and the final evaluation call correlation_x_values,
    each refinement step _x_abs_slope."""
    calls = []
    for name in ("correlation_x_values", "_x_abs_slope"):
        def spy(a, d, l, c, name=name, original=getattr(analysis, name)):
            calls.append((name, d, l))
            return original(a, d, l, c)
        monkeypatch.setattr(analysis, name, spy)
    return calls


def _bisect_loop(f, lo, hi, positive_at_lo):
    iterations = 0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        iterations += 1
        if (f(mid) > 0.0) == positive_at_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, iterations


def _as_outcome(loc, value, lo, hi, iterations, note=""):
    return (float(loc).hex(), float(value).hex(), float(lo).hex(), float(hi).hex(),
            iterations, True, note)


@dataclass
class _Root:
    """A separation search done as a scalar loop over the public closed
    forms on the full grid: the scan cell holding the sign change, the
    root that bisection to floating resolution finds in it and its step
    count, the function whose sign changes, the side that is positive, and
    the note at a location."""

    cell: tuple
    bisected: float
    bisections: int
    f: Callable
    positive_at_lo: bool
    note: Callable = lambda l: ""


def _result(search, *args, **kwargs):
    """A search's result, or the name of what it raised."""
    try:
        return search(*args, **kwargs)
    except (NoHarvestingRegion, BracketingFailure, NoCrossover) as exc:
        return type(exc).__name__


def _step_bound(cell):
    """The steps the refinement may take from a scan cell: bisection's to
    a bracket of 8 ulps of its lower end, plus the slack."""
    lo, hi = cell
    return int(np.ceil(np.log2((hi - lo) / (8.0 * np.spacing(lo))))) + analysis._NEWTON_SLACK


def _assert_refines(got, want, ulps=64):
    """``got`` (a search result or the name of what it raised) refines the
    scalar loop's answer ``want`` (a :class:`_Root` or the name of what it
    raises): the same error, or a bracket inside the loop's scan cell, at
    most 8 ulps wide, that the public closed forms certify as a sign change
    the same way round, located within ``ulps`` of bisection's root, within
    the stated step bound, with the value and note of the public closed
    forms at its location."""
    if isinstance(want, str):
        assert got == want
        return
    lo, hi = got.bracket
    assert want.cell[0] <= lo < hi <= want.cell[1]
    assert hi - lo <= 8.0 * np.spacing(lo)
    assert (want.f(lo) > 0.0) == want.positive_at_lo != (want.f(hi) > 0.0)
    assert got.location == 0.5 * (lo + hi)
    assert abs(got.location - want.bisected) <= ulps * np.spacing(want.bisected)
    assert got.value == want.f(got.location) and got.note == want.note(got.location)
    assert 0 < got.iterations <= _step_bound(want.cell) and got.converged


def _lmax_loop(a, d, coupling, bound=None, step=0.01):
    """find_lmax as a scalar loop over correlation_excess on the full grid."""
    bound = bound or max(10.0, 4.0 * lmax_large_gap_estimate(a, d))
    grid = np.arange(bound, 0.5 * step, -step)
    positive = correlation_excess(a, d, grid, coupling) > 0.0
    if positive[0]:
        return "BracketingFailure"
    if not positive.any():
        return "NoHarvestingRegion"
    k = int(np.argmax(positive))

    def f(l):
        return correlation_excess(a, d, l, coupling)

    cell = float(grid[k]), float(grid[k - 1])
    lo, hi, n = _bisect_loop(f, *cell, True)
    return _Root(cell, 0.5 * (lo + hi), n, f, True)


def _optimal_gap_loop(a, l, coupling, gap_bound=None):
    """find_optimal_gap as a scalar golden-section loop over
    concurrence_values."""

    def c(d):
        return concurrence_values(a, d, l, coupling)

    grid = np.linspace(0.0, gap_bound or max(4.0, l), 256)
    values = c(grid)
    k = int(np.argmax(values))
    if k == 0:
        return _as_outcome(0.0, values[0], 0.0, 0.0, 0,
                           "boundary maximum at zero gap difference")
    note = "maximum at the scan bound; enlarge gap_bound to be sure" if k == 255 else ""
    lo, hi = float(grid[k - 1]), float(grid[min(k + 1, 255)])
    u, v = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fu, fv = float(c(u)), float(c(v))
    n = 0
    while hi - lo > 1e-8:
        n += 1
        if fu > fv:
            hi, v, fv = v, u, fu
            u = hi - _GOLDEN * (hi - lo)
            fu = float(c(u))
        else:
            lo, u, fu = u, v, fv
            v = lo + _GOLDEN * (hi - lo)
            fv = float(c(v))
    return _as_outcome(0.5 * (lo + hi), c(0.5 * (lo + hi)), lo, hi, n, note)


def _crossover_loop(a, d, coupling, bound=None, step=0.01):
    """find_crossover as a scalar loop over concurrence_values on the full
    grid."""

    def g(l):
        return concurrence_values(a, d, l, coupling) - concurrence_values(a, 0.0, l, coupling)

    def note(l):
        both = concurrence_values(a, d, l, coupling) > 0.0 and concurrence_values(a, 0.0, l, coupling) > 0.0
        return "" if both else "identical-pair concurrence already zero here"

    bound = bound or max(10.0, 4.0 * lmax_large_gap_estimate(a, d))
    grid = np.arange(step, bound + 0.5 * step, step)
    positive = g(grid) > 0.0
    transitions = np.flatnonzero(positive[1:] & ~positive[:-1])
    if transitions.size == 0:
        return "NoCrossover"
    k = int(transitions[0]) + 1
    cell = float(grid[k - 1]), float(grid[k])
    lo, hi, n = _bisect_loop(g, *cell, False)
    return _Root(cell, 0.5 * (lo + hi), n, g, False, note)


class TestAgainstScalarLoops:
    """The one-problem searches run the batched core on 0-d inputs; they
    must reproduce plain scalar loops over the public closed forms,
    including which exception they raise: bit for bit for the gap search,
    and for the separation searches the loop's scan cell, refined to a
    certified sign change near the loop's bisection root.  The loops
    evaluate every grid point; the searches skip the certified ones and
    stop at the first block that holds the answer."""

    @pytest.mark.parametrize("a, d", [(0.2, 0.0), (0.5, 0.25), (1.2, 3.6), (4.0, 0.0),
                                      (20.0, 0.0), (30.0, 0.0)])
    def test_find_lmax(self, a, d):
        _assert_refines(_result(find_lmax, a, d), _lmax_loop(a, d, 0.1))

    # scan bound 200: most of the grid lies above the certified start; the
    # roots of (0.5, 0.25) and (4, 0) lie in the first block below it, and
    # at step 0.001 the root of (0.5, 0.25) lies in the second
    @pytest.mark.parametrize("a, d, bound, step", [
        (0.5, 0.25, 200.0, 0.01), (4.0, 0.0, 200.0, 0.01), (1.0, 20.0, 200.0, 0.01),
        (0.2, 0.0, 200.0, 0.01), (0.5, 0.25, None, 0.001), (1.2, 3.6, 15.0, 0.003)])
    def test_find_lmax_where_the_scan_skips_and_stops_early(self, a, d, bound, step):
        got = _result(find_lmax, a, d, scan_bound=bound, scan_step=step)
        _assert_refines(got, _lmax_loop(a, d, 0.1, bound, step))

    @pytest.mark.parametrize("a, l, bound", [(0.5, 0.5, None), (0.5, 2.0, None), (1.2, 4.0, None),
                                             (0.2, 6.5, None), (0.5, 2.0, 0.1)])
    def test_find_optimal_gap(self, a, l, bound):
        want = _optimal_gap_loop(a, l, 0.1, bound)
        assert _outcome(find_optimal_gap, a, l, gap_bound=bound) == want

    @pytest.mark.parametrize("a, d", [(0.2, 0.1), (0.5, 0.25), (1.2, 0.6), (3.0, 0.05),
                                      (1.0, 20.0), (1.1, 2.7)])
    def test_find_crossover(self, a, d):
        _assert_refines(_result(find_crossover, a, d), _crossover_loop(a, d, 0.1))

    # scan bound 200: the walk ends at the certified end or the first sign
    # change; (3.0, 0.05) crosses in the second block, (1.1, 2.7) never.
    # The coarse steps put the sign change at the last point that is not
    # certified (step 1) and a positive difference at the first grid point
    # (step 2, no crossover); at step 0.0061 the sign change is the first
    # point of the second block
    @pytest.mark.parametrize("a, d, bound, step", [
        (0.5, 0.25, 200.0, 0.01), (3.0, 0.05, 200.0, 0.01), (1.1, 2.7, 200.0, 0.01),
        (1.0, 20.0, 200.0, 0.01), (0.5, 1.6, None, 1.0), (0.5, 0.25, None, 2.0),
        (0.5, 0.25, None, 0.0061)])
    def test_find_crossover_where_the_scan_skips_and_stops_early(self, a, d, bound, step):
        got = _result(find_crossover, a, d, scan_bound=bound, scan_step=step)
        _assert_refines(got, _crossover_loop(a, d, 0.1, bound, step))

    def test_find_lmax_evaluates_under_half_its_grid(self, monkeypatch):
        # bound 10, 1000 points; the root near 2.63 lies just below the
        # certified start, so the walk ends in its first block
        points = []
        original = analysis.correlation_x_values
        monkeypatch.setattr(analysis, "correlation_x_values",
                            lambda a, d, l, c: points.append(np.size(l)) or original(a, d, l, c))
        result = find_lmax(0.5, 0.25)
        assert result.converged and 2.0 < result.location < 3.0
        assert sum(points) < 500


class TestNewtonRefinement:
    """The separation searches refine their scan cells by safeguarded
    Newton steps: a handful of steps where bisection took about 46, never
    more than the stated bound, and a final bracket of at most 8 ulps that
    the public closed forms certify as a sign change."""

    # the survey's crossovers (smaller gap, gap ratio) where a Newton step
    # rounds to under one ulp (1.2, 1.2), or lands where both concurrences
    # round to the same value, a difference of exactly zero over several
    # ulps (0.2, 1.2) and (0.5, 1.0)
    @pytest.mark.parametrize("a, ratio", [(1.2, 1.2), (0.2, 1.2), (0.5, 1.0)])
    def test_survey_crossovers_close_in_a_few_steps(self, a, ratio):
        res = find_crossover(a, a * ratio)
        assert res.iterations <= 12
        _assert_refines(res, _crossover_loop(a, a * ratio, 0.1))

    # where the non-identical pair starts to harvest after the identical
    # pair's concurrence has died (the difference has a kink there; 50
    # steps when Newton followed it), and where the difference rounds to
    # exactly zero over about 1700 ulps of the separation (50 steps when
    # the probes crossed it eps at a time)
    @pytest.mark.parametrize("a, d", [(1.411596942608296, 2.651567501746781),
                                      (0.021728449757176027, 0.024722227070988353)])
    def test_hard_crossovers_close_in_fewer_steps_than_bisection(self, a, d):
        # bisection may stop at either end of the stretch of zeros
        want = _crossover_loop(a, d, 0.1)
        res = find_crossover(a, d)
        _assert_refines(res, want, ulps=2048)
        assert res.iterations <= 20 < want.bisections

    # rows whose sqrt(P_A P_B) underflows to zero: |X| decays to zero
    # without a sign change Newton can follow, and an unbounded Newton took
    # 78 steps at the first (bisection 43); a slope of |X| where |X| has
    # underflowed took 49
    @pytest.mark.parametrize("a, d", [(13.119291590584101, 26.67600820711357),
                                      (9.557748467651223, 29.58000783353705)])
    def test_underflow_rows_stay_within_the_step_bound(self, a, d):
        assert geometric_mean_probability(a, d, 0.1) == 0.0
        want = _lmax_loop(a, d, 0.1)
        res = find_lmax(a, d)
        _assert_refines(res, want)
        assert res.iterations <= want.bisections

    def test_a_slope_that_misleads_every_step_keeps_the_bound(self):
        # a sign change whose slope is overstated 1e30 times: every Newton
        # step is far under an ulp, so without the pull toward the midpoint
        # the probes would creep across the cell 4 ulps at a time
        root = 2.001

        def f(l):
            return np.where(l > root, -1.0, 1.0), np.full(np.shape(l), 1e30)

        lo, hi, steps = analysis._refine(f, np.array([2.0]), np.array([2.01]), True)
        assert lo[0] <= root < hi[0] and hi[0] - lo[0] <= 8.0 * np.spacing(2.0)
        assert steps[0] <= _step_bound((2.0, 2.01))

    def test_fig5_rows_take_at_most_ten_lockstep_steps(self):
        gaps = np.array([0.2, 0.5, 1.0, 1.2])[:, None]
        batch = find_lmax_many(gaps, gaps * np.linspace(0.0, 3.0, 400), 1.0)
        assert (batch.error == "").all() and batch.iterations.max() <= 10

    def test_rows_across_the_domain_keep_the_bound_and_a_certified_bracket(self, monkeypatch):
        cells = []
        original = analysis._refine
        monkeypatch.setattr(analysis, "_refine", lambda f, lo, hi, positive_at_lo: (
            cells.append((lo, hi)) or original(f, lo, hi, positive_at_lo)))
        rng = np.random.default_rng(15)
        a, d = rng.uniform(0.0, 40.0, 80), rng.uniform(1e-3, 35.0, 80)
        a[:30], d[:30] = rng.uniform(0.0, 3.0, 30), rng.uniform(1e-3, 3.0, 30)
        lmax, crossover = find_lmax_many(a, d, 0.1), find_crossover_many(a, d, 0.1)

        def difference(l):
            return concurrence_values(a, d, l, 0.1) - concurrence_values(a, 0.0, l, 0.1)

        for batch, (start, end), f, positive_at_lo in (
                (lmax, cells[0], lambda l: correlation_excess(a, d, l, 0.1), True),
                (crossover, cells[1], difference, False)):
            ok = batch.error == ""
            assert 30 <= ok.sum() < ok.size
            bound = [_step_bound(c) for c in zip(start[ok], end[ok])]
            assert (batch.iterations[ok] <= bound).all()
            lo, hi = np.where(ok[:, None], batch.bracket, 1.0).T
            assert (hi[ok] - lo[ok] <= 8.0 * np.spacing(lo[ok])).all()
            assert ((f(lo) > 0.0) == positive_at_lo)[ok].all()
            assert ((f(hi) > 0.0) != positive_at_lo)[ok].all()


class TestBatchedSearches:
    """Each ``*_many`` row is the one-problem search of that row, bit for
    bit: both run the same core, and the closed forms give the same bits
    for scalar and array calls."""

    def test_lmax_rows_match_scalar_bitwise(self):
        # (20, 0) raises BracketingFailure and (30, 0) NoHarvestingRegion:
        # the products underflow there; the rows must only agree
        a = np.array([0.2, 0.5, 1.2, 1.2, 20.0, 30.0])
        d = np.array([0.0, 0.25, 0.6, 3.6, 0.0, 0.0])
        batch = find_lmax_many(a, d, 1.0)
        rows = [_row(batch, i) for i in range(a.size)]
        assert rows == [_outcome(find_lmax, x, y, 1.0) for x, y in zip(a, d)]
        assert rows[-2:] == ["BracketingFailure", "NoHarvestingRegion"]

    def test_optimal_gap_rows_match_scalar_bitwise(self):
        a = np.array([0.2, 0.5, 1.2])[:, None]
        l = np.array([0.5, 1.5, 2.5, 4.0])
        batch = find_optimal_gap_many(a, l, 1.0)
        assert batch.location.shape == (3, 4) and batch.bracket.shape == (3, 4, 2)
        rows = [_row(batch, i) for i in np.ndindex(3, 4)]
        assert rows == [_outcome(find_optimal_gap, a[i, 0], l[j], 1.0)
                        for i, j in np.ndindex(3, 4)]
        assert rows[4][0] == (0.0).hex()  # a boundary maximum at zero
        assert rows[4][-1] == "boundary maximum at zero gap difference"
        assert all(r[-2] for r in rows)

    def test_crossover_rows_match_scalar_bitwise(self):
        a = np.array([0.2, 0.5, 0.5, 1.2])
        d = np.array([0.1, 0.25, 0.25, 0.6])
        bound = np.array([10.0, 10.0, 1.0, 10.0])  # no crossover below 1
        batch = find_crossover_many(a, d, 1.0, scan_bound=bound)
        rows = [_row(batch, i) for i in range(a.size)]
        assert rows == [_outcome(find_crossover, x, y, 1.0, scan_bound=b)
                        for x, y, b in zip(a, d, bound)]
        assert rows[2] == "NoCrossover"

    def test_rows_match_scalar_bitwise_across_the_domain(self):
        rng = np.random.default_rng(5)
        a, y = rng.uniform(0.0, 12.0, 30), rng.uniform(0.05, 6.0, 30)
        for many, one in ((find_lmax_many, find_lmax),
                          (find_optimal_gap_many, find_optimal_gap),
                          (find_crossover_many, find_crossover)):
            batch = many(a, y, 0.1)
            rows = [_row(batch, i) for i in range(a.size)]
            assert rows == [_outcome(one, x, z, 0.1) for x, z in zip(a, y)], one.__name__

    def test_scalar_searches_return_python_scalars(self):
        for r in (find_lmax(0.5, 0.25), find_optimal_gap(0.5, 2.0),
                  find_optimal_gap(0.5, 0.5), find_crossover(0.5, 0.25)):
            assert type(r.location) is float and type(r.value) is float
            assert all(type(b) is float for b in r.bracket)
            assert type(r.iterations) is int
            assert type(r.converged) is bool and type(r.note) is str

    def test_empty_batches_return_empty_rows(self):
        for many in (find_lmax_many, find_optimal_gap_many, find_crossover_many):
            batch = many(np.array([]), np.array([]))
            assert batch.location.shape == (0,) and batch.bracket.shape == (0, 2)

    def test_argument_errors_raise_for_the_whole_batch(self):
        with pytest.raises(ValueError):
            find_crossover_many([0.5, 0.5], [0.25, 0.0])
        with pytest.raises(ValueError):
            find_lmax_many([0.5, 0.5], [0.0, 0.0], scan_bound=[10.0, 0.005])
        with pytest.raises(ValueError):
            find_optimal_gap_many(0.5, [1.0, 2.0], gap_bound=[1.0, 0.0])

    # a non-finite gap bound scanned NaN and reported a converged boundary
    # maximum
    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    def test_non_finite_gap_bound_raises_for_the_whole_batch(self, bound):
        with pytest.raises(ValueError, match="gap_bound must be finite"):
            find_optimal_gap_many(0.5, [1.0, 2.0], gap_bound=[3.0, bound])

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    def test_non_finite_gap_bound_raises_for_one_problem(self, bound):
        with pytest.raises(ValueError, match="gap_bound must be finite"):
            find_optimal_gap(0.5, 2.0, gap_bound=bound)

    def test_scan_grids_that_cannot_be_built_raise_value_error(self):
        # numpy would refuse an infinite bound ("Maximum allowed size
        # exceeded") and fail to allocate a 1e14-point grid; both are
        # checked before any grid is built
        with pytest.raises(ValueError, match="must be finite"):
            find_lmax_many([0.5, 0.5], [0.0, 0.0], scan_bound=[10.0, np.inf])
        with pytest.raises(ValueError, match="must be finite"):
            find_crossover(0.5, 0.25, scan_bound=np.nan)
        with pytest.raises(ValueError, match="exceeds the limit"):
            find_lmax(0.5, 0.25, scan_bound=1e12)
        with pytest.raises(ValueError, match="exceeds the limit"):
            find_crossover_many(0.5, 0.25, scan_bound=1e3, scan_step=1e-5)

    def test_a_row_outside_the_domain_raises_for_the_whole_batch(self):
        # one bad row fails the batch with that row's domain message, the
        # same rule DetectorPairConfig applies
        with pytest.raises(ValueError, match="delta_omega_sigma=40.0 exceeds"):
            find_lmax_many([0.5, 0.5, 1.0], [0.0, 40.0, 0.5])
        with pytest.raises(ValueError, match="omega_a_sigma must be >= 0"):
            find_optimal_gap_many([0.5, -1.0], 2.0)
        with pytest.raises(ValueError, match="l_over_sigma must be > 0"):
            find_optimal_gap(0.5, 0.0)
        with pytest.raises(ValueError, match="coupling must be > 0"):
            find_crossover(0.5, 0.25, coupling=0.0)

    def test_the_searched_gap_axis_is_not_limited_to_the_domain(self):
        # the default gap bound max(4, l) exceeds the largest admitted gap
        # difference at large separations; only the search inputs are checked
        assert find_optimal_gap_many(0.5, 60.0, gap_bound=60.0).error[()] == ""

    def test_lmax_rows_over_several_chunks_match_scalar_bitwise(self):
        a, d, bound = _lmax_rows()
        assert np.sum(bound) / 0.001 > 2 * analysis._SCAN_CHUNK
        batch = find_lmax_many(a, d, 0.1, scan_bound=bound, scan_step=0.001)
        rows = [_row(batch, i) for i in range(a.size)]
        assert rows == [_outcome(find_lmax, x, y, 0.1, scan_bound=b, scan_step=0.001)
                        for x, y, b in zip(a, d, bound)]
        assert rows[1:3] == ["BracketingFailure", "NoHarvestingRegion"]
        _assert_refines(find_lmax(0.5, 0.25, 0.1, 10.0, 0.001),
                        _lmax_loop(0.5, 0.25, 0.1, 10.0, 0.001))

    def test_crossover_rows_over_several_chunks_match_scalar_bitwise(self):
        a, d, bound = _crossover_rows()
        batch = find_crossover_many(a, d, 0.1, scan_bound=bound)
        rows = [_row(batch, i) for i in range(a.size)]
        assert rows == [_outcome(find_crossover, x, y, 0.1, scan_bound=b)
                        for x, y, b in zip(a, d, bound)]
        assert "NoCrossover" in rows and sum(r != "NoCrossover" for r in rows) > 20

    def test_optimal_gap_rows_over_several_chunks_match_scalar_bitwise(self):
        # 150 rows, over several chunks of gap scans; mixed bounds give
        # boundary maxima, interior peaks and peaks at the scan bound
        rng = np.random.default_rng(10)
        a, l = rng.uniform(0.0, 3.0, 150), rng.uniform(0.3, 8.0, 150)
        bound = rng.choice([0.1, 1.0, 3.0, 8.0], 150)
        assert 150 * analysis._GAP_SCAN_POINTS > 2 * analysis._SCAN_CHUNK
        batch = find_optimal_gap_many(a, l, 0.1, gap_bound=bound)
        rows = [_row(batch, i) for i in range(a.size)]
        assert rows == [_outcome(find_optimal_gap, x, y, 0.1, gap_bound=b)
                        for x, y, b in zip(a, l, bound)]
        assert {r[-1] for r in rows} == {"", "boundary maximum at zero gap difference",
                                        "maximum at the scan bound; enlarge gap_bound to be sure"}

    def test_rows_do_not_depend_on_the_chunk_and_block_sizes(self, monkeypatch):
        # tiny chunks and blocks: nearly every row is a chunk of its own and
        # walks many later blocks; every row keeps the bits of the search
        # at the module's sizes
        a, d, bound = _lmax_rows()
        lmax = find_lmax_many(a, d, 0.1, scan_bound=bound, scan_step=0.001)
        a2, d2, bound2 = _crossover_rows()
        crossover = find_crossover_many(a2, d2, 0.1, scan_bound=bound2)
        peak = find_optimal_gap_many(a, d + 0.3, 0.1)
        # at step 0.4 these differences are positive from the first point
        # past the second, so a later block starts after a positive point
        coarse = find_crossover_many([0.0, 0.05, 0.1], [0.5, 0.5, 0.2], 0.1, scan_step=0.4)
        monkeypatch.setattr(analysis, "_SCAN_CHUNK", 700)
        monkeypatch.setattr(analysis, "_SCAN_BLOCK", 2)
        for want, got in (
                (lmax, find_lmax_many(a, d, 0.1, scan_bound=bound, scan_step=0.001)),
                (crossover, find_crossover_many(a2, d2, 0.1, scan_bound=bound2)),
                (peak, find_optimal_gap_many(a, d + 0.3, 0.1)),
                (coarse, find_crossover_many([0.0, 0.05, 0.1], [0.5, 0.5, 0.2], 0.1,
                                             scan_step=0.4))):
            assert [_row(got, i) for i in range(got.error.size)] == \
                [_row(want, i) for i in range(want.error.size)]


def _lmax_rows():
    """24 find_lmax problems at scan step 0.001 whose grids span several
    chunks of rows: mixed bounds, rows raising BracketingFailure (bounds
    below the root) and NoHarvestingRegion ((30, 0), whose products
    underflow, so nothing is certified and its walk runs through every
    block), and (0.5, 0.25), whose root lies in its second block."""
    rng = np.random.default_rng(8)
    a, d = rng.uniform(0.0, 3.0, 24), rng.uniform(0.0, 3.0, 24)
    bound = rng.choice([2.0, 4.0, 6.0, 12.0], 24)
    a[:4], d[:4], bound[:4] = [0.5, 0.5, 30.0, 0.2], [0.25, 0.0, 0.0, 0.0], [10.0, 1.0, 40.0, 3.0]
    return a, d, bound


def _crossover_rows():
    """40 find_crossover problems over several chunks of rows: default
    bounds, bound 200 (a row longer than a chunk) and bound 1 (no
    crossover); most crossovers lie past their first block."""
    rng = np.random.default_rng(9)
    a, d = rng.uniform(0.0, 3.0, 40), rng.uniform(0.02, 3.0, 40)
    bound = rng.choice([np.nan, np.nan, 200.0, 1.0], 40)
    bound = np.where(np.isnan(bound), analysis._default_scan_bound(a, d), bound)
    return a, d, bound


def _fig5_rows():
    """fig5's 1600 find_lmax problems (coupling 1), flat."""
    gaps = np.array([0.2, 0.5, 1.0, 1.2])[:, None]
    a, d = np.broadcast_arrays(gaps, gaps * np.linspace(0.0, 3.0, 400))
    return a.ravel(), d.ravel()


def _reference_grid(bound, step, upward):
    """A row's separation grid built in full by np.arange."""
    if upward:
        return np.arange(step, bound + 0.5 * step, step)
    return np.arange(bound, 0.5 * step, -step)


def _reference_cut(a, d, bound, coupling, upward, step=0.01):
    """A row's cut from the envelope certificate of every point of its full
    grid: the first open point downward, one past the last open point
    upward (the grid's size, or 0, where every point is open)."""
    grid = _reference_grid(bound, step, upward)
    gm = geometric_mean_probability(a, d, coupling)
    envelope = closedform._x_envelope(a, d, grid, coupling)
    usable = np.isfinite(gm) and gm >= np.finfo(float).tiny
    open_ = np.flatnonzero(~(usable & (envelope * (1.0 + analysis._ENVELOPE_MARGIN) < gm)))
    if upward:
        return open_[-1] + 1 if open_.size else 0
    return open_[0] if open_.size else grid.size


class TestScanGrids:
    """The separation scans build no grid: point i is start + i*delta, and
    the certified points end at a cut found by one lockstep search."""

    @pytest.mark.parametrize("step", [0.4, 0.01, 0.001])
    @pytest.mark.parametrize("upward", [False, True])
    def test_index_arithmetic_is_arange_bit_for_bit(self, step, upward):
        rng = np.random.default_rng(15)
        bound = np.concatenate([
            rng.uniform(step, 2.0 * step, 100),  # between one and two steps
            rng.uniform(step, min(400.0, 4e4 * step), 100),
            [np.nextafter(step, np.inf), 2.0 * step, 3.0 * step, 1.0, 10.0, 40.0]])
        bound = bound[bound > step]
        start, delta, n = analysis._grids(bound, step, upward)
        for i, b in enumerate(bound):
            grid = start[i] + np.arange(n[i]) * delta[i]
            assert grid.tobytes() == _reference_grid(b, step, upward).tobytes(), b

    @pytest.mark.parametrize("upward", [False, True])
    def test_bisected_cut_is_the_edge_of_the_per_point_mask(self, upward):
        # fig5's rows, and rows over the whole domain, where the products
        # underflow at large gaps and nothing is certified; as one batch
        # (a bisection), in batches of 40 rows (6 indices per row and step)
        # and one row at a time (256 indices per step)
        rng = np.random.default_rng(16)
        edges = set()
        for (a, d), coupling in ((_fig5_rows(), 1.0),
                                 ((rng.uniform(0.0, 40.0, 400), rng.uniform(0.0, 35.0, 400)), 0.1)):
            bound = analysis._default_scan_bound(a, d)
            start, delta, n = analysis._grids(bound, 0.01, upward)
            gm = geometric_mean_probability(a, d, coupling)
            want = [_reference_cut(x, y, b, coupling, upward) for x, y, b in zip(a, d, bound)]
            for size in (a.size, 40, 1):
                rows = [slice(i, i + size) for i in range(0, min(a.size, 100 * size), size)]
                got = [analysis._cuts(start[r], delta[r], n[r], gm[r], a[r], d[r], coupling, upward)
                       for r in rows]
                assert np.concatenate(got).tolist() == want[:rows[-1].stop], size
            edges |= set(np.array(want) % n == 0)
        assert edges == {False, True}  # cuts inside grids and at their ends


class TestChunkedScanCalls:
    """The scans run over chunks of rows: one closed-form call per chunk,
    for a separation scan per chunk and round of blocks."""

    def test_fig4_scans_in_one_call_per_chunk(self, monkeypatch):
        # fig4's 1600 gap scans take ceil(1600 * 256 / chunk) calls, then
        # the golden section takes two, one per step and one for the peaks
        shapes = []
        original = analysis.correlation_x_values
        monkeypatch.setattr(analysis, "correlation_x_values",
                            lambda a, d, l, c: shapes.append(np.shape(d)) or original(a, d, l, c))
        gaps = np.array([0.2, 0.5, 1.0, 1.2])[:, None]
        batch = find_optimal_gap_many(gaps, np.linspace(0.5, 4.1, 400), 1.0)
        scans = shapes.index((4, 400))
        assert scans <= -(-1600 * analysis._GAP_SCAN_POINTS // analysis._SCAN_CHUNK)
        assert all(np.prod(s) <= analysis._SCAN_CHUNK for s in shapes[:scans])
        assert len(shapes) == scans + 2 + batch.iterations.max() + 1
        assert all(s == (4, 400) for s in shapes[scans:])

    def test_fig5_scans_in_one_first_block_call_per_chunk(self, monkeypatch):
        # fig5's 1600 rows: at most 12 envelope points a row for the cuts
        # (a mask over every grid point takes 1.9 M), then one call per
        # chunk of walked points for the first blocks, where every root
        # lies, then one per Newton step and one at the roots
        a, d = _fig5_rows()
        bound = analysis._default_scan_bound(a, d)
        walked = [_reference_grid(b, 0.01, False).size - _reference_cut(x, y, b, 1.0, False)
                  for x, y, b in zip(a, d, bound)]
        chunks = len(list(analysis._chunks(walked)))
        full = sum(walked) / analysis._SCAN_CHUNK
        assert full <= chunks <= 1.1 * full + 1
        envelope = _envelope_shapes(monkeypatch)
        calls = _closed_form_calls(monkeypatch)
        batch = find_lmax_many(a.reshape(4, 400), d.reshape(4, 400), 1.0)
        assert sum(np.prod(s) for s in envelope) <= 1600 * 12
        shapes = [np.shape(l) for _, _, l in calls]
        assert shapes.index((4, 400)) == chunks
        assert len(shapes) == chunks + batch.iterations.max() + 1

    def test_later_blocks_make_one_call_per_chunk_per_round(self, monkeypatch):
        # round r walks block r of every row of a chunk still walking, in one
        # call, so a chunk makes as many calls as its longest walk has
        # blocks: counted here on the full grid, with the walk ending at the
        # cut of the per-point mask or with the block that holds the first
        # sign change, and the rows chunked by those walks
        a, d, bound = _crossover_rows()
        blocks, stops = [], []
        for x, y, b in zip(a, d, bound):
            grid = _reference_grid(b, 0.01, upward=True)
            stop = _reference_cut(x, y, b, 0.1, upward=True)
            stops.append(stop)
            positive = concurrence_values(x, y, grid, 0.1) > concurrence_values(x, 0.0, grid, 0.1)
            turns = np.flatnonzero(positive[1:stop] & ~positive[:stop - 1]) + 1
            end = turns[0] + 1 if turns.size else stop
            n, walked = 0, 0
            while walked < end:
                walked, n = walked + (analysis._SCAN_BLOCK << n), n + 1
            blocks.append(n)
        chunks = list(analysis._chunks(stops))
        rounds = [max(blocks[c]) for c in chunks]
        assert any(c.stop - c.start > 1 and r > 1 for c, r in zip(chunks, rounds))
        calls = _closed_form_calls(monkeypatch)
        batch = find_crossover_many(a, d, 0.1, scan_bound=bound)
        assert len(calls) - batch.iterations.max() - 1 == sum(rounds) < sum(blocks)

    def test_separation_chunks_stay_within_the_chunk_size(self, monkeypatch):
        # rows of 10, 200 and 1 switching lengths side by side: each round,
        # over the walks of a chunk padded to the longest, holds at most a
        # chunk's points unless it holds one row; the cuts take one envelope
        # call per step, of at most a first block's points
        a, d, bound = _crossover_rows()
        envelope = _envelope_shapes(monkeypatch)
        calls = _closed_form_calls(monkeypatch)
        find_crossover_many(a, d, 0.1, scan_bound=bound)
        rounds = [np.shape(l) for _, _, l in calls if np.ndim(l) == 2]
        assert len(rounds) > 3 and any(s[0] > 1 for s in rounds)
        assert all(s[0] == 1 or np.prod(s) <= analysis._SCAN_CHUNK for s in rounds)
        # 40 rows probe 6 indices each per step, so a step divides every
        # bracket by 7 or more
        n = analysis._grids(bound, 0.01, upward=True)[2]
        steps = next(k for k in range(1, 64) if 7**k > n.max())
        assert 0 < len(envelope) <= steps
        assert all(s[0] <= a.size and s[1] == 6 for s in envelope)

    def test_certificate_needs_a_normal_finite_gm(self, monkeypatch):
        # at (27, 0, 100) the envelope is subnormal: it lies below a
        # subnormal or infinite gm, which certifies nothing; a one-point
        # grid at l = 100 is cut past its point (downward) or before it
        # (upward) only where gm is normal
        gm = np.array([1e-300, 1e-310, 0.0, np.inf, np.nan])
        assert 0.0 < closedform._x_envelope(27.0, 0.0, 100.0, 0.1) < 1e-310
        a, d, start, n = np.full(5, 27.0), np.zeros(5), np.full(5, 100.0), np.ones(5, dtype=int)
        down = analysis._cuts(start, np.full(5, -0.01), n, gm, a, d, 0.1, upward=False)
        up = analysis._cuts(start, np.full(5, 0.01), n, gm, a, d, 0.1, upward=True)
        assert down.tolist() == [1, 0, 0, 0, 0] and up.tolist() == [0, 1, 1, 1, 1]
        # where no row may certify, no envelope is evaluated
        envelope = _envelope_shapes(monkeypatch)
        assert analysis._cuts(start[1:], np.full(4, -0.01), n[1:], gm[1:], a[1:], d[1:], 0.1,
                              upward=False).tolist() == [0, 0, 0, 0]
        assert envelope == []


def _envelope_shapes(monkeypatch):
    """Record the shape of l of every envelope call of the scans."""
    shapes = []
    original = analysis._x_envelope
    monkeypatch.setattr(analysis, "_x_envelope",
                        lambda a, d, l, c: shapes.append(np.shape(l)) or original(a, d, l, c))
    return shapes


class TestSweep:
    BASE = DetectorPairConfig(0.5, 0.25, 2.0, 0.1)

    def test_degenerate_grid(self):
        grid = sweep("l_over_sigma", [2.0], self.BASE)
        report = concurrence(self.BASE)
        assert grid.concurrence.tolist() == [report.concurrence]
        assert grid.x.tolist() == [report.x]
        assert grid.p_a.tolist() == [report.p_a] and grid.p_b.tolist() == [report.p_b]
        assert grid.errors.tolist() == [""]

    def test_reversed_axis_reverses_values_bitwise(self):
        axis = np.linspace(0.5, 4.0, 37)
        fwd = sweep("l_over_sigma", axis, self.BASE)
        rev = sweep("l_over_sigma", axis[::-1], self.BASE)
        assert fwd.concurrences().tolist() == rev.concurrences()[::-1].tolist()

    def test_gap_difference_sweep_shapes(self):
        # one peaked curve at wide separation, monotone at narrow
        ds = np.linspace(0.0, 1.5, 120)
        wide = sweep(
            "delta_omega_sigma", ds, DetectorPairConfig(0.5, 0.0, 2.0, 0.1)
        ).concurrences()
        narrow = sweep(
            "delta_omega_sigma", ds, DetectorPairConfig(0.5, 0.0, 0.5, 0.1)
        ).concurrences()
        k = int(np.argmax(wide))
        assert 0 < k < len(ds) - 1
        assert np.all(np.diff(narrow) < 0.0)

    def test_per_point_errors_flagged_not_fatal(self):
        ds = np.array([0.0, 1.0, 36.0])  # last exceeds the admitted gap difference
        grid = sweep("delta_omega_sigma", ds, self.BASE)
        assert np.isnan(grid.concurrence[2]) and np.isnan(grid.x[2])
        assert np.isnan(grid.p_a[2]) and np.isnan(grid.p_b[2])
        with pytest.raises(ValueError) as exc:
            DetectorPairConfig(0.5, 36.0, 2.0, 0.1)
        assert grid.errors[2] == str(exc.value)
        assert not np.isnan(grid.concurrence[:2]).any() and grid.errors[0] == ""

    def test_every_point_flagged_keeps_the_shape(self):
        grid = sweep("l_over_sigma", [-1.0, 0.0], self.BASE)
        assert np.isnan(grid.concurrences()).all()
        assert list(grid.errors) == ["l_over_sigma must be > 0 (zero separation diverges)"] * 2

    def test_one_closed_form_call_per_sweep(self, monkeypatch):
        calls = []
        original = closedform.correlation_x_values
        monkeypatch.setattr(closedform, "correlation_x_values",
                            lambda *args: calls.append(args) or original(*args))
        sweep("l_over_sigma", np.linspace(0.3, 5.0, 101), self.BASE)
        assert len(calls) == 1

    def test_chunked_sweep_matches_whole_bitwise(self):
        axis = np.linspace(0.3, 5.0, 101)
        whole = sweep("l_over_sigma", axis, self.BASE).concurrences()
        chunks = [
            sweep("l_over_sigma", part, self.BASE).concurrences()
            for part in np.array_split(axis, 7)
        ]
        assert whole.tolist() == np.concatenate(chunks).tolist()

    @pytest.mark.parametrize(
        "axis_name,axis",
        [
            ("l_over_sigma", np.linspace(0.3, 5.0, 101)),
            ("delta_omega_sigma", np.linspace(0.0, 1.5, 101)),
            ("omega_a_sigma", np.linspace(0.0, 2.0, 101)),
        ],
    )
    def test_matches_scalar_concurrence_values_bitwise(self, axis_name, axis):
        swept = sweep(axis_name, axis, self.BASE).concurrences()
        fixed = {
            "omega_a_sigma": self.BASE.omega_a_sigma,
            "delta_omega_sigma": self.BASE.delta_omega_sigma,
            "l_over_sigma": self.BASE.l_over_sigma,
        }
        scalar = []
        for v in axis:
            fixed[axis_name] = float(v)
            scalar.append(
                float(
                    concurrence_values(
                        fixed["omega_a_sigma"],
                        fixed["delta_omega_sigma"],
                        fixed["l_over_sigma"],
                        self.BASE.coupling,
                    )
                )
            )
        assert swept.tolist() == scalar

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep("coupling", [0.1, 0.2], self.BASE)

    def test_grid_type_rejects_nonmonotone_axis(self):
        nan = np.full(3, np.nan)
        with pytest.raises(ValueError):
            SweepGrid(
                axis_name="l_over_sigma",
                axis_values=np.array([1.0, 3.0, 2.0]),
                fixed_params=self.BASE,
                concurrence=nan,
                x=nan.astype(complex),
                p_a=nan,
                p_b=nan,
                errors=np.full(3, "", dtype=object),
            )
